"""Host-speed sampling: how fast the vCPU ran while a repetition ran.

The benchmark host is a shared VM.  Its vCPU switches every few seconds
between a fast and a slow mode, about 1.8x apart, as other tenants load
the machine, and the share of slow time over a run varies from run
to run by more than any bound worth setting.  The guest sees no steal
time: CPU time slows with the wall.  So the raw wall of a repetition
says as much about the neighbours as about the program.

:class:`SpeedSampler` interrupts the repetition every ``INTERVAL_S``
seconds with ``SIGALRM`` and times a fixed pure-Python loop (best of
three) on the same thread, a few microseconds per sample.  The program
progresses at a rate proportional to the host's speed, so the time the
same work would take on a host where the loop takes ``REFERENCE_NS``
is the wall of the window times the mean of ``REFERENCE_NS / loop_ns``
over the samples in it: :meth:`SpeedSampler.reference_seconds`.

On six identical repetitions (same seed, fresh process each) the raw
run phase took 3.09-3.98 s on ``paper_sizing`` and 4.04-5.82 s on
``serve_tight``; in reference seconds, 2.78-2.92 and 3.72-3.99.
"""

from __future__ import annotations

import signal
from time import perf_counter, perf_counter_ns

#: Seconds between samples; a sample costs a few microseconds.
INTERVAL_S = 0.01
#: The loop's time in the fast mode of the host the baseline was taken
#: on (2-vCPU KVM guest, Intel Xeon 2.1 GHz, CPython 3.11.7), so that a
#: reference second is about a second on that host when it is quiet.
#: Changing it, or the loop, rescales every reported time.
REFERENCE_NS = 3100.0


def _loop_ns() -> int:
    best = 0
    for _ in range(3):
        began = perf_counter_ns()
        total = 0
        for i in range(150):
            total += i
        took = perf_counter_ns() - began
        if not best or took < best:
            best = took
    return best


class SpeedSampler:
    """Samples the loop's time on ``SIGALRM`` between :meth:`start` and :meth:`stop`.

    The handler runs on the main thread between byte-codes, as every
    workload does, and touches nothing of the program's.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, int]] = []  # (perf_counter, loop ns)
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        self.samples.append((perf_counter(), _loop_ns()))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def speed(self, start: float, end: float) -> float:
        """Mean of ``REFERENCE_NS / loop_ns`` over the samples taken in [start, end).

        A window too short to hold a sample takes the mean over all.
        """
        inside = [ns for at, ns in self.samples if start <= at < end]
        chosen = inside or [ns for _at, ns in self.samples]
        if not chosen:
            raise RuntimeError("the host-speed sampler took no sample")
        return sum(REFERENCE_NS / ns for ns in chosen) / len(chosen)

    def reference_seconds(self, start: float, end: float) -> float:
        """Wall of [start, end) rescaled to a host where the loop takes ``REFERENCE_NS``."""
        return (end - start) * self.speed(start, end)

    def count(self, start: float, end: float) -> int:
        return sum(1 for at, _ns in self.samples if start <= at < end)
