"""Span tracing for the benchmark's traced repetition.

The tracer wraps the public functions of each layer of ``repro`` at the
name the caller actually resolves (a module global such as
``repro.simulator.vectorpool.workload_event_list``, or a method on its
class), records one span per call -- name, start, end, parent -- in
memory, and writes them out once the repetition ends.  All times are
host ``perf_counter`` seconds.

The program is single-threaded and every wrapped function is
synchronous, so spans nest strictly: a stack gives each span its
parent, and a span's self time is its duration minus the time its
children cover.  ``VirtualClock.sleep`` is a coroutine function, so it
is only counted, never timed.
"""

from __future__ import annotations

import functools
import json
from importlib import import_module
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

BENCHMARK_FILE = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
#: Loop spans: their self time is loop, batching and bookkeeping cost
#: that no layer span below them accounts for.
LOOP_SPANS = ("vectorpool.run", "serving.loop")


def layer_metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    metrics = json.loads(BENCHMARK_FILE.read_text())["per_layer"]
    return [(m["name"], m["unit"]) for m in metrics]


def observe(fn, on_result):
    """``fn`` calling ``on_result(result, args, kwargs)`` after each call."""

    @functools.wraps(fn)
    def observed(*args, **kwargs):
        result = fn(*args, **kwargs)
        on_result(result, args, kwargs)
        return result

    return observed


def patch(owner, attr: str, replace):
    """Set ``owner.attr`` to ``replace(owner.attr)``; returns the undo."""
    original = getattr(owner, attr)
    setattr(owner, attr, replace(original))
    return lambda: setattr(owner, attr, original)


class Tracer:
    """In-memory span recorder plus the counters wrappers feed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, int] = {}
        self._stack = [-1]

    def _open(self, name: str) -> int:
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name, fn, on_result=None):
        """``fn`` recording one span per call; ``on_result(result, args,
        kwargs)`` runs after the span closes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced if on_result is None else observe(traced, on_result)

    def counted(self, name, fn):
        """``fn`` counting its calls without a span."""

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counting

    # -- aggregation ---------------------------------------------------------

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        durs = self.durations()
        own = list(durs)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= durs[idx]
        return own

    def write(self, path: Path) -> None:
        """One tab-separated line per span: name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("name\tstart\tend\tparent\n")
            for row in zip(self.names, self.starts, self.ends, self.parents):
                out.write("%s\t%r\t%r\t%d\n" % row)


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions where their callers resolve them."""
    # import_module: ``repro.api.run`` is shadowed by the function
    # ``repro.api.run`` under plain ``import ... as``.
    api_run = import_module("repro.api.run")
    experiments = import_module("repro.analysis.experiments")
    service = import_module("repro.serving.service")
    sizing = import_module("repro.simulator.sizing")
    vectorpool = import_module("repro.simulator.vectorpool")
    import repro.api as api
    import repro.serving as serving
    from repro.controlplane.controller import CloudController, VMState
    from repro.localsched.agent import LocalScheduler
    from repro.obs.metrics import Histogram
    from repro.oversub.controller import OversubController
    from repro.oversub.estimators import CapacityEstimator
    from repro.oversub.monitor import ClusterUsageMonitor
    from repro.scheduling.global_scheduler import ScoreBasedScheduler
    from repro.serving.clock import VirtualClock
    from repro.serving.generator import RequestSource

    wrap, counted = tracer.wrap, tracer.counted

    def on_generate(result, args, kwargs):
        tracer.count("workload.vms", len(result))

    def on_select(result, args, kwargs):
        if result is None:
            tracer.count("vectorpool.select_none")

    def on_run(result, args, kwargs):
        if result.oversub is not None:
            tracer.count("oversub.updates", result.oversub.updates)

    def on_search(result, args, kwargs):
        tracer.count("sizing.searches")
        tracer.count("sizing.probes", len(result.probes))
        tracer.count("sizing.feasible_probes", sum(ok for _, ok in result.probes))

    def search(f):
        # The protocol sizes one dedicated first-fit cluster per level,
        # then the shared cluster under the spec's policy.
        dedicated = wrap("sizing.dedicated", f, on_search)
        shared = wrap("sizing.shared", f, on_search)

        @functools.wraps(f)
        def pick(*args, **kwargs):
            if kwargs.get("policy") == "first_fit":
                return dedicated(*args, **kwargs)
            return shared(*args, **kwargs)

        return pick

    def on_request(ticket, args, kwargs):
        if ticket.state is VMState.PENDING:
            tracer.count("controlplane.pending")

    # Workload generation: build_workload resolves it in repro.api.run.
    patch(api_run, "generate_workload",
           lambda f: wrap("workload.generate", f, on_generate))
    # The benchmark calls the builders through repro.api; serving builds
    # its fleet through the name it imported.
    for name in ("build_machines", "build_config", "build_simulation"):
        patch(api, name, lambda f: wrap("api.build", f))
    patch(service, "build_machines", lambda f: wrap("api.build", f))
    patch(vectorpool, "workload_event_list", lambda f: wrap("events.event_list", f))
    vc = vectorpool.VectorCluster
    patch(vc, "__init__", lambda f: wrap("vectorpool.cluster_init", f))
    patch(vc, "select", lambda f: wrap("vectorpool.select", f, on_select))
    patch(vc, "first_feasible", lambda f: wrap("vectorpool.first_feasible", f))
    patch(vc, "deploy", lambda f: wrap("vectorpool.deploy", f))
    patch(vc, "remove", lambda f: wrap("vectorpool.remove", f))
    patch(vc, "set_effective_capacity", lambda f: wrap("vectorpool.set_capacity", f))
    patch(vectorpool.VectorSimulation, "run",
           lambda f: wrap("vectorpool.run", f, on_run))
    patch(experiments, "minimal_cluster", search)
    patch(sizing, "demand_lower_bound", lambda f: wrap("sizing.lower_bound", f))
    patch(OversubController, "advance", lambda f: wrap("oversub.advance", f))
    patch(ClusterUsageMonitor, "collect", lambda f: wrap("oversub.collect", f))
    patch(CapacityEstimator, "effective_capacity",
           lambda f: wrap("oversub.estimate", f))
    patch(RequestSource, "next_request", lambda f: wrap("serving.next_request", f))
    patch(VirtualClock, "sleep", lambda f: counted("serving.clock.sleeps", f))
    patch(serving, "run_virtual", lambda f: wrap("serving.loop", f))
    patch(service.PlacementService, "report", lambda f: wrap("serving.report", f))
    patch(CloudController, "request",
           lambda f: wrap("controlplane.request", f, on_request))
    patch(CloudController, "delete", lambda f: wrap("controlplane.delete", f))
    patch(ScoreBasedScheduler, "select", lambda f: wrap("scheduling.select", f))
    patch(LocalScheduler, "deploy", lambda f: wrap("localsched.deploy", f))
    patch(LocalScheduler, "remove", lambda f: wrap("localsched.remove", f))
    patch(Histogram, "observe", lambda f: counted("obs.histogram.observes", f))
    patch(Histogram, "snapshot", lambda f: wrap("obs.snapshot", f))


def _percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]; 0 when empty."""
    if not values:
        return 0.0
    data = sorted(values)
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def layer_metrics(tracer: Tracer, run_wall: float) -> dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json``; layers that did not
    run report zero.  ``trace.layer_share`` is the share of the run-phase
    wall that layer spans below the loop spans account for."""
    durs = tracer.durations()
    own = tracer.self_times()
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    calls: dict[str, int] = {}
    per_call: dict[str, list[float]] = {"vectorpool.select": [],
                                        "controlplane.request": []}
    for name, dur, mine in zip(tracer.names, durs, own):
        total[name] = total.get(name, 0.0) + dur
        self_total[name] = self_total.get(name, 0.0) + mine
        calls[name] = calls.get(name, 0) + 1
        if name in per_call:
            per_call[name].append(dur)
    counts = tracer.counts
    selects = calls.get("vectorpool.select", 0)
    requests = calls.get("controlplane.request", 0)
    probes = counts.get("sizing.probes", 0)
    out: dict[str, float] = {name: 0.0 for name, _ in layer_metric_names()}
    # Spans and counters named like the metric: ``<span>.calls``,
    # ``<span>_s`` and ``<counter>``.
    for name in calls:
        if f"{name}.calls" in out:
            out[f"{name}.calls"] = float(calls[name])
        if f"{name}_s" in out:
            out[f"{name}_s"] = total[name]
    for name, n in counts.items():
        if name in out:
            out[name] = float(n)
    out["api.build_s"] = total.get("api.build", 0.0)
    select_us = [d * 1e6 for d in per_call["vectorpool.select"]]
    out["vectorpool.select_p50_us"] = _percentile(select_us, 0.50)
    out["vectorpool.select_p99_us"] = _percentile(select_us, 0.99)
    out["vectorpool.select_none_share"] = (
        counts.get("vectorpool.select_none", 0) / selects if selects else 0.0
    )
    out["vectorpool.run_self_s"] = self_total.get("vectorpool.run", 0.0)
    out["sizing.feasible_probe_share"] = (
        counts.get("sizing.feasible_probes", 0) / probes if probes else 0.0
    )
    out["serving.loop_self_s"] = self_total.get("serving.loop", 0.0)
    out["controlplane.request_p99_us"] = (
        _percentile(per_call["controlplane.request"], 0.99) * 1e6
    )
    out["controlplane.pending_share"] = (
        counts.get("controlplane.pending", 0) / requests if requests else 0.0
    )
    gap = self_total.get("run", 0.0) + sum(self_total.get(n, 0.0) for n in LOOP_SPANS)
    out["trace.layer_share"] = 1.0 - gap / run_wall
    out["trace.spans"] = float(len(durs))
    return out
