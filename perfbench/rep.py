"""One repetition of one workload, in a fresh process.

    python3 perfbench/rep.py --workload NAME --seed N [--trace | --setup-only]
    python3 perfbench/rep.py --warmup

Prints one JSON object as its last line: set-up and run phase in
reference seconds (``setup_s``, ``run_s``, ``total_s``: the wall
rescaled by the host speed sampled meanwhile, see ``hostspeed.py``)
and in raw wall seconds (``wall_*``), simulated events, peak RSS of
this process, the output check and, with ``--trace``, the per-layer
metrics of the traced run (raw wall; spans are written to
``.perfbench-out/`` at the root of the checkout).  ``--setup-only``
stops after the set-up and prints only ``setup_s`` and ``wall_setup_s``.
``--warmup`` only imports the package, so byte-code compilation of a
fresh checkout is not timed.  ``repro`` is imported from ``src/`` of
the checkout this file sits in, never from anywhere else.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_from_checkout() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"error: imported repro from {repro.__file__}, not {SRC}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--warmup", action="store_true")
    args = parser.parse_args()
    if args.warmup:
        _import_from_checkout()
        import repro.analysis.experiments  # noqa: F401
        import repro.serving  # noqa: F401
        return 0

    import hostspeed
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    sampler = hostspeed.SpeedSampler()
    sampler.start()
    started = perf_counter()
    with span("setup"):
        _import_from_checkout()
        if tracer is not None:
            tracing.install(tracer)
        inputs = workload.setup(args.seed)
    ready = perf_counter()
    if args.setup_only:
        sampler.stop()
        print(json.dumps({"setup_s": sampler.reference_seconds(started, ready),
                          "wall_setup_s": ready - started}))
        return 0
    with span("run"):
        output = workload.run(inputs)
    done = perf_counter()
    sampler.stop()
    setup_s = sampler.reference_seconds(started, ready)
    run_s = sampler.reference_seconds(ready, done)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = None
    if tracer is not None:
        # Before the check, whose own calls into wrapped functions (the
        # sizing lower bound) must not count as the program's.
        layers = tracing.layer_metrics(tracer, done - ready)
        tracer.write(ROOT / ".perfbench-out" / f"spans-{args.workload}-{args.seed}.tsv")
    outcome = workload.check(inputs, output)
    record = {
        "setup_s": setup_s,
        "run_s": run_s,
        "total_s": setup_s + run_s,
        "wall_setup_s": ready - started,
        "wall_run_s": done - ready,
        "wall_total_s": done - started,
        "host_speed": sampler.speed(started, done),
        "speed_samples": sampler.count(started, done),
        "rss_mb": rss_mb,
        "events": outcome.events,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "digest": outcome.digest,
        "extra": outcome.extra,
    }
    if layers is not None:
        record["layers"] = layers
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
