"""Performance benchmark — incremental vs naive placement kernel.

Runs the ``repro bench engine`` harness on a small grid, verifies the
kernels place identically (the harness does this per cell), and
asserts the incremental kernel is faster on the scored-policy cell —
the speedup grows with cluster size (the committed
``BENCH_engine.json`` holds the full-grid numbers), so the threshold
here is deliberately loose for small grids and noisy machines.
Publishes the measured table to
``benchmarks/results/engine_kernel_speedup.txt``.
"""

from conftest import publish

from repro.bench import EngineBenchSpec, run_engine_bench

SPEC = EngineBenchSpec(
    hosts=(500,),
    policies=("progress", "first_fit", "best_fit"),
    vms_per_host=3.0,
)


def test_engine_kernel_speedup():
    payload = run_engine_bench(SPEC)
    lines = [
        f"placement-kernel speedup, {SPEC.hosts[0]} hosts "
        f"({payload['cells'][0]['num_events']} events, verified identical "
        "placements)",
    ]
    by_policy = {}
    for cell in payload["cells"]:
        speedup = cell["speedups"]["incremental"]
        by_policy[cell["policy"]] = speedup
        inc = cell["kernels"]["incremental"]["events_per_s"]
        naive = cell["kernels"]["naive"]["events_per_s"]
        lines.append(
            f"  {cell['policy']:20s} incremental {inc:9.0f} ev/s  "
            f"naive {naive:9.0f} ev/s  speedup {speedup:5.2f}x"
        )
    publish("engine_kernel_speedup", "\n".join(lines))
    # Scored policies must beat the naive kernel even at this small
    # scale; first_fit's naive arm is already cheap (no score array),
    # so it only has to stay in the same ballpark.
    assert by_policy["progress"] > 1.05
    assert by_policy["best_fit"] > 1.05
    assert by_policy["first_fit"] > 0.7
