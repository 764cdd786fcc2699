"""``shards=1`` byte-identity against the golden decision corpus.

The sharded dispatcher's load-bearing contract: with one shard it must
be indistinguishable — byte for byte — from the unsharded engine.  The
instrumented corpus (``tests/fixtures/golden/``) locks the recorded
decision stream for every policy and kernel name (the retired
``"pruned"`` alias included); the scale corpus
(``tests/fixtures/golden/scale/``, slow tier) locks the uninstrumented
fast path's canonical result stream through the same delegation.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from repro.hardware import MachineSpec
from repro.obs.records import JsonlRecorder
from repro.sharding import ShardedSimulation
from repro.simulator import VectorSimulation, result_stream
from repro.simulator.vectorpool import KERNELS, POLICIES
from repro.workload.traces import load_trace

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN_DIR = FIXTURES / "golden"
SCALE_DIR = GOLDEN_DIR / "scale"

#: Every accepted kernel name: the kernels plus the retired ``"pruned"``
#: alias of ``"incremental"``.
KERNEL_NAMES = (*KERNELS, "pruned")


@pytest.fixture(scope="module")
def workload():
    return load_trace(GOLDEN_DIR / "trace.jsonl")


@pytest.fixture(scope="module")
def machines():
    manifest = json.loads((GOLDEN_DIR / "manifest.json").read_text(encoding="utf-8"))
    return [
        MachineSpec(m["name"], m["cpus"], m["mem_gb"]) for m in manifest["machines"]
    ]


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
@pytest.mark.parametrize("policy", POLICIES)
def test_one_shard_replays_golden_corpus_byte_identically(
    machines, workload, policy, kernel
):
    golden = (GOLDEN_DIR / f"{policy}.jsonl").read_text(encoding="utf-8")
    sink = io.StringIO()
    ShardedSimulation(
        machines,
        policy=policy,
        kernel=kernel,
        shards=1,
        recorder=JsonlRecorder(sink),
    ).run(workload)
    assert sink.getvalue() == golden


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
def test_one_shard_matches_unsharded_result_stream(machines, workload, kernel):
    # Uninstrumented fast path: the dispatcher's shards=1 delegation
    # must return the VectorSimulation result verbatim.
    direct = VectorSimulation(machines, policy="progress", kernel=kernel).run(
        workload
    )
    sharded = ShardedSimulation(
        machines, policy="progress", kernel=kernel, shards=1
    ).run(workload)
    assert result_stream(sharded) == result_stream(direct)


@pytest.mark.slow
@pytest.mark.parametrize("kernel", KERNEL_NAMES)
def test_one_shard_replays_scale_stream_byte_identically(kernel):
    manifest = json.loads((SCALE_DIR / "manifest.json").read_text(encoding="utf-8"))
    machines = [
        MachineSpec(f"pm-{i}", manifest["host_cpus"], manifest["host_mem_gb"])
        for i in range(manifest["num_hosts"])
    ]
    workload = load_trace(SCALE_DIR / "trace.jsonl")
    golden = (SCALE_DIR / "progress.stream").read_text(encoding="utf-8")
    result = ShardedSimulation(
        machines, policy="progress", kernel=kernel, shards=1
    ).run(workload)
    assert result_stream(result) == golden
