"""Scale-tier golden conformance: 5000 hosts, byte-level, every kernel.

The main golden corpus (``tests/fixtures/golden/``) locks the
*instrumented* decision stream — but recording disables the engine's
uninstrumented fast loop, so neither the shape-keyed score cache nor
the batched event drain execute under it.  These fixtures lock the
other path: each ``scale/<policy>.stream`` is the canonical result
stream (:func:`repro.simulator.conformance.result_stream` — placements
in arrival order, rejections, SHA-256 of the float64 allocation
timeline) of an **uninstrumented** naive-kernel run over a frozen
5000-host trace, and every kernel name — the retired ``"pruned"``
alias included — must reproduce it byte-for-byte.  At this size the
first-fit chunked scan skips whole blocks and the shape cache replays
long mutation logs, so both run for real here.

Regenerate (deliberate semantics changes only):
``PYTHONPATH=src python scripts/regen_golden.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.hardware import MachineSpec
from repro.simulator import VectorSimulation, result_stream
from repro.simulator.vectorpool import KERNELS, POLICIES
from repro.workload.traces import load_trace

SCALE_DIR = Path(__file__).resolve().parent.parent / "fixtures" / "golden" / "scale"

#: Every accepted kernel name: the kernels plus the retired ``"pruned"``
#: alias, which must keep replaying the stream it always produced.
KERNEL_NAMES = (*KERNELS, "pruned")

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def manifest() -> dict:
    return json.loads((SCALE_DIR / "manifest.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def workload():
    return load_trace(SCALE_DIR / "trace.jsonl")


@pytest.fixture(scope="module")
def machines(manifest):
    return [
        MachineSpec(f"pm-{i}", manifest["host_cpus"], manifest["host_mem_gb"])
        for i in range(manifest["num_hosts"])
    ]


def test_corpus_covers_every_policy(manifest):
    assert sorted(manifest["policies"]) == sorted(POLICIES)
    for policy in POLICIES:
        assert (SCALE_DIR / f"{policy}.stream").is_file()


def test_manifest_matches_trace(manifest, workload):
    assert manifest["num_vms"] == len(workload)


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
@pytest.mark.parametrize("policy", POLICIES)
def test_kernel_reproduces_stream_byte_identically(
    machines, workload, policy, kernel
):
    golden = (SCALE_DIR / f"{policy}.stream").read_text(encoding="utf-8")
    result = VectorSimulation(machines, policy=policy, kernel=kernel).run(workload)
    assert result_stream(result) == golden
