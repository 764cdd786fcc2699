"""Compatibility pins: spec fingerprints and committed checkpoint files.

A fingerprint names a run in every checkpoint header and report, so a
refactor of the serialisation must leave these digests unchanged.  The
files under ``tests/fixtures/checkpoints/`` were written by an earlier
release (``sweep_v1.jsonl`` carries a version-1 sweep header); each
must still load and resume to the same results.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.api import RunSpec
from repro.core import OversubscriptionLevel, VMRequest, VMSpec
from repro.core.errors import RunnerError
from repro.hardware import MachineSpec
from repro.runner import SweepSpec, run_sweep
from repro.serving import ServiceSpec
from repro.sharding import ShardedSimulation, ShardPlan
from repro.simulator import result_stream

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "checkpoints"

#: The grid ``sweep_v2.jsonl`` and ``sweep_v1.jsonl`` were written for.
SWEEP = SweepSpec(
    providers=("ovhcloud",), mixes=("A", "F"), seeds=(5,), target_population=40
)


@pytest.mark.parametrize(
    ("spec", "fingerprint"),
    [
        (RunSpec(), "d763d6f0187a0539"),
        (RunSpec(mix="F", oversub="percentile", num_hosts=2000), "981bf768534c71a8"),
        (ServiceSpec(), "c6f37dcdfbec0747"),
        (SweepSpec(), "bdff7b4c5eee723c"),
        (SweepSpec(seeds=(1, 2)), "754952bb7ecde9b9"),
    ],
    ids=["runspec", "runspec-f", "servicespec", "sweepspec", "sweepspec-seeds"],
)
def test_spec_fingerprints_are_pinned(spec, fingerprint):
    assert spec.fingerprint() == fingerprint


def test_shard_plan_fingerprint_is_pinned():
    assert ShardPlan.build(8, 2).fingerprint("abc") == "82755659188ceabd"


def _copy(name: str, tmp_path: Path) -> Path:
    target = tmp_path / name
    shutil.copyfile(FIXTURES / name, target)
    return target


def _keep_records(path: Path, n: int) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[: 1 + n]) + "\n", encoding="utf-8")


def test_sweep_v2_fixture_resumes_without_rerunning(tmp_path):
    out = _copy("sweep_v2.jsonl", tmp_path)
    before = out.read_bytes()
    resumed = run_sweep(SWEEP, workers=1, out=str(out), resume=True)
    assert resumed.ok
    assert resumed.executed == ()
    assert sorted(resumed.skipped) == ["ovhcloud/A/5", "ovhcloud/F/5"]
    assert out.read_bytes() == before


def test_sweep_v2_fixture_resumes_to_the_same_results(tmp_path):
    whole = run_sweep(
        SWEEP, workers=1, out=str(_copy("sweep_v2.jsonl", tmp_path)), resume=True
    )
    out = tmp_path / "partial.jsonl"
    shutil.copyfile(FIXTURES / "sweep_v2.jsonl", out)
    _keep_records(out, 1)
    resumed = run_sweep(SWEEP, workers=1, out=str(out), resume=True)
    assert resumed.executed == ("ovhcloud/F/5",)
    assert resumed.results == whole.results
    # The re-run cell was appended byte-for-byte as the fixture holds it.
    assert out.read_bytes() == (FIXTURES / "sweep_v2.jsonl").read_bytes()


def test_sweep_v1_header_parses_and_its_resume_is_refused(tmp_path):
    lines = (FIXTURES / "sweep_v1.jsonl").read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    assert header["spec"]["version"] == 1
    # A v1 spec parses: the fields v2 added take their defaults.
    assert SweepSpec.from_dict(header["spec"]) == SWEEP
    v2_lines = (FIXTURES / "sweep_v2.jsonl").read_text(encoding="utf-8").splitlines()
    assert lines[1:] == v2_lines[1:]
    # A v1 fingerprint never matches a v2 spec, so resuming is refused
    # rather than silently mixing results across schema versions.
    out = _copy("sweep_v1.jsonl", tmp_path)
    with pytest.raises(RunnerError, match="different sweep spec"):
        run_sweep(SWEEP, workers=1, out=str(out), resume=True)


def _shard_inputs():
    machines = [MachineSpec(f"pm-{i}", 16, 64.0) for i in range(6)]
    workload = [
        VMRequest(
            vm_id=f"vm-{i:04d}",
            spec=VMSpec(2, 8.0),
            level=OversubscriptionLevel(float(1 + i % 3)),
            arrival=float(i),
            departure=float(i) + 15.0 if i % 3 else None,
        )
        for i in range(30)
    ]
    return machines, workload


def test_shard_fixture_resumes_to_the_same_results(tmp_path):
    machines, workload = _shard_inputs()
    fresh = ShardedSimulation(machines, shards=3, workers=1).run(workload)
    out = _copy("shards.jsonl", tmp_path)
    before = out.read_bytes()
    resumed = ShardedSimulation(
        machines, shards=3, workers=1, checkpoint=str(out), resume=True
    ).run(workload)
    assert result_stream(resumed) == result_stream(fresh)
    assert out.read_bytes() == before  # every shard came from the file

    _keep_records(out, 1)
    partial = ShardedSimulation(
        machines, shards=3, workers=1, checkpoint=str(out), resume=True
    ).run(workload)
    assert result_stream(partial) == result_stream(fresh)
