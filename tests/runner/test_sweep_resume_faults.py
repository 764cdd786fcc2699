"""Checkpoint resume and worker-side fault capture."""

import json
from pathlib import Path

import pytest

from repro.core.errors import RunnerError
from repro.runner import SweepSpec, run_sweep
from repro.runner.runner import _cell_payload, _run_cell, _sweep_checkpoint

SPEC = SweepSpec(
    providers=("ovhcloud",),
    mixes=("A", "C", "F", "O"),
    seeds=(5,),
    target_population=40,
)


def _truncate_after(path: Path, n_cells: int) -> list[str]:
    """Keep the header plus the first ``n_cells`` records; return kept keys."""
    lines = path.read_text(encoding="utf-8").splitlines()
    kept = lines[: 1 + n_cells]
    path.write_text("\n".join(kept) + "\n", encoding="utf-8")
    return [json.loads(line)["key"] for line in kept[1:]]


def test_resume_runs_only_missing_cells(tmp_path):
    out = tmp_path / "sweep.jsonl"
    full = run_sweep(SPEC, workers=1, out=str(out))
    assert full.ok and len(full.executed) == 4

    # Simulate a sweep killed after two cells.
    kept = _truncate_after(out, 2)
    resumed = run_sweep(SPEC, workers=2, out=str(out), resume=True)
    assert resumed.ok
    assert sorted(resumed.skipped) == sorted(kept)
    assert sorted(resumed.executed) == sorted(
        set(r.key for r in full.results.values()) - set(kept)
    )
    # The resumed result set equals the uninterrupted one.
    assert resumed.results == full.results
    # And the checkpoint now satisfies a second resume completely.
    again = run_sweep(SPEC, workers=1, out=str(out), resume=True)
    assert again.executed == () and len(again.skipped) == 4


def test_resume_tolerates_torn_last_line(tmp_path):
    out = tmp_path / "sweep.jsonl"
    full = run_sweep(SPEC, workers=1, out=str(out))
    text = out.read_text(encoding="utf-8").splitlines()
    # A kill mid-write leaves a truncated record on the last line.
    out.write_text("\n".join(text[:2]) + '\n{"kind": "cell", "pro',
                   encoding="utf-8")
    resumed = run_sweep(SPEC, workers=1, out=str(out), resume=True)
    assert resumed.ok
    assert len(resumed.skipped) == 1 and len(resumed.executed) == 3
    assert resumed.results == full.results


def test_resume_after_torn_line_leaves_a_whole_checkpoint(tmp_path):
    # The record a resume appends must not be glued onto the torn
    # fragment: a second resume has to find every cell.
    out = tmp_path / "sweep.jsonl"
    full = run_sweep(SPEC, workers=1, out=str(out))
    text = out.read_text(encoding="utf-8")
    cut = text.index("\n", text.index("\n") + 1) + 40  # mid second record
    out.write_text(text[:cut], encoding="utf-8")
    resumed = run_sweep(SPEC, workers=1, out=str(out), resume=True)
    assert len(resumed.executed) == 3
    again = run_sweep(SPEC, workers=1, out=str(out), resume=True)
    assert again.executed == ()
    assert again.results == full.results
    assert all(line.startswith("{") and line.endswith("}")
               for line in out.read_text(encoding="utf-8").splitlines())


def test_resume_refuses_foreign_checkpoint(tmp_path):
    out = tmp_path / "sweep.jsonl"
    run_sweep(SPEC, workers=1, out=str(out))
    other = SweepSpec(
        providers=("ovhcloud",), mixes=("A",), seeds=(6,), target_population=40
    )
    with pytest.raises(RunnerError, match="different sweep spec"):
        run_sweep(other, workers=1, out=str(out), resume=True)


def test_resume_requires_checkpoint_path():
    with pytest.raises(RunnerError, match="requires a checkpoint path"):
        run_sweep(SPEC, resume=True)


def test_failed_cell_is_recorded_and_siblings_complete(tmp_path):
    # An unknown provider fails at worker-side catalog resolution; the
    # sibling provider's cells must still complete.
    spec = SweepSpec(
        providers=("ovhcloud", "nosuch"),
        mixes=("F",),
        seeds=(5,),
        target_population=40,
    )
    out = tmp_path / "faulty.jsonl"
    result = run_sweep(spec, workers=2, out=str(out))
    assert not result.ok
    ok = result.results["ovhcloud/F/5"]
    failed = result.results["nosuch/F/5"]
    assert ok.ok and ok.outcome is not None
    assert failed.status == "failed" and failed.outcome is None
    # RunSpec parsing happens inside the worker's fault capture, so a
    # bad knob is a failed record (ConfigError), not a crashed sweep.
    assert failed.error["type"] == "ConfigError"
    assert "unknown provider" in failed.error["message"]
    assert "Traceback" in failed.error["traceback"]
    assert failed.seed == 5  # the seed needed to replay the failure
    with pytest.raises(RunnerError, match="1/2 sweep cells failed"):
        result.raise_on_failure()

    # The failure is checkpointed like any other record...
    loaded = _sweep_checkpoint(str(out)).load(spec.fingerprint())
    assert loaded["nosuch/F/5"].status == "failed"
    # ...and a resume retries exactly the failed cell.
    resumed = run_sweep(spec, workers=1, out=str(out), resume=True)
    assert resumed.executed == ("nosuch/F/5",)
    assert resumed.skipped == ("ovhcloud/F/5",)
    assert not resumed.ok


def test_infeasible_sizing_is_captured_not_raised():
    # A machine far smaller than the smallest flavor makes the sizing
    # search throw inside the worker; the sweep must survive it.
    spec = SweepSpec(
        providers=("ovhcloud",),
        mixes=("A",),
        seeds=(5,),
        target_population=5,
        machine_cpus=1,
        machine_mem_gb=0.5,
    )
    result = run_sweep(spec, workers=1)
    assert not result.ok
    (failure,) = result.failures()
    assert failure.error["type"] == "SimulationError"


def test_run_cell_payload_roundtrip():
    # The worker function is a pure record transformer over primitives.
    cell = SPEC.cells()[0]
    record = _run_cell(_cell_payload(SPEC, cell))
    assert record["status"] == "ok"
    assert record["key"] == cell.key
    assert record["elapsed_s"] > 0
    assert record["outcome"]["seed"] == cell.seed
