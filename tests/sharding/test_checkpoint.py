"""Shard checkpoint: resume, fingerprint refusal, torn-line tolerance."""

import json

import pytest

from repro.core import OversubscriptionLevel, VMRequest, VMSpec
from repro.core.errors import ShardingError
from repro.hardware import MachineSpec
from repro.sharding import ShardedSimulation
from repro.sharding.dispatcher import _shard_checkpoint
from repro.simulator import result_stream


def _machines(n: int):
    return [MachineSpec(f"pm-{i}", 16, 64.0) for i in range(n)]


def _workload(n: int):
    return [
        VMRequest(
            vm_id=f"vm-{i:04d}",
            spec=VMSpec(2, 8.0),
            level=OversubscriptionLevel(float(1 + i % 3)),
            arrival=float(i),
            departure=float(i) + 15.0 if i % 3 else None,
        )
        for i in range(n)
    ]


def _truncate_to_shards(path, n: int) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[: 1 + n]) + "\n", encoding="utf-8")


def test_checkpointed_run_writes_header_and_one_record_per_shard(tmp_path):
    out = tmp_path / "shards.jsonl"
    sim = ShardedSimulation(
        _machines(6), shards=3, workers=1, checkpoint=str(out)
    )
    sim.run(_workload(30))
    lines = out.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    assert header["kind"] == "header"
    assert header["plan"]["shards"] == 3
    shards = [json.loads(line)["shard"] for line in lines[1:]]
    assert sorted(shards) == [0, 1, 2]


def test_resume_replays_missing_shards_byte_identically(tmp_path):
    out = tmp_path / "shards.jsonl"
    machines, wl = _machines(6), _workload(30)
    full = ShardedSimulation(
        machines, shards=3, workers=1, checkpoint=str(out)
    ).run(wl)

    # Simulate a run killed after one shard completed.
    _truncate_to_shards(out, 1)
    resumed = ShardedSimulation(
        machines, shards=3, workers=1, checkpoint=str(out), resume=True
    ).run(wl)
    assert result_stream(resumed) == result_stream(full)
    # The file is whole again: a second resume runs nothing new.
    again = ShardedSimulation(
        machines, shards=3, workers=1, checkpoint=str(out), resume=True
    ).run(wl)
    assert result_stream(again) == result_stream(full)


def test_resume_tolerates_torn_last_line(tmp_path):
    out = tmp_path / "shards.jsonl"
    machines, wl = _machines(6), _workload(30)
    full = ShardedSimulation(
        machines, shards=3, workers=1, checkpoint=str(out)
    ).run(wl)
    text = out.read_text(encoding="utf-8").splitlines()
    out.write_text("\n".join(text[:2]) + '\n{"kind": "shard", "sh',
                   encoding="utf-8")
    resumed = ShardedSimulation(
        machines, shards=3, workers=1, checkpoint=str(out), resume=True
    ).run(wl)
    assert result_stream(resumed) == result_stream(full)


def test_resume_after_torn_line_leaves_a_whole_checkpoint(tmp_path):
    # The shard a resume appends must start on its own line, so the
    # file holds every shard and a second resume runs nothing.
    out = tmp_path / "shards.jsonl"
    machines, wl = _machines(6), _workload(30)
    full = ShardedSimulation(
        machines, shards=3, workers=1, checkpoint=str(out)
    ).run(wl)
    text = out.read_text(encoding="utf-8")
    cut = text.index("\n", text.index("\n") + 1) + 40  # mid second record
    out.write_text(text[:cut], encoding="utf-8")
    ShardedSimulation(
        machines, shards=3, workers=1, checkpoint=str(out), resume=True
    ).run(wl)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert sorted(json.loads(line)["shard"] for line in lines[1:]) == [0, 1, 2]
    before = out.read_bytes()
    again = ShardedSimulation(
        machines, shards=3, workers=1, checkpoint=str(out), resume=True
    ).run(wl)
    assert out.read_bytes() == before
    assert result_stream(again) == result_stream(full)


def test_resume_refuses_foreign_plan(tmp_path):
    out = tmp_path / "shards.jsonl"
    machines, wl = _machines(6), _workload(30)
    ShardedSimulation(machines, shards=3, workers=1, checkpoint=str(out)).run(wl)
    with pytest.raises(ShardingError, match="different plan or workload"):
        ShardedSimulation(
            machines, shards=2, workers=1, checkpoint=str(out), resume=True
        ).run(wl)


def test_resume_refuses_foreign_trace(tmp_path):
    out = tmp_path / "shards.jsonl"
    machines = _machines(6)
    ShardedSimulation(
        machines, shards=3, workers=1, checkpoint=str(out)
    ).run(_workload(30))
    with pytest.raises(ShardingError, match="different plan or workload"):
        ShardedSimulation(
            machines, shards=3, workers=1, checkpoint=str(out), resume=True
        ).run(_workload(31))


def test_load_rejects_non_checkpoint_files(tmp_path):
    path = tmp_path / "junk.jsonl"
    path.write_text('{"kind": "cell"}\n', encoding="utf-8")
    with pytest.raises(ShardingError, match="no header"):
        _shard_checkpoint(str(path)).load()
    missing = _shard_checkpoint(str(tmp_path / "nope.jsonl"))
    with pytest.raises(ShardingError, match="no shard checkpoint"):
        missing.load()
