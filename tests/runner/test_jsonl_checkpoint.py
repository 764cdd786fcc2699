"""The shared JSONL checkpoint loader under hostile files.

Whatever a file holds — a valid checkpoint cut at any byte, a corrupt
or missing header, reordered records, lines that are JSON but not
objects — loading either returns records that are in the file or
raises the caller's error type (``RunnerError`` for sweeps,
``ShardingError`` for sharded runs).  A resume always leaves a file
that ends on a complete line.
"""

import json
import shutil
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import RunnerError, ShardingError
from repro.runner.runner import _sweep_checkpoint
from repro.sharding.dispatcher import _shard_checkpoint

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "checkpoints"

#: (fixture, checkpoint factory, the caller's error type)
CALLERS = [
    ("sweep_v2.jsonl", _sweep_checkpoint, RunnerError),
    ("shards.jsonl", _shard_checkpoint, ShardingError),
]
IDS = ["sweep", "shard"]


def _decodable(ckpt, lines: list[bytes]) -> list[tuple]:
    """Every ``(key, value)`` the file's own record lines decode to."""
    out = []
    for line in lines:
        try:
            record = json.loads(line)
            if isinstance(record, dict) and record.get("kind") == ckpt.kind:
                out.append(ckpt.decode(record))
        except Exception:  # noqa: BLE001 — the oracle skips what fails
            continue
    return out


def _fingerprint(name: str) -> str:
    with (FIXTURES / name).open(encoding="utf-8") as fh:
        return json.loads(fh.readline())["fingerprint"]


def _check(path: Path, factory, error) -> None:
    ckpt = factory(str(path))
    raw = path.read_bytes()
    try:
        loaded = ckpt.load()
    except error:
        loaded = None
    if loaded is not None:
        candidates = _decodable(ckpt, raw.split(b"\n"))
        for item in loaded.items():
            assert item in candidates
    try:
        ckpt.start(_fingerprint(path.name), {}, resume=True)
    except error:
        assert path.read_bytes() == raw  # a refused resume writes nothing
        return
    ckpt.close()
    text = path.read_bytes()
    assert text == raw[: raw.rfind(b"\n") + 1]


@pytest.mark.parametrize(("name", "factory", "error"), CALLERS, ids=IDS)
def test_truncation_at_every_byte_offset(tmp_path, name, factory, error):
    raw = (FIXTURES / name).read_bytes()
    path = tmp_path / name
    for offset in range(len(raw) + 1):
        path.write_bytes(raw[:offset])
        _check(path, factory, error)


hostile_lines = st.one_of(
    st.sampled_from([b"[1, 2]", b'"abc"', b"3", b"null", b"true", b"{",
                     b'{"kind": "shard", "ok": true}',
                     b'{"kind": "cell", "status": "ok"}',
                     b'{"kind": "cell", "status": "bogus"}',
                     b'{"kind": "shard", "shard": "x"}',
                     b'{"kind": "header"}', b"\xff\xfe"]),
    st.binary(max_size=40),
    st.text(max_size=40).map(lambda t: t.encode("utf-8")),
)


@pytest.mark.parametrize(("name", "factory", "error"), CALLERS, ids=IDS)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_hostile_files_load_or_raise_the_callers_error(
    tmp_path, name, factory, error, data
):
    lines = (FIXTURES / name).read_bytes().split(b"\n")[:-1]
    header, records = lines[0], lines[1:]
    records = data.draw(st.permutations(records))
    header_mode = data.draw(st.sampled_from(["keep", "drop", "corrupt"]))
    if header_mode == "corrupt":
        header = data.draw(hostile_lines)
    body = list(records)
    for _ in range(data.draw(st.integers(0, 3))):
        body.insert(data.draw(st.integers(0, len(body))), data.draw(hostile_lines))
    out = ([] if header_mode == "drop" else [header]) + body
    text = b"\n".join(out)
    if data.draw(st.booleans()):
        text += b"\n"
    path = tmp_path / name
    path.write_bytes(text)
    _check(path, factory, error)


@pytest.mark.parametrize(("name", "factory", "error"), CALLERS, ids=IDS)
@pytest.mark.parametrize("line", [b"[1, 2]", b'"abc"'])
def test_non_object_lines_raise_the_callers_error(tmp_path, name, factory, error,
                                                  line):
    raw = (FIXTURES / name).read_bytes()
    header, rest = raw.split(b"\n", 1)
    path = tmp_path / name
    path.write_bytes(line + b"\n" + rest)
    with pytest.raises(error, match="no header"):
        factory(str(path)).load()
    path.write_bytes(header + b"\n" + line + b"\n" + rest)
    with pytest.raises(error, match="not a JSON object"):
        factory(str(path)).load()


def test_shard_record_without_an_index_raises_sharding_error(tmp_path):
    path = tmp_path / "shards.jsonl"
    shutil.copyfile(FIXTURES / "shards.jsonl", path)
    with path.open("a", encoding="utf-8") as fh:
        fh.write('{"kind": "shard", "ok": true}\n')
    with pytest.raises(ShardingError, match="malformed shard record"):
        _shard_checkpoint(str(path)).load()


def test_v1_sweep_file_loads_the_same_records():
    v1 = _sweep_checkpoint(str(FIXTURES / "sweep_v1.jsonl")).load()
    v2 = _sweep_checkpoint(str(FIXTURES / "sweep_v2.jsonl")).load()
    assert list(v1) == ["ovhcloud/A/5", "ovhcloud/F/5"]
    assert v1 == v2
