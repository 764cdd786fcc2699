"""Append-only JSONL checkpoints with resume, for sweeps and sharded runs.

File layout (one :func:`~repro.core.spec.canonical_json` object per
line):

* line 1 — header: ``{"kind": "header", "version": 1, "fingerprint":
  ..., **payload}``, where the caller's payload names what the
  fingerprint covers (a sweep's ``"spec"``, a sharded run's ``"plan"``);
* then one ``{"kind": <record kind>, ...}`` record per *completed*
  unit (a sweep cell, a shard), flushed as it completes, in completion
  order.

Completion order is nondeterministic under a process pool, so the
byte-identity contract between two runs holds for the *sorted* line
sets, not the raw files.  A killed writer loses at most its in-flight
units and leaves at most one torn last line; loading ignores that
line, and a resume cuts the file back to its last complete line before
appending, so the next record starts on a line of its own.  Each caller
decodes its records into ``(key, value)`` (cell key, shard index); a
key seen twice (a failure retried by a resume) resolves to its last
record.  Anything else malformed — a header or record that is not a
JSON object, a record its decoder rejects — raises the caller's error
type.  Floats survive the JSON round trip bit-identically (``json``
emits ``repr`` and parses it back exactly).
"""

from __future__ import annotations

import os
from json import loads
from pathlib import Path
from typing import Callable, Generic, Hashable, Mapping, Optional, TextIO, Type, TypeVar

from repro.core.errors import ReproError
from repro.core.spec import canonical_json

__all__ = ["JsonlCheckpoint"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

#: What :func:`_parse` returns for a line that is not valid JSON.
_TORN = object()

#: Exceptions a record decoder raises on a malformed record.
_DECODE_ERRORS = (
    ArithmeticError, AttributeError, LookupError, TypeError, ValueError, ReproError
)


def _parse(line: bytes) -> object:
    try:
        return loads(line)
    except ValueError:  # JSONDecodeError, UnicodeDecodeError
        return _TORN


class JsonlCheckpoint(Generic[K, V]):
    """One run's JSONL result file (writer + resume loader).

    ``kind`` is the record kind this file holds; ``decode`` turns one
    such record into ``(key, value)``; ``error`` is the exception type
    every refusal raises; ``label`` and ``source`` word the messages
    ("no {label} checkpoint", "a different {source}").
    """

    def __init__(
        self,
        path: str | Path,
        *,
        kind: str,
        decode: Callable[[dict], tuple[K, V]],
        error: Type[ReproError],
        label: str,
        source: str,
    ):
        self.path = Path(path)
        self.kind = kind
        self.decode = decode
        self.error = error
        self.label = label
        self.source = source
        self._fh: Optional[TextIO] = None

    # -- writing -------------------------------------------------------------

    def start(
        self, fingerprint: str, payload: Mapping, resume: bool = False
    ) -> dict[K, V]:
        """Open the checkpoint and return already-completed records.

        With ``resume=False`` any existing file is truncated and a
        fresh header (``payload`` beside ``fingerprint``) written.  With
        ``resume=True`` an existing file is validated against
        ``fingerprint``, cut back to its last complete line, and its
        records returned; a missing file degrades to a fresh start.
        """
        if resume and self.path.exists():
            done, end = self._scan(fingerprint)
            if end < self.path.stat().st_size:
                os.truncate(self.path, end)
            self._fh = self.path.open("a", encoding="utf-8")
            return done
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w", encoding="utf-8")
        self._write({"kind": "header", "version": 1, "fingerprint": fingerprint,
                     **payload})
        return {}

    def append(self, record: Mapping) -> None:
        if self._fh is None:
            raise self.error("checkpoint not started")
        self._write({**record, "kind": self.kind})

    def _write(self, obj: Mapping) -> None:
        assert self._fh is not None
        self._fh.write(canonical_json(obj) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- reading -------------------------------------------------------------

    def load(self, fingerprint: Optional[str] = None) -> dict[K, V]:
        """Parse the file into ``{key: last decoded record}``.

        When ``fingerprint`` is given the header must match — a
        checkpoint from a different spec must not silently satisfy a
        resume.
        """
        return self._scan(fingerprint)[0]

    def _scan(self, fingerprint: Optional[str]) -> tuple[dict[K, V], int]:
        """The decoded records and the byte length of the complete lines."""
        if not self.path.exists():
            raise self.error(f"no {self.label} checkpoint at {self.path}")
        raw = self.path.read_bytes()
        end = raw.rfind(b"\n") + 1  # anything after the last newline is torn
        lines = raw[:end].splitlines()
        if not lines:
            raise self.error(f"{self.path} is empty")
        header = _parse(lines[0])
        if not isinstance(header, dict) or header.get("kind") != "header":
            raise self.error(
                f"{self.path} is not a {self.label} checkpoint (no header)"
            )
        if fingerprint is not None and header.get("fingerprint") != fingerprint:
            raise self.error(
                f"checkpoint {self.path} was produced by a different "
                f"{self.source} (fingerprint {header.get('fingerprint')} != "
                f"{fingerprint}); refusing to resume"
            )
        records: dict[K, V] = {}
        for number, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            record = _parse(line)
            if record is _TORN:
                continue  # a torn line an older writer appended onto
            if not isinstance(record, dict):
                raise self.error(
                    f"{self.path} line {number} is not a JSON object"
                )
            if record.get("kind") != self.kind:
                continue
            try:
                key, value = self.decode(record)
                records[key] = value
            except _DECODE_ERRORS as exc:
                raise self.error(
                    f"{self.path} line {number} is a malformed {self.kind} "
                    f"record: {type(exc).__name__}: {exc}"
                ) from None
        return records, end
