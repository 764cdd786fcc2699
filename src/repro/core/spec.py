"""The one frozen-spec contract: canonical JSON, fingerprints, round trips.

Every value that names a run — :class:`repro.api.RunSpec`,
:class:`repro.serving.ServiceSpec`, :class:`repro.runner.SweepSpec`,
the serving traffic configs — is a frozen dataclass that subclasses
:class:`FrozenSpec`.  The base owns the serialisation, so the specs
only declare fields and validate them in ``__post_init__``:

* ``to_dict`` emits every init field as a JSON primitive (tuples become
  lists, nested specs their own dicts), plus ``"version"`` when the
  class declares one;
* ``from_dict`` refuses a non-mapping payload, a foreign version, an
  unknown field or a missing required one with the class's own error
  type, turns lists back into tuples and constructs (so the payload is
  validated exactly like a direct construction);
* ``fingerprint`` is the 16-hex-digit sha256 of :func:`canonical_json`
  of ``to_dict`` — the key checkpoint headers and reports carry;
* ``replace`` is :func:`dataclasses.replace`, so a copy re-validates.

:func:`canonical_json` is also the byte form of every checkpoint line
and result-stream line, and :func:`check_number` is the one numeric
guard: a chained ``0 < x`` lets NaN through, this does not.
"""

from __future__ import annotations

import dataclasses
import json
import math
from hashlib import sha256
from numbers import Real
from typing import Any, ClassVar, Mapping, Optional, Tuple, Type, TypeVar

from repro.core.errors import ConfigError

__all__ = ["FrozenSpec", "canonical_json", "check_number", "fingerprint_of"]

S = TypeVar("S", bound="FrozenSpec")


def canonical_json(obj: Any) -> str:
    """Compact, key-sorted JSON: equal values give equal bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def fingerprint_of(obj: Any) -> str:
    """The first 16 hex digits of the sha256 of :func:`canonical_json`."""
    return sha256(canonical_json(obj).encode("utf-8")).hexdigest()[:16]


def check_number(
    value: object,
    name: str,
    *,
    positive: bool = True,
    error: Type[Exception] = ConfigError,
) -> float:
    """``value`` as a float; bools, non-numbers, NaN and ±inf raise ``error``.

    With ``positive`` (the default) zero and negative values raise too.
    """
    if isinstance(value, bool) or not isinstance(value, Real):
        raise error(f"{name} must be a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out) or (positive and out <= 0):
        qualifier = "positive and finite" if positive else "finite"
        raise error(f"{name} must be {qualifier}, got {value!r}")
    return out


def _plain(value: Any) -> Any:
    if isinstance(value, FrozenSpec):
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


def _frozen(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_frozen(v) for v in value)
    return value


class FrozenSpec:
    """Serialisation base for frozen dataclass specs.

    Subclasses are ``@dataclass(frozen=True)`` and may set:

    * ``SPEC_VERSION`` — emitted as ``"version"``; ``None`` (the
      default) means the payload has no version key at all;
    * ``ACCEPTED_VERSIONS`` — older versions ``from_dict`` still parses
      (their missing fields take the defaults);
    * ``SPEC_ERROR`` — the exception ``from_dict`` raises.
    """

    __slots__ = ()

    SPEC_VERSION: ClassVar[Optional[int]] = None
    ACCEPTED_VERSIONS: ClassVar[Tuple[int, ...]] = ()
    SPEC_ERROR: ClassVar[Type[Exception]] = ConfigError

    def to_dict(self) -> dict:
        out: dict = {}
        if self.SPEC_VERSION is not None:
            out["version"] = self.SPEC_VERSION
        for f in dataclasses.fields(self):  # type: ignore[arg-type]
            if f.init:
                out[f.name] = _plain(getattr(self, f.name))
        return out

    @classmethod
    def from_dict(cls: Type[S], data: Mapping[str, Any]) -> S:
        error, name = cls.SPEC_ERROR, cls.__name__
        if not isinstance(data, Mapping):
            raise error(f"{name} payload must be a mapping, got {data!r}")
        specs = {f.name: f for f in dataclasses.fields(cls) if f.init}  # type: ignore[arg-type]
        allowed = set(specs)
        if cls.SPEC_VERSION is not None:
            allowed.add("version")
            version = data.get("version", cls.SPEC_VERSION)
            if version not in (cls.SPEC_VERSION, *cls.ACCEPTED_VERSIONS):
                raise error(
                    f"{name} version {version!r} is not supported "
                    f"(this build speaks {cls.SPEC_VERSION})"
                )
        unknown = sorted(str(k) for k in set(data) - allowed)
        if unknown:
            raise error(f"unknown {name} fields: {unknown}")
        missing = sorted(
            n for n, f in specs.items()
            if n not in data
            and f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        )
        if missing:
            raise error(f"{name} needs fields: {missing}")
        return cls(**{k: _frozen(v) for k, v in data.items() if k in specs})

    def fingerprint(self) -> str:
        """Content hash of :meth:`to_dict`; detects spec drift on resume."""
        return fingerprint_of(self.to_dict())

    def replace(self: S, **changes: Any) -> S:
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)  # type: ignore[type-var]
