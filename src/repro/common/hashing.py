"""Stable content hashing for configuration objects, and compact JSON text.

The result store keys cached simulations by a content hash of everything
that determines the outcome of a run: the resolved
:class:`~repro.workloads.spec.WorkloadSpec`, the replacement policy, the
:class:`~repro.sim.config.SimulatorConfig` and the
:class:`~repro.core.pipeline.PipelineOptions`.  For those keys to survive a
process restart (and to be identical across worker processes) the hash must
be computed over a *canonical* representation: dataclasses become dicts in
field order, enums their values, tuples become lists, and dict keys are
coerced to strings (the hashed text sorts them).  Anything else (sets,
arbitrary objects) is rejected loudly rather than hashed ambiguously.

Store entries and the server's responses are written as compact JSON
(:func:`compact_json`, :func:`write_compact_json`): no whitespace, through
CPython's C encoder.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
from typing import Any, Callable, Optional

#: Exact types that are their own canonical form.  Subclasses (``IntEnum``
#: members, ``str`` subclasses) take the general path.
_SCALARS = frozenset((str, int, float, bool, type(None)))


def canonical_payload(obj: Any, strict: bool = True) -> Any:
    """Reduce ``obj`` to JSON-serialisable primitives, deterministically.

    ``strict=True`` (hashing) rejects unknown types loudly; ``strict=False``
    (display/report serialisation) falls back to ``str(obj)``.

    Exact scalars, dicts, lists and tuples are reduced first, and each
    dataclass type's fields are looked up once; every other value takes
    the general branches.  Either way the result is the same.
    """
    kind = type(obj)
    if kind in _SCALARS:
        return obj
    if kind is dict:
        return {
            (
                key
                if type(key) is str
                else str(key) if type(key) is int else _canonical_key(key)
            ): (value if type(value) in _SCALARS else canonical_payload(value, strict))
            for key, value in obj.items()
        }
    if kind is list or kind is tuple:
        return [
            item if type(item) in _SCALARS else canonical_payload(item, strict)
            for item in obj
        ]
    names = _field_names(kind)
    if names is not None:
        payload = {}
        for name in names:
            value = getattr(obj, name)
            payload[name] = (
                value if type(value) in _SCALARS else canonical_payload(value, strict)
            )
        return payload
    if isinstance(obj, enum.Enum):
        return canonical_payload(obj.value, strict)
    if isinstance(obj, dict):
        return {
            _canonical_key(key): canonical_payload(value, strict)
            for key, value in obj.items()
        }
    if isinstance(obj, (list, tuple)):
        return [canonical_payload(item, strict) for item in obj]
    if isinstance(obj, (bool, int, float, str)):
        return obj
    if strict:
        raise TypeError(f"cannot canonicalise {type(obj).__name__!r} for hashing")
    return str(obj)


@functools.cache
def _field_names(kind: type) -> Optional[tuple[str, ...]]:
    """The field names of a dataclass type, ``None`` for any other type
    (classes themselves included: a dataclass *class* is not a value);
    looked up once per type."""
    if dataclasses.is_dataclass(kind) and not issubclass(kind, type):
        return tuple(field.name for field in dataclasses.fields(kind))
    return None


def _canonical_key(key: Any) -> str:
    if isinstance(key, enum.Enum):
        key = key.value
    return str(key)


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(obj: Any) -> str:
    """Canonical JSON text of ``obj`` (sorted keys, no whitespace)."""
    return _CANONICAL.encode(canonical_payload(obj))


def stable_hash(obj: Any) -> str:
    """Hex SHA-256 of the canonical JSON representation of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


# ----------------------------------------------------------- compact JSON
#: ``json.dumps(..., separators=(",", ":"))``.  ``encode`` runs the C
#: encoder, which CPython uses only for one-shot encoding without indent.
_COMPACT = json.JSONEncoder(separators=(",", ":"))


def compact_json(payload: Any) -> str:
    """``json.dumps(payload, separators=(",", ":"))``, in one C-encoder pass."""
    return _COMPACT.encode(payload)


#: Levels of str-keyed dicts and lists :func:`write_compact_json` splits
#: into items, where they hold dicts or lists: enough for a report's
#: ``data`` → ``results`` → workload → policy dicts, so each result is one
#: encoding pass.
_SPLIT_LEVELS = 4


def write_compact_json(payload: Any, handle) -> None:
    """Write :func:`compact_json` of ``payload`` to the text ``handle``.

    The top levels of a large payload are written an item at a time, each
    item encoded in one pass, so its full text never sits in memory: a
    report holding every result of a figure is written a result at a time.
    """
    _write_compact(payload, handle.write, _SPLIT_LEVELS)


def _write_compact(obj: Any, write: Callable[[str], Any], levels: int) -> None:
    kind = type(obj)
    # A dict with a non-str key is encoded in one pass: only the encoder
    # renders such keys as json.dumps does ({1: 2} as {"1":2}).
    if (
        levels
        and kind is dict
        and _holds_containers(obj.values())
        and all(type(key) is str for key in obj)
    ):
        opener = "{"
        for key, value in obj.items():
            write(opener + _COMPACT.encode(key) + ":")
            _write_compact(value, write, levels - 1)
            opener = ","
        write("}")
    elif levels and kind is list and _holds_containers(obj):
        opener = "["
        for item in obj:
            write(opener)
            _write_compact(item, write, levels - 1)
            opener = ","
        write("]")
    else:
        write(_COMPACT.encode(obj))


def _holds_containers(values) -> bool:
    return any(type(value) is dict or type(value) is list for value in values)
