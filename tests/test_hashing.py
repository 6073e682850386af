"""Tests for the content-hashing encoder and the compact JSON writer.

``canonical_payload`` keys every stored run and trace capture and renders
every report, so its fast paths for exact built-in types and known
dataclass types must give exactly what the general walk gives.  The walk as
it was before those fast paths is kept here as the reference
(:func:`reference_canonical_payload`), and both are compared on generated
values and on every real type the program hashes or stores.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import json
import types
from dataclasses import InitVar, dataclass
from typing import Any, ClassVar

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.session import Session
from repro.api.scenario import Scenario
from repro.cache.replacement.spec import PolicySpec
from repro.common.hashing import (
    canonical_json,
    canonical_payload,
    compact_json,
    write_compact_json,
)
from repro.core.pipeline import PipelineOptions
from repro.osmodel.pages import OverlapPolicy
from repro.sim.config import SimulatorConfig
from repro.workloads.families import WorkloadFamilySpec, resolve_workload
from repro.workloads.spec import get_spec


# --------------------------------------------------------------- reference
def reference_canonical_payload(obj: Any, strict: bool = True) -> Any:
    """``canonical_payload`` before its fast paths (only renamed)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: reference_canonical_payload(getattr(obj, f.name), strict)
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return reference_canonical_payload(obj.value, strict)
    if isinstance(obj, dict):
        return {
            _reference_canonical_key(key): reference_canonical_payload(value, strict)
            for key, value in obj.items()
        }
    if isinstance(obj, (list, tuple)):
        return [reference_canonical_payload(item, strict) for item in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if strict:
        raise TypeError(f"cannot canonicalise {type(obj).__name__!r} for hashing")
    return str(obj)


def _reference_canonical_key(key: Any) -> str:
    if isinstance(key, enum.Enum):
        key = key.value
    return str(key)


def reference_canonical_json(obj: Any) -> str:
    """``canonical_json`` before the fast paths."""
    return json.dumps(
        reference_canonical_payload(obj), sort_keys=True, separators=(",", ":")
    )


def reference_result_to_dict(result) -> dict:
    """``SimulationResult.to_dict`` before it became ``canonical_payload``."""
    payload = dataclasses.asdict(result)
    payload["line_stall_cycles"] = {
        str(k): v for k, v in result.line_stall_cycles.items()
    }
    payload["line_miss_counts"] = {
        str(k): v for k, v in result.line_miss_counts.items()
    }
    return payload


def reference_multicore_to_dict(result) -> dict:
    """``MulticoreResult.to_dict`` before it became ``canonical_payload``."""
    return {
        "cores": [reference_result_to_dict(core) for core in result.cores],
        "interleave": list(result.interleave),
        "occupancy": {str(k): v for k, v in result.occupancy.items()},
        "inter_core_evictions": {
            str(k): v for k, v in result.inter_core_evictions.items()
        },
        "evictions_caused": {str(k): v for k, v in result.evictions_caused.items()},
    }


def text(payload: Any) -> str:
    """JSON text in insertion order: tells 1, 1.0 and true apart and sees
    the order of keys, which ``==`` on payloads does not."""
    return json.dumps(payload, separators=(",", ":"))


def assert_same_as_reference(value: Any) -> None:
    """Both encoders give equal payloads and canonical text, or both raise
    ``TypeError``, in strict and in lenient mode."""
    for strict in (True, False):
        try:
            expected = reference_canonical_payload(value, strict)
        except TypeError:
            with pytest.raises(TypeError):
                canonical_payload(value, strict)
            continue
        payload = canonical_payload(value, strict)
        assert payload == expected
        assert text(payload) == text(expected)
        if strict:
            assert canonical_json(value) == reference_canonical_json(value)


# ------------------------------------------------------- generated values
class Colour(enum.Enum):
    RED = "red"
    GREEN = 2
    BLUE = 2.5


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Mode(str, enum.Enum):
    FAST = "fast"
    SLOW = "slow"


class Tag(str):
    """A str subclass that renders as itself."""


class Shout(str):
    """A str subclass whose ``str()`` differs from its text."""

    def __str__(self) -> str:
        return self.upper() + "!"


class Registry(dict):
    """A dict subclass."""


@dataclass(frozen=True)
class Point:
    x: Any
    y: Any = 0
    unit: ClassVar[str] = "m"


@dataclass(frozen=True)
class Labelled(Point):
    label: Any = ""


class PlainPoint(Point):
    """Not decorated: a dataclass only by inheritance."""


@dataclass(slots=True)
class Slotted:
    a: Any
    b: Any


@dataclass
class Nested:
    point: Point
    extra: Any
    scale: InitVar[int] = 1

    def __post_init__(self, scale: int) -> None:
        pass


ENUMS = [*Colour, *Level, *Mode]

keys = st.one_of(
    st.text(max_size=6),
    st.integers(),
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
    st.sampled_from(ENUMS),
    st.text(max_size=6).map(Tag),
    st.text(max_size=6).map(Shout),
)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.sampled_from([-0.0, 0.0, 1e308, -1e308, 5e-324, float("inf")]),
    st.text(max_size=6),
    st.sampled_from(ENUMS),
    st.text(max_size=6).map(Tag),
    st.text(max_size=6).map(Shout),
    # Types the strict walk rejects and the lenient one renders with str().
    st.frozensets(st.integers(0, 3), max_size=2).map(set),
    st.just(Point),
    st.just(object),
)


def containers(children):
    dicts = st.dictionaries(keys, children, max_size=4)
    return st.one_of(
        dicts,
        dicts.map(collections.OrderedDict),
        dicts.map(Registry),
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.builds(Point, children, children),
        st.builds(Labelled, children, children, children),
        st.builds(PlainPoint, children, children),
        st.builds(Slotted, children, children),
        st.builds(Nested, st.builds(Point, children), children),
    )


values = st.recursive(scalars, containers, max_leaves=24)


class TestCanonicalPayload:
    @settings(
        max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(values)
    def test_matches_the_reference_walk(self, value):
        assert_same_as_reference(value)

    @pytest.mark.parametrize("key", [*ENUMS, Tag("t"), Shout("s"), 1.5, True, None])
    def test_non_str_keys_match_the_reference(self, key):
        assert_same_as_reference({key: [key], "plain": {key: key}})

    def test_strict_mode_rejects_a_set(self):
        for value in ({"a": [{1, 2}]}, Point({1}), [Slotted(0, {2})]):
            with pytest.raises(TypeError):
                canonical_payload(value)
        assert canonical_payload({"a": {1}}, strict=False) == {"a": "{1}"}

    def test_a_dataclass_class_is_not_a_value(self):
        with pytest.raises(TypeError):
            canonical_payload(Point)
        assert canonical_payload([Point], strict=False) == [str(Point)]


# ------------------------------------------------------------ real types
def real_values() -> dict[str, Any]:
    family = "zipf:alpha=1.2,instructions=6000,warmup=2000"
    return {
        "scaled config": SimulatorConfig.scaled(),
        "paper config": SimulatorConfig.paper(),
        "policy config": SimulatorConfig.scaled().with_l2_policy("ship:shct_bits=3"),
        "pipeline options": PipelineOptions(),
        "other pipeline options": PipelineOptions(
            apply_pgo=False,
            overlap_policy=list(OverlapPolicy)[-1],
            pad_sections_to_page=True,
        ),
        "catalog spec": get_spec("sqlite"),
        "family spec": WorkloadFamilySpec.parse(family),
        "family workload": resolve_workload(family),
        "policy spec": PolicySpec.of("ship:shct_bits=3"),
        "bare policy spec": PolicySpec.of("trrip-1"),
    }


@pytest.fixture(scope="module")
def simulated():
    """A tiny policy sweep and a two-core co-run."""
    session = Session()
    sweep = session.sweep(["tiny"], policies=["lru", "trrip-1"])
    [corun] = session.run(Scenario(cores=("tiny", "tiny"), interleave=(2, 1)))
    return sweep, corun.result


class TestRealTypes:
    @pytest.mark.parametrize("name", sorted(real_values()))
    def test_matches_the_reference_walk(self, name):
        assert_same_as_reference(real_values()[name])

    def test_results_match_the_reference_walk(self, simulated):
        sweep, multicore = simulated
        assert_same_as_reference(sweep)
        for row in sweep.results.values():
            for result in row.values():
                assert result.line_stall_cycles, "nothing would be pinned"
                assert_same_as_reference(result)
        assert_same_as_reference(multicore)

    def test_to_dict_matches_the_old_bodies(self, simulated):
        sweep, multicore = simulated
        for row in sweep.results.values():
            for result in row.values():
                assert text(result.to_dict()) == text(reference_result_to_dict(result))
        assert text(multicore.to_dict()) == text(reference_multicore_to_dict(multicore))
        assert multicore.occupancy, "nothing would be pinned"


# ----------------------------------------------------------- compact JSON
json_keys = st.one_of(
    st.text(max_size=6), st.integers(), st.floats(), st.booleans(), st.none()
)
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6)
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.dictionaries(json_keys, children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
    ),
    max_leaves=40,
)


def written(payload: Any) -> list[str]:
    """The chunks :func:`write_compact_json` hands its handle."""
    chunks: list[str] = []
    write_compact_json(payload, types.SimpleNamespace(write=chunks.append))
    return chunks


class TestCompactJson:
    @settings(max_examples=300, deadline=None)
    @given(json_values)
    def test_equals_json_dumps(self, payload):
        expected = json.dumps(payload, separators=(",", ":"))
        assert compact_json(payload) == expected
        assert "".join(written(payload)) == expected

    def test_non_str_keys_at_every_level(self):
        payload = {
            1: {"a": [{"b": {2: [1.5, None]}}]},
            "x": [{"y": {True: {}, None: [], 2.5: "z"}}],
            "deep": {"a": {"b": {"c": {"d": {"e": {7: [8]}}}}}},
        }
        expected = json.dumps(payload, separators=(",", ":"))
        assert compact_json(payload) == expected
        assert "".join(written(payload)) == expected
        assert '"1":' in expected and '"true":' in expected

    def test_writes_a_report_one_result_at_a_time(self):
        result = {
            "cycles": 1.5,
            "topdown": {"retire": 1.0},
            "line_stall_cycles": {str(line): line / 3 for line in range(200)},
        }
        report = {
            "schema": 1,
            "text": "table",
            "data": {
                "policies": ["srrip", "lru"],
                "results": {
                    workload: {"srrip": result, "lru": result}
                    for workload in ("a", "b", "c")
                },
            },
        }
        chunks = written(report)
        assert "".join(chunks) == json.dumps(report, separators=(",", ":"))
        assert max(len(chunk) for chunk in chunks) == len(compact_json(result))

    def test_file_handle(self, tmp_path):
        payload = {"a": [{"b": 1}], "c": {"d": [2, {"e": None}]}}
        path = tmp_path / "entry.json"
        with open(path, "w", encoding="utf-8") as handle:
            write_compact_json(payload, handle)
        assert path.read_text(encoding="utf-8") == compact_json(payload)
        assert json.loads(path.read_text(encoding="utf-8")) == payload
