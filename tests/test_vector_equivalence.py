"""Packed vs record replay: the bit-identity differential harness.

The core replays a :class:`~repro.common.trace.PackedTrace` through the
lane loop (:func:`repro.cpu.core.run_lanes`) and a plain record stream
through the record-at-a-time loop of :meth:`repro.cpu.core.CoreModel.run`.
The two must be **bit-identical**: same :class:`SimulationResult` (cycles, Top-Down floats,
MPKI, per-line stall dicts), same cache columns, same residency dicts, same
replacement-policy state, same RNG state.

This suite pins that property over the full policy × workload matrix: every
registered replacement policy crossed with every registered workload family,
each replayed through the regular co-design pipeline at a reduced
instruction budget, and with the bench's ``streaming`` shape, whose strides
make the prefetchers issue targets on fetches and data accesses that hit and
miss the L1 alike (the families barely make them issue).
"""

from __future__ import annotations

import random
from array import array

import pytest

from repro.common.trace import PackedTrace
from repro.sim.config import SimulatorConfig
from repro.sim.simulator import SystemSimulator
from repro.testing import equivalence_policy_names
from repro.workloads.families import family_names

#: The workload name of the bench's ``streaming`` shape in the matrix.
BENCH_STREAMING = "bench-streaming"


def equivalence_matrix() -> tuple[tuple[str, str], ...]:
    """Policy-major (policy, workload) rows, in deterministic order."""
    return tuple(
        (policy, family)
        for policy in equivalence_policy_names()
        for family in (*family_names(), BENCH_STREAMING)
    )


#: Cached per-family (warm-up, measured) trace pairs: generated once per
#: test session, shared by every policy row of the matrix.
_TRACES: dict[str, tuple] = {}


def traces_for(family: str):
    """Small deterministic (warm-up, measured) packed traces for a family."""
    if family == BENCH_STREAMING and family not in _TRACES:
        from repro.experiments.bench import build_traces

        records, _ = build_traces("streaming", 5000)
        _TRACES[family] = (
            PackedTrace.from_records(records[:1000]),
            PackedTrace.from_records(records[1000:]),
        )
    if family not in _TRACES:
        from repro.experiments.runner import BenchmarkRunner
        from repro.workloads.families import WorkloadFamilySpec

        spec = WorkloadFamilySpec.of(
            family, instructions=4000, warmup=1000
        ).synthesize()
        runner = BenchmarkRunner(config=SimulatorConfig.scaled())
        prepared = runner._prepare_resolved(spec)
        _TRACES[family] = runner.packed_traces(prepared)
    return _TRACES[family]


def _canonical(value, seen=None):
    """Convert arbitrary mutable state into a comparable-by-value form.

    Policies hang plain helper objects off themselves (e.g. CLIP's
    ``SetDuelingController``) that define no ``__eq__``; a deep copy of
    those would compare by identity and always differ.  Recurse into
    ``__dict__``/``__slots__`` and special-case ``random.Random`` so every
    snapshot bottoms out in primitives."""
    if seen is None:
        seen = set()
    if isinstance(value, random.Random):
        return ("<random>", value.getstate())
    if isinstance(value, (type(None), bool, int, float, str, bytes)):
        return value
    if id(value) in seen:
        return "<cycle>"
    seen = seen | {id(value)}
    if isinstance(value, dict):
        return {key: _canonical(item, seen) for key, item in value.items()}
    if isinstance(value, (list, tuple, array)):
        return [_canonical(item, seen) for item in value]
    if isinstance(value, (set, frozenset)):
        return ("<set>", sorted(repr(item) for item in value))
    state = {}
    if hasattr(value, "__dict__"):
        state.update(vars(value))
    for slot_name in getattr(type(value), "__slots__", ()):
        if hasattr(value, slot_name):
            state[slot_name] = getattr(value, slot_name)
    if not state:
        return repr(value)
    return (
        type(value).__name__,
        {key: _canonical(item, seen) for key, item in state.items()},
    )


def hierarchy_state(hierarchy) -> dict:
    """Full comparable snapshot of the memory system's mutable state."""
    state = {}
    for cache in (
        hierarchy.l1i,
        hierarchy.l1d,
        hierarchy.l2,
        hierarchy.slc,
    ):
        state[cache.name] = {
            "lines": list(cache._lines),
            "valid": bytes(cache._valid),
            "dirty": list(cache._dirty),
            "instr": list(cache._instr),
            "temps": list(cache._temps),
            "pcs": list(cache._pcs),
            "line_map": dict(cache._line_map),
            "policy": _canonical(cache.policy),
        }
    return state


def replay(policy: str, family: str, packed: bool):
    """One warm-up + measured replay; returns (result, end state)."""
    warmup, measured = traces_for(family)
    if not packed:
        warmup, measured = list(warmup), list(measured)
    simulator = SystemSimulator(
        SimulatorConfig.scaled().with_l2_policy(policy), benchmark=family
    )
    simulator.warm_up(warmup)
    result = simulator.run(measured)
    return result, hierarchy_state(simulator.hierarchy)


@pytest.mark.parametrize(
    "policy,family",
    equivalence_matrix(),
    ids=[f"{p}-{f}" for p, f in equivalence_matrix()],
)
def test_engines_bit_identical(policy, family):
    """packed loop == record loop on the full matrix.

    The comparison is exact: dataclass equality on the packaged result
    (covering the float Top-Down accumulators and the per-line stall dicts
    bit for bit) plus deep equality of every cache column, residency dict
    and policy state after the run.
    """
    packed_result, packed_state = replay(policy, family, packed=True)
    record_result, record_state = replay(policy, family, packed=False)
    assert packed_result == record_result
    assert packed_state == record_state
