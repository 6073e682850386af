"""Determinism regression tests for the fast simulation engine.

The engine promises three equalities, all bit-exact:

1. running the same workload twice produces identical ``SimulationResult``s;
2. the packed-trace fast loop reproduces the record-at-a-time loop exactly
   (same MPKI, IPC and Top-Down numbers, down to float identity);
3. pooled plan execution returns results identical — and identically
   ordered — to in-process execution, for every kind of executor unit.
"""

from __future__ import annotations

import pytest

from repro.api import Scenario, Session
from repro.common.trace import PackedTrace
from repro.core.pipeline import CoDesignPipeline
from repro.experiments.store import ResultStore
from repro.experiments.supervisor import SupervisedPool
from repro.experiments.sweep import run_policy_sweep
from repro.sim.config import SimulatorConfig
from repro.sim.simulator import SystemSimulator
from repro.workloads.families import resolve_workload
from repro.workloads.spec import InputSet, get_spec, tiny_spec

#: Every scalar field of SimulationResult that must match bit-for-bit.
RESULT_FIELDS = (
    "benchmark",
    "policy",
    "config_name",
    "instructions",
    "cycles",
    "ipc",
    "l2_inst_misses",
    "l2_data_misses",
    "l2_inst_mpki",
    "l2_data_mpki",
    "l1i_mpki",
    "branch_mpki",
    "dram_accesses",
)

WARMUP = 4000
MEASURED = 12000


def assert_results_identical(a, b) -> None:
    for field in RESULT_FIELDS:
        assert getattr(a, field) == getattr(b, field), field
    assert a.topdown == b.topdown
    assert a.line_stall_cycles == b.line_stall_cycles
    assert a.line_miss_counts == b.line_miss_counts


@pytest.fixture(scope="module")
def prepared():
    return CoDesignPipeline().prepare(get_spec("sqlite"))


def _run(prepared, policy: str, packed: bool):
    config = SimulatorConfig.scaled().with_l2_policy(policy)
    simulator = SystemSimulator(
        config, translator=prepared.mmu(), benchmark=prepared.spec.name
    )
    generator = prepared.trace_generator(InputSet.EVALUATION)
    if packed:
        warmup = generator.take_packed(WARMUP)
        measured = generator.take_packed(MEASURED)
    else:
        warmup = generator.take(WARMUP)
        measured = generator.take(MEASURED)
    simulator.warm_up(warmup)
    return simulator.run(measured)


class TestEngineDeterminism:
    def test_same_workload_twice_is_bit_identical(self, prepared):
        first = _run(prepared, "srrip", packed=False)
        second = _run(prepared, "srrip", packed=False)
        assert_results_identical(first, second)

    @pytest.mark.parametrize("policy", ("srrip", "lru", "ship", "trrip-1"))
    def test_packed_path_matches_record_path(self, prepared, policy):
        via_records = _run(prepared, policy, packed=False)
        via_packed = _run(prepared, policy, packed=True)
        assert_results_identical(via_records, via_packed)

    def test_packed_trace_from_records_equals_generator_packed(self, prepared):
        generator = prepared.trace_generator(InputSet.EVALUATION)
        records = generator.take(2000)
        generator.reset()
        packed = generator.take_packed(2000)
        repacked = PackedTrace.from_records(records)
        assert list(packed.pc) == list(repacked.pc)
        assert list(packed.flags) == list(repacked.flags)
        assert list(packed.mem_address) == list(repacked.mem_address)
        assert packed.to_records() == records


#: Two workloads, so a plan over both forms two tasks and ``jobs=2`` forks.
WORKLOADS = (
    tiny_spec(),
    resolve_workload("zipf:alpha=1.2,instructions=6000,warmup=2000"),
)


def _grid(session, jobs):
    """Lockstep units: the (benchmark x policy) grid of ``Session.sweep``."""
    sweep = session.sweep(WORKLOADS, ("srrip", "trrip-1"), jobs=jobs)
    return [
        (f"{benchmark}/{policy}", result, None)
        for benchmark, row in sweep.results.items()
        for policy, result in row.items()
    ]


def _plan(*scenarios):
    def run(session, jobs):
        return [
            (request.benchmark, artifacts.result, artifacts.reuse)
            for request, artifacts in zip(
                session.plan(*scenarios).requests,
                session.run(*scenarios, jobs=jobs),
            )
        ]

    return run


#: One plan per kind of executor unit.
UNIT_KINDS = {
    "lockstep": _grid,
    "reuse": _plan(
        Scenario(benchmarks=WORKLOADS, policies="srrip", track_reuse=True)
    ),
    "multicore": _plan(*(Scenario(cores=(spec, spec)) for spec in WORKLOADS)),
}


def _store_bytes(root):
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted((root / "runs").rglob("*"))
        if path.is_file()
    }


class TestParallelSweepDeterminism:
    @pytest.mark.parametrize("kind", sorted(UNIT_KINDS))
    def test_parallel_grid_matches_serial(self, kind, tmp_path, monkeypatch):
        """Pooled tasks give the in-process results, histograms and store
        bytes."""
        pools = []
        start = SupervisedPool.run
        monkeypatch.setattr(
            SupervisedPool,
            "run",
            lambda pool, tasks, **kw: pools.append(len(tasks))
            or start(pool, tasks, **kw),
        )
        runs = {}
        for jobs in (1, 2):
            store = ResultStore(tmp_path / f"jobs{jobs}", backend="dir")
            session = Session(config=SimulatorConfig.scaled(), store=store)
            runs[jobs] = UNIT_KINDS[kind](session, jobs)
        assert pools == [2]
        assert [name for name, _, _ in runs[1]] == [name for name, _, _ in runs[2]]
        for (_, serial, serial_reuse), (_, pooled, pooled_reuse) in zip(
            runs[1], runs[2]
        ):
            assert serial.to_dict() == pooled.to_dict()
            if kind == "reuse":
                assert [h.counts for h in serial_reuse.histograms()] == [
                    h.counts for h in pooled_reuse.histograms()
                ]
        assert _store_bytes(tmp_path / "jobs1") == _store_bytes(tmp_path / "jobs2")

    def test_checkpointed_sweep_matches_serial(self, tmp_path, monkeypatch):
        """``repro sweep``'s per-workload tasks on two workers give the
        one-worker results and store bytes."""
        workers = []
        start = SupervisedPool.run
        monkeypatch.setattr(
            SupervisedPool,
            "run",
            lambda pool, tasks, **kw: workers.append(pool.workers)
            or start(pool, tasks, **kw),
        )
        sweeps = {}
        for jobs in (1, 2):
            store = ResultStore(tmp_path / f"jobs{jobs}", backend="dir")
            session = Session(config=SimulatorConfig.scaled(), store=store)
            checkpointed = session.sweep_checkpointed(
                benchmarks=WORKLOADS, policies=("lru", "trrip-1"), jobs=jobs
            )
            assert checkpointed.report.complete
            sweeps[jobs] = checkpointed.sweep
        assert workers == [1, 2]
        assert sweeps[1].benchmarks == sweeps[2].benchmarks
        for benchmark in sweeps[1].benchmarks:
            serial = sweeps[1].results[benchmark]
            pooled = sweeps[2].results[benchmark]
            assert list(serial) == list(pooled)
            for policy in serial:
                assert serial[policy].to_dict() == pooled[policy].to_dict()
        assert _store_bytes(tmp_path / "jobs1") == _store_bytes(tmp_path / "jobs2")

    def test_sweep_ordering_is_benchmark_major(self):
        sweep = run_policy_sweep(
            benchmarks=("sqlite",), policies=("lru",), jobs=None
        )
        assert sweep.benchmarks == ("sqlite",)
        assert list(sweep.results["sqlite"].keys())[0] == sweep.baseline_policy
