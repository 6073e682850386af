"""Lockstep multi-policy replay: bit-identical to independent runs.

A figure sweep replays one workload trace under N L2 replacement policies.
Lockstep execution decodes the trace once, computes branch outcomes and
fetch-boundary events once, and advances the N hierarchies together; these
tests pin that every observable result equals the N independent solo runs,
through every layer (core loop, simulator pair, runner with a store, and
Session plan execution).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api.scenario import Scenario
from repro.api.session import Session
from repro.common.temperature import Temperature
from repro.core.pipeline import CoDesignPipeline
from repro.cpu.core import run_lanes
from repro.experiments.bench import build_traces
from repro.experiments.runner import BenchmarkRunner
from repro.experiments.store import ResultStore
from repro.osmodel.mmu import MMU
from repro.osmodel.page_table import PageTable
from repro.sim.config import SimulatorConfig
from repro.sim import simulator as simulator_module
from repro.sim.simulator import SystemSimulator, run_lockstep
from repro.testing import make_session
from repro.workloads.families import resolve_workload
from repro.workloads.spec import InputSet, get_spec, tiny_spec
from tests.test_determinism import assert_results_identical
from tests.test_vector_equivalence import hierarchy_state

POLICIES = ("srrip", "lru", "trrip-1", "ship")

WARMUP = 3000
MEASURED = 9000


@pytest.fixture(scope="module")
def prepared():
    return CoDesignPipeline().prepare(get_spec("sqlite"))


@pytest.fixture(scope="module")
def traces(prepared):
    generator = prepared.trace_generator(InputSet.EVALUATION)
    return generator.take_packed(WARMUP), generator.take_packed(MEASURED)


def _solo(prepared, traces, policy):
    warmup, measured = traces
    config = SimulatorConfig.scaled().with_l2_policy(policy)
    simulator = SystemSimulator(
        config, translator=prepared.mmu(), benchmark=prepared.spec.name
    )
    simulator.warm_up(warmup)
    return simulator.run(measured)


class TestLockstepCore:
    def test_lockstep_matches_solo_for_every_policy(self, prepared, traces):
        warmup, measured = traces
        simulators = [
            SystemSimulator(
                SimulatorConfig.scaled().with_l2_policy(policy),
                translator=prepared.mmu(),
                benchmark=prepared.spec.name,
            )
            for policy in POLICIES
        ]
        lockstep_results = run_lockstep(simulators, warmup, measured)
        for policy, result in zip(POLICIES, lockstep_results):
            assert_results_identical(result, _solo(prepared, traces, policy))

    def test_single_simulator_group_matches_solo(self, prepared, traces):
        warmup, measured = traces
        simulator = SystemSimulator(
            SimulatorConfig.scaled().with_l2_policy("srrip"),
            translator=prepared.mmu(),
            benchmark=prepared.spec.name,
        )
        (result,) = run_lockstep([simulator], warmup, measured)
        assert_results_identical(result, _solo(prepared, traces, "srrip"))

    def test_mismatched_core_configuration_rejected(self, prepared, traces):
        config_a = SimulatorConfig.scaled()
        config_b = SimulatorConfig.scaled()
        config_b.core.dispatch_width = config_a.core.dispatch_width + 2
        simulators = [
            SystemSimulator(config_a, benchmark="a"),
            SystemSimulator(config_b, benchmark="b"),
        ]
        with pytest.raises(ValueError):
            run_lanes([([s.core for s in simulators], traces[1])])


class TestLaneSharedWork:
    """A lane translates each access and trains the prefetchers once, on its
    lead core, and hands every core the physical line and the targets.

    Pinned on a trace whose strides the prefetchers learn (the bench's
    ``streaming`` shape), through an MMU that demand-maps its pages and
    tags its code pages, so a translation or a target list handed to the
    wrong core or to the wrong access changes some core's caches."""

    POLICIES = ("srrip", "trrip-1", "ship", "lru")
    INSTRUCTIONS = 12_000

    @staticmethod
    def page_table() -> PageTable:
        """Code pages tagged hot, warm or cold in turn; data pages are
        demand-mapped, interleaving their frames with the code's."""
        table = PageTable(page_size=4096)
        temperatures = (Temperature.HOT, Temperature.WARM, Temperature.COLD)
        for page in range(16):
            table.map_page(
                0x10 + 4 * page,
                executable=True,
                writable=False,
                temperature=temperatures[page % 3],
            )
        return table

    @pytest.mark.parametrize("l1i_prefetcher", ["none", "nextline"])
    def test_lane_matches_record_loop_solo_runs(self, l1i_prefetcher):
        """Each core's result, caches and counters equal a record-loop solo
        replay of its policy.  The scaled configuration trains stride
        prefetchers on the L1-D and the L2; a next-line L1-I prefetcher
        makes a fetch hand out both of its target lists."""
        config = SimulatorConfig.scaled()
        config.hierarchy = dataclasses.replace(
            config.hierarchy,
            l1i=dataclasses.replace(config.hierarchy.l1i, prefetcher=l1i_prefetcher),
        )
        records, packed = build_traces("streaming", self.INSTRUCTIONS)
        shared_table = self.page_table()
        lane = [
            SystemSimulator(
                config.with_l2_policy(policy),
                translator=MMU(shared_table),
                benchmark="streaming",
            )
            for policy in self.POLICIES
        ]
        lane_results = run_lockstep(lane, packed, packed)
        for policy, simulator, result in zip(self.POLICIES, lane, lane_results):
            solo = SystemSimulator(
                config.with_l2_policy(policy),
                translator=MMU(self.page_table()),
                benchmark="streaming",
            )
            solo.warm_up(records)
            assert result == solo.run(records), policy
            assert hierarchy_state(simulator.hierarchy) == hierarchy_state(
                solo.hierarchy
            ), policy
            assert simulator.hierarchy.stats == solo.hierarchy.stats, policy
            # The trace must train the prefetchers, or nothing is pinned.
            assert solo.hierarchy.stats.prefetches_issued > 500, policy

    def test_mismatched_prefetchers_rejected(self):
        """The lead core's prefetchers train for the whole lane, so cores
        with other prefetchers cannot share it."""
        config = SimulatorConfig.scaled()
        other = SimulatorConfig.scaled()
        other.hierarchy = dataclasses.replace(
            other.hierarchy,
            l1d=dataclasses.replace(other.hierarchy.l1d, prefetcher="nextline"),
        )
        _, packed = build_traces("streaming", 1000)
        simulators = [
            SystemSimulator(config, benchmark="a"),
            SystemSimulator(other, benchmark="b"),
        ]
        with pytest.raises(ValueError):
            run_lanes([([s.core for s in simulators], packed)])


class TestLockstepRunner:
    def test_runner_lockstep_matches_run_resolved(self):
        config = SimulatorConfig.scaled()
        runner_solo = BenchmarkRunner(config=config)
        runner_lockstep = BenchmarkRunner(config=config)
        spec = get_spec("sqlite")
        artifacts = runner_lockstep.run_lockstep_resolved(spec, POLICIES)
        assert runner_lockstep.simulations_run == len(POLICIES)
        for policy, artifact in zip(POLICIES, artifacts):
            solo = runner_solo.run_resolved(spec, policy)
            assert_results_identical(artifact.result, solo.result)

    def test_lockstep_serves_and_fills_the_store(self, tmp_path):
        config = SimulatorConfig.scaled()
        store = ResultStore(root=tmp_path)
        runner = BenchmarkRunner(config=config, store=store)
        spec = get_spec("sqlite")
        first = runner.run_lockstep_resolved(spec, POLICIES)
        assert runner.simulations_run == len(POLICIES)
        # Second lockstep group: all points served from the store.
        runner_again = BenchmarkRunner(config=config, store=store)
        again = runner_again.run_lockstep_resolved(spec, POLICIES)
        assert runner_again.simulations_run == 0
        for a, b in zip(first, again):
            assert_results_identical(a.result, b.result)
        # And a solo run lands on the same store key.
        runner_solo = BenchmarkRunner(config=config, store=store)
        solo = runner_solo.run_resolved(spec, "trrip-1")
        assert runner_solo.simulations_run == 0
        assert_results_identical(solo.result, first[POLICIES.index("trrip-1")].result)

    def test_serial_grid_uses_lockstep_and_matches(self):
        config = SimulatorConfig.scaled()
        solo_runner = BenchmarkRunner(config=config)
        spec = get_spec("sqlite")
        sweep = Session(config=config).sweep(("sqlite",), POLICIES)
        grid = [
            (benchmark, policy, result)
            for benchmark, row in sweep.results.items()
            for policy, result in row.items()
        ]
        assert [(b, p) for b, p, _ in grid] == [(spec.name, p) for p in POLICIES]
        for _, policy, result in grid:
            solo = solo_runner.run_resolved(spec, policy).result
            assert_results_identical(result, solo)


class TestLockstepSession:
    def test_session_plan_groups_policies(self):
        config = SimulatorConfig.scaled()
        session = Session(config=config)
        scenario = Scenario(benchmarks="sqlite", policies=POLICIES)
        plan = session.plan(scenario)
        assert session._units(plan.unique) == [list(range(len(POLICIES)))]
        grouped = session.execute(plan)
        assert session.simulations_run == len(POLICIES)

        solo_runner = BenchmarkRunner(config=config)
        spec = get_spec("sqlite")
        for policy, artifacts in zip(POLICIES, grouped):
            solo = solo_runner.run_resolved(spec, policy).result
            assert_results_identical(artifacts.result, solo)

    def test_one_job_stream_replays_policies_in_lockstep(self, monkeypatch):
        """A one-job stream goes through the executor, so a two-policy
        scenario is one lockstep call over two simulators."""
        calls = []

        def counting(simulators, *traces):
            calls.append(len(simulators))
            return run_lockstep(simulators, *traces)

        monkeypatch.setattr(simulator_module, "run_lockstep", counting)
        scenario = Scenario(benchmarks=tiny_spec(), policies=("srrip", "trrip-1"))
        streamed = list(make_session().stream(scenario, jobs=1))
        assert calls == [2]
        assert [r.policy.canonical() for r, _ in streamed] == ["srrip", "trrip-1"]

    def test_checkpointed_sweep_replays_each_workload_in_lockstep(
        self, tmp_path, monkeypatch
    ):
        """The sweep's workers replay each workload's pending points in one
        lockstep call, not one solo replay per point."""
        calls = tmp_path / "lockstep-calls"

        def counting(simulators, *traces):
            # Runs in a pool worker: count through the file system.
            with open(calls, "a", encoding="utf-8") as handle:
                handle.write(f"{len(simulators)}\n")
            return run_lockstep(simulators, *traces)

        # Patched before the pool forks, so every worker inherits it.
        monkeypatch.setattr(simulator_module, "run_lockstep", counting)
        session = make_session(store_root=tmp_path / "store")
        checkpointed = session.sweep_checkpointed(
            benchmarks=[
                tiny_spec(),
                resolve_workload("zipf:alpha=1.2,instructions=6000,warmup=2000"),
            ],
            policies=["lru", "trrip-1"],
        )
        assert checkpointed.report.complete
        sizes = calls.read_text().split() if calls.exists() else []
        assert sizes == ["3", "3"]

    def test_reuse_tracking_points_run_solo(self):
        config = SimulatorConfig.scaled()
        session = Session(config=config)
        scenario = Scenario(
            benchmarks="sqlite", policies=("srrip", "lru"), track_reuse=True
        )
        artifacts = session.run(scenario)
        assert all(artifact.reuse is not None for artifact in artifacts)


def test_mismatched_branch_geometry_rejected(prepared, traces):
    """Branch outcomes are computed once on the lead core's unit, so any
    difference in predictor geometry must be rejected, not silently absorbed."""
    config_a = SimulatorConfig.scaled()
    config_b = SimulatorConfig.scaled()
    config_b.core.branch.history_bits = 4
    simulators = [
        SystemSimulator(config_a, benchmark="a"),
        SystemSimulator(config_b, benchmark="b"),
    ]
    with pytest.raises(ValueError):
        run_lanes([([s.core for s in simulators], traces[1])])
