"""Lockstep multi-policy replay: bit-identical to independent runs.

A figure sweep replays one workload trace under N L2 replacement policies.
Lockstep execution decodes the trace once, computes branch outcomes and
fetch-boundary events once, and advances the N hierarchies together; these
tests pin that every observable result equals the N independent solo runs,
through every layer (core loop, simulator pair, runner with a store, and
Session plan execution).
"""

from __future__ import annotations

import pytest

from repro.api.scenario import Scenario
from repro.api.session import Session
from repro.core.pipeline import CoDesignPipeline
from repro.cpu.core import run_lanes
from repro.experiments.runner import BenchmarkRunner
from repro.sim.config import SimulatorConfig
from repro.sim.simulator import SystemSimulator, run_lockstep
from repro.workloads.spec import InputSet, get_spec
from tests.test_determinism import assert_results_identical

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


class TestLockstepRunner:
    def test_runner_lockstep_matches_run_resolved(self):
        config = SimulatorConfig.scaled()
        runner_solo = BenchmarkRunner(config=config)
        runner_lockstep = BenchmarkRunner(config=config)
        spec = runner_solo.resolve_spec("sqlite")
        artifacts = runner_lockstep.run_lockstep_resolved(spec, POLICIES)
        assert runner_lockstep.simulations_run == len(POLICIES)
        for policy, artifact in zip(POLICIES, artifacts):
            solo = runner_solo.run_resolved(spec, policy)
            assert_results_identical(artifact.result, solo.result)

    def test_lockstep_serves_and_fills_the_store(self, tmp_path):
        from repro.experiments.store import ResultStore

        config = SimulatorConfig.scaled()
        store = ResultStore(root=tmp_path)
        runner = BenchmarkRunner(config=config, store=store)
        spec = runner.resolve_spec("sqlite")
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
        grid_runner = BenchmarkRunner(config=config)
        solo_runner = BenchmarkRunner(config=config)
        spec = solo_runner.resolve_spec("sqlite")
        grid = grid_runner.run_grid(("sqlite",), POLICIES)
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
        spec = solo_runner.resolve_spec("sqlite")
        for policy, artifacts in zip(POLICIES, grouped):
            solo = solo_runner.run_resolved(spec, policy).result
            assert_results_identical(artifacts.result, solo)

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
