"""Tests for the declarative Scenario/Session API and PolicySpec."""

from __future__ import annotations

import pytest

from repro.api import PolicySpec, Scenario, Session
from repro.api.scenario import build_plan
from repro.common.errors import ConfigurationError
from repro.core.pipeline import PipelineOptions
from repro.sim.config import SimulatorConfig
from repro.testing import make_session
from repro.workloads.spec import tiny_spec


# ------------------------------------------------------------------ PolicySpec
class TestPolicySpec:
    def test_parse_round_trips_through_canonical(self):
        spec = PolicySpec.parse("ship:shct_bits=3,instruction_only=false")
        assert spec.name == "ship"
        assert spec.kwargs == {"shct_bits": 3, "instruction_only": False}
        assert PolicySpec.parse(spec.canonical()) == spec

    def test_parameterless_canonical_is_the_bare_name(self):
        assert PolicySpec.of("srrip").canonical() == "srrip"

    def test_params_are_order_insensitive_and_hashable(self):
        a = PolicySpec.parse("drrip:psel_bits=8,leader_sets=16")
        b = PolicySpec.parse("drrip:leader_sets=16,psel_bits=8")
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_aliases_normalise_to_canonical_names(self):
        assert PolicySpec.of("trrip").name == "trrip-1"
        assert PolicySpec.of("TRRIP2").name == "trrip-2"

    def test_unknown_name_raises_with_choices(self):
        with pytest.raises(ConfigurationError, match="belady-on-a-budget"):
            PolicySpec.of("belady-on-a-budget")
        with pytest.raises(ConfigurationError, match="trrip-1"):
            PolicySpec.of("belady-on-a-budget")

    def test_unknown_parameter_raises_with_valid_parameters(self):
        with pytest.raises(ConfigurationError, match="no parameter 'bogus'"):
            PolicySpec.parse("ship:bogus=1")
        with pytest.raises(ConfigurationError, match="shct_bits"):
            PolicySpec.parse("ship:bogus=1")

    def test_badly_typed_parameter_raises(self):
        with pytest.raises(ConfigurationError, match="expects int"):
            PolicySpec.parse("srrip:rrpv_bits=fast")

    def test_malformed_token_raises(self):
        with pytest.raises(ConfigurationError, match="malformed"):
            PolicySpec.parse("ship:shct_bits")

    def test_build_instantiates_with_parameters(self):
        policy = PolicySpec.parse("ship:shct_bits=3").build(16, 4)
        assert policy.shct_bits == 3

    def test_content_hash_covers_policy_parameters(self):
        base = SimulatorConfig.scaled()
        plain = base.with_l2_policy("ship")
        via_spec = base.with_l2_policy(PolicySpec.of("ship"))
        tuned = base.with_l2_policy(PolicySpec.parse("ship:shct_bits=3"))
        tuned_kwargs = base.with_l2_policy("ship", shct_bits=3)
        assert plain.content_hash() == via_spec.content_hash()
        assert tuned.content_hash() == tuned_kwargs.content_hash()
        assert tuned.content_hash() != plain.content_hash()

    def test_with_l2_policy_validates_eagerly(self):
        with pytest.raises(ConfigurationError, match="unknown replacement"):
            SimulatorConfig.scaled().with_l2_policy("nosuch")


# -------------------------------------------------------------------- Scenario
class TestScenarioExpansion:
    def test_grid_expansion_counts(self):
        scenario = Scenario(
            benchmarks=(tiny_spec(), tiny_spec("tinybench2")),
            policies=("srrip", "lru", "trrip-1"),
        )
        requests = scenario.expand()
        assert scenario.size == len(requests) == 6
        # Benchmark-major, policy-minor order.
        assert [r.benchmark for r in requests] == ["tinybench"] * 3 + [
            "tinybench2"
        ] * 3
        assert [r.policy.canonical() for r in requests[:3]] == [
            "srrip",
            "lru",
            "trrip-1",
        ]

    def test_scalars_accepted_for_benchmarks_and_policies(self):
        scenario = Scenario(benchmarks="sqlite", policies="trrip")
        assert scenario.benchmarks == ("sqlite",)
        assert scenario.policies[0].name == "trrip-1"

    def test_empty_scenario_rejected(self):
        with pytest.raises(ConfigurationError, match="workload axis"):
            Scenario(benchmarks=(), policies="srrip")
        with pytest.raises(ConfigurationError, match="at least one policy"):
            Scenario(benchmarks="sqlite", policies=())

    def test_zero_scenarios_cannot_build_a_plan(self):
        """A 0-run plan is never what a caller meant: raise, don't no-op."""
        with pytest.raises(ConfigurationError, match="scenario axis is empty"):
            build_plan([])
        with pytest.raises(ConfigurationError, match="scenario axis is empty"):
            make_session().plan()
        with pytest.raises(ConfigurationError, match="scenario axis is empty"):
            make_session().run()

    def test_phase_overrides_rescale_the_resolved_spec(self):
        scenario = Scenario(
            benchmarks=tiny_spec(),
            warmup_instructions=500,
            measure_instructions=1500,
        )
        [request] = scenario.expand()
        assert request.spec.warmup_instructions == 500
        assert request.spec.eval_instructions == 1500

    def test_config_scaling_applied_exactly_once(self):
        import dataclasses

        config = dataclasses.replace(
            SimulatorConfig.scaled(), name="halfscale", workload_scale=0.5
        )
        [request] = Scenario(benchmarks=tiny_spec(), config=config).expand()
        assert request.spec == tiny_spec().scaled(0.5)

    def test_plan_dedups_identical_points_across_scenarios(self):
        spec = tiny_spec()
        sweep_a = Scenario(benchmarks=spec, policies=("srrip", "trrip-1"))
        sweep_b = Scenario(benchmarks=spec, policies=("srrip", "clip"))
        plan = build_plan([sweep_a, sweep_b])
        assert plan.total_runs == 4
        assert plan.unique_runs == 3  # shared srrip baseline collapses
        assert plan.deduplicated == 1
        # The duplicated request still appears at its position.
        assert [r.policy.canonical() for r in plan.requests] == [
            "srrip",
            "trrip-1",
            "srrip",
            "clip",
        ]

    def test_differing_options_or_reuse_do_not_dedup(self):
        spec = tiny_spec()
        plain = Scenario(benchmarks=spec)
        tracked = Scenario(benchmarks=spec, track_reuse=True)
        tuned = Scenario(
            benchmarks=spec, options=PipelineOptions(percentile_hot=0.5)
        )
        plan = build_plan([plain, tracked, tuned])
        assert plan.total_runs == plan.unique_runs == 3


# --------------------------------------------------------------------- Session
class TestSession:
    def test_execute_dedups_and_streams_in_plan_order(self):
        session = make_session()
        spec = tiny_spec()
        plan = session.plan(
            Scenario(benchmarks=spec, policies=("srrip", "trrip-1")),
            Scenario(benchmarks=spec, policies=("srrip", "lru")),
        )
        artifacts = session.execute(plan)
        assert len(artifacts) == plan.total_runs == 4
        assert session.simulations_run == plan.unique_runs == 3
        # Deduplicated points hand back the identical artifacts object.
        assert artifacts[0] is artifacts[2]
        # Streaming preserves (request, artifact) pairing and order.
        streamed = list(
            session.stream(Scenario(benchmarks=spec, policies=("srrip", "lru")))
        )
        assert [r.policy.canonical() for r, _ in streamed] == ["srrip", "lru"]

    def test_policy_spec_round_trips_through_the_result_store(self, tmp_path):
        policy = PolicySpec.parse("ship:shct_bits=3")
        scenario = Scenario(benchmarks=tiny_spec(), policies=policy)

        first = make_session(store_root=tmp_path)
        [a] = first.run(scenario)
        assert first.simulations_run == 1
        assert first.store.writes == 1

        second = make_session(store_root=tmp_path)
        [b] = second.run(scenario)
        assert second.simulations_run == 0, "store key missed for PolicySpec"
        assert b.result.to_dict() == a.result.to_dict()
        # A different parameterisation is a different key.
        third = make_session(store_root=tmp_path)
        third.run(Scenario(benchmarks=tiny_spec(), policies="ship"))
        assert third.simulations_run == 1

    def test_cached_replay_of_a_whole_plan_runs_zero_sims(self, tmp_path):
        scenarios = (
            Scenario(benchmarks=tiny_spec(), policies=("srrip", "trrip-1")),
            Scenario(
                benchmarks=tiny_spec(),
                policies="trrip-1",
                options=PipelineOptions(percentile_hot=0.5),
            ),
        )
        first = make_session(store_root=tmp_path)
        first.run(*scenarios)
        assert first.simulations_run == 3

        second = make_session(store_root=tmp_path)
        replayed = second.run(*scenarios)
        assert second.simulations_run == 0
        assert [a.result.to_dict() for a in replayed] == [
            a.result.to_dict() for a in first.run(*scenarios)
        ]

    def test_parallel_execution_matches_serial(self):
        spec = tiny_spec()
        scenario = Scenario(benchmarks=spec, policies=("srrip", "lru", "trrip-1"))
        serial = make_session().run(scenario)
        parallel = make_session().run(scenario, jobs=2)
        assert [a.result.to_dict() for a in serial] == [
            a.result.to_dict() for a in parallel
        ]

    def test_session_sweep_matches_run_policy_sweep(self):
        from repro.experiments.sweep import run_policy_sweep

        spec = tiny_spec()
        via_session = make_session().sweep(
            benchmarks=[spec], policies=["trrip-1"]
        )
        via_wrapper = run_policy_sweep(benchmarks=[spec], policies=["trrip-1"])
        assert via_session.benchmarks == via_wrapper.benchmarks
        assert via_session.policies == via_wrapper.policies
        for benchmark in via_session.benchmarks:
            for policy in ("srrip", "trrip-1"):
                assert (
                    via_session.result(benchmark, policy).to_dict()
                    == via_wrapper.result(benchmark, policy).to_dict()
                )

    def test_run_one_resolves_names_and_specs(self):
        session = make_session()
        by_spec = session.run_one(tiny_spec(), "trrip")
        assert by_spec.result.benchmark == "tinybench"
        assert by_spec.result.policy == "trrip-1"


# -------------------------------------------------------------------- executor
#: Two workloads: a plan over both forms two workload-affine tasks.
TWO_WORKLOADS = ("tiny", "zipf:alpha=1.2,instructions=6000,warmup=2000")


def forbid_pools(monkeypatch) -> None:
    """Make any attempt to start a worker pool fail the test."""
    from repro.experiments import supervisor

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a worker pool was started")

    monkeypatch.setattr(supervisor, "SupervisedPool", NoPool)


class TestExecutorStartsNoPool:
    scenario = Scenario(benchmarks=TWO_WORKLOADS, policies=("srrip", "trrip-1"))

    def test_fully_stored_plan(self, tmp_path, monkeypatch):
        make_session(store_root=tmp_path).run(self.scenario)
        forbid_pools(monkeypatch)
        replay = make_session(store_root=tmp_path)
        replay.run(self.scenario, jobs=2)
        assert replay.simulations_run == 0
        assert (replay.store.hits, replay.store.misses) == (4, 0)

    def test_one_usable_cpu(self, monkeypatch):
        forbid_pools(monkeypatch)
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
        session = make_session()
        session.run(self.scenario, jobs=0)
        assert session.simulations_run == 4

    def test_served_job(self, tmp_path, monkeypatch):
        from repro.server import JobManager, parse_submission

        forbid_pools(monkeypatch)
        manager = JobManager(
            session_factory=lambda: make_session(store_root=tmp_path), workers=0
        )
        job, _ = manager.submit(
            parse_submission({"benchmarks": list(TWO_WORKLOADS), "policies": ["srrip"]})
        )
        manager.start(1)
        manager.shutdown(drain=True)  # returns only once the job is done
        assert job.state == "done", job.error


class TestConfigHashing:
    def test_each_config_object_is_hashed_once_per_execution(self, monkeypatch):
        """Grouping units and looking up their runners hash each distinct
        config object of a call once, not once per request and per unit."""
        import dataclasses

        session = make_session()
        twin = dataclasses.replace(session.config)  # equal content, new object
        plan = session.plan(
            Scenario(benchmarks=TWO_WORKLOADS, policies=("srrip", "trrip-1")),
            Scenario(benchmarks=TWO_WORKLOADS, policies=("lru",), config=twin),
        )
        assert len(plan.unique) == 6
        hashed = []
        content_hash = SimulatorConfig.content_hash

        def counting(config):
            hashed.append(config)
            return content_hash(config)

        monkeypatch.setattr(SimulatorConfig, "content_hash", counting)
        session.execute(plan)
        assert session.simulations_run == 6
        assert sorted(map(id, hashed)) == sorted([id(session.config), id(twin)])
