"""Interleaved multi-core simulation: scenarios, keys, partitioning, server.

The invariants under test:

* a one-entry ``cores=[x]`` scenario is *the same scenario* as
  ``benchmarks=[x]`` — same requests, same store keys, bit-identical result;
* N-core runs are deterministic and identical whether the session executes
  serially or with a worker pool (multi-core points always run solo-serial);
* the shared L2/SLC actually couples the cores (non-zero inter-core
  evictions under contention) and ``partition`` largely decouples them;
* the scenario wire form round-trips through the one shared serializer and
  rejects unknown fields/versions with the offending token attached;
* a served submission of the same core list produces exactly the store keys
  a direct session run writes (CLI and daemon share one cache).
"""

from __future__ import annotations

import pytest

from repro.api.scenario import Scenario, build_plan
from repro.cache.replacement.partition import PartitionPolicy, parse_partition_ways
from repro.cache.replacement.spec import PolicySpec
from repro.common.errors import ConfigurationError, ReproError
from repro.experiments.interference import format_interference, run_interference
from repro.experiments.store import multicore_run_key
from repro.server.submission import parse_submission
from repro.sim.config import SimulatorConfig
from repro.sim.multicore import (
    MulticoreResult,
    MulticoreSimulator,
    normalize_interleave,
)
from repro.testing import make_session
from repro.workloads.spec import tiny_spec

#: Two small, genuinely contending core workloads (skewed reuse vs scan).
CONTENDERS = (
    "zipf:alpha=1.2,instructions=4000,warmup=1000",
    "streaming:instructions=4000,warmup=1000",
)


def run_cores(session, cores, policy="lru", interleave=()):
    scenario = Scenario(cores=cores, interleave=interleave, policies=(policy,))
    [artifacts] = session.run(scenario)
    return artifacts.result


# ------------------------------------------------------------ N=1 degeneration
class TestSingleCoreEquivalence:
    def test_one_core_scenario_normalizes_to_single_core(self):
        scenario = Scenario(cores=("tiny",))
        assert not scenario.is_multicore
        assert scenario.cores == ()
        assert scenario.benchmarks == ("tiny",)

    def test_one_core_requests_equal_legacy_requests(self):
        plan_cores = build_plan((Scenario(cores=(tiny_spec(),)),))
        plan_legacy = build_plan((Scenario(benchmarks=(tiny_spec(),)),))
        assert [r.key() for r in plan_cores.requests] == [
            r.key() for r in plan_legacy.requests
        ]

    def test_one_core_result_bit_identical_to_legacy(self, tiny_session):
        [via_cores] = tiny_session.run(Scenario(cores=(tiny_spec(),)))
        [legacy] = tiny_session.run(Scenario(benchmarks=(tiny_spec(),)))
        assert via_cores.result.to_dict() == legacy.result.to_dict()


# ----------------------------------------------------------------- determinism
class TestDeterminism:
    def test_two_core_run_is_deterministic(self, tiny_session):
        first = run_cores(tiny_session, (tiny_spec(), tiny_spec()))
        second = run_cores(tiny_session, (tiny_spec(), tiny_spec()))
        assert first.to_dict() == second.to_dict()

    def test_pool_session_matches_serial(self):
        # Multi-core points are pinned to the solo-serial path, so a jobs=2
        # plan that mixes single- and multi-core requests stays bit-identical.
        scenario = Scenario(cores=(tiny_spec(), tiny_spec()))
        solo = Scenario(benchmarks=(tiny_spec(),))
        serial = make_session()
        pooled = make_session()
        results_serial = serial.run(solo, scenario)
        results_pooled = pooled.run(solo, scenario, jobs=2)
        for left, right in zip(results_serial, results_pooled):
            assert left.result.to_dict() == right.result.to_dict()

    def test_interleave_ratio_changes_the_result_key(self):
        even = build_plan((Scenario(cores=(tiny_spec(), tiny_spec())),))
        skewed = build_plan(
            (Scenario(cores=(tiny_spec(), tiny_spec()), interleave=(2, 1)),)
        )
        assert even.requests[0].key() != skewed.requests[0].key()


# ------------------------------------------------------------- shared hierarchy
class TestSharedCache:
    def test_contention_produces_inter_core_evictions(self, tiny_session):
        result = run_cores(tiny_session, CONTENDERS)
        assert isinstance(result, MulticoreResult)
        assert len(result.cores) == 2
        assert result.total_inter_core_evictions > 0

    def test_per_core_stats_are_private(self, tiny_session):
        result = run_cores(tiny_session, CONTENDERS)
        for core in result.cores:
            assert core.instructions > 0
            assert core.ipc > 0

    def test_occupancy_accounts_all_cores(self, tiny_session):
        result = run_cores(tiny_session, CONTENDERS)
        assert set(result.occupancy) == {0, 1}
        assert all(lines >= 0 for lines in result.occupancy.values())
        assert sum(result.occupancy.values()) > 0

    def test_partition_reduces_inter_core_evictions(self, tiny_session):
        shared = run_cores(tiny_session, CONTENDERS, policy="lru")
        isolated = run_cores(
            tiny_session, CONTENDERS, policy="partition:base=lru"
        )
        assert (
            isolated.total_inter_core_evictions
            < shared.total_inter_core_evictions
        )

    @pytest.mark.parametrize(
        "interleave, cycles, evictions, occupancy",
        [
            (
                (),
                [35415.066666666644, 41127.49166666663],
                {0: 67, 1: 49},
                {0: 239, 1: 264},
            ),
            (
                (3, 1),
                [34771.441666666644, 41187.49166666663],
                {0: 90, 1: 14},
                {0: 208, 1: 295},
            ),
        ],
        ids=["round-robin", "3:1"],
    )
    def test_two_core_interleave_is_pinned(
        self, tiny_session, interleave, cycles, evictions, occupancy
    ):
        # Exact values: a changed turn order or shared-walk transition moves
        # at least one of them.
        result = run_cores(tiny_session, CONTENDERS, interleave=interleave)
        assert [core.cycles for core in result.cores] == cycles
        assert result.inter_core_evictions == evictions
        assert result.occupancy == occupancy

    def test_occupancy_matches_l2_contents_through_reset(self, tiny_session):
        [request] = tiny_session.plan(
            Scenario(cores=CONTENDERS, policies=("lru",))
        ).requests
        runner = tiny_session.runner
        prepared = [runner._prepare_resolved(spec) for spec in request.cores]
        traces = [runner.packed_traces(workload) for workload in prepared]
        simulator = MulticoreSimulator(
            request.config.with_l2_policy("lru"),
            [workload.mmu() for workload in prepared],
            [workload.spec.name for workload in prepared],
        )
        simulator.warm_up([warmup for warmup, _ in traces])
        result = simulator.run([measured for _, measured in traces])
        assert result.total_inter_core_evictions > 0
        shared = simulator.shared
        l2 = shared.l2

        def valid_lines() -> int:
            return sum(
                block.valid
                for set_index in range(l2.num_sets)
                for block in l2.blocks_in_set(set_index)
            )

        assert sum(shared.occupancy().values()) == valid_lines() > 0
        for hierarchy in simulator.hierarchies:
            hierarchy.reset()
        assert sum(shared.occupancy().values()) == valid_lines() == 0
        assert shared.inter_core_evictions == {0: 0, 1: 0}
        assert shared.evictions_caused == {0: 0, 1: 0}

    def test_multicore_result_round_trips_through_dict(self, tiny_session):
        result = run_cores(tiny_session, (tiny_spec(), tiny_spec()))
        clone = MulticoreResult.from_dict(result.to_dict())
        assert clone.to_dict() == result.to_dict()

    def test_store_hit_on_second_run(self, tmp_path):
        session = make_session(store_root=tmp_path)
        scenario = Scenario(cores=(tiny_spec(), tiny_spec()))
        [first] = session.run(scenario)
        hits_before = session.store.hits
        [second] = session.run(scenario)
        assert session.store.hits == hits_before + 1
        assert second.result.to_dict() == first.result.to_dict()


# ------------------------------------------------------------ partition policy
class TestPartitionPolicy:
    def test_parse_ways(self):
        assert parse_partition_ways("4+4", 8) == (4, 4)
        assert parse_partition_ways("6+2", 8) == (6, 2)
        assert parse_partition_ways("", 8) == (4, 4)

    def test_ways_must_cover_the_cache(self):
        with pytest.raises(ConfigurationError, match="sum to"):
            PolicySpec.of("partition:ways=5+5,base=lru").build(4, 8)

    def test_zero_width_segment_rejected(self):
        with pytest.raises(ConfigurationError, match="positive"):
            parse_partition_ways("8+0", 8)

    def test_nesting_rejected(self):
        with pytest.raises(ConfigurationError, match="nest"):
            PartitionPolicy(4, 8, ways="4+4", base="partition")

    def test_composes_with_other_bases(self):
        for base in ("lru", "srrip", "ship"):
            policy = PolicySpec.of(f"partition:ways=4+4,base={base}").build(4, 8)
            assert isinstance(policy, PartitionPolicy)

    def test_canonical_token_is_stable(self):
        spec = PolicySpec.of("partition:ways=4+4,base=lru")
        assert spec.canonical() == "partition:base=lru,ways=4+4"


# ------------------------------------------------------------------- serializer
class TestScenarioWire:
    def test_round_trip_preserves_expansion(self):
        scenario = Scenario(
            cores=("tiny", "tiny"),
            interleave=(2, 1),
            policies=("lru", "srrip"),
            config=SimulatorConfig.scaled(),
        )
        clone = Scenario.from_dict(scenario.to_dict())
        assert clone.to_dict() == scenario.to_dict()
        left = build_plan((scenario,))
        right = build_plan((clone,))
        assert [r.key() for r in left.requests] == [
            r.key() for r in right.requests
        ]

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scenario field"):
            Scenario.from_dict({"benchmarks": ["tiny"], "oops": 1})

    def test_unsupported_version_rejected(self):
        with pytest.raises(ConfigurationError, match="unsupported scenario schema"):
            Scenario.from_dict({"v": 99, "benchmarks": ["tiny"]})

    def test_unknown_token_carries_itself(self):
        with pytest.raises(ConfigurationError) as caught:
            Scenario.from_dict({"cores": ["tiny", "no-such-workload"]})
        assert caught.value.token == "no-such-workload"

    def test_interleave_needs_cores(self):
        with pytest.raises(ConfigurationError, match="interleave"):
            Scenario(benchmarks=("tiny",), interleave=(2, 1))

    def test_interleave_length_must_match(self):
        with pytest.raises(ConfigurationError):
            Scenario(cores=("tiny", "tiny"), interleave=(1, 1, 1))

    def test_normalize_interleave(self):
        assert normalize_interleave((), 3) == (1, 1, 1)
        assert normalize_interleave((2, 1), 2) == (2, 1)
        with pytest.raises(ReproError):
            normalize_interleave((0, 1), 2)


# ------------------------------------------------------------------ served path
class TestServedSubmission:
    def test_served_keys_match_direct_store_keys(self, tmp_path):
        parsed = parse_submission(
            {"cores": ["tiny", "tiny"], "interleave": [2, 1]}
        )
        session = make_session(store_root=tmp_path)
        session.execute(parsed.plan)
        for key in parsed.run_keys:
            assert session.store.load_multicore(key) is not None

    def test_served_key_equals_handwritten_key(self):
        parsed = parse_submission({"cores": ["tiny", "tiny"]})
        [request] = parsed.plan.requests
        assert parsed.run_keys[0] == multicore_run_key(
            request.cores,
            request.policy,
            request.config.with_l2_policy(request.policy),
            request.options,
            request.interleave,
        )

    def test_bad_core_token_is_a_submission_error_with_token(self):
        from repro.server.submission import SubmissionError

        with pytest.raises(SubmissionError) as caught:
            parse_submission({"cores": ["tiny", "no-such"]})
        assert caught.value.token == "no-such"

    def test_http_400_body_carries_the_token(self):
        from repro.server import JobManager, ReproServer
        from repro.client import ReproClient, ServiceError

        manager = JobManager(session_factory=make_session, workers=1)
        with ReproServer(manager, port=0) as server:
            client = ReproClient(server.url)
            with pytest.raises(ServiceError) as caught:
                client.submit({"cores": ["tiny", "no-such"]})
        assert caught.value.status == 400
        assert caught.value.payload["token"] == "no-such"

    def test_bad_partition_geometry_is_a_400_token(self):
        from repro.server.submission import SubmissionError

        with pytest.raises(SubmissionError) as caught:
            parse_submission(
                {
                    "cores": ["tiny", "tiny"],
                    "policies": ["partition:ways=9+9,base=lru"],
                }
            )
        assert caught.value.token == "partition:base=lru,ways=9+9"


# ------------------------------------------------------------------- experiment
class TestInterferenceExperiment:
    def test_runs_and_formats(self, tiny_session):
        report = run_interference(
            cores=(tiny_spec(), tiny_spec()), session=tiny_session
        )
        assert set(report["matrix"]) == {"lru", "partition:base=lru"}
        for cell in report["matrix"].values():
            assert len(cell["cores"]) == 2
            for core in cell["cores"]:
                assert core["slowdown"] > 0
        text = format_interference(report)
        assert "slowdown" in text
        assert "lru" in text

    def test_single_core_rejected(self, tiny_session):
        with pytest.raises(ConfigurationError, match="at least two"):
            run_interference(cores=("tiny",), session=tiny_session)
