"""Tests for the result store and the session's cached path.

Every store-backed test in this module is parametrised over **all
registered storage backends** (``dir`` and ``sqlite``): the assertions are
identical, only the ``backend=`` selection changes, which is the proof that
the backends are interchangeable behind the
:class:`~repro.experiments.backends.StoreBackend` interface.  Tests that
must reach behind the store (damaging an entry, inspecting the quarantine)
do so through the backend-agnostic helpers in :mod:`repro.testing` instead
of poking the filesystem layout directly.
"""

from __future__ import annotations

import json

import pytest

from repro.api.scenario import Scenario
from repro.api.session import Session
from repro.cli.main import main
from repro.core.pipeline import CoDesignPipeline, PipelineOptions
from repro.experiments import runner as runner_module
from repro.experiments import store as store_module
from repro.experiments.backends import backend_names
from repro.experiments.figure6 import run_figure6
from repro.experiments.store import ResultStore, multicore_run_key, run_key
from repro.sim.config import EVALUATED_POLICIES, SimulatorConfig
from repro.testing import (
    damage_store_entry,
    read_quarantined_entry,
    read_raw_entry,
    write_raw_entry,
)
from repro.workloads.spec import tiny_spec


@pytest.fixture
def spec():
    return tiny_spec()


@pytest.fixture
def config():
    return SimulatorConfig.scaled()


@pytest.fixture(params=backend_names())
def make_store(request, tmp_path):
    """Build stores over one shared root with the parametrised backend."""

    def factory(refresh: bool = False) -> ResultStore:
        return ResultStore(tmp_path, refresh=refresh, backend=request.param)

    return factory


class TestRunKey:
    def test_key_is_stable_across_equal_inputs(self, spec, config):
        options = PipelineOptions()
        key1 = run_key(spec, "srrip", config, options)
        key2 = run_key(spec, "srrip", SimulatorConfig.scaled(), PipelineOptions())
        assert key1 == key2
        assert len(key1) == 64  # hex sha256

    def test_key_changes_with_each_input(self, spec, config):
        options = PipelineOptions()
        base = run_key(spec, "srrip", config, options)
        assert run_key(spec, "trrip-1", config, options) != base
        assert (
            run_key(spec.scaled(0.5), "srrip", config, options) != base
        )
        bigger = config.with_l2_geometry(size_bytes=64 * 1024)
        assert run_key(spec, "srrip", bigger, options) != base
        other_options = PipelineOptions(percentile_hot=0.5)
        assert run_key(spec, "srrip", config, other_options) != base

    def test_config_content_hash_is_stable(self, config):
        assert config.content_hash() == SimulatorConfig.scaled().content_hash()
        assert config.content_hash() != SimulatorConfig.paper().content_hash()

    def test_keys_are_pinned(self, spec, config):
        """Users' stores are keyed by these hashes: moving a config class or
        changing a default must not silently orphan every stored run."""
        options = PipelineOptions()
        assert config.content_hash() == (
            "e4936b512547cc93976e2d865ae829fe9966c5ceccd2545b33cdc4f8fc357250"
        )
        assert run_key(
            spec, "trrip-1", config.with_l2_policy("trrip-1"), options
        ) == ("77c19bf3ec94d057342f2b966834259ea87758f5e9c03dc48276555d6729b2f2")
        assert multicore_run_key(
            (spec, spec), "srrip", config.with_l2_policy("srrip"), options, (2, 1)
        ) == ("195681ad0bd2555323dd070552a9d473d6e300305d5241203e92077c382ae773")


#: One scenario per kind of executor unit: a lockstep group, a
#: reuse-tracking solo point and a two-core co-run.
UNIT_SCENARIOS = {
    "lockstep": Scenario(benchmarks=tiny_spec(), policies=("srrip", "trrip-1")),
    "reuse": Scenario(benchmarks=tiny_spec(), policies="srrip", track_reuse=True),
    "corun": Scenario(cores=(tiny_spec(), tiny_spec())),
}


def _grid(sweep):
    """(benchmark, policy, result) triples of a sweep, benchmark-major."""
    return [
        (benchmark, policy, result)
        for benchmark, row in sweep.results.items()
        for policy, result in row.items()
    ]


class TestCachedRuns:
    def test_second_runner_serves_from_store_without_simulating(
        self, make_store, spec, config
    ):
        first = Session(config=config, store=make_store())
        warm = first.run_one(spec, "trrip-1")
        assert first.simulations_run == 1
        assert first.store.writes == 1

        second = Session(config=config, store=make_store())
        cached = second.run_one(spec, "trrip-1")
        assert second.simulations_run == 0
        assert second.store.hits == 1
        assert second.store.misses == 0
        # Bit-exact: the dataclass compares floats by identity.
        assert cached.result == warm.result

    @pytest.mark.parametrize("kind", sorted(UNIT_SCENARIOS))
    def test_cache_hit_skips_the_codesign_pipeline(
        self, make_store, config, kind, monkeypatch
    ):
        """A store hit is a lookup: no unit kind prepares its workload."""
        scenario = UNIT_SCENARIOS[kind]
        filled = Session(config=config, store=make_store()).run(scenario)

        def refuse(pipeline, spec):
            raise AssertionError(f"a store hit prepared {spec.name}")

        monkeypatch.setattr(CoDesignPipeline, "prepare", refuse)
        replay = Session(config=config, store=make_store())
        replayed = replay.run(scenario)
        assert replay.simulations_run == 0
        for fresh, cached in zip(filled, replayed):
            assert cached.result.to_dict() == fresh.result.to_dict()
            if fresh.reuse is not None:
                assert cached.reuse.base.counts == fresh.reuse.base.counts

    def test_warm_plan_reads_each_point_once(self, make_store, config, monkeypatch):
        """The executor's store probe and the load after it share one read
        per point, and every point still counts one hit."""
        scenario = Scenario(
            benchmarks=("tiny", "zipf:alpha=1.2,instructions=6000,warmup=2000"),
            policies=("srrip", "trrip-1"),
        )
        Session(config=config, store=make_store()).run(scenario)
        store = make_store()
        reads = []
        load = store.backend.load
        monkeypatch.setattr(
            store.backend,
            "load",
            lambda space, key: reads.append(key) or load(space, key),
        )
        replay = Session(config=config, store=store)
        replay.run(scenario, jobs=2)
        assert replay.simulations_run == 0
        assert (store.hits, store.misses) == (4, 0)
        assert len(reads) == len(set(reads)) == 4

    def test_warm_figure6_hashes_each_key_once(self, make_store, config, monkeypatch):
        """The executor's store probe and the runner's load share one run
        key per point: a warm plan hashes each point once."""
        workloads = ("tiny", "zipf:alpha=1.2,instructions=6000,warmup=2000")
        run_figure6(workloads, session=Session(config=config, store=make_store()))
        hashed = []

        def counting(*args):
            hashed.append(args)
            return run_key(*args)

        monkeypatch.setattr(store_module, "run_key", counting)
        monkeypatch.setattr(runner_module, "run_key", counting)
        store = make_store()
        # jobs=0 makes the executor probe the store before running units.
        session = Session(config=config, store=store, jobs=0)
        run_figure6(workloads, session=session)
        points = len(workloads) * (1 + len(EVALUATED_POLICIES))
        assert session.simulations_run == 0
        assert (store.hits, store.misses) == (points, 0)
        assert len(hashed) == points

    def test_pooled_plan_keeps_no_held_entries(self, make_store, config):
        """Units that go to pool workers hold a stored point and a missing
        one: each point counts once, and the parent keeps no probed entry."""
        workloads = ("tiny", "zipf:alpha=1.2,instructions=6000,warmup=2000")
        Session(config=config, store=make_store()).run(
            Scenario(benchmarks=workloads, policies="srrip")
        )
        store = make_store()
        session = Session(config=config, store=store)
        session.run(Scenario(benchmarks=workloads, policies=("srrip", "lru")), jobs=2)
        assert session.simulations_run == 2
        assert (store.hits, store.misses) == (2, 2)
        assert store._held == {}

    def test_failed_plan_keeps_no_held_entries(self, make_store, config, monkeypatch):
        """A unit that raises in-process leaves no probed entry behind for
        a later plan on the same store to load instead of the backend."""
        scenario = Scenario(
            benchmarks=("tiny", "zipf:alpha=1.2,instructions=6000,warmup=2000"),
            policies="srrip",
        )
        Session(config=config, store=make_store()).run(scenario)
        store = make_store()
        session = Session(config=config, store=store)

        def boom(unit):
            raise RuntimeError("unit failed")

        monkeypatch.setattr(session, "_run_unit", boom)
        with pytest.raises(RuntimeError, match="unit failed"):
            session.run(scenario, jobs=2)
        assert store._held == {}

    def test_reuse_histograms_round_trip(self, make_store, spec, config):
        first = Session(config=config, store=make_store())
        tracked = first.run_one(spec, track_reuse=True)
        assert first.simulations_run == 1

        second = Session(config=config, store=make_store())
        cached = second.run_one(spec, track_reuse=True)
        assert second.simulations_run == 0
        assert cached.reuse is not None
        assert cached.reuse.base.counts == tracked.reuse.base.counts
        assert cached.reuse.hot_only.counts == tracked.reuse.hot_only.counts

        # A cached hit without track_reuse keeps the fresh-run artifact
        # shape: no tracker, even though the entry carries histograms.
        untracked = second.run_one(spec)
        assert second.simulations_run == 0
        assert untracked.reuse is None

    def test_entry_without_reuse_upgrades_when_tracking_requested(
        self, make_store, spec, config
    ):
        # First run does not track reuse; a later track_reuse=True request
        # must re-simulate and upgrade the entry in place.
        Session(config=config, store=make_store()).run_one(spec)
        upgrading = Session(config=config, store=make_store())
        artifacts = upgrading.run_one(spec, track_reuse=True)
        assert upgrading.simulations_run == 1
        assert artifacts.reuse is not None

        third = Session(config=config, store=make_store())
        third.run_one(spec, track_reuse=True)
        assert third.simulations_run == 0

    def test_refresh_resimulates_but_rewrites(self, make_store, spec, config):
        Session(config=config, store=make_store()).run_one(spec)
        refreshing = Session(config=config, store=make_store(refresh=True))
        refreshing.run_one(spec)
        assert refreshing.simulations_run == 1
        assert refreshing.store.writes == 1

        after = Session(config=config, store=make_store())
        after.run_one(spec)
        assert after.simulations_run == 0

    def test_corrupt_entry_is_a_miss(self, make_store, spec, config):
        store = make_store()
        session = Session(config=config, store=store)
        session.run_one(spec)
        keys = store.backend.keys("runs")
        assert len(keys) == 1
        damage_store_entry(store, keys[0], text="{not json")

        recovered_store = make_store()
        recovered = Session(config=config, store=recovered_store)
        recovered.run_one(spec)
        assert recovered.simulations_run == 1
        assert recovered_store.corrupt == 1

    def test_corrupt_entry_is_quarantined_not_deleted(
        self, make_store, spec, config
    ):
        """The damaged bytes move to quarantine; the slot is rewritten."""
        session = Session(config=config, store=make_store())
        session.run_one(spec)
        key = session.store.backend.keys("runs")[0]
        damage_store_entry(session.store, key, text="{torn")

        store = make_store()
        Session(config=config, store=store).run_one(spec)
        assert read_quarantined_entry(store, key) == "{torn"
        assert store.backend.quarantined("runs") == [key]
        # Re-simulated and atomically rewritten into the live slot.
        assert key in store.backend.keys("runs")
        assert store.corrupt == 1
        # The rewritten entry is healthy: a fresh store serves it as a hit.
        after = make_store()
        Session(config=config, store=after).run_one(spec)
        assert (after.hits, after.corrupt) == (1, 0)

    def test_unreadable_entry_is_a_plain_miss_not_corrupt(
        self, make_store, spec, config
    ):
        """A missing entry never counts toward the corrupt counter."""
        store = make_store()
        Session(config=config, store=store).run_one(spec)
        assert (store.misses, store.corrupt) == (1, 0)

    def test_stats_mirror_the_counter_attributes(self, make_store, spec, config):
        store = make_store()
        Session(config=config, store=store).run_one(spec)
        assert store.stats() == {
            "hits": 0,
            "misses": 1,
            "writes": 1,
            "corrupt": 0,
        }
        again = make_store()
        Session(config=config, store=again).run_one(spec)
        assert again.stats() == {
            "hits": 1,
            "misses": 0,
            "writes": 0,
            "corrupt": 0,
        }

    def test_different_configs_do_not_collide(self, make_store, spec, config):
        small = Session(config=config, store=make_store())
        small_result = small.run_one(spec).result
        big_config = config.with_l2_geometry(size_bytes=64 * 1024)
        big = Session(config=big_config, store=make_store())
        big.run_one(spec)
        assert big.simulations_run == 1  # no false hit from the small config

        again = Session(config=config, store=make_store())
        assert again.run_one(spec).result == small_result


class TestBackendSelection:
    def test_environment_variable_selects_the_backend(self, tmp_path, monkeypatch):
        from repro.experiments.backends import ENV_VAR, SQLiteBackend

        monkeypatch.setenv(ENV_VAR, "sqlite")
        store = ResultStore(tmp_path)
        assert isinstance(store.backend, SQLiteBackend)

    def test_unknown_backend_fails_eagerly(self, tmp_path):
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="unknown store backend"):
            ResultStore(tmp_path, backend="carrier-pigeon")

    def test_backends_store_byte_identical_payloads(self, tmp_path, spec, config):
        """The same run saved through both backends decodes identically."""
        import json

        payloads = {}
        for name in backend_names():
            store = ResultStore(tmp_path / name, backend=name)
            Session(config=config, store=store).run_one(spec, "trrip-1")
            (key,) = store.backend.keys("runs")
            payloads[name] = (key, json.dumps(store.backend.load("runs", key)))
        (first, *rest) = payloads.values()
        assert all(entry == first for entry in rest)


#: Two cores of ``repro run interference``: it stores two solo runs and a
#: co-run per policy, and a report.
INTERFERENCE = [
    "run",
    "interference",
    "--core",
    "tiny",
    "--core",
    "zipf:alpha=1.2,instructions=6000,warmup=2000",
]


class TestEntryFormat:
    """Entries are compact JSON, and the indented entries earlier releases
    wrote still load."""

    @staticmethod
    def cli(capsys, *argv) -> str:
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    def test_indented_entries_still_hit(self, make_store, capsys):
        store = make_store()
        where = ["--store", str(store.root), "--store-backend", store.backend.name]
        cold = self.cli(capsys, *INTERFERENCE, *where)
        reports = {
            form: self.cli(capsys, "report", "interference", "--format", form, *where)
            for form in ("text", "json", "csv")
        }
        keys = store.backend.keys("runs")
        kinds = [store.backend.load("runs", key).get("kind") for key in keys]
        assert sorted(map(str, set(kinds))) == ["None", "multicore"]

        # Rewrite every entry the way earlier releases wrote it.
        for space, names in (("runs", keys), ("reports", ["interference"])):
            for name in names:
                entry = json.loads(read_raw_entry(store, name, space))
                write_raw_entry(store, name, json.dumps(entry, indent=1), space)
                assert read_raw_entry(store, name, space).count("\n") > 10

        for form, printed in reports.items():
            again = self.cli(capsys, "report", "interference", "--format", form, *where)
            assert again == printed
        old = make_store()
        for key, kind in zip(keys, kinds):
            load = old.load_multicore if kind == "multicore" else old.load_run
            assert load(key) is not None
        assert (old.hits, old.misses, old.corrupt) == (len(keys), 0, 0)

        warm = self.cli(capsys, *INTERFERENCE, *where)
        assert "# 0 simulation(s) run" in warm
        body = [line for line in cold.splitlines() if not line.startswith("#")]
        assert [line for line in warm.splitlines() if not line.startswith("#")] == body
        # The warm run rewrote the report compactly and left the runs as
        # they were; every form still prints the same.
        assert "\n" not in read_raw_entry(store, "interference", "reports")
        for form, printed in reports.items():
            again = self.cli(capsys, "report", "interference", "--format", form, *where)
            assert again == printed

    def test_new_entries_are_compact_json(self, make_store, config, monkeypatch):
        """Every entry's text is ``json.dumps`` with compact separators of
        the payload the store saved, non-string keys included."""
        store = make_store()
        saved = {}
        save = store.backend.save

        def recording(space, key, payload):
            saved[space, key] = json.dumps(payload, separators=(",", ":"))
            save(space, key, payload)

        monkeypatch.setattr(store.backend, "save", recording)
        Session(config=config, store=store).run(*UNIT_SCENARIOS.values())
        store.save_report("figure3", {"text": "t", "data": {"rows": [{"a": 1}]}})
        store.backend.save(
            "reports", "odd", {"data": {1: {"a": [{"b": {2: [1.5, None]}}]}}}
        )
        # Two single-core keys (the reuse point shares srrip's) and a co-run.
        assert sorted(saved) == sorted(
            [("runs", key) for key in store.backend.keys("runs")]
            + [("reports", "figure3"), ("reports", "odd")]
        )
        assert len(store.backend.keys("runs")) == 3
        for (space, key), expected in saved.items():
            assert read_raw_entry(store, key, space) == expected
        assert '{"1":{"a":[{"b":{"2":[1.5,null]}}]}}' in saved["reports", "odd"]


class TestResultSerialisation:
    def test_simulation_result_round_trips_exactly(self, spec, config):
        from repro.sim.results import SimulationResult

        result = Session(config=config).run_one(spec, "trrip-1").result
        assert result.line_stall_cycles  # non-trivial payload
        restored = SimulationResult.from_dict(result.to_dict())
        assert restored == result

    def test_reports_round_trip(self, make_store):
        store = make_store()
        store.save_report("figure3", {"text": "hello", "data": [1, 2]})
        payload = store.load_report("figure3")
        assert payload["text"] == "hello"
        assert payload["data"] == [1, 2]
        assert store.load_report("unknown") is None


class TestParallelGridWithStore:
    def test_grid_workers_share_the_store(self, make_store, spec, config):
        store = make_store()
        session = Session(config=config, store=store)
        grid = _grid(session.sweep([spec], ["srrip", "trrip-1"], jobs=2))
        assert len(grid) == 2
        # Workers wrote their runs into the shared store, and their
        # counters were folded back into the parent session.
        assert len(store.backend.keys("runs")) == 2
        assert session.simulations_run == 2
        assert (store.misses, store.hits) == (2, 0)

        serial = Session(config=config, store=make_store())
        replay = _grid(serial.sweep([spec], ["srrip", "trrip-1"], jobs=None))
        assert serial.simulations_run == 0
        assert [r for _, _, r in replay] == [r for _, _, r in grid]

    def test_parallel_replay_counts_hits(self, make_store, spec, config):
        Session(config=config, store=make_store()).sweep(
            [spec], ["srrip", "trrip-1"], jobs=2
        )
        replay = Session(config=config, store=make_store())
        replay.sweep([spec], ["srrip", "trrip-1"], jobs=2)
        assert replay.simulations_run == 0
        assert (replay.store.misses, replay.store.hits) == (0, 2)
