"""Tests of the benchmark harness's own arithmetic and inputs.

Run with the rest of the suite (``PYTHONPATH=src python -m pytest``); they
need no daemon and run no benchmark workload.
"""

import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import harness as h  # noqa: E402


def span(sid, parent, start, end, name="x", **attrs):
    return {
        "id": sid,
        "parent": parent,
        "name": name,
        "start": start,
        "end": end,
        "key": None,
        "attrs": attrs,
    }


# ------------------------------------------------------------ self times
def test_covered_merges_overlaps_and_clips():
    assert h.covered([], 0, 10) == 0
    assert h.covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert h.covered([(-5, 2), (9, 20)], 0, 10) == 3
    assert h.covered([(1, 9), (2, 3)], 0, 10) == 8


def test_self_time_is_duration_minus_covered_children():
    spans = [
        span("root", None, 0.0, 10.0),
        span("a", "root", 1.0, 4.0),
        span("b", "root", 3.0, 6.0),  # overlaps a: covered once
        span("a1", "a", 1.5, 2.0),
        span("late", "root", 9.0, 12.0),  # clipped to the parent's end
    ]
    selfs = h.self_times(spans)
    assert selfs["root"] == pytest.approx(10 - 5 - 1)
    assert selfs["a"] == pytest.approx(2.5)
    assert selfs["b"] == pytest.approx(3.0)
    assert selfs["a1"] == pytest.approx(0.5)
    assert selfs["late"] == pytest.approx(3.0)


def test_layer_metrics_partition_a_process_tree():
    spans = [
        span("h.1", None, 0.0, 10.0, "process"),
        span("1.1", "h.1", 0.0, 2.0, "cli.startup"),
        span("1.2", "h.1", 2.0, 9.5, "cli.main"),
        span("1.3", "1.2", 2.5, 9.0, "runner.run_resolved"),
        span("1.4", "1.3", 2.6, 2.7, "store.get", miss=1),
        span("1.5", "1.3", 3.0, 4.0, "pipeline.prepare"),
        span("1.6", "1.3", 4.0, 5.0, "tracegen.take_packed", instructions=500),
        span("1.7", "1.3", 5.0, 8.0, "sim.solo", instructions=400),
        span("1.8", "1.3", 8.0, 8.5, "store.put"),
    ]
    metrics = h.layer_metrics(spans)
    assert metrics["cli.startup_s"] == pytest.approx(2.0)
    assert metrics["cli.self_s"] == pytest.approx(1.0)
    assert metrics["runner.self_s"] == pytest.approx(0.9)
    assert metrics["sim.solo_s"] == pytest.approx(3.0)
    assert metrics["unattributed_s"] == pytest.approx(0.5)
    assert metrics["store.misses"] == 1 and metrics["store.writes"] == 1
    assert metrics["tracegen.instructions"] == 500
    assert metrics["sim.instructions"] == 400
    assert metrics["sim.kips"] == pytest.approx(400 / 3.0 / 1000)
    # Self times of every span sum to the root's duration.
    total = sum(v for k, v in metrics.items() if k.endswith("_s") and k != "sim.replay_s")
    assert total == pytest.approx(10.0)


def test_coverage_leaves_out_mains_own_remainder():
    # A layer without a wrapper leaves its time in main's self time, which
    # lowers the coverage instead of being counted as attributed.
    spans = [
        span("h.1", None, 0.0, 10.0, "process"),
        span("1.1", "h.1", 0.0, 2.0, "cli.startup"),
        span("1.2", "h.1", 2.0, 9.5, "cli.main"),
        span("1.3", "1.2", 2.5, 4.5, "sim.solo"),
        span("h.1.exit", "h.1", 9.5, 10.0, "cli.exit"),
    ]
    metrics = h.layer_metrics(spans)
    assert metrics["cli.self_s"] == pytest.approx(5.5)
    assert h.attributed_seconds(metrics) == pytest.approx(2.0 + 2.0 + 0.5)
    assert h.attributed_seconds(metrics) / 10.0 < h.MIN_COVERAGE


def test_spans_are_grouped_by_the_round_they_start_in():
    spans = [span(str(i), None, start, start + 0.5) for i, start in enumerate((0.5, 1.0, 1.9, 2.5, 3.5))]
    rounds = h.spans_by_round(spans, [1.0, 2.0, 3.0])
    assert [[s["id"] for s in r] for r in rounds] == [["1", "2"], ["3"]]


def test_varying_counts_names_each_count_that_differs():
    same = {"store.hits": 2, "sim.instructions": 500, "server.deduped": 4}
    assert h.varying_counts([same, dict(same)]) == []
    assert h.varying_counts([same, dict(same, **{"server.deduped": 3})]) == ["server.deduped"]
    # Times may differ freely.
    assert h.varying_counts([dict(same, **{"sim.solo_s": 1.0}), same]) == []


# ------------------------------------------------------- tail percentiles
def test_ten_samples_beyond_the_percentile():
    assert h.samples_beyond(100, 90) == 10
    assert h.samples_beyond(99, 90) == 9
    assert h.min_samples(90) == 100
    assert h.min_samples(99) == 1000
    assert h.highest_percentile(100) == 90
    assert h.highest_percentile(250) == 95
    assert h.highest_percentile(1000) == 99
    assert h.highest_percentile(20) == 50
    assert h.highest_percentile(19) == 0


def test_percentile_matches_inclusive_quantiles():
    rng = random.Random(3)
    values = [rng.random() for _ in range(37)]
    quantiles = statistics.quantiles(values, n=10, method="inclusive")
    assert h.percentile(values, 50) == pytest.approx(statistics.median(values))
    assert h.percentile(values, 90) == pytest.approx(quantiles[8])
    assert h.percentile([4.0], 90) == 4.0


# ------------------------------------------------------------ seeded inputs
def test_seed_to_token_derivation():
    assert h.catalog_tokens(7) == [
        f"interleave:programs=1,base={name},seed=7" for name in h.CATALOG
    ]
    assert h.catalog_tokens(7, h.CORES)[0] == "interleave:programs=1,base=rapidjson,seed=7"
    assert len(h.CORES) == 2
    assert h.DEFAULT_SEED != h.HELD_OUT_SEED
    tokens = {
        h.serve_token(seed, client, round_index, slot)
        for seed in (1, 2)
        for client in range(2)
        for round_index in range(50)
        for slot in range(4)
    }
    assert len(tokens) == 2 * 2 * 50 * 4
    assert h.serve_token(1, 0, 0, 0) == "zipf:instructions=4000,warmup=1000,seed=10000000"


def test_catalog_subset_holds_half_the_catalog_instructions():
    from repro.workloads.spec import PROXY_BENCHMARK_NAMES, PROXY_BENCHMARKS

    def size(name):
        spec = PROXY_BENCHMARKS[name]
        return spec.eval_instructions + spec.warmup_instructions

    by_size = sorted(PROXY_BENCHMARK_NAMES, key=size)
    assert set(h.CATALOG) == set(by_size[1::2])
    share = sum(map(size, h.CATALOG)) / sum(map(size, PROXY_BENCHMARK_NAMES))
    assert 0.45 < share < 0.55


def test_tokens_resolve_to_seeded_specs():
    from repro.workloads.families import resolve_workload

    one, two = (resolve_workload(h.catalog_tokens(seed)[0]) for seed in (1, 2))
    assert one.seed == 1 and two.seed == 2
    assert one.eval_instructions == two.eval_instructions
    token = h.serve_token(3, 1, 2, 1)
    assert resolve_workload(token).seed == int(token.rsplit("=", 1)[1])


# ------------------------------------------------------------------ digests
@pytest.fixture(scope="module")
def tiny_result():
    from repro.testing import make_session
    from repro.workloads.spec import tiny_spec

    return make_session().run_one(tiny_spec(), "srrip").result.to_dict()


def test_digest_is_stable_across_serialisation(tiny_result):
    digest = h.result_digest(tiny_result)
    reloaded = json.loads(json.dumps(tiny_result))  # int line keys -> str
    shuffled = dict(reversed(list(reloaded.items())))
    assert h.result_digest(reloaded) == digest
    assert h.result_digest(shuffled) == digest
    assert h.result_digest(dict(tiny_result, cycles=tiny_result["cycles"] + 1)) != digest


def test_mismatches_counts_missing_and_differing_keys():
    assert h.mismatches({"a": "1", "b": "2"}, {"a": "1", "b": "2"}) == 0
    assert h.mismatches({"a": "1", "b": "3"}, {"a": "1", "b": "2", "c": "4"}) == 2


def test_pinned_digests_cover_both_seeds():
    pinned = h.load_pinned()
    for seed in (h.DEFAULT_SEED, h.HELD_OUT_SEED):
        assert set(pinned[str(seed)]) == {"paper_cold", "serve_mixed"}
        assert all(pinned[str(seed)].values())


def test_model_metrics_compare_trrip_with_srrip():
    base = {"cycles": 200.0, "l2_inst_misses": 40, "l2_data_misses": 5, "dram_accesses": 7}
    trrip = dict(base, cycles=100.0, l2_inst_misses=30)
    metrics = h.model_metrics([("b", "srrip", base), ("b", "trrip-1", trrip)])
    assert metrics["model.cycles"] == 300
    assert metrics["model.trrip1_l2i_mpki_reduction_pct"] == pytest.approx(25.0)
    assert metrics["model.trrip1_speedup_pct"] == pytest.approx(100.0)


# --------------------------------------------------------------- catalogue
def test_declared_metrics_are_labelled():
    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    labels = json.loads((BENCH_DIR / "metrics.json").read_text())
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert sorted(names) == sorted(labels["metrics"])
    assert {w["name"] for w in declared["workloads"]} == set(labels["workloads"])
    assert all(labels["metrics"][name]["kind"] for name in names)


def test_profile_buckets():
    assert h._bucket("/x/src/repro/cpu/frontend.py") == "cpu.frontend"
    assert h._bucket("/x/src/repro/core/trrip.py") == "cache.replacement"
    assert h._bucket("/x/src/repro/cache/replacement/rrip.py") == "cache.replacement"
    assert h._bucket("/x/src/repro/sim/simulator.py") == "other"
    assert h._bucket("~") is None


# ---------------------------------------------------------------- launcher
def launch(tmp_path, **env):
    """``launch.py run figure6 --spec tiny`` with the given instrument."""
    argv = [sys.executable, str(BENCH_DIR / "launch.py"), "run", "figure6"]
    argv += ["--spec", "tiny", "--store", str(tmp_path / "store")]
    env = dict(os.environ, PYTHONPATH=str(BENCH_DIR.parent / "src"), **env)
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)


def test_setup_launch_stops_at_the_first_session_call(tmp_path):
    stamp = tmp_path / "stamp"
    before = time.monotonic()
    done = launch(tmp_path, PERFBENCH_SETUP=str(stamp))
    assert done.returncode == 0, done.stderr
    assert before < float(stamp.read_text()) < time.monotonic()
    assert done.stdout == ""  # stopped before any work or rendering


def test_traced_launch_records_every_layer_of_a_run(tmp_path):
    spans_dir = tmp_path / "spans"
    spans_dir.mkdir()
    done = launch(
        tmp_path,
        PERFBENCH_SPANS=str(spans_dir),
        PERFBENCH_T0=repr(time.monotonic()),
        PERFBENCH_PARENT="h.run",
    )
    assert done.returncode == 0, done.stderr
    spans = h.read_spans(spans_dir)
    names = {span["name"] for span in spans}
    assert {
        "cli.startup",
        "cli.main",
        "cli.serialize",
        "api.sweep",
        "runner.run_lockstep_resolved",
        "pipeline.prepare",
        "tracegen.take_packed",
        "sim.lockstep",
        "store.get",
        "store.put",
    } <= names
    metrics = h.layer_metrics(spans)
    assert metrics["store.writes"] == metrics["store.misses"] == 9
