"""Tests for trace capture/replay (:mod:`repro.workloads.capture`).

The load-bearing guarantee: a captured trace replayed through the engine is
**bit-identical** to regeneration — same packed columns, same simulation
result, same result-store key — for catalog specs and family-generated specs
alike.  The CI determinism job re-checks the same property end-to-end
through the installed CLI.
"""

from __future__ import annotations

import pytest

from repro.core.pipeline import PipelineOptions
from repro.experiments.runner import BenchmarkRunner
from repro.testing import make_session
from repro.workloads.capture import (
    MAGIC,
    CaptureFormatError,
    TraceArchive,
    read_trace_file,
    trace_key,
    write_trace_file,
)
from repro.workloads.families import WorkloadFamilySpec
from repro.workloads.spec import tiny_spec

FAMILY_TOKEN = "zipf:alpha=1.4,instructions=4000,warmup=1000"


def generate_pair(spec):
    """(warmup, measured) packed traces straight from the generator."""
    runner = BenchmarkRunner()
    return runner.packed_traces(runner._prepare_resolved(spec))


def columns(trace):
    return {
        name: getattr(trace, name).tobytes()
        for name in (
            "pc",
            "size",
            "flags",
            "branch_target",
            "mem_address",
            "depend_stall",
            "issue_stall",
        )
    }


# ------------------------------------------------------------------ file format
class TestTraceFile:
    def test_round_trip_is_column_exact(self, tmp_path):
        warmup, measured = generate_pair(tiny_spec())
        path = tmp_path / "tiny.trace"
        write_trace_file(path, warmup, measured, {"benchmark": "tinybench"})
        loaded_warmup, loaded_measured, meta = read_trace_file(path)
        assert columns(loaded_warmup) == columns(warmup)
        assert columns(loaded_measured) == columns(measured)
        assert len(loaded_measured) == len(measured)
        assert meta["benchmark"] == "tinybench"

    def test_replayed_records_match_generated_records(self, tmp_path):
        _, measured = generate_pair(tiny_spec())
        path = tmp_path / "tiny.trace"
        write_trace_file(path, measured, measured, {})
        _, loaded, _ = read_trace_file(path)
        assert loaded.to_records()[:100] == measured.to_records()[:100]

    @pytest.mark.parametrize(
        "corruption",
        ["magic", "truncate", "trailing", "garbage-header"],
    )
    def test_corrupt_files_raise_capture_format_error(self, tmp_path, corruption):
        warmup, measured = generate_pair(tiny_spec())
        path = tmp_path / "tiny.trace"
        write_trace_file(path, warmup, measured, {})
        payload = path.read_bytes()
        if corruption == "magic":
            payload = b"X" + payload[1:]
        elif corruption == "truncate":
            payload = payload[: len(payload) // 2]
        elif corruption == "trailing":
            payload += b"\0\0"
        else:
            payload = MAGIC + (99).to_bytes(4, "little") + b"{" * 99
        path.write_bytes(payload)
        with pytest.raises(CaptureFormatError):
            read_trace_file(path)

    def test_json_valid_but_type_corrupt_header_is_still_a_format_error(
        self, tmp_path
    ):
        """A damaged header that still parses as JSON must not escape the
        CaptureFormatError contract (the archive treats it as a miss)."""
        import json

        from repro.workloads.capture import TRACE_SCHEMA_VERSION

        warmup, measured = generate_pair(tiny_spec())
        path = tmp_path / "tiny.trace"
        write_trace_file(path, warmup, measured, {})
        payload = path.read_bytes()
        header_len = int.from_bytes(payload[8:12], "little")
        header = json.loads(payload[12 : 12 + header_len])

        def rewrite(mutate):
            mutated = json.loads(json.dumps(header))
            mutate(mutated)
            raw = json.dumps(mutated, sort_keys=True).encode("utf-8")
            path.write_bytes(
                payload[:8]
                + len(raw).to_bytes(4, "little")
                + raw
                + payload[12 + header_len :]
            )

        def corrupt_length(h):
            h["segments"][0]["length"] = "not-a-number"

        def corrupt_typecode(h):
            h["segments"][0]["columns"][0]["typecode"] = "z"

        def corrupt_byteorder(h):
            h["byteorder"] = "middle"

        def drop_columns(h):
            del h["segments"][0]["columns"][0]["name"]

        for mutate in (
            corrupt_length,
            corrupt_typecode,
            corrupt_byteorder,
            drop_columns,
        ):
            rewrite(mutate)
            with pytest.raises(CaptureFormatError):
                read_trace_file(path)
        assert TRACE_SCHEMA_VERSION == header["schema"]

    def test_write_is_atomic_leaves_no_temp_files(self, tmp_path):
        warmup, measured = generate_pair(tiny_spec())
        write_trace_file(tmp_path / "a.trace", warmup, measured, {})
        assert [p.name for p in tmp_path.iterdir()] == ["a.trace"]


# -------------------------------------------------------------------- trace key
class TestTraceKey:
    def test_key_covers_spec_and_options(self):
        options = PipelineOptions()
        base = trace_key(tiny_spec(), options)
        assert trace_key(tiny_spec(), options) == base  # deterministic
        assert trace_key(tiny_spec(seed=7), options) != base
        assert trace_key(tiny_spec(), PipelineOptions(apply_pgo=False)) != base

    def test_family_specs_key_by_canonical_parameters(self):
        options = PipelineOptions()
        a = WorkloadFamilySpec.parse("zipf:alpha=1.4,footprint_kb=64")
        b = WorkloadFamilySpec.parse("zipf:footprint_kb=64,alpha=1.4")
        assert trace_key(a.synthesize(), options) == trace_key(
            b.synthesize(), options
        )


# ---------------------------------------------------------------------- archive
class TestTraceArchive:
    def test_miss_then_save_then_hit(self, tmp_path):
        archive = TraceArchive(tmp_path)
        spec, options = tiny_spec(), PipelineOptions()
        assert archive.load(spec, options) is None
        warmup, measured = generate_pair(spec)
        archive.save(spec, options, warmup, measured)
        pair = archive.load(spec, options)
        assert pair is not None
        assert columns(pair[1]) == columns(measured)
        assert (archive.hits, archive.misses, archive.writes) == (1, 1, 1)

    def test_refresh_forces_misses_but_still_writes(self, tmp_path):
        archive = TraceArchive(tmp_path)
        spec, options = tiny_spec(), PipelineOptions()
        warmup, measured = generate_pair(spec)
        archive.save(spec, options, warmup, measured)
        refreshing = TraceArchive(tmp_path, refresh=True)
        assert refreshing.load(spec, options) is None
        assert refreshing.misses == 1

    def test_corrupt_entries_are_plain_misses(self, tmp_path):
        archive = TraceArchive(tmp_path)
        spec, options = tiny_spec(), PipelineOptions()
        warmup, measured = generate_pair(spec)
        path = archive.save(spec, options, warmup, measured)
        path.write_bytes(b"not a trace")
        assert archive.load(spec, options) is None


# ----------------------------------------------------- capture → replay == regen
class TestReplayBitIdentical:
    @pytest.mark.parametrize(
        "workload", [tiny_spec(), FAMILY_TOKEN], ids=["proxy", "family"]
    )
    def test_replayed_run_matches_generated_run(self, tmp_path, workload):
        capture = make_session(trace_root=tmp_path / "traces")
        generated = capture.run_one(workload, "trrip-1")
        assert capture.traces.writes == 1

        replay = make_session(trace_root=tmp_path / "traces")
        replayed = replay.run_one(workload, "trrip-1")
        assert replay.traces.hits == 1
        assert replay.traces.writes == 0
        assert replay.simulations_run == 1  # simulated, but from replayed bytes
        assert replayed.result.to_dict() == generated.result.to_dict()

    @pytest.mark.parametrize(
        "workload", [tiny_spec(), FAMILY_TOKEN], ids=["proxy", "family"]
    )
    def test_replayed_run_lands_on_the_same_store_key(self, tmp_path, workload):
        traces = tmp_path / "traces"
        first = make_session(store_root=tmp_path / "a", trace_root=traces)
        first.run_one(workload, "trrip-1")

        second = make_session(store_root=tmp_path / "b", trace_root=traces)
        second.run_one(workload, "trrip-1")
        assert second.traces.hits == 1

        keys_a = sorted(p.name for p in (tmp_path / "a").glob("runs/*/*.json"))
        keys_b = sorted(p.name for p in (tmp_path / "b").glob("runs/*/*.json"))
        assert keys_a and keys_a == keys_b
        for name in keys_a:
            entry_a = (tmp_path / "a" / "runs" / name[:2] / name).read_bytes()
            entry_b = (tmp_path / "b" / "runs" / name[:2] / name).read_bytes()
            assert entry_a == entry_b

    def test_replayed_store_hit_skips_trace_io_entirely(self, tmp_path):
        traces = tmp_path / "traces"
        store = tmp_path / "store"
        make_session(store_root=store, trace_root=traces).run_one(
            tiny_spec(), "trrip-1"
        )
        cached = make_session(store_root=store, trace_root=traces)
        cached.run_one(tiny_spec(), "trrip-1")
        assert cached.simulations_run == 0
        # A store hit never needs the trace: no archive traffic at all.
        assert (cached.traces.hits, cached.traces.misses) == (0, 0)

    def test_parallel_execution_replays_and_folds_counters(self, tmp_path):
        from repro.api import Scenario

        scenario = Scenario(
            benchmarks=tiny_spec(), policies=("srrip", "lru", "trrip-1")
        )
        capture = make_session(trace_root=tmp_path / "traces")
        serial = capture.run(scenario)
        assert capture.traces.writes == 1

        replay = make_session(trace_root=tmp_path / "traces")
        parallel = replay.run(scenario, jobs=2)
        assert [a.result.to_dict() for a in serial] == [
            a.result.to_dict() for a in parallel
        ]
        # Worker archive counters fold back into the session's archive.
        assert replay.traces.hits >= 1
        assert replay.traces.writes == 0


# ------------------------------------------------------------ schema version
class TestSchemaVersioning:
    def test_old_version_archive_is_a_miss_not_a_crash(self, tmp_path):
        """A version-1 archive (no geometry columns) must be regenerated."""
        import json

        spec = tiny_spec()
        archive = TraceArchive(tmp_path)
        warmup, measured = generate_pair(spec)
        options = PipelineOptions()
        path = archive.save(spec, options, warmup, measured)

        # Rewrite the header as schema version 1 (the pre-geometry layout).
        payload = path.read_bytes()
        header_len = int.from_bytes(payload[len(MAGIC) : len(MAGIC) + 4], "little")
        header = json.loads(payload[len(MAGIC) + 4 : len(MAGIC) + 4 + header_len])
        header["schema"] = 1
        for segment in header["segments"]:
            segment.pop("geometry", None)
        new_header = json.dumps(header, sort_keys=True).encode("utf-8")
        path.write_bytes(
            MAGIC
            + len(new_header).to_bytes(4, "little")
            + new_header
            + payload[len(MAGIC) + 4 + header_len :]
        )

        with pytest.raises(CaptureFormatError):
            read_trace_file(path)
        assert archive.load(spec, options) is None  # plain miss
        assert archive.misses == 1
        # The next capture simply overwrites the stale entry.
        archive.save(spec, options, warmup, measured)
        assert archive.load(spec, options) is not None

    def test_restored_geometry_matches_recomputation(self, tmp_path):
        """The archived geometry columns equal what a fresh scan computes."""
        from repro.workloads.capture import GEOMETRY_LINE_SIZE

        spec = tiny_spec()
        warmup, measured = generate_pair(spec)
        path = tmp_path / "geom.trace"
        write_trace_file(path, warmup, measured, {})
        _, loaded, _ = read_trace_file(path)

        # The loaded trace's caches are pre-seeded by adopt_geometry…
        assert GEOMETRY_LINE_SIZE in loaded._events_cache
        assert GEOMETRY_LINE_SIZE in loaded._mem_lines_cache
        restored = loaded.fetch_events(GEOMETRY_LINE_SIZE)
        restored_mem = loaded.mem_lines(GEOMETRY_LINE_SIZE)
        # …and byte-identical to recomputing from the raw columns.
        from repro.common.trace import PackedTrace

        fresh = PackedTrace()
        for name in (
            "pc",
            "size",
            "flags",
            "branch_target",
            "mem_address",
            "depend_stall",
            "issue_stall",
        ):
            getattr(fresh, name).frombytes(getattr(loaded, name).tobytes())
        computed = fresh.fetch_events(GEOMETRY_LINE_SIZE)
        for restored_column, computed_column in zip(restored, computed):
            assert restored_column.tobytes() == computed_column.tobytes()
        assert restored_mem.tobytes() == fresh.mem_lines(
            GEOMETRY_LINE_SIZE
        ).tobytes()
