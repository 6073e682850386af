"""Trace capture and replay: persist packed traces, regenerate never.

Synthetic trace generation is deterministic but not free — for a paper-scale
spec it costs more than the simulation itself once the engine replays packed
columns.  Capture-and-replay (the CGReplay idea from the related work)
decouples the two: the first run of a workload **captures** its packed
warm-up/measured trace pair to disk, and every later run — same process,
another process, a CI job, a pool worker — **replays** the bytes instead of
re-walking the generator.  Because a :class:`~repro.common.trace.PackedTrace`
is already column-oriented machine integers, the on-disk format is simply a
versioned header plus the raw column bytes; replay is a handful of
``array.frombytes`` calls.

Keys reuse the content-hash machinery of the result store
(:mod:`repro.common.hashing`): a trace is fully determined by the *resolved*
:class:`~repro.workloads.spec.WorkloadSpec` and the
:class:`~repro.core.pipeline.PipelineOptions` that shaped the binary layout,
so :func:`trace_key` hashes exactly those (plus a schema version).  The same
inputs are part of every result-store key, which is what makes the guarantee
composable: a replayed trace feeds the simulator bit-identical columns, the
simulation produces a bit-identical result, and the run lands on the same
store key as a generated one (pinned by ``tests/test_capture.py`` and the CI
determinism job).

Layout under the archive root (default ``$REPRO_TRACE_DIR``, else
``<result-store root>/traces``):

* ``<k0k1>/<key>.trace`` — one captured (warm-up, measured) pair: an 8-byte
  magic, a little-endian header length, a JSON header echoing the key inputs
  (benchmark, lengths, column types, byte order), then the raw column bytes.

Corrupt, truncated or foreign-endian-incompatible files are treated as plain
misses and overwritten by the next capture.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from array import array
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.common.addressing import CACHE_LINE_SIZE
from repro.common.faults import fire_point
from repro.common.hashing import canonical_payload, stable_hash
from repro.common.trace import PackedTrace
from repro.workloads.spec import WorkloadSpec

if TYPE_CHECKING:  # the pipeline imports this package; keep layering acyclic
    from repro.core.pipeline import PipelineOptions

#: Bump when the on-disk layout or anything a key covers changes; old
#: entries then simply stop matching.  Version 2 added the precomputed
#: fetch-event columns for the standard cache line size, so replayed traces
#: skip the event scan; version 3 dropped version 2's per-instruction memory
#: line numbers, which replay no longer reads.  Older archives are treated
#: as plain misses and regenerated.
TRACE_SCHEMA_VERSION = 3

MAGIC = b"RPROTRC1"

#: The packed-trace columns, in on-disk order, with their array typecodes.
COLUMNS: tuple[tuple[str, str], ...] = (
    ("pc", "Q"),
    ("size", "H"),
    ("flags", "H"),
    ("branch_target", "Q"),
    ("mem_address", "Q"),
    ("depend_stall", "I"),
    ("issue_stall", "I"),
)

#: Cache line size the precomputed geometry columns are captured for (the
#: line size of every shipped configuration).  A replay at a different line
#: size simply recomputes lazily, exactly as before capture existed.
GEOMETRY_LINE_SIZE = CACHE_LINE_SIZE

#: The geometry columns, in on-disk order, one entry per fetch *event* (see
#: :meth:`~repro.common.trace.PackedTrace.fetch_events`).
GEOMETRY_COLUMNS: tuple[tuple[str, str], ...] = (
    ("event_indices", "I"),
    ("event_pcs", "Q"),
    ("event_flags", "H"),
    ("event_lines", "Q"),
)

#: Segment names of one capture, in on-disk order.
SEGMENTS = ("warmup", "measured")


class CaptureFormatError(Exception):
    """A trace file failed structural validation (treated as a cache miss)."""


def default_trace_root() -> Path:
    """``$REPRO_TRACE_DIR`` if set, else ``<result-store root>/traces``."""
    env = os.environ.get("REPRO_TRACE_DIR")
    if env:
        return Path(env)
    from repro.experiments.store import default_store_root

    return default_store_root() / "traces"


def trace_key(spec: WorkloadSpec, options: PipelineOptions) -> str:
    """Content hash identifying one workload's captured trace pair.

    The trace stream is fully determined by the resolved spec (footprints,
    rates, seed, window lengths) and the pipeline options (PGO layout moves
    the PCs), so those — plus the schema version — are exactly what is
    hashed.  The simulator configuration is *not* part of the key: its
    ``workload_scale`` is already applied to the resolved spec, and nothing
    else about it reaches the generator.
    """
    return stable_hash(
        {
            "schema": TRACE_SCHEMA_VERSION,
            "spec": canonical_payload(spec),
            "options": canonical_payload(options),
        }
    )


# ------------------------------------------------------------- file format
def _geometry_arrays(trace: PackedTrace) -> dict[str, array]:
    """The geometry columns of one trace for :data:`GEOMETRY_LINE_SIZE`.

    Computed (and cached on the trace) at capture time, so the process that
    generated a trace pays the event scan once and every replayer — this
    process included — reads it back as raw bytes.
    """
    indices, pcs, flags, lines = trace.fetch_events(GEOMETRY_LINE_SIZE)
    return {
        "event_indices": indices,
        "event_pcs": pcs,
        "event_flags": flags,
        "event_lines": lines,
    }


def write_trace_file(
    path: Path, warmup: PackedTrace, measured: PackedTrace, meta: dict
) -> None:
    """Serialise a (warm-up, measured) pair to ``path`` atomically."""
    segments = dict(zip(SEGMENTS, (warmup, measured)))
    geometries = {name: _geometry_arrays(trace) for name, trace in segments.items()}
    header = {
        "schema": TRACE_SCHEMA_VERSION,
        "byteorder": sys.byteorder,
        "meta": meta,
        "segments": [
            {
                "name": name,
                "length": len(trace),
                "columns": [
                    {
                        "name": column,
                        "typecode": typecode,
                        "itemsize": getattr(trace, column).itemsize,
                    }
                    for column, typecode in COLUMNS
                ],
                "geometry": {
                    "line_size": GEOMETRY_LINE_SIZE,
                    "events_length": len(geometries[name]["event_indices"]),
                    "columns": [
                        {
                            "name": column,
                            "typecode": typecode,
                            "itemsize": geometries[name][column].itemsize,
                        }
                        for column, typecode in GEOMETRY_COLUMNS
                    ],
                },
            }
            for name, trace in segments.items()
        ],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(MAGIC)
            handle.write(len(header_bytes).to_bytes(4, "little"))
            handle.write(header_bytes)
            for name, trace in segments.items():
                for column, _ in COLUMNS:
                    handle.write(getattr(trace, column).tobytes())
                geometry = geometries[name]
                for column, _ in GEOMETRY_COLUMNS:
                    handle.write(geometry[column].tobytes())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _read_column(
    payload: bytes, offset: int, column: dict, length: int, byteorder: str
) -> tuple[array, int]:
    typecode, itemsize = column["typecode"], column["itemsize"]
    values = array(typecode)
    nbytes = itemsize * length
    chunk = payload[offset : offset + nbytes]
    if len(chunk) != nbytes:
        raise CaptureFormatError("truncated column data")
    if values.itemsize == itemsize:
        values.frombytes(chunk)
        if byteorder != sys.byteorder:
            values.byteswap()
    else:
        # Foreign platform widths: decode item-by-item (correct, just slow).
        values.extend(
            int.from_bytes(chunk[i : i + itemsize], byteorder)
            for i in range(0, nbytes, itemsize)
        )
    return values, offset + nbytes


def read_trace_file(path: Path) -> tuple[PackedTrace, PackedTrace, dict]:
    """Load a (warm-up, measured) pair written by :func:`write_trace_file`.

    Raises :class:`CaptureFormatError` on any structural problem; callers
    (the archive) turn that into a plain miss.
    """
    try:
        payload = path.read_bytes()
    except OSError as error:
        raise CaptureFormatError(f"unreadable trace file: {error}") from error
    if payload[: len(MAGIC)] != MAGIC:
        raise CaptureFormatError("bad magic")
    offset = len(MAGIC)
    if len(payload) < offset + 4:
        raise CaptureFormatError("truncated header length")
    header_len = int.from_bytes(payload[offset : offset + 4], "little")
    offset += 4
    try:
        header = json.loads(payload[offset : offset + header_len])
    except ValueError as error:
        raise CaptureFormatError(f"bad header: {error}") from error
    offset += header_len
    if header.get("schema") != TRACE_SCHEMA_VERSION:
        raise CaptureFormatError(f"schema mismatch: {header.get('schema')!r}")
    byteorder = header.get("byteorder", "little")
    if byteorder not in ("little", "big"):
        raise CaptureFormatError(f"unknown byteorder {byteorder!r}")
    # A damaged-but-JSON-valid header (wrong field types, missing keys, bad
    # typecodes) must stay inside the CaptureFormatError contract so the
    # archive treats it as a miss instead of crashing the run.
    try:
        segment_entries = {
            entry["name"]: entry for entry in header.get("segments", ())
        }
        if tuple(segment_entries) != SEGMENTS:
            raise CaptureFormatError(
                f"unexpected segments {tuple(segment_entries)!r}"
            )
        traces: list[PackedTrace] = []
        for name in SEGMENTS:
            entry = segment_entries[name]
            declared = [column["name"] for column in entry["columns"]]
            if declared != [column for column, _ in COLUMNS]:
                raise CaptureFormatError(f"unexpected columns {declared!r}")
            length = entry["length"]
            if not isinstance(length, int) or length < 0:
                raise CaptureFormatError(f"bad segment length {length!r}")
            trace = PackedTrace()
            for column in entry["columns"]:
                values, offset = _read_column(
                    payload, offset, column, length, byteorder
                )
                setattr(trace, column["name"], values)
            # Geometry columns: restored straight into the trace's event
            # cache so replay skips the event scan.
            geometry = entry["geometry"]
            declared = [column["name"] for column in geometry["columns"]]
            if declared != [column for column, _ in GEOMETRY_COLUMNS]:
                raise CaptureFormatError(
                    f"unexpected geometry columns {declared!r}"
                )
            events_length = geometry["events_length"]
            if not isinstance(events_length, int) or events_length < 0:
                raise CaptureFormatError(
                    f"bad geometry events length {events_length!r}"
                )
            events = []
            for column in geometry["columns"]:
                values, offset = _read_column(
                    payload, offset, column, events_length, byteorder
                )
                events.append(values)
            trace.adopt_geometry(geometry["line_size"], tuple(events))
            traces.append(trace)
    except (KeyError, TypeError, ValueError, OverflowError) as error:
        raise CaptureFormatError(f"malformed header: {error}") from error
    if offset != len(payload):
        raise CaptureFormatError("trailing bytes after column data")
    return traces[0], traces[1], header.get("meta", {})


# ------------------------------------------------------------------ archive
class TraceArchive:
    """Content-addressed on-disk archive of captured packed traces.

    Safe to share between processes and pool workers for the same reason the
    result store is: writes are atomic renames, and two racing writers for
    one key produce byte-identical files (trace generation is
    deterministic).  Hit/miss/write counters are per-instance; the CLI
    reports them after each command.
    """

    def __init__(self, root: Path | str | None = None, refresh: bool = False):
        self.root = Path(root) if root is not None else default_trace_root()
        #: When set, every lookup misses but fresh captures are still written.
        self.refresh = refresh
        self.hits = 0
        self.misses = 0
        self.writes = 0
        #: Corrupted/truncated captures quarantined during lookups.
        self.corrupt = 0

    def stats(self) -> dict[str, int]:
        """Counter snapshot: ``{"hits", "misses", "writes", "corrupt"}``.

        Mirrors :meth:`repro.experiments.store.ResultStore.stats`; surfaced
        in CLI cache summaries and the ``repro serve`` ``/metrics`` payload.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt": self.corrupt,
        }

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.trace"

    def load(
        self, spec: WorkloadSpec, options: PipelineOptions
    ) -> Optional[tuple[PackedTrace, PackedTrace]]:
        """The captured (warm-up, measured) pair, or ``None`` on a miss."""
        if not self.refresh:
            path = self.path_for(trace_key(spec, options))
            if path.exists():
                try:
                    warmup, measured, _ = read_trace_file(path)
                except CaptureFormatError:
                    # Damaged capture: quarantine it next to the slot (the
                    # recapture's atomic rename lands cleanly, the bytes stay
                    # inspectable) and count it like the result store does.
                    self._quarantine(path)
                else:
                    self.hits += 1
                    return warmup, measured
        self.misses += 1
        return None

    def _quarantine(self, path: Path) -> None:
        target = path.with_suffix(".corrupt")
        try:
            os.replace(path, target)
        except OSError:  # pragma: no cover - racing workers, gone already
            return
        self.corrupt += 1

    def save(
        self,
        spec: WorkloadSpec,
        options: PipelineOptions,
        warmup: PackedTrace,
        measured: PackedTrace,
    ) -> Path:
        """Capture a (warm-up, measured) pair for ``spec`` (atomic)."""
        fire_point("trace.write")
        path = self.path_for(trace_key(spec, options))
        meta = {
            # The key inputs, echoed so archives are debuggable from a shell.
            "benchmark": spec.name,
            "warmup_instructions": len(warmup),
            "eval_instructions": len(measured),
            "options": canonical_payload(options),
        }
        write_trace_file(path, warmup, measured, meta)
        self.writes += 1
        return path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceArchive({str(self.root)!r})"
