"""On-disk result store for cached simulation runs.

Every simulation the experiment harness performs is fully determined by four
inputs: the *resolved* (config-scaled) :class:`~repro.workloads.spec.WorkloadSpec`,
the L2 replacement policy, the :class:`~repro.sim.config.SimulatorConfig`
actually simulated, and the compile/load-time
:class:`~repro.core.pipeline.PipelineOptions`.  The store keys each run by a
SHA-256 content hash of those inputs (see :mod:`repro.common.hashing`), so
regenerating a figure a second time — from the same process, a new process,
or a pool worker — is a cache hit instead of a re-simulation.

Physical storage is delegated to a pluggable
:class:`~repro.experiments.backends.StoreBackend` (selected via the
``backend=`` argument, the ``REPRO_STORE_BACKEND`` environment variable or
the CLI's ``--store-backend``).  The default ``dir`` backend keeps the
historical layout under the store root (default ``~/.cache/repro``,
overridable with the ``REPRO_CACHE_DIR`` environment variable or the CLI's
``--store``):

* ``runs/<k0k1>/<key>.json`` — one cached :class:`~repro.sim.results.SimulationResult`
  (plus reuse-distance histograms when the run tracked them), with the key
  inputs echoed for debuggability;
* ``reports/<experiment>.json`` — the rendered output of the most recent
  ``repro run <experiment>``, consumed by ``repro report``.

The ``sqlite`` backend stores the same namespaces as rows of a single
``store.sqlite3`` database under the same root.  Entries never expire on
their own; the key embeds a schema version, so a format change simply stops
matching old entries.  ``refresh=True`` makes every lookup miss while still
writing fresh entries (the CLI's ``--refresh``), and deleting the root
directory invalidates everything.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.analysis.reuse import REUSE_BUCKETS, ReuseDistanceTracker
from repro.cache.replacement.spec import PolicySpec
from repro.experiments.backends import CorruptEntry, StoreBackend, open_backend
from repro.common.faults import fire_point
from repro.common.hashing import canonical_payload, stable_hash
from repro.core.pipeline import PipelineOptions
from repro.sim.config import SimulatorConfig
from repro.sim.multicore import MulticoreResult
from repro.sim.results import SimulationResult
from repro.workloads.spec import WorkloadSpec

#: Bump when the cached-entry format (or anything about what a key covers)
#: changes; old entries then simply stop matching.
SCHEMA_VERSION = 1


def default_store_root() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def run_key(
    spec: WorkloadSpec,
    policy: "str | PolicySpec",
    config: SimulatorConfig,
    options: PipelineOptions,
) -> str:
    """Content hash identifying one simulation run.

    ``policy`` is hashed in canonical string form (see
    :meth:`~repro.cache.replacement.spec.PolicySpec.canonical`), so a
    parameterless :class:`PolicySpec` and the bare policy name produce the
    same key — entries written before specs existed keep matching.
    """
    return stable_hash(
        {
            "schema": SCHEMA_VERSION,
            "spec": canonical_payload(spec),
            "policy": PolicySpec.of(policy).canonical(),
            "config": canonical_payload(config),
            "options": canonical_payload(options),
        }
    )


def multicore_run_key(
    specs: "list[WorkloadSpec] | tuple[WorkloadSpec, ...]",
    policy: "str | PolicySpec",
    config: SimulatorConfig,
    options: PipelineOptions,
    interleave: "tuple[int, ...]",
) -> str:
    """Content hash identifying one interleaved multi-core run.

    The payload carries an explicit ``kind`` discriminator absent from
    :func:`run_key` payloads, so multi-core keys can never collide with —
    or invalidate — legacy single-core entries.  Core order matters (core 0
    of ``a,b`` is not core 0 of ``b,a``), so specs hash as an ordered list.
    """
    return stable_hash(
        {
            "schema": SCHEMA_VERSION,
            "kind": "multicore",
            "specs": [canonical_payload(spec) for spec in specs],
            "policy": PolicySpec.of(policy).canonical(),
            "config": canonical_payload(config),
            "options": canonical_payload(options),
            "interleave": list(interleave),
        }
    )


@dataclass
class StoredRun:
    """A cached simulation result plus optional reuse-distance side products."""

    result: SimulationResult
    reuse_num_sets: Optional[int] = None
    reuse_base: Optional[dict[str, int]] = None
    reuse_hot_only: Optional[dict[str, int]] = None

    @property
    def has_reuse(self) -> bool:
        return self.reuse_num_sets is not None

    def reuse_tracker(self) -> Optional[ReuseDistanceTracker]:
        """Rebuild a tracker exposing the cached histograms (Figure 3)."""
        if not self.has_reuse:
            return None
        tracker = ReuseDistanceTracker(self.reuse_num_sets)
        tracker.base.counts = {
            bucket: int(self.reuse_base.get(bucket, 0)) for bucket in REUSE_BUCKETS
        }
        tracker.hot_only.counts = {
            bucket: int(self.reuse_hot_only.get(bucket, 0))
            for bucket in REUSE_BUCKETS
        }
        return tracker

    @classmethod
    def from_tracker(
        cls, result: SimulationResult, tracker: Optional[ReuseDistanceTracker]
    ) -> "StoredRun":
        if tracker is None:
            return cls(result=result)
        return cls(
            result=result,
            reuse_num_sets=tracker.num_sets,
            reuse_base=dict(tracker.base.counts),
            reuse_hot_only=dict(tracker.hot_only.counts),
        )


class ResultStore:
    """Content-addressed store of simulation runs and experiment reports.

    The store is safe to share between pool workers: both shipped backends
    write atomically, and two workers racing on the same key write
    byte-identical content (simulations are deterministic).  Hit/miss/write
    counters are per-instance — the CLI reports them after each command and
    the ``repro serve`` daemon aggregates them into ``/metrics``
    (:meth:`stats`).
    """

    def __init__(
        self,
        root: Path | str | None = None,
        refresh: bool = False,
        backend: "str | StoreBackend | None" = None,
    ):
        self.root = Path(root) if root is not None else default_store_root()
        #: Physical storage engine (``dir`` files or a ``sqlite`` database);
        #: see :mod:`repro.experiments.backends` for selection rules.
        self.backend = open_backend(backend, self.root)
        #: When set, every lookup misses but fresh results are still written.
        self.refresh = refresh
        self.hits = 0
        self.misses = 0
        self.writes = 0
        #: Corrupted/truncated entries quarantined during lookups.
        self.corrupt = 0

    def stats(self) -> dict[str, int]:
        """Counter snapshot: ``{"hits", "misses", "writes", "corrupt"}``.

        ``corrupt`` counts entries this instance quarantined mid-lookup —
        surfaced in CLI cache summaries, ``repro report`` provenance and the
        server's ``/metrics``.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt": self.corrupt,
        }

    # -------------------------------------------------------------- run cache
    def load_run(
        self, key: str, need_reuse: bool = False, record: bool = True
    ) -> Optional[StoredRun]:
        """The cached run for ``key``, or ``None`` on a miss.

        ``need_reuse=True`` also requires the entry to carry reuse-distance
        histograms; an entry without them counts as a miss (the re-run will
        overwrite it with the histograms included).  ``record=False``
        suppresses the hit/miss counters — planning reads by the sweep
        scheduler use it so units later executed by a worker are not
        double-counted.
        """
        entry = None
        if not self.refresh:
            entry = self._read_entry("runs", key)
        if entry is not None and entry.get("schema") == SCHEMA_VERSION:
            reuse = entry.get("reuse")
            if not need_reuse or reuse is not None:
                if record:
                    self.hits += 1
                return StoredRun(
                    result=SimulationResult.from_dict(entry["result"]),
                    reuse_num_sets=reuse["num_sets"] if reuse else None,
                    reuse_base=reuse["base"] if reuse else None,
                    reuse_hot_only=reuse["hot_only"] if reuse else None,
                )
        if record:
            self.misses += 1
        return None

    def holds(self, key: str, need_reuse: bool = False) -> bool:
        """Whether :meth:`load_run` (or :meth:`load_multicore`) would hit
        ``key``, counting neither a hit nor a miss: the executor probes a
        plan with it, so a point later loaded or simulated by a pool worker
        is counted once."""
        entry = None if self.refresh else self._read_entry("runs", key)
        return (
            entry is not None
            and entry.get("schema") == SCHEMA_VERSION
            and (not need_reuse or entry.get("reuse") is not None)
        )

    def save_run(
        self,
        key: str,
        run: StoredRun,
        spec: WorkloadSpec,
        policy: "str | PolicySpec",
        config: SimulatorConfig,
        options: PipelineOptions,
    ) -> None:
        """Persist a finished run under ``key`` (atomic overwrite)."""
        entry = {
            "schema": SCHEMA_VERSION,
            # The key inputs, echoed so entries are debuggable with jq/less.
            "benchmark": spec.name,
            "policy": PolicySpec.of(policy).canonical(),
            "config_name": config.name,
            "config_hash": config.content_hash(),
            "options": canonical_payload(options),
            "result": run.result.to_dict(),
            "reuse": (
                {
                    "num_sets": run.reuse_num_sets,
                    "base": run.reuse_base,
                    "hot_only": run.reuse_hot_only,
                }
                if run.has_reuse
                else None
            ),
        }
        self._write_entry("runs", key, entry)
        self.writes += 1

    # --------------------------------------------------------- multicore runs
    def load_multicore(
        self, key: str, record: bool = True
    ) -> Optional[MulticoreResult]:
        """The cached multi-core run for ``key``, or ``None`` on a miss."""
        entry = None
        if not self.refresh:
            entry = self._read_entry("runs", key)
        if (
            entry is not None
            and entry.get("schema") == SCHEMA_VERSION
            and entry.get("kind") == "multicore"
        ):
            if record:
                self.hits += 1
            return MulticoreResult.from_dict(entry["result"])
        if record:
            self.misses += 1
        return None

    def save_multicore(
        self,
        key: str,
        result: MulticoreResult,
        specs: "list[WorkloadSpec] | tuple[WorkloadSpec, ...]",
        policy: "str | PolicySpec",
        config: SimulatorConfig,
        options: PipelineOptions,
    ) -> None:
        """Persist a finished multi-core run under ``key`` (atomic overwrite)."""
        entry = {
            "schema": SCHEMA_VERSION,
            "kind": "multicore",
            "benchmarks": [spec.name for spec in specs],
            "policy": PolicySpec.of(policy).canonical(),
            "config_name": config.name,
            "config_hash": config.content_hash(),
            "options": canonical_payload(options),
            "interleave": list(result.interleave),
            "result": result.to_dict(),
        }
        self._write_entry("runs", key, entry)
        self.writes += 1

    # ---------------------------------------------------------------- reports
    def save_report(self, experiment: str, payload: dict) -> None:
        """Persist the rendered output of ``repro run <experiment>``."""
        self._write_entry(
            "reports", experiment, {"schema": SCHEMA_VERSION, **payload}
        )

    def load_report(self, experiment: str) -> Optional[dict]:
        """The most recent report for ``experiment``, or ``None``."""
        entry = self._read_entry("reports", experiment)
        if entry is not None and entry.get("schema") == SCHEMA_VERSION:
            return entry
        return None

    # -------------------------------------------------------------- internals
    def _read_entry(self, space: str, key: str) -> Optional[dict]:
        try:
            return self.backend.load(space, key)
        except CorruptEntry:
            # Damaged bytes (torn write, disk corruption) are a miss; the
            # backend already quarantined them out of the way so the
            # re-run's atomic rewrite lands in a clean slot and the damage
            # stays inspectable.
            self.corrupt += 1
            return None

    def _write_entry(self, space: str, key: str, payload: dict) -> None:
        fire_point("store.write")
        self.backend.save(space, key, payload)
