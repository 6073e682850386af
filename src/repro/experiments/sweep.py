"""Shared policy-sweep machinery used by Figure 6 and Table 3.

Runs the (benchmark × policy) grid against the SRRIP baseline and exposes
speedup / MPKI-reduction / geomean accessors over it.  The CLI's
``repro sweep`` drives this directly with arbitrary benchmark and policy
lists; ``repro run figure6`` and ``repro run table3`` are fixed views of the
same sweep.

Beyond the plain in-memory sweep, this module is also the **fault-tolerant
execution layer** behind ``repro sweep``:

* :func:`build_manifest` expands a (benchmark × policy) grid into hashed
  :class:`SweepUnit` work units — one per simulation, keyed by the same
  content hash the result store uses — plus a manifest key hashing the
  whole unit list;
* :class:`SweepJournal` is an append-only JSONL checkpoint journal living
  next to the store (``<store>/journals/<manifest>.jsonl``) that records
  every unit state transition (running/done/failed, attempt count, worker
  id, duration) and tolerates a torn final line, so any crash leaves a
  readable history;
* :func:`execute_checkpointed` runs the pending units through a
  :class:`~repro.experiments.supervisor.SupervisedPool` (timeouts, retries
  with backoff, crash isolation) and returns a :class:`CheckpointedSweep` —
  the sweep plus a structured :class:`SweepExecutionReport` instead of a
  mid-flight traceback.

Resumability falls out of content addressing: a finished unit is durable in
the result store under its hash, so ``repro sweep --resume`` simply re-plans
the manifest, treats every loadable hash as done, and executes only the
missing ones.  Because simulations are deterministic, the resumed store and
report are byte-identical to an uninterrupted run's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from repro.cache.replacement.spec import PolicySpec
from repro.common.errors import (
    ConfigurationError,
    SweepExecutionError,
    SweepInterrupted,
)
from repro.common.faults import fire_point
from repro.common.hashing import stable_hash
from repro.common.journal import AppendOnlyJournal
from repro.core.pipeline import PipelineOptions
from repro.experiments.runner import BenchmarkRunner, _run_sweep_unit
from repro.experiments.store import run_key
from repro.experiments.supervisor import (
    SupervisedPool,
    SupervisionPolicy,
    worker_count,
)
from repro.sim.config import BASELINE_POLICY, SimulatorConfig
from repro.sim.results import (
    SimulationResult,
    geomean_reduction,
    geomean_speedup,
)
from repro.workloads.spec import WorkloadSpec
from repro.workloads.spec import resolve_spec as resolve_workload_spec


@dataclass
class PolicySweepResult:
    """All (benchmark, policy) simulation results plus derived metrics."""

    benchmarks: tuple[str, ...]
    policies: tuple[str, ...]
    baseline_policy: str
    results: dict[str, dict[str, SimulationResult]] = field(default_factory=dict)

    # ------------------------------------------------------------- accessors
    def baseline(self, benchmark: str) -> SimulationResult:
        return self.results[benchmark][self.baseline_policy]

    def result(self, benchmark: str, policy: str) -> SimulationResult:
        return self.results[benchmark][policy]

    def speedup(self, benchmark: str, policy: str) -> float:
        """Relative speedup of ``policy`` over the baseline (fraction)."""
        return self.result(benchmark, policy).speedup_over(self.baseline(benchmark))

    def mpki_reduction(self, benchmark: str, policy: str) -> tuple[float, float]:
        """(instruction, data) L2 MPKI reduction in percent."""
        return self.result(benchmark, policy).mpki_reduction_over(
            self.baseline(benchmark)
        )

    # --------------------------------------------------------------- geomeans
    def geomean_speedup(self, policy: str) -> float:
        return geomean_speedup(
            [self.speedup(benchmark, policy) for benchmark in self.benchmarks]
        )

    def geomean_inst_reduction(self, policy: str) -> float:
        return geomean_reduction(
            [self.mpki_reduction(b, policy)[0] for b in self.benchmarks]
        )

    def geomean_data_reduction(self, policy: str) -> float:
        return geomean_reduction(
            [self.mpki_reduction(b, policy)[1] for b in self.benchmarks]
        )

    def best_policy_by_speedup(self) -> str:
        return max(self.policies, key=self.geomean_speedup)


def run_policy_sweep(
    benchmarks: Sequence[str] | None = None,
    policies: Sequence[str] | None = None,
    config: SimulatorConfig | None = None,
    runner: BenchmarkRunner | None = None,
    jobs: int | None = None,
    session=None,
) -> PolicySweepResult:
    """Simulate every (benchmark, policy) pair against the SRRIP baseline.

    Thin wrapper over :meth:`repro.api.session.Session.sweep` keeping the
    historical signature: ``session=`` is the preferred handle, ``runner=``
    (an engine runner to adopt) and ``config=`` remain accepted.

    ``jobs`` spreads the (benchmark × policy) grid over worker processes
    (``0`` = every usable CPU, ``None``/``1`` = in-process).  Every grid
    point is an independent deterministic simulation, so the sweep contents
    are identical — including iteration order of the nested result dicts —
    for any ``jobs`` value.
    """
    from repro.api.session import Session

    session = Session.ensure(session, runner=runner, config=config)
    return session.sweep(
        benchmarks=benchmarks,
        policies=policies,
        baseline=BASELINE_POLICY,
        jobs=jobs,
    )


# ===================================================================== units
#: Bump when the manifest/journal format changes; old journals then simply
#: stop matching and ``--resume`` refuses them.
SWEEP_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SweepUnit:
    """One hashed work unit of a sweep: a single (benchmark, policy) run."""

    #: Position in the manifest (stable across runs and resumes).
    index: int
    benchmark: str
    policy: str
    #: Result-store content hash of this run — the durability token.
    key: str
    spec: WorkloadSpec
    policy_spec: PolicySpec


@dataclass(frozen=True)
class SweepManifest:
    """The full expansion of a sweep into work units, content-addressed.

    ``key`` hashes the ordered unit-key list (plus a schema version), so a
    manifest identifies *exactly* one sweep: same benchmarks, policies,
    configuration and pipeline options, in the same order.  The checkpoint
    journal is named after it — resuming with a different grid is a
    :class:`~repro.common.errors.ConfigurationError`, not silent corruption.
    """

    units: tuple[SweepUnit, ...]
    benchmarks: tuple[str, ...]
    policies: tuple[str, ...]
    baseline: str
    key: str

    def __len__(self) -> int:
        return len(self.units)


def build_manifest(
    benchmarks: Sequence[str | WorkloadSpec],
    policies: Sequence[str | PolicySpec],
    baseline: str | PolicySpec = BASELINE_POLICY,
    config: Optional[SimulatorConfig] = None,
    options: Optional[PipelineOptions] = None,
) -> SweepManifest:
    """Expand a (benchmark × policy) grid into hashed work units.

    Unit order is benchmark-major with the baseline first within each
    benchmark — exactly the order :meth:`Session.sweep` executes, so the
    checkpointed path produces the identical store contents and sweep
    result.
    """
    run_config = config or SimulatorConfig.default()
    run_options = options or PipelineOptions()
    baseline = PolicySpec.of(baseline)
    wanted = [PolicySpec.of(policy) for policy in policies]
    ordered = [baseline] + [policy for policy in wanted if policy != baseline]
    specs = [
        resolve_workload_spec(benchmark, run_config.workload_scale)
        for benchmark in benchmarks
    ]
    units = []
    for spec in specs:
        for policy in ordered:
            unit_config = run_config.with_l2_policy(policy)
            units.append(
                SweepUnit(
                    index=len(units),
                    benchmark=spec.name,
                    policy=policy.canonical(),
                    key=run_key(spec, policy, unit_config, run_options),
                    spec=spec,
                    policy_spec=policy,
                )
            )
    manifest_key = stable_hash(
        {
            "schema": SWEEP_SCHEMA_VERSION,
            "units": [unit.key for unit in units],
        }
    )
    return SweepManifest(
        units=tuple(units),
        benchmarks=tuple(spec.name for spec in specs),
        policies=tuple(policy.canonical() for policy in ordered),
        baseline=baseline.canonical(),
        key=manifest_key,
    )


# =================================================================== journal
class SweepJournal(AppendOnlyJournal):
    """Append-only JSONL checkpoint journal for one sweep manifest.

    The write/replay discipline (fsync per line, torn-tail-tolerant replay)
    lives in :class:`~repro.common.journal.AppendOnlyJournal`; this adds
    the manifest naming convention and the ``done``-unit view ``--resume``
    plans from.  The journal is an *audit log with resume hints* —
    correctness never depends on it, because the result store is the
    source of truth for what is durably done.
    """

    @classmethod
    def for_manifest(cls, store_root: Path, manifest_key: str) -> "SweepJournal":
        return cls(Path(store_root) / "journals" / f"{manifest_key}.jsonl")

    def done_units(self) -> set[int]:
        """Unit indices the journal saw complete (any prior run)."""
        return {
            int(event["unit"])
            for event in self.replay()
            if event["event"] == "done" and "unit" in event
        }


# ==================================================================== report
@dataclass
class SweepUnitFailure:
    """One unit that exhausted its retries (structured, for the summary)."""

    index: int
    benchmark: str
    policy: str
    key: str
    attempts: int
    kind: str  # "error" | "timeout" | "crash"
    message: str

    def describe(self) -> str:
        return (
            f"unit {self.index} ({self.benchmark}/{self.policy}) failed "
            f"after {self.attempts} attempt(s) [{self.kind}]: {self.message}"
        )


@dataclass
class SweepExecutionReport:
    """What happened while executing one sweep manifest."""

    total: int
    #: Units served straight from the result store (no execution needed).
    cached: int = 0
    #: Cached units that a *previous* journalled run completed — the part of
    #: ``cached`` that ``--resume`` recovered rather than re-simulated.
    resumed: int = 0
    #: Units dispatched to a worker at least once.
    attempted: int = 0
    succeeded: int = 0
    #: Units that needed more than one attempt.
    retried: int = 0
    failed: int = 0
    #: Units never dispatched (sweep aborted or interrupted first).
    not_run: int = 0
    #: Total seconds spent in retry backoff delays.
    backoff_total: float = 0.0
    #: True when the sweep stopped mid-flight (SweepInterrupted); completed
    #: units are durable and ``--resume`` picks up the rest.
    interrupted: bool = False
    failures: list[SweepUnitFailure] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """Every unit has a result (cached or freshly simulated)."""
        return (
            not self.interrupted
            and self.failed == 0
            and self.cached + self.succeeded == self.total
        )

    def summary_line(self) -> str:
        """The one-line execution summary ``repro sweep`` prints."""
        parts = [
            f"{self.total} unit(s)",
            f"{self.attempted} attempted",
            f"{self.succeeded} succeeded",
            f"{self.cached} cached",
            f"{self.retried} retried",
            f"{self.failed} failed",
        ]
        if self.resumed:
            parts.insert(4, f"{self.resumed} resumed")
        if self.not_run:
            parts.append(f"{self.not_run} not run")
        line = f"# sweep units: {', '.join(parts)}"
        if self.backoff_total > 0:
            line += f"; backoff {self.backoff_total:.2f}s"
        if self.interrupted:
            line += " [interrupted]"
        return line


@dataclass
class CheckpointedSweep:
    """A sweep result plus the execution report that produced it.

    ``sweep`` only carries every (benchmark, policy) cell when
    ``report.complete`` — renderers like Figure 6/Table 3 must check before
    indexing into it.
    """

    sweep: PolicySweepResult
    report: SweepExecutionReport
    manifest: SweepManifest
    journal_path: Path

    def raise_on_failure(self) -> None:
        """Exception path for programmatic callers (the CLI reports instead).

        Raises :class:`~repro.common.errors.SweepInterrupted` when the sweep
        stopped mid-flight and :class:`~repro.common.errors.SweepExecutionError`
        when units exhausted their retries; a no-op for a complete sweep.
        """
        if self.report.complete:
            return
        if self.report.interrupted:
            raise SweepInterrupted(
                f"sweep interrupted: {self.report.summary_line()} "
                "(resume=True picks up the missing units)"
            )
        details = "; ".join(f.describe() for f in self.report.failures)
        raise SweepExecutionError(
            f"sweep incomplete: {self.report.summary_line()}"
            + (f" — {details}" if details else "")
        )


# ================================================================= execution
def execute_checkpointed(
    runner: BenchmarkRunner,
    manifest: SweepManifest,
    jobs: Optional[int] = None,
    supervision: Optional[SupervisionPolicy] = None,
    resume: bool = False,
) -> CheckpointedSweep:
    """Execute a sweep manifest fault-tolerantly (see module docstring).

    Every pending unit runs in a supervised worker process — even with
    ``jobs=1`` — so a crash, hang or injected fault can never take the
    parent down.  Completed units are immediately durable (store write +
    journal line + counter fold-back), which is what makes interruption at
    *any* point recoverable with ``resume=True``.

    This function does not raise for unit failures or interruptions; it
    reports them structurally in :attr:`CheckpointedSweep.report`.  Callers
    that want an exception use
    :meth:`SweepExecutionReport.complete`/:class:`SweepExecutionError`.
    """
    if runner.store is None:
        raise ConfigurationError(
            "checkpointed sweeps need a persistent result store "
            "(pass --store or set REPRO_CACHE_DIR)"
        )
    supervision = supervision or SupervisionPolicy()
    store = runner.store
    journal = SweepJournal.for_manifest(store.root, manifest.key)

    prior_done: set[int] = set()
    if resume:
        if not journal.exists():
            raise ConfigurationError(
                f"nothing to resume: no journal for this sweep manifest "
                f"({manifest.key[:12]}…) under {journal.path.parent}"
            )
        prior_done = journal.done_units()

    report = SweepExecutionReport(total=len(manifest))
    results: dict[int, SimulationResult] = {}
    pending: list[SweepUnit] = []
    for unit in manifest.units:
        stored = store.load_run(unit.key, record=False)
        if stored is not None:
            store.hits += 1
            results[unit.index] = stored.result
            report.cached += 1
            if unit.index in prior_done:
                report.resumed += 1
        else:
            pending.append(unit)

    journal.record(
        "begin",
        schema=SWEEP_SCHEMA_VERSION,
        manifest=manifest.key,
        total=len(manifest),
        cached=report.cached,
        pending=[unit.index for unit in pending],
        resume=resume,
    )

    try:
        if pending:
            _execute_pending(runner, pending, journal, report, results, jobs, supervision)
        status = (
            "interrupted"
            if report.interrupted
            else ("failed" if report.failed else "complete")
        )
        journal.record("end", status=status)
    finally:
        journal.close()

    report.not_run = report.total - report.cached - report.succeeded - report.failed

    sweep = PolicySweepResult(
        benchmarks=manifest.benchmarks,
        policies=manifest.policies,
        baseline_policy=manifest.baseline,
    )
    for unit in manifest.units:
        if unit.index in results:
            sweep.results.setdefault(unit.benchmark, {})[unit.policy] = results[
                unit.index
            ]
    return CheckpointedSweep(
        sweep=sweep, report=report, manifest=manifest, journal_path=journal.path
    )


def _execute_pending(
    runner: BenchmarkRunner,
    pending: list[SweepUnit],
    journal: SweepJournal,
    report: SweepExecutionReport,
    results: dict[int, SimulationResult],
    jobs: Optional[int],
    supervision: SupervisionPolicy,
) -> None:
    """Run the pending units through a supervised pool, checkpointing each."""
    workers = worker_count(jobs, len(pending))
    completed = 0

    def on_start(position: int, attempt: int, worker_id: int) -> None:
        unit = pending[position]
        journal.record(
            "running",
            unit=unit.index,
            key=unit.key,
            attempt=attempt,
            worker=worker_id,
        )

    def on_result(position, attempt, worker_id, duration, value) -> None:
        nonlocal completed
        unit = pending[position]
        result, simulated, store_delta, trace_delta = value
        # Fold + record *before* the failure point below: a completed unit
        # is durable and visible even when the sweep is interrupted right
        # after it.
        runner.fold_worker_counters(simulated, store_delta, trace_delta)
        results[unit.index] = result
        journal.record(
            "done",
            unit=unit.index,
            key=unit.key,
            attempt=attempt,
            worker=worker_id,
            duration=round(duration, 6),
            simulated=simulated,
        )
        completed += 1
        fire_point("sweep.completed", completed)

    def on_retry(position, attempt, worker_id, kind, message, delay) -> None:
        unit = pending[position]
        journal.record(
            "retry",
            unit=unit.index,
            key=unit.key,
            attempt=attempt,
            worker=worker_id,
            kind=kind,
            message=message,
            delay=round(delay, 6),
        )

    def on_failed(position, attempts, kind, message) -> None:
        unit = pending[position]
        journal.record(
            "failed",
            unit=unit.index,
            key=unit.key,
            attempts=attempts,
            kind=kind,
            message=message,
        )
        report.failures.append(
            SweepUnitFailure(
                index=unit.index,
                benchmark=unit.benchmark,
                policy=unit.policy,
                key=unit.key,
                attempts=attempts,
                kind=kind,
                message=message,
            )
        )

    pool = SupervisedPool(
        _run_sweep_unit,
        workers=workers,
        initializer=_init_sweep_worker,
        initargs=(
            runner.config,
            runner.pipeline_options,
            runner.store,
            runner.trace_archive,
        ),
        policy=supervision,
        on_start=on_start,
        on_result=on_result,
        on_retry=on_retry,
        on_failed=on_failed,
    )
    payloads = [(unit.index, unit.spec, unit.policy_spec) for unit in pending]
    try:
        pool.run(payloads)
    except SweepInterrupted:
        report.interrupted = True
    finally:
        for outcome in pool.outcomes:
            if outcome.attempts > 0:
                report.attempted += 1
            if outcome.attempts > 1:
                report.retried += 1
            if outcome.status == "done":
                report.succeeded += 1
            elif outcome.status == "failed":
                report.failed += 1
        if pool.report is not None:
            report.backoff_total += pool.report.backoff_total


def _init_sweep_worker(config, pipeline_options, store, trace_archive) -> None:
    """Sweep workers are grid workers: same per-process engine runner."""
    from repro.experiments.runner import _init_grid_worker

    _init_grid_worker(config, pipeline_options, store, trace_archive)
