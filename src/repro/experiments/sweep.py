"""The fault-tolerant report behind ``repro sweep``.

``repro sweep`` runs a (benchmark × policy) grid against the SRRIP baseline
with arbitrary benchmark and policy lists; ``repro run figure6`` and
``repro run table3`` are fixed views of the same grid, run in memory by
:func:`repro.experiments.policy_sweep.run_policy_sweep` (re-exported here
with :class:`~repro.experiments.policy_sweep.PolicySweepResult`, so a warm
re-render loads neither this module nor the supervisor it uses).

:meth:`repro.api.session.Session.sweep_checkpointed` runs the grid through
the session executor with a
:class:`~repro.experiments.supervisor.SupervisionPolicy`: points the result
store holds are loaded, and the rest run as one lockstep task per workload
in supervised worker processes (timeouts, retries with backoff, crash
isolation).  :func:`execute_checkpointed` turns the pool's outcomes into a
:class:`CheckpointedSweep` — the sweep plus a structured
:class:`SweepExecutionReport` instead of a mid-flight traceback.

The report counts points ("units"), but the **task fails as one**: a fault
on one point fails its workload's task and every point in it is retried,
failed or left not run; ``max_retries`` counts task attempts (each point
still runs at most ``1 + max_retries`` times) and ``unit_timeout`` is
seconds per point, so a task of k points gets k times the budget.

Re-running is the resume: a finished point is durable in the result store
under its content hash, so running the same sweep again loads every stored
point and simulates only the missing ones.  Because simulations are
deterministic, the store and report are then byte-identical to an
uninterrupted run's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.api.session import _run_task
from repro.common.errors import SweepExecutionError, SweepInterrupted
from repro.experiments.policy_sweep import (  # noqa: F401 - re-exported
    PolicySweepResult,
    run_policy_sweep,
)

if TYPE_CHECKING:
    from repro.api.scenario import RunRequest
    from repro.api.session import Session
    from repro.experiments.supervisor import SupervisionPolicy

#: The name ``perfbench/spans.py`` wraps as the sweep's worker function;
#: supervised tasks run :func:`repro.api.session._run_task`.
_run_sweep_unit = _run_task


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
    """What happened while executing one sweep's units (grid points)."""

    total: int
    #: Units served straight from the result store (no execution needed).
    cached: int = 0
    #: Units dispatched to a worker at least once.
    attempted: int = 0
    succeeded: int = 0
    #: Units whose task was scheduled for a retry at least once, whether or
    #: not the retry ran.
    retried: int = 0
    failed: int = 0
    #: Units with neither a result nor a final failure when the sweep
    #: stopped, including units waiting on a retry.
    not_run: int = 0
    #: Total seconds spent in retry backoff delays.
    backoff_total: float = 0.0
    #: True when the sweep stopped mid-flight (SweepInterrupted); completed
    #: units are durable and a re-run picks up the rest.
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
                "(running the same sweep again finishes the missing units)"
            )
        details = "; ".join(f.describe() for f in self.report.failures)
        raise SweepExecutionError(
            f"sweep incomplete: {self.report.summary_line()}"
            + (f" — {details}" if details else "")
        )


# ================================================================= execution
def execute_checkpointed(
    session: Session,
    requests: Sequence[RunRequest],
    sweep: PolicySweepResult,
    jobs: int | None,
    supervision: SupervisionPolicy,
) -> CheckpointedSweep:
    """Run a sweep's requests supervised and report what happened.

    ``requests`` are the grid's points in sweep order and ``sweep`` the
    empty result their runs fill.  The session executor runs them with
    ``supervision`` (see :meth:`~repro.api.session.Session._execute_requests`);
    a point it loaded in-process from the store counts as ``cached``, every
    other point takes the outcome of its task.  This function does not
    raise for unit failures or interruptions; it reports them in
    :attr:`CheckpointedSweep.report`.
    """
    runs, outcomes, pool = session._execute_requests(requests, jobs, supervision)
    sweep.add(requests, runs)
    report = SweepExecutionReport(total=len(requests))
    if pool is not None:
        report.backoff_total = pool.backoff_total
        report.interrupted = pool.interrupted
    for index, (request, outcome) in enumerate(zip(requests, outcomes)):
        if outcome is None:
            report.cached += 1
            continue
        report.attempted += outcome.attempts > 0
        report.retried += outcome.retried
        if outcome.status == "done":
            report.succeeded += 1
        elif outcome.status == "failed":
            report.failed += 1
            last = outcome.failures[-1]
            report.failures.append(
                SweepUnitFailure(
                    index=index,
                    benchmark=request.spec.name,
                    policy=request.policy.canonical(),
                    key=request.store_key(),
                    attempts=outcome.attempts,
                    kind=last.kind,
                    message=last.message,
                )
            )
    report.not_run = report.total - report.cached - report.succeeded - report.failed
    return CheckpointedSweep(sweep=sweep, report=report)
