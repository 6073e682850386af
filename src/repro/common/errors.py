"""Exception hierarchy for the TRRIP reproduction library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class ConfigurationError(ReproError):
    """Raised when a simulator, cache or workload configuration is invalid."""


class SimulationError(ReproError):
    """Raised when the simulator reaches an inconsistent state."""


class WorkloadError(ReproError):
    """Raised when a workload specification or trace cannot be produced."""


class CompilationError(ReproError):
    """Raised by the synthetic compiler/PGO pipeline."""


class InjectedFault(ReproError):
    """Raised by an armed fault-injection point (see :mod:`repro.common.faults`).

    Only ever raised when the ``REPRO_FAULTS`` knob (or a programmatic
    :class:`~repro.common.faults.FaultPlan`) arms a ``raise`` directive, so
    seeing this outside a test or the CI chaos job means the knob leaked
    into a real environment.
    """


class SweepInterrupted(ReproError):
    """A supervised sweep stopped mid-flight (injected abort or operator
    stop).  Completed points are durable in the result store; running the
    same ``repro sweep`` again simulates only the missing ones."""


class SweepExecutionError(ReproError):
    """A checkpointed sweep finished with failed units (retries exhausted)."""


class JobTimeout(ReproError, TimeoutError):
    """A served job did not reach a terminal state within the wait budget.

    Raised by :meth:`repro.server.jobs.JobManager.wait` and
    :meth:`repro.client.ReproClient.wait` instead of spinning forever — a
    job adopted by another replica (or a daemon that never comes back) must
    surface as a bounded, named failure.  Subclasses :class:`TimeoutError`
    so pre-existing ``except TimeoutError`` call sites keep working.
    """


class LoaderError(ReproError):
    """Raised by the OS model when an ELF image cannot be mapped."""
