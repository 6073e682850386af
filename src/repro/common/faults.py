"""Deterministic fault injection for the fault-tolerance harness.

Recovery paths are only trustworthy if they can be exercised on demand, so
the execution layer is instrumented with named **failure points**: a call to
:func:`fire_point` at the top of a supervised task, once per point, before
every result-store write, after every completed sweep point.  A failure
point does nothing unless a :class:`FaultPlan` arms it — normally via the
``REPRO_FAULTS`` environment variable, which both the tests and the CI
chaos job use because it crosses process boundaries for free (worker
processes inherit the environment).

Plan syntax (semicolon-separated directives)::

    REPRO_FAULTS="site:index=kind[:arg][*limit]"

    sweep.unit:1=kill            worker running unit 1 dies (os._exit) once
    sweep.unit:0=hang:30         unit 0 sleeps 30s on its first attempt
    sweep.unit:2=raise*          unit 2 raises InjectedFault on every attempt
    store.write:0=enospc         first store write of a process gets ENOSPC
    sweep.completed:2=abort      interrupt the sweep after 2 completed units

``index`` selects which occurrence of a site fires: the point's index in
the sweep's plan for ``sweep.unit``, the per-process write ordinal for
``store.write``/``trace.write``, the completed-point count for
``sweep.completed``.  ``limit`` bounds the *attempt* numbers that fire
(default 1, so a retried unit succeeds; ``*`` alone means every attempt).
Everything is deterministic — no randomness, no wall-clock — so a chaos run
is exactly reproducible.

The kinds:

``raise``
    raise :class:`~repro.common.errors.InjectedFault` (a plain worker error);
``kill``
    ``os._exit(43)`` — the process dies without unwinding, modelling an
    OOM-kill or segfault;
``hang``
    sleep for ``arg`` seconds (finite, >= 0; default 3600), modelling a
    wedged worker;
``enospc``
    raise ``OSError(ENOSPC)``, modelling a full disk;
``abort``
    raise :class:`~repro.common.errors.SweepInterrupted`, modelling the
    whole sweep being stopped mid-flight (host reboot, CI shard eviction).

This module is deliberately import-light (only :mod:`repro.common.errors`)
so the store and the engine can call :func:`fire_point` without layering
cycles; :mod:`repro.testing` re-exports the public names for test code.
"""

from __future__ import annotations

import errno
import math
import os
import time
from dataclasses import dataclass
from typing import Optional

from repro.common.errors import (
    ConfigurationError,
    InjectedFault,
    SweepInterrupted,
)

#: Environment variable holding the active fault plan.
ENV_VAR = "REPRO_FAULTS"

#: The recognised failure kinds (see module docstring).
KINDS = ("raise", "kill", "hang", "enospc", "abort")

#: Exit code used by ``kill`` directives, distinctive in supervisor reports.
KILL_EXIT_CODE = 43


@dataclass(frozen=True)
class FaultDirective:
    """One armed failure: fire ``kind`` at occurrence ``index`` of ``site``."""

    site: str
    index: int
    kind: str
    #: Kind-specific argument (sleep seconds for ``hang``).
    arg: Optional[float] = None
    #: Fire only while the attempt number is <= limit; ``None`` = always.
    limit: Optional[int] = 1

    def fire(self) -> None:
        where = f"{self.site}:{self.index}"
        if self.kind == "raise":
            raise InjectedFault(f"injected failure at {where}")
        if self.kind == "kill":
            os._exit(KILL_EXIT_CODE)
        if self.kind == "hang":
            time.sleep(self.arg if self.arg is not None else 3600.0)
            return
        if self.kind == "enospc":
            raise OSError(
                errno.ENOSPC, f"No space left on device (injected at {where})"
            )
        if self.kind == "abort":
            raise SweepInterrupted(f"injected interruption at {where}")
        raise AssertionError(f"unknown fault kind {self.kind!r}")


class FaultPlan:
    """A parsed set of :class:`FaultDirective` entries."""

    def __init__(self, directives: tuple[FaultDirective, ...] = ()):
        self.directives = tuple(directives)

    def __bool__(self) -> bool:
        return bool(self.directives)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a ``REPRO_FAULTS`` plan string (see module docstring)."""
        directives = []
        for token in text.split(";"):
            token = token.strip()
            if not token:
                continue
            try:
                directives.append(_parse_directive(token))
            except ValueError as error:
                raise ConfigurationError(
                    f"bad {ENV_VAR} directive {token!r}: {error} "
                    "(expected site:index=kind[:arg][*limit])"
                ) from None
        return cls(tuple(directives))

    def directive(self, site: str, index: int) -> Optional[FaultDirective]:
        for directive in self.directives:
            if directive.site == site and directive.index == index:
                return directive
        return None


def _parse_directive(token: str) -> FaultDirective:
    left, sep, right = token.partition("=")
    if not sep or not right:
        raise ValueError("missing '=kind'")
    site, sep, index_text = left.partition(":")
    if not sep:
        raise ValueError("missing ':index' on the site")
    index = int(index_text)
    limit: Optional[int] = 1
    if "*" in right:
        right, _, limit_text = right.rpartition("*")
        limit = int(limit_text) if limit_text else None
    kind, _, arg_text = right.partition(":")
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r} (one of {', '.join(KINDS)})")
    arg = float(arg_text) if arg_text else None
    if kind == "hang" and arg is not None and not (math.isfinite(arg) and arg >= 0):
        # time.sleep would raise ValueError/OverflowError when the site
        # fires, far from the directive that caused it.
        raise ValueError(f"hang needs finite seconds >= 0, got {arg_text!r}")
    return FaultDirective(site=site, index=index, kind=kind, arg=arg, limit=limit)


# ------------------------------------------------------------- active plan
#: (raw env string, parsed plan) — re-parsed only when the raw text changes,
#: so failure points cost one dict lookup when no plan is armed.
_cached: tuple[str, FaultPlan] = ("", FaultPlan())

#: Per-process ordinal counters for sites fired without an explicit index
#: (``store.write`` counts writes, ``trace.write`` counts captures).
_counters: dict[str, int] = {}


def active_plan() -> FaultPlan:
    """The plan armed via ``REPRO_FAULTS`` (empty plan when unset)."""
    global _cached
    raw = os.environ.get(ENV_VAR, "")
    if raw != _cached[0]:
        _cached = (raw, FaultPlan.parse(raw))
    return _cached[1]


def reset_fault_counters() -> None:
    """Reset the per-process site ordinals (test isolation)."""
    _counters.clear()


def fire_point(
    site: str, index: Optional[int] = None, attempt: int = 1
) -> None:
    """A named failure point: a no-op unless the active plan arms it.

    ``index=None`` sites auto-number their occurrences per process (the
    ordinal advances whether or not a plan is armed, so arming a plan never
    shifts which occurrence a directive names).
    """
    if index is None:
        index = _counters.get(site, 0)
        _counters[site] = index + 1
    plan = active_plan()
    if not plan:
        return
    directive = plan.directive(site, index)
    if directive is None:
        return
    if directive.limit is not None and attempt > directive.limit:
        return
    directive.fire()


# ------------------------------------------------------------ test helpers
def corrupt_file(path, keep_bytes: int = 16) -> None:
    """Truncate ``path`` to ``keep_bytes`` bytes, simulating a torn write.

    Used by fault-injection tests and the CI chaos job to damage a store
    entry, trace capture or journal in place.
    """
    payload = os.stat(path).st_size
    with open(path, "r+b") as handle:
        handle.truncate(min(keep_bytes, payload))
