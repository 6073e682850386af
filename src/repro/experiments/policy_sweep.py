"""The in-memory policy sweep that Figure 6 and Table 3 are views of.

:func:`run_policy_sweep` runs a (benchmark × policy) grid against the SRRIP
baseline through :meth:`repro.api.session.Session.sweep`, and
:class:`PolicySweepResult` holds the grid with speedup, MPKI-reduction and
geomean accessors over it.  The supervised execution of the same grid
behind ``repro sweep`` lives in :mod:`repro.experiments.sweep`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.api.session import Session
from repro.sim.config import BASELINE_POLICY, SimulatorConfig
from repro.sim.results import (
    SimulationResult,
    geomean_reduction,
    geomean_speedup,
)


@dataclass
class PolicySweepResult:
    """All (benchmark, policy) simulation results plus derived metrics."""

    benchmarks: tuple[str, ...]
    policies: tuple[str, ...]
    baseline_policy: str
    results: dict[str, dict[str, SimulationResult]] = field(default_factory=dict)

    def add(self, requests: Sequence, runs: Sequence) -> None:
        """File each run's result under its request's (benchmark, policy)
        cell, in request order; a ``None`` run (a point that did not
        finish) leaves its cell missing."""
        for request, run in zip(requests, runs):
            if run is not None:
                self.results.setdefault(request.spec.name, {})[
                    request.policy.canonical()
                ] = run.result

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
    jobs: int | None = None,
    session=None,
) -> PolicySweepResult:
    """Simulate every (benchmark, policy) pair against the SRRIP baseline.

    Thin wrapper over :meth:`repro.api.session.Session.sweep`; without a
    ``session=`` it runs in a fresh session over ``config=``.

    ``jobs`` spreads the (benchmark × policy) grid over worker processes
    (``0`` = every usable CPU, ``None``/``1`` = in-process).  Every grid
    point is an independent deterministic simulation, so the sweep contents
    are identical — including iteration order of the nested result dicts —
    for any ``jobs`` value.
    """
    session = Session.ensure(session, config=config)
    return session.sweep(
        benchmarks=benchmarks,
        policies=policies,
        baseline=BASELINE_POLICY,
        jobs=jobs,
    )
