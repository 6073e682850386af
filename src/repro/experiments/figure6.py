"""Figure 6: speedup of every evaluated mechanism, normalised to SRRIP.

Reproduces: **Figure 6** of the paper — per-benchmark and geomean speedup of
LRU/BRRIP/DRRIP/SHiP/CLIP/Emissary/TRRIP-1/TRRIP-2 over the SRRIP baseline,
derived from the same (benchmark × policy) sweep as Table 3.
CLI: ``repro run figure6``.
"""

from __future__ import annotations

from typing import Sequence

from repro.api.session import Session
from repro.experiments.policy_sweep import PolicySweepResult, run_policy_sweep
from repro.sim.config import EVALUATED_POLICIES, SimulatorConfig


def run_figure6(
    benchmarks: Sequence[str] | None = None,
    policies: Sequence[str] | None = None,
    config: SimulatorConfig | None = None,
    jobs: int | None = None,
    session: Session | None = None,
) -> PolicySweepResult:
    """Run the full policy sweep Figure 6 (and Table 3) are derived from."""
    return run_policy_sweep(
        benchmarks=benchmarks,
        policies=policies or EVALUATED_POLICIES,
        config=config,
        jobs=jobs,
        session=session,
    )


def format_figure6(sweep: PolicySweepResult) -> str:
    """Speedup (%) per benchmark and policy, plus the geomean row."""
    header = f"{'benchmark':12s} " + " ".join(f"{p:>9s}" for p in sweep.policies)
    lines = [header]
    for benchmark in sweep.benchmarks:
        lines.append(
            f"{benchmark:12s} "
            + " ".join(
                f"{sweep.speedup(benchmark, policy) * 100:+9.2f}"
                for policy in sweep.policies
            )
        )
    lines.append(
        f"{'geomean':12s} "
        + " ".join(
            f"{sweep.geomean_speedup(policy) * 100:+9.2f}" for policy in sweep.policies
        )
    )
    return "\n".join(lines)
