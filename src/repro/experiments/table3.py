"""Table 3: raw SRRIP L2 MPKI and per-policy MPKI reductions.

Reproduces: **Table 3** of the paper — SRRIP's raw instruction/data L2 MPKI
per proxy benchmark, and the percentage MPKI reduction every evaluated policy
achieves over it (the MPKI view of the Figure 6 sweep).
CLI: ``repro run table3``.
"""

from __future__ import annotations

from typing import Sequence

from repro.api.session import Session
from repro.experiments.policy_sweep import PolicySweepResult, run_policy_sweep
from repro.sim.config import EVALUATED_POLICIES, SimulatorConfig


def run_table3(
    benchmarks: Sequence[str] | None = None,
    policies: Sequence[str] | None = None,
    config: SimulatorConfig | None = None,
    jobs: int | None = None,
    session: Session | None = None,
) -> PolicySweepResult:
    """Same sweep as Figure 6; Table 3 reports the MPKI view of it."""
    return run_policy_sweep(
        benchmarks=benchmarks,
        policies=policies or EVALUATED_POLICIES,
        config=config,
        jobs=jobs,
        session=session,
    )


def format_table3(sweep: PolicySweepResult) -> str:
    lines = []
    # Raw SRRIP MPKI block.
    header = f"{'L2 MPKI':12s} " + " ".join(f"{b[:8]:>9s}" for b in sweep.benchmarks)
    lines.append(header)
    lines.append(
        f"{'  Inst.':12s} "
        + " ".join(f"{sweep.baseline(b).l2_inst_mpki:9.2f}" for b in sweep.benchmarks)
    )
    lines.append(
        f"{'  Data':12s} "
        + " ".join(f"{sweep.baseline(b).l2_data_mpki:9.2f}" for b in sweep.benchmarks)
    )
    lines.append(
        f"{'  Inst/Data':12s} "
        + " ".join(
            f"{(sweep.baseline(b).l2_inst_mpki / sweep.baseline(b).l2_data_mpki if sweep.baseline(b).l2_data_mpki else 0.0):9.2f}"
            for b in sweep.benchmarks
        )
    )
    # Reduction block per policy.
    lines.append("")
    lines.append("L2 MPKI reduction (%) relative to SRRIP (negative = increase)")
    for policy in sweep.policies:
        inst = " ".join(
            f"{sweep.mpki_reduction(b, policy)[0]:+9.1f}" for b in sweep.benchmarks
        )
        data = " ".join(
            f"{sweep.mpki_reduction(b, policy)[1]:+9.1f}" for b in sweep.benchmarks
        )
        lines.append(f"{policy:10s} I {inst}  | geomean {sweep.geomean_inst_reduction(policy):+6.1f}")
        lines.append(f"{'':10s} D {data}  | geomean {sweep.geomean_data_reduction(policy):+6.1f}")
    return "\n".join(lines)
