"""Figure 3: reuse-distance distribution of hot instruction lines in the L2.

Reproduces: **Figure 3** of the paper — for each proxy benchmark, the
fraction of hot-line L2 accesses per set-level reuse-distance bucket
(0-4 / 5-8 / 9-16 / 16+), both against all lines ("base") and against hot
lines only ("~").  CLI: ``repro run figure3``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.reuse import REUSE_BUCKETS, ReuseHistogram
from repro.api.scenario import Scenario
from repro.api.session import Session
from repro.sim.config import BASELINE_POLICY, SimulatorConfig
from repro.workloads.spec import PROXY_BENCHMARK_NAMES


@dataclass(frozen=True)
class ReuseRow:
    """Reuse-distance fractions for one benchmark (base and hot-only)."""

    benchmark: str
    base: dict[str, float]
    hot_only: dict[str, float]
    base_accesses: int
    hot_only_accesses: int


def run_figure3(
    benchmarks: Sequence[str] | None = None,
    config: SimulatorConfig | None = None,
    session: Session | None = None,
) -> list[ReuseRow]:
    """Measure per-set reuse distances of hot lines under the SRRIP baseline."""
    session = Session.ensure(session, config=config)
    scenario = Scenario(
        benchmarks=tuple(benchmarks or PROXY_BENCHMARK_NAMES),
        policies=BASELINE_POLICY,
        track_reuse=True,
        label="figure3",
    )
    rows: list[ReuseRow] = []
    for request, artifacts in session.stream(scenario):
        base, hot_only = artifacts.reuse.histograms()
        rows.append(
            ReuseRow(
                benchmark=request.benchmark,
                base=base.fractions(),
                hot_only=hot_only.fractions(),
                base_accesses=base.total,
                hot_only_accesses=hot_only.total,
            )
        )
    return rows


def format_figure3(rows: Sequence[ReuseRow]) -> str:
    header = f"{'benchmark':12s} " + " ".join(f"{b:>7s}" for b in REUSE_BUCKETS)
    lines = [header]
    for row in rows:
        lines.append(
            f"{row.benchmark:12s} "
            + " ".join(f"{row.base.get(b, 0.0):7.3f}" for b in REUSE_BUCKETS)
        )
        lines.append(
            f"{row.benchmark + '~':12s} "
            + " ".join(f"{row.hot_only.get(b, 0.0):7.3f}" for b in REUSE_BUCKETS)
        )
    return "\n".join(lines)
