"""Figure 7: coverage of costly instruction misses by TRRIP's hot section.

Reproduces: **Figure 7** of the paper — the percentage of the costliest
instruction-miss stall cycles (top 5/10/20/50%) that fall inside the
compiler's hot section, including (7a) and excluding (7b) external code.
CLI: ``repro run figure7``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.coverage import DEFAULT_PERCENTILES, CoverageResult, costly_miss_coverage
from repro.api.scenario import Scenario
from repro.api.session import Session
from repro.sim.config import BASELINE_POLICY, SimulatorConfig
from repro.workloads.spec import PROXY_BENCHMARK_NAMES


@dataclass(frozen=True)
class CoverageRow:
    """Figure 7a (all code) and 7b (excluding external code) for a benchmark."""

    benchmark: str
    including_external: CoverageResult
    excluding_external: CoverageResult


def run_figure7(
    benchmarks: Sequence[str] | None = None,
    percentiles: Sequence[int] = DEFAULT_PERCENTILES,
    config: SimulatorConfig | None = None,
    session: Session | None = None,
    jobs: int | None = None,
) -> list[CoverageRow]:
    """Measure costly-miss coverage under the SRRIP baseline."""
    session = Session.ensure(session, config=config)
    scenario = Scenario(
        benchmarks=tuple(benchmarks or PROXY_BENCHMARK_NAMES),
        policies=BASELINE_POLICY,
        label="figure7",
    )
    rows: list[CoverageRow] = []
    for request, artifacts in session.stream(scenario, jobs=jobs):
        benchmark = request.benchmark
        result = artifacts.result
        binary = session.prepare(request).binary
        hot_ranges = binary.hot_section_ranges
        is_external = binary.image.is_external
        including = costly_miss_coverage(
            benchmark,
            result.line_stall_cycles,
            hot_ranges,
            is_external=is_external,
            percentiles=percentiles,
            exclude_external=False,
        )
        excluding = costly_miss_coverage(
            benchmark,
            result.line_stall_cycles,
            hot_ranges,
            is_external=is_external,
            percentiles=percentiles,
            exclude_external=True,
        )
        rows.append(
            CoverageRow(
                benchmark=benchmark,
                including_external=including,
                excluding_external=excluding,
            )
        )
    return rows


def format_figure7(rows: Sequence[CoverageRow]) -> str:
    if not rows:
        return "(no benchmarks)"
    percentiles = sorted(rows[0].including_external.coverage_percent)
    header = f"{'benchmark':12s} " + " ".join(f"{p:>5d}%" for p in percentiles)
    lines = ["Figure 7a: coverage including external code", header]
    for row in rows:
        lines.append(
            f"{row.benchmark:12s} "
            + " ".join(
                f"{row.including_external.coverage_percent[p]:6.1f}" for p in percentiles
            )
        )
    lines.append("")
    lines.append("Figure 7b: coverage excluding external code")
    lines.append(header)
    for row in rows:
        lines.append(
            f"{row.benchmark:12s} "
            + " ".join(
                f"{row.excluding_external.coverage_percent[p]:6.1f}" for p in percentiles
            )
        )
    return "\n".join(lines)
