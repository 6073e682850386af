"""Figures 1 and 2: Top-Down breakdowns.

Reproduces: **Figure 1** and **Figure 2** of the paper.  Figure 1 profiles
the five mobile system-software components (PGO-compiled) and shows they
remain frontend-bound.  Figure 2 profiles the ten proxy benchmarks twice —
compiled without PGO and with PGO — and shows PGO improves the retire
fraction but leaves a large ifetch component.  CLI: ``repro run figure1`` /
``repro run figure2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.api.session import Session
from repro.core.pipeline import PipelineOptions
from repro.cpu.topdown import TopDownBreakdown
from repro.sim.config import BASELINE_POLICY, SimulatorConfig
from repro.workloads.spec import PROXY_BENCHMARK_NAMES, SYSTEM_COMPONENT_NAMES


@dataclass(frozen=True)
class TopDownRow:
    """Top-Down fractions for one benchmark variant."""

    benchmark: str
    pgo_applied: bool
    fractions: dict[str, float]

    @property
    def label(self) -> str:
        return f"{self.benchmark}*" if self.pgo_applied else self.benchmark

    @property
    def frontend_bound(self) -> float:
        return self.fractions.get("ifetch", 0.0) + self.fractions.get("mispred", 0.0)


def _topdown_row(
    session: Session, benchmark, apply_pgo: bool, policy: str
) -> TopDownRow:
    options = PipelineOptions(apply_pgo=apply_pgo, propagate_temperature=False)
    artifacts = session.run_one(benchmark, policy, options=options)
    return TopDownRow(
        benchmark=artifacts.result.benchmark,
        pgo_applied=apply_pgo,
        fractions=artifacts.result.topdown.fractions(),
    )


def run_figure1(
    components: Sequence[str] | None = None,
    config: SimulatorConfig | None = None,
    session: Session | None = None,
) -> list[TopDownRow]:
    """Top-Down breakdown of the PGO'd mobile system components (Figure 1)."""
    session = Session.ensure(session, config=config)
    return [
        _topdown_row(session, component, apply_pgo=True, policy=BASELINE_POLICY)
        for component in (components or SYSTEM_COMPONENT_NAMES)
    ]


def run_figure2(
    benchmarks: Sequence[str] | None = None,
    config: SimulatorConfig | None = None,
    session: Session | None = None,
) -> list[TopDownRow]:
    """Top-Down breakdown of proxies, non-PGO and PGO (Figure 2)."""
    session = Session.ensure(session, config=config)
    rows: list[TopDownRow] = []
    for benchmark in benchmarks or PROXY_BENCHMARK_NAMES:
        rows.append(_topdown_row(session, benchmark, apply_pgo=False, policy=BASELINE_POLICY))
        rows.append(_topdown_row(session, benchmark, apply_pgo=True, policy=BASELINE_POLICY))
    return rows


def format_topdown_rows(rows: Sequence[TopDownRow]) -> str:
    categories = TopDownBreakdown.CATEGORIES
    header = f"{'benchmark':14s} " + " ".join(f"{c:>8s}" for c in categories)
    lines = [header]
    for row in rows:
        lines.append(
            f"{row.label:14s} "
            + " ".join(f"{row.fractions.get(c, 0.0):8.3f}" for c in categories)
        )
    return "\n".join(lines)
