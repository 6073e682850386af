"""Ablation studies beyond the paper's figures.

Reproduces: the design points of **Section 4.9** (page sizes / overlap
handling) and the **adoption kill-switch argument** the paper makes but does
not quantify.  CLI: ``repro run ablation-page-size`` /
``repro run ablation-kill-switch``.

Two design points the paper discusses but does not quantify are measurable
with this library:

* **Page-size / overlap handling (§4.9)** — what happens to TRRIP when code
  pages grow (16 kB, 2 MB) and pages start straddling sections of different
  temperature, under each prevention mechanism (majority tagging, disabling
  tags on mixed pages, page-padded sections).
* **Temperature interface kill switch** — running the TRRIP-compiled binary
  with temperature propagation disabled must degrade exactly to the SRRIP
  baseline, demonstrating the "easy to toggle off" adoption argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.api.scenario import Scenario
from repro.api.session import Session
from repro.core.pipeline import PipelineOptions
from repro.osmodel.pages import OverlapPolicy
from repro.sim.config import BASELINE_POLICY, SimulatorConfig


@dataclass(frozen=True)
class PageSizeAblationPoint:
    """TRRIP-1 behaviour for one (page size, overlap handling) combination."""

    benchmark: str
    page_size: int
    overlap_policy: OverlapPolicy
    padded_sections: bool
    tagged_pages: int
    mixed_pages: int
    speedup_over_srrip: float
    inst_mpki_reduction: float


def run_page_size_ablation(
    benchmark: str = "sqlite",
    page_sizes: Sequence[int] = (4096, 16384),
    config: SimulatorConfig | None = None,
    session: Session | None = None,
) -> list[PageSizeAblationPoint]:
    """Sweep page sizes and §4.9 prevention mechanisms for one benchmark."""
    session = Session.ensure(session, config=config)
    variants: list[tuple[OverlapPolicy, bool]] = [
        (OverlapPolicy.MAJORITY, False),
        (OverlapPolicy.DISABLE, False),
        (OverlapPolicy.MAJORITY, True),
    ]
    # One scenario per variant: the page handling lives in the pipeline
    # options, and each scenario contributes its baseline/TRRIP pair in
    # order, so the stream below is consumed pairwise.
    scenarios = [
        Scenario(
            benchmarks=benchmark,
            policies=(BASELINE_POLICY, "trrip-1"),
            options=PipelineOptions(
                page_size=page_size,
                overlap_policy=overlap_policy,
                pad_sections_to_page=padded,
            ),
            label="ablation-page-size",
        )
        for page_size in page_sizes
        for overlap_policy, padded in variants
    ]
    points: list[PageSizeAblationPoint] = []
    stream = session.stream(*scenarios)
    for (request, baseline), (_, trrip) in zip(stream, stream):
        loaded = session.prepare(request).loaded
        points.append(
            PageSizeAblationPoint(
                benchmark=request.benchmark,
                page_size=request.options.page_size,
                overlap_policy=request.options.overlap_policy,
                padded_sections=request.options.pad_sections_to_page,
                tagged_pages=loaded.tagged_pages,
                mixed_pages=loaded.mixed_temperature_pages,
                speedup_over_srrip=trrip.result.speedup_over(baseline.result),
                inst_mpki_reduction=trrip.result.mpki_reduction_over(
                    baseline.result
                )[0],
            )
        )
    return points


def format_page_size_ablation(points: Sequence[PageSizeAblationPoint]) -> str:
    lines = [
        f"{'benchmark':10s} {'page':>7s} {'overlap':>9s} {'padded':>7s} "
        f"{'tagged':>7s} {'mixed':>6s} {'speedup%':>9s} {'iMPKI red%':>11s}"
    ]
    for p in points:
        lines.append(
            f"{p.benchmark:10s} {p.page_size // 1024:>5d}kB {p.overlap_policy.value:>9s} "
            f"{str(p.padded_sections):>7s} {p.tagged_pages:>7d} {p.mixed_pages:>6d} "
            f"{p.speedup_over_srrip * 100:+9.2f} {p.inst_mpki_reduction:+11.1f}"
        )
    return "\n".join(lines)


@dataclass(frozen=True)
class KillSwitchResult:
    """Comparison of TRRIP with and without temperature propagation."""

    benchmark: str
    srrip_cycles: float
    trrip_cycles: float
    trrip_untagged_cycles: float

    @property
    def degrades_to_baseline(self) -> bool:
        """Whether disabling the PTE bits reproduces the SRRIP baseline."""
        return abs(self.trrip_untagged_cycles - self.srrip_cycles) < 1e-6


def run_kill_switch_ablation(
    benchmark: str = "sqlite",
    config: SimulatorConfig | None = None,
    session: Session | None = None,
) -> KillSwitchResult:
    """Show that TRRIP without PTE temperature bits behaves exactly like SRRIP."""
    session = Session.ensure(session, config=config)
    tagged = PipelineOptions(propagate_temperature=True)
    untagged = PipelineOptions(propagate_temperature=False)
    srrip = session.run_one(benchmark, BASELINE_POLICY, options=untagged)
    trrip = session.run_one(benchmark, "trrip-1", options=tagged)
    trrip_untagged = session.run_one(benchmark, "trrip-1", options=untagged)
    return KillSwitchResult(
        benchmark=srrip.result.benchmark,
        srrip_cycles=srrip.result.cycles,
        trrip_cycles=trrip.result.cycles,
        trrip_untagged_cycles=trrip_untagged.result.cycles,
    )


def format_kill_switch(result: KillSwitchResult) -> str:
    lines = [
        f"{'benchmark':12s} {'SRRIP cycles':>14s} {'TRRIP-1':>14s} "
        f"{'TRRIP-1 untagged':>17s} {'degrades to SRRIP':>18s}",
        f"{result.benchmark:12s} {result.srrip_cycles:14.0f} "
        f"{result.trrip_cycles:14.0f} {result.trrip_untagged_cycles:17.0f} "
        f"{str(result.degrades_to_baseline):>18s}",
    ]
    return "\n".join(lines)
