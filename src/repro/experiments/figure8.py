"""Figure 8: sensitivity to the compiler hot threshold (percentile_hot).

Reproduces: **Figure 8** of the paper (Section 4.7).  For each threshold the
application is "re-built" (re-classified and re-laid out), re-loaded, and run
under TRRIP-1; speedups are normalised to the SRRIP baseline running the same
executable.  Figure 8a reports the hot/warm/cold split of the text section;
Figure 8b the TRRIP-1 speedup.  CLI: ``repro run figure8``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.api.scenario import Scenario
from repro.api.session import Session
from repro.common.temperature import Temperature
from repro.core.pipeline import PipelineOptions
from repro.sim.config import BASELINE_POLICY, SimulatorConfig

#: Thresholds swept by the paper (10% ... 100%).
DEFAULT_THRESHOLDS: tuple[float, ...] = (0.10, 0.80, 0.99, 0.9999, 1.0)

#: Benchmarks shown in Figure 8.
DEFAULT_BENCHMARKS: tuple[str, ...] = (
    "abseil",
    "deepsjeng",
    "gcc",
    "omnetpp",
    "rapidjson",
    "sqlite",
)


@dataclass(frozen=True)
class ThresholdPoint:
    """Results for one (benchmark, percentile_hot) combination."""

    benchmark: str
    percentile_hot: float
    text_fractions: dict[Temperature, float]
    speedup_over_srrip: float


def run_figure8(
    benchmarks: Sequence[str] | None = None,
    thresholds: Sequence[float] | None = None,
    config: SimulatorConfig | None = None,
    session: Session | None = None,
) -> list[ThresholdPoint]:
    """Sweep percentile_hot and measure section split + TRRIP-1 speedup."""
    session = Session.ensure(session, config=config)
    # One scenario per (benchmark, threshold): the threshold lives in the
    # pipeline options, and each scenario contributes its baseline/TRRIP
    # pair in order, so the stream below is consumed pairwise.
    scenarios = [
        Scenario(
            benchmarks=benchmark,
            policies=(BASELINE_POLICY, "trrip-1"),
            options=PipelineOptions(percentile_hot=threshold),
            label="figure8",
        )
        for benchmark in (benchmarks or DEFAULT_BENCHMARKS)
        for threshold in (thresholds or DEFAULT_THRESHOLDS)
    ]
    points: list[ThresholdPoint] = []
    stream = session.stream(*scenarios)
    for (request, baseline), (_, trrip) in zip(stream, stream):
        image = session.prepare(request).binary.image
        by_temp = image.section_bytes_by_temperature()
        total = sum(by_temp.values()) or 1
        points.append(
            ThresholdPoint(
                benchmark=request.benchmark,
                percentile_hot=request.options.percentile_hot,
                text_fractions={
                    temp: size / total for temp, size in by_temp.items()
                },
                speedup_over_srrip=trrip.result.speedup_over(baseline.result),
            )
        )
    return points


def format_figure8(points: Sequence[ThresholdPoint]) -> str:
    lines = [
        f"{'benchmark':12s} {'pct_hot':>8s} {'hot':>6s} {'warm':>6s} {'cold':>6s} "
        f"{'speedup%':>9s}"
    ]
    for point in points:
        lines.append(
            f"{point.benchmark:12s} {point.percentile_hot:8.4f} "
            f"{point.text_fractions.get(Temperature.HOT, 0.0):6.3f} "
            f"{point.text_fractions.get(Temperature.WARM, 0.0):6.3f} "
            f"{point.text_fractions.get(Temperature.COLD, 0.0):6.3f} "
            f"{point.speedup_over_srrip * 100:+9.2f}"
        )
    return "\n".join(lines)
