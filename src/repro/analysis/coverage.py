"""Coverage of costly instruction misses by TRRIP's hot section (Figure 7).

Emissary defines *costly* instruction misses as the ones that starve decode.
TRRIP cannot see individual miss costs — it only knows what the compiler
marked hot — so Figure 7 asks: of the top-Nth-percentile costliest instruction
lines, how many fall inside TRRIP's ``.text.hot`` section?  Figure 7a counts
every costly line; Figure 7b excludes lines in external code (PLTs, other
libraries) that TRRIP's compiler never saw.

The per-line cost is the demand instruction-fetch stall attributed to that
line by the core model (``SimulationResult.line_stall_cycles``).

The percentile ranking uses NumPy, the package's only third-party
dependency (the ``figure7`` extra).  It is imported when a coverage is
computed, so the rest of ``repro`` runs without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from repro.common.errors import ConfigurationError

#: Percentiles Figure 7 sweeps.
DEFAULT_PERCENTILES: tuple[int, ...] = (50, 60, 70, 80, 90)


@dataclass(frozen=True)
class CoverageResult:
    """Coverage of costly lines by the hot section, per percentile."""

    benchmark: str
    exclude_external: bool
    coverage_percent: dict[int, float]
    costly_lines: int

    def coverage_at(self, percentile: int) -> float:
        return self.coverage_percent[percentile]


def _in_ranges(address: int, ranges: Sequence[tuple[int, int]]) -> bool:
    return any(start <= address < end for start, end in ranges)


def costly_miss_coverage(
    benchmark: str,
    line_costs: Mapping[int, float],
    hot_ranges: Sequence[tuple[int, int]],
    is_external: Callable[[int], bool] | None = None,
    percentiles: Iterable[int] = DEFAULT_PERCENTILES,
    exclude_external: bool = False,
) -> CoverageResult:
    """Compute Figure 7's coverage numbers for one benchmark.

    Parameters
    ----------
    line_costs:
        Virtual line address → accumulated demand ifetch stall cycles.
    hot_ranges:
        ``(start, end)`` virtual ranges of the ``.text.hot`` section(s).
    is_external:
        Predicate marking addresses in external (non-compiled) code.
    exclude_external:
        Figure 7b: drop external lines before ranking (they are outside the
        compiler's reach by construction).
    """
    try:
        import numpy as np
    except ImportError as error:
        raise ConfigurationError(
            "Figure 7's costly-miss coverage needs NumPy "
            "(pip install 'repro-trrip[figure7]')"
        ) from error

    percentiles = tuple(percentiles)
    costs = {
        line: cost for line, cost in line_costs.items() if cost > 0
    }
    if exclude_external and is_external is not None:
        costs = {line: cost for line, cost in costs.items() if not is_external(line)}

    if not costs:
        return CoverageResult(
            benchmark=benchmark,
            exclude_external=exclude_external,
            coverage_percent={p: 0.0 for p in percentiles},
            costly_lines=0,
        )

    lines = np.array(list(costs.keys()), dtype=np.int64)
    values = np.array(list(costs.values()), dtype=np.float64)
    coverage: dict[int, float] = {}
    for percentile in percentiles:
        threshold = np.percentile(values, percentile)
        selected = lines[values >= threshold]
        if selected.size == 0:
            coverage[percentile] = 0.0
            continue
        in_hot = sum(1 for line in selected.tolist() if _in_ranges(line, hot_ranges))
        coverage[percentile] = 100.0 * in_hot / selected.size
    return CoverageResult(
        benchmark=benchmark,
        exclude_external=exclude_external,
        coverage_percent=coverage,
        costly_lines=len(costs),
    )
