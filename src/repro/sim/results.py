"""Simulation result containers and aggregation helpers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.common.hashing import canonical_payload
from repro.cpu.topdown import TopDownBreakdown


@dataclass
class SimulationResult:
    """Outcome of simulating one benchmark under one configuration."""

    benchmark: str
    policy: str
    config_name: str
    instructions: int
    cycles: float
    ipc: float
    topdown: TopDownBreakdown
    l2_inst_misses: int
    l2_data_misses: int
    l2_inst_mpki: float
    l2_data_mpki: float
    l1i_mpki: float
    branch_mpki: float
    dram_accesses: int
    #: Demand ifetch stall cycles per virtual instruction line (Figure 7).
    line_stall_cycles: dict[int, float] = field(default_factory=dict)
    #: Demand ifetch L2-miss counts per virtual instruction line.
    line_miss_counts: dict[int, int] = field(default_factory=dict)

    def speedup_over(self, baseline: "SimulationResult") -> float:
        """Relative speedup vs. a baseline run of the same benchmark.

        Speedup is the reduction in execution cycles for the same number of
        instructions (Section 4.4), expressed as a fraction (0.039 = +3.9%).
        """
        if self.benchmark != baseline.benchmark:
            raise ValueError(
                f"cannot compare {self.benchmark!r} against {baseline.benchmark!r}"
            )
        if self.cycles <= 0:
            return 0.0
        return baseline.cycles / self.cycles - 1.0

    def mpki_reduction_over(self, baseline: "SimulationResult") -> tuple[float, float]:
        """(instruction, data) L2 MPKI reduction vs. a baseline, in percent."""
        return (
            _reduction_percent(baseline.l2_inst_mpki, self.l2_inst_mpki),
            _reduction_percent(baseline.l2_data_mpki, self.l2_data_mpki),
        )

    # ---------------------------------------------------------- serialisation
    def to_dict(self) -> dict:
        """JSON-serialisable form; round-trips exactly via :meth:`from_dict`.

        The canonical payload: fields in order, the top-down breakdown as a
        dict, and the int line keys as strings (``from_dict`` restores them).
        """
        return canonical_payload(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "SimulationResult":
        """Rebuild a result previously serialised with :meth:`to_dict`."""
        data = dict(payload)
        data["topdown"] = TopDownBreakdown(**data["topdown"])
        data["line_stall_cycles"] = {
            int(k): v for k, v in data.get("line_stall_cycles", {}).items()
        }
        data["line_miss_counts"] = {
            int(k): v for k, v in data.get("line_miss_counts", {}).items()
        }
        return cls(**data)


@dataclass
class MulticoreResult:
    """Outcome of one interleaved multi-core run."""

    #: Per-core results, index-aligned with the scenario's core list.
    cores: list[SimulationResult]
    #: Instructions interleaved per core per scheduler turn.
    interleave: tuple[int, ...]
    #: Resident shared-L2 lines per owning core at end of run.
    occupancy: dict[int, int]
    #: Core -> its lines evicted from the shared L2 by *other* cores.
    inter_core_evictions: dict[int, int]
    #: Core -> other cores' lines its own fills evicted.
    evictions_caused: dict[int, int]

    @property
    def total_inter_core_evictions(self) -> int:
        return sum(self.inter_core_evictions.values())

    # ---------------------------------------------------------- serialisation
    def to_dict(self) -> dict:
        """JSON-serialisable form; round-trips exactly via :meth:`from_dict`.

        The canonical payload: each core's :meth:`SimulationResult.to_dict`,
        the interleave as a list and the int core keys as strings.
        """
        return canonical_payload(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "MulticoreResult":
        return cls(
            cores=[
                SimulationResult.from_dict(entry) for entry in payload["cores"]
            ],
            interleave=tuple(payload["interleave"]),
            occupancy={int(k): v for k, v in payload["occupancy"].items()},
            inter_core_evictions={
                int(k): v for k, v in payload["inter_core_evictions"].items()
            },
            evictions_caused={
                int(k): v for k, v in payload["evictions_caused"].items()
            },
        )


def _reduction_percent(baseline: float, value: float) -> float:
    if baseline <= 0:
        return 0.0
    return 100.0 * (baseline - value) / baseline


def geometric_mean(values: Iterable[float]) -> float:
    """Plain geometric mean of positive values (0.0 for an empty input)."""
    values = list(values)
    if not values:
        return 0.0
    if any(value <= 0 for value in values):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(value) for value in values) / len(values))


def geomean_speedup(speedups: Sequence[float]) -> float:
    """Geometric mean of relative speedups expressed as fractions.

    Speedups are ratios (1 + fraction); the result is returned as a fraction
    again, matching how the paper reports "geomean speedup of 3.9%".
    """
    if not speedups:
        return 0.0
    return geometric_mean(1.0 + s for s in speedups) - 1.0


def geomean_reduction(reductions: Sequence[float]) -> float:
    """Geometric-mean percentage reduction (computed on retention ratios).

    A reduction of 26.5% corresponds to a retention ratio of 0.735; averaging
    the ratios geometrically and converting back keeps the figure meaningful
    when some benchmarks have negative reductions (increases).
    """
    if not reductions:
        return 0.0
    ratios = [max(1.0 - r / 100.0, 1e-6) for r in reductions]
    return (1.0 - geometric_mean(ratios)) * 100.0
