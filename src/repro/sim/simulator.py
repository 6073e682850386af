"""System simulator: ties MMU, core and cache hierarchy together.

:class:`SystemSimulator` is one core over a private memory system (its
hierarchy builds its own one-core L2/SLC).  A packed trace replays as one
lane of that core (:func:`repro.cpu.core.run_lanes`); :func:`run_lockstep`
replays one trace through N simulators as a single lane of N cores.
:func:`package_result` turns one core's measured window into a
:class:`~repro.sim.results.SimulationResult`, here and in the multi-core
simulator alike.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.stats import HierarchyStats
from repro.common.errors import SimulationError
from repro.common.trace import PackedTrace, TraceRecord
from repro.common.translation import AddressTranslator
from repro.cpu.core import CoreModel, CoreResult, run_lanes
from repro.sim.config import SimulatorConfig
from repro.sim.results import SimulationResult


class SystemSimulator:
    """One simulated core with its cache hierarchy and (optional) MMU.

    The simulator is trace-driven: callers provide iterables of
    :class:`~repro.common.trace.TraceRecord`, or — for fast replay — a
    :class:`~repro.common.trace.PackedTrace`, which the core routes through
    the lane loop with bit-identical results.  The usual protocol is

    1. :meth:`warm_up` with the fast-forward window (Table 2),
    2. :meth:`run` with the measured window, which resets statistics first
       but keeps cache/predictor state, and returns a
       :class:`~repro.sim.results.SimulationResult`.
    """

    def __init__(
        self,
        config: SimulatorConfig,
        translator: Optional[AddressTranslator] = None,
        benchmark: str = "unknown",
    ) -> None:
        config.validate()
        self.config = config
        self.benchmark = benchmark
        self.hierarchy = CacheHierarchy(config.hierarchy)
        self.core = CoreModel(
            self.hierarchy,
            translator=translator,
            config=config.core,
            line_size=config.hierarchy.line_size,
        )

    # ------------------------------------------------------------------- API
    def warm_up(self, trace: Iterable[TraceRecord]) -> CoreResult:
        """Run a warm-up window; results are returned but normally discarded."""
        return self.core.run(trace)

    def run(
        self,
        trace: Iterable[TraceRecord],
        reset_stats: bool = True,
    ) -> SimulationResult:
        """Run the measured window and package the results."""
        if reset_stats:
            self.hierarchy.reset_stats()
        return self.package(self.core.run(trace))

    def reset(self) -> None:
        """Restore caches, predictors and statistics to the power-on state."""
        self.hierarchy.reset()
        self.core.reset()

    def package(self, core_result: CoreResult) -> SimulationResult:
        """Package a measured-window core result (also lockstep replay's)."""
        return package_result(
            self.benchmark, self.config, self.hierarchy.stats, core_result
        )


def package_result(
    benchmark: str,
    config: SimulatorConfig,
    stats: HierarchyStats,
    core_result: CoreResult,
) -> SimulationResult:
    """One core's measured window, with its hierarchy counters, as a result."""
    instructions = core_result.instructions
    if instructions == 0:
        raise SimulationError(
            f"{benchmark}: measured trace window contained no instructions"
        )
    return SimulationResult(
        benchmark=benchmark,
        policy=config.l2_policy,
        config_name=config.name,
        instructions=instructions,
        cycles=core_result.cycles,
        ipc=core_result.ipc,
        topdown=core_result.topdown,
        l2_inst_misses=stats.l2_inst_misses,
        l2_data_misses=stats.l2_data_misses,
        l2_inst_mpki=stats.l2_inst_mpki(instructions),
        l2_data_mpki=stats.l2_data_mpki(instructions),
        l1i_mpki=1000.0 * stats.l1i_misses / instructions,
        branch_mpki=core_result.branch_mpki,
        dram_accesses=stats.dram_accesses,
        line_stall_cycles=core_result.line_stall_cycles,
        line_miss_counts=core_result.line_miss_counts,
    )


def run_lockstep(
    simulators: Sequence[SystemSimulator],
    warmup: PackedTrace,
    measured: PackedTrace,
) -> list[SimulationResult]:
    """Run N simulators over the same trace pair in lockstep.

    The simulators must share core configuration and differ only in their
    memory systems (one per L2 replacement policy).  The warm-up window is
    replayed first and discarded, statistics are reset, then the measured
    window is replayed — exactly the protocol each solo
    :class:`SystemSimulator` run follows — as one lane of N cores
    (:func:`repro.cpu.core.run_lanes`): trace decode, fetch-boundary
    decisions and branch outcomes are computed once for the whole group.
    Results are bit-identical to N independent runs.
    """
    cores = [simulator.core for simulator in simulators]
    run_lanes([(cores, warmup)])  # warm-up window, discarded
    for simulator in simulators:
        simulator.hierarchy.reset_stats()
    [core_results] = run_lanes([(cores, measured)])
    return [
        simulator.package(core_result)
        for simulator, core_result in zip(simulators, core_results)
    ]
