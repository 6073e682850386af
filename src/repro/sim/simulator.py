"""System simulator: ties MMU, core and cache hierarchy together."""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.cache.hierarchy import CacheHierarchy
from repro.common.errors import SimulationError
from repro.common.trace import PackedTrace, TraceRecord
from repro.common.translation import AddressTranslator
from repro.cpu.core import CoreModel, CoreResult, run_packed_lockstep
from repro.sim.config import SimulatorConfig
from repro.sim.results import SimulationResult


class SystemSimulator:
    """One simulated core with its cache hierarchy and (optional) MMU.

    The simulator is trace-driven: callers provide iterables of
    :class:`~repro.common.trace.TraceRecord`, or — for fast replay — a
    :class:`~repro.common.trace.PackedTrace`, which the core routes through
    its column-oriented hot loop with bit-identical results.  The usual
    protocol is

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
        self._ran = False

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
        core_result = self.core.run(trace)
        if core_result.instructions == 0:
            raise SimulationError("measured trace window contained no instructions")
        self._ran = True
        return self._package(core_result)

    def reset(self) -> None:
        """Restore caches, predictors and statistics to the power-on state."""
        self.hierarchy.reset()
        self.core.reset()
        self._ran = False

    # -------------------------------------------------------------- internals
    def package(self, core_result: CoreResult) -> SimulationResult:
        """Package an externally produced core result (lockstep replay)."""
        if core_result.instructions == 0:
            raise SimulationError("measured trace window contained no instructions")
        self._ran = True
        return self._package(core_result)

    def _package(self, core_result: CoreResult) -> SimulationResult:
        stats = self.hierarchy.stats
        instructions = core_result.instructions
        l1i_misses = stats.l1i_misses
        return SimulationResult(
            benchmark=self.benchmark,
            policy=self.config.l2_policy,
            config_name=self.config.name,
            instructions=instructions,
            cycles=core_result.cycles,
            ipc=core_result.ipc,
            topdown=core_result.topdown,
            l2_inst_misses=stats.l2_inst_misses,
            l2_data_misses=stats.l2_data_misses,
            l2_inst_mpki=stats.l2_inst_mpki(instructions),
            l2_data_mpki=stats.l2_data_mpki(instructions),
            l1i_mpki=1000.0 * l1i_misses / instructions if instructions else 0.0,
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
    :class:`SystemSimulator` run follows — with the front-of-pipe work
    (trace decode, fetch-boundary decisions, branch outcomes) computed once
    for the whole group (see
    :func:`repro.cpu.core.run_packed_lockstep`).  Results are bit-identical
    to N independent runs.
    """
    cores = [simulator.core for simulator in simulators]
    run_packed_lockstep(cores, warmup)  # warm-up window, discarded
    for simulator in simulators:
        simulator.hierarchy.reset_stats()
    core_results = run_packed_lockstep(cores, measured)
    return [
        simulator.package(core_result)
        for simulator, core_result in zip(simulators, core_results)
    ]
