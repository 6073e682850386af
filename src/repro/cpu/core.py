"""Trace-driven CPU core model with Top-Down cycle accounting.

The core consumes a stream of :class:`repro.common.trace.TraceRecord` objects
and produces total cycles plus a Top-Down breakdown.  It is a mechanistic
model in the spirit of Sniper's interval simulation (the paper's simulator):

* useful work retires at ``dispatch_width`` instructions per cycle;
* every new instruction cache line touched by the PC stream is fetched through
  the MMU and cache hierarchy; exposed fetch latency becomes ``ifetch`` stall;
* branches run through the branch prediction unit; each misprediction charges
  the fixed penalty to ``mispred``;
* data accesses go through the backend model; exposed latency becomes ``mem``;
* the trace's synthetic ``depend``/``issue`` annotations are charged verbatim
  (they model the dependency and issue-queue stalls a detailed OoO core would
  exhibit, and only matter for the Figure 1/2 Top-Down shapes).

Packed traces replay through one loop, :func:`run_lanes`.  A *lane* is one
packed trace, its fetch-line automaton and one branch unit, driving one or
more cores: solo replay is one lane of one core, lockstep (a policy sweep) is
one lane of N cores, and a multi-core co-run is N one-core lanes taking
round-robin turns.  The record loop in :meth:`CoreModel.run` stays as the
reference the packed loop is pinned against
(``tests/test_vector_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.cache.hierarchy import CacheHierarchy
from repro.common.addressing import CACHE_LINE_SIZE, line_address
from repro.common.trace import (
    FLAG_BRANCH,
    FLAG_CALL,
    FLAG_DEPEND,
    FLAG_INDIRECT,
    FLAG_ISSUE,
    FLAG_MEM,
    FLAG_RETURN,
    FLAG_STORE,
    FLAG_TAKEN,
    PackedTrace,
    TraceRecord,
)
from repro.common.translation import AddressTranslator
from repro.cpu.backend import BackendConfig, BackendModel
from repro.cpu.branch import BranchPredictionUnit, BranchPredictorConfig
from repro.cpu.frontend import FetchEngine, FrontendConfig
from repro.cpu.topdown import TopDownBreakdown


#: Memoised results of ``n`` sequential additions of a retire increment.
#: The record loop accumulates ``1/width`` per instruction; the packed loop
#: must produce the bit-identical float total, which is a pure function of
#: ``(increment, n)`` — cached so repeated replays of equally long windows
#: (policy sweeps replay the same trace many times) skip the O(n) accumulation.
_RETIRE_SUMS: dict[tuple[float, int], float] = {}


def _retire_total(increment: float, count: int) -> float:
    """The float reached by adding ``increment`` to 0.0 ``count`` times."""
    key = (increment, count)
    total = _RETIRE_SUMS.get(key)
    if total is None:
        total = 0.0
        for _ in range(count):
            total += increment
        _RETIRE_SUMS[key] = total
    return total


@dataclass
class CoreConfig:
    """Core-level parameters (Table 1: 6-wide dispatch, 128-entry ROB, 2 GHz)."""

    dispatch_width: int = 6
    frequency_ghz: float = 2.0
    frontend: FrontendConfig = field(default_factory=FrontendConfig)
    backend: BackendConfig = field(default_factory=BackendConfig)
    branch: BranchPredictorConfig = field(default_factory=BranchPredictorConfig)

    def validate(self) -> None:
        if self.dispatch_width <= 0:
            raise ValueError("dispatch_width must be positive")
        if self.frequency_ghz <= 0:
            raise ValueError("frequency_ghz must be positive")
        self.frontend.validate()
        self.backend.validate()
        self.branch.validate()


@dataclass
class CoreResult:
    """Aggregate outcome of running a trace through the core model."""

    instructions: int
    cycles: float
    topdown: TopDownBreakdown
    branches: int
    branch_mispredictions: int
    #: Demand instruction-fetch stall cycles accumulated per virtual line.
    line_stall_cycles: dict[int, float] = field(default_factory=dict)
    #: Demand instruction-fetch L2-miss counts per virtual line.
    line_miss_counts: dict[int, int] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        if self.cycles <= 0:
            return 0.0
        return self.instructions / self.cycles

    @property
    def cpi(self) -> float:
        if self.instructions <= 0:
            return 0.0
        return self.cycles / self.instructions

    @property
    def branch_mpki(self) -> float:
        if self.instructions <= 0:
            return 0.0
        return 1000.0 * self.branch_mispredictions / self.instructions


class CoreModel:
    """Trace-driven timing model of one energy-efficient mobile core."""

    def __init__(
        self,
        hierarchy: CacheHierarchy,
        translator: Optional[AddressTranslator] = None,
        config: Optional[CoreConfig] = None,
        line_size: int = CACHE_LINE_SIZE,
        core: int = 0,
    ) -> None:
        self.config = config or CoreConfig()
        self.config.validate()
        self.hierarchy = hierarchy
        self.line_size = line_size
        #: Core index in a multi-core system (0 for single-core runs).
        self.core = core
        self.frontend = FetchEngine(
            hierarchy, translator, self.config.frontend, line_size, core=core
        )
        self.backend = BackendModel(
            hierarchy, translator, self.config.backend, line_size, core=core
        )
        self.branch_unit = BranchPredictionUnit(self.config.branch)

    # ------------------------------------------------------------------- run
    def run(self, trace: Iterable[TraceRecord] | PackedTrace) -> CoreResult:
        """Execute a trace and return cycles plus the Top-Down breakdown.

        Each call accounts only its own instructions (per-line stall maps are
        cleared and branch statistics are reported as deltas), while predictor
        state, starvation history and cache contents persist across calls —
        so a warm-up window can be run first and discarded.

        A :class:`~repro.common.trace.PackedTrace` is replayed as a one-core
        lane (:func:`run_lanes`), which produces bit-identical results to
        replaying the equivalent record stream.
        """
        if isinstance(trace, PackedTrace):
            [[result]] = run_lanes([((self,), trace)])
            return result
        topdown = TopDownBreakdown()
        instructions = 0
        current_line = -1
        width = self.config.dispatch_width
        penalty = self.config.branch.mispredict_penalty
        self._begin_replay()
        branches_before = self.branch_unit.stats.branches
        mispredictions_before = self.branch_unit.stats.mispredictions

        for record in trace:
            instructions += 1
            topdown.add("retire", 1.0 / width)

            fetch_line = line_address(record.pc, self.line_size)
            if fetch_line != current_line:
                current_line = fetch_line
                outcome = self.frontend.fetch_line(record.pc)
                if outcome.stall_cycles > 0:
                    topdown.add("ifetch", outcome.stall_cycles)

            if record.is_branch:
                prediction = self.branch_unit.predict_and_update(record)
                if prediction.mispredicted:
                    topdown.add("mispred", float(penalty))
                if record.branch_taken:
                    # Fetch redirects to the branch target.
                    current_line = -1

            if record.is_memory:
                data = self.backend.access_data(
                    record.mem_address, record.pc, record.is_store
                )
                if data.stall_cycles > 0:
                    topdown.add("mem", data.stall_cycles)

            if record.depend_stall:
                topdown.add("depend", self.backend.charge_depend_stall(record.depend_stall))
            if record.issue_stall:
                topdown.add("issue", self.backend.charge_issue_stall(record.issue_stall))

        return CoreResult(
            instructions=instructions,
            cycles=topdown.total_cycles,
            topdown=topdown,
            branches=self.branch_unit.stats.branches - branches_before,
            branch_mispredictions=(
                self.branch_unit.stats.mispredictions - mispredictions_before
            ),
            line_stall_cycles=dict(self.frontend.line_stall_cycles),
            line_miss_counts=dict(self.frontend.line_miss_counts),
        )

    def _begin_replay(self) -> None:
        """Zero the per-call stall accounting: the fetch, data, depend and
        issue stall totals and the per-line stall maps."""
        frontend = self.frontend
        frontend.stats.ifetch_stall_cycles = 0.0
        frontend.line_stall_cycles.clear()
        frontend.line_miss_counts.clear()
        stats = self.backend.stats
        stats.mem_stall_cycles = 0.0
        stats.depend_stall_cycles = 0.0
        stats.issue_stall_cycles = 0.0

    def reset(self) -> None:
        self.frontend.reset()
        self.backend.reset()
        self.branch_unit.reset()


def run_lanes(
    lanes: Sequence[tuple[Sequence[CoreModel], PackedTrace]],
    quanta: Optional[Sequence[int]] = None,
) -> list[list[CoreResult]]:
    """Replay packed traces, each through its own group of cores.

    Each lane is ``(cores, trace)``.  Lanes take turns in strict round-robin
    order; lane ``i`` advances ``quanta[i]`` instructions per turn, and a lane
    whose trace is exhausted drops out while the rest continue.  Without
    ``quanta`` every lane runs to its end in one turn.  The interleave, and
    therefore every shared-cache state transition, is a pure function of the
    traces and quanta, independent of host scheduling.

    Returns one list of :class:`CoreResult` per lane, index-aligned with its
    cores.  Each result is bit-identical to replaying the equivalent record
    stream through :meth:`CoreModel.run` on that core alone (pinned by
    ``tests/test_vector_equivalence.py`` and ``tests/test_lockstep.py``).
    """
    if quanta is None:
        quanta = [len(trace.pc) for _, trace in lanes]
    elif len(quanta) != len(lanes) or any(quantum <= 0 for quantum in quanta):
        raise ValueError("run_lanes needs one positive quantum per lane")
    loops = []
    for cores, trace in lanes:
        loop = _lane_loop(cores, trace)
        next(loop)  # validate and set up; stops before the first event
        loops.append(loop)
    results: list = [None] * len(loops)
    live = list(range(len(loops)))
    turn = 0
    while live:
        turn += 1
        running = []
        for lane in live:
            try:
                loops[lane].send(turn * quanta[lane])
            except StopIteration as finished:
                results[lane] = finished.value
            else:
                running.append(lane)
        live = running
    return results


def _lane_loop(cores: Sequence[CoreModel], trace: PackedTrace):
    """The replay loop of one lane, as a generator resumable between turns.

    Each ``send(bound)`` replays the events of the instructions below
    ``bound``; an event past the bound waits in the loop for the next turn.
    The generator returns the lane's results once the trace is exhausted.

    The trace is decoded once, the fetch-boundary decisions are made once
    (the current-fetch-line automaton depends only on the trace) and the
    branch outcomes are computed once, on the *first* core's branch unit.
    Predictor state never observes the memory system, so the shared unit
    produces exactly the outcome sequence each core's own unit would; the
    other cores' units are left untouched and their results report the
    shared unit's deltas.  Only instruction fetches and data accesses run
    per core, through one fetch and one data callable: the core's own fast
    path for a one-core lane, a fan-out over the cores otherwise.  Each
    core's ``ifetch`` and ``mem`` totals accumulate in its frontend and
    backend statistics, in the order the record loop adds them.
    """
    lead = cores[0]
    line_size = lead.line_size
    config = lead.config
    for core in cores[1:]:
        # Full config equality (dataclass ==, covering frontend, backend and
        # every branch-predictor sizing field): the branch outcomes are
        # computed once on the lead core's unit, so any difference in
        # predictor geometry would silently change the other cores' results.
        if core.line_size != line_size or core.config != config:
            raise ValueError(
                "cores sharing a lane need identical core/branch "
                "configuration and line size"
            )
    for core in cores:
        core._begin_replay()
    if len(cores) == 1:
        fetch = lead.frontend.fetch_line_fast
        data = lead.backend.access_data_fast
    else:
        fetch, data = _fan_out(cores)
    branch_stats = lead.branch_unit.stats
    branches_before = branch_stats.branches
    mispredictions_before = branch_stats.mispredictions
    predict_raw = lead.branch_unit.predict_and_update_raw
    penalty = float(config.branch.mispredict_penalty)
    sizes = trace.size
    targets = trace.branch_target
    mems = trace.mem_address
    depends = trace.depend_stall
    issues = trace.issue_stall
    mem_lines = trace.mem_lines(line_size)
    # Only instructions that carry flags or cross a fetch boundary can change
    # simulator state; everything else just retires.  Iterate the
    # precomputed events and account retire bandwidth separately (with the
    # record loop's one add per instruction, so the total stays
    # bit-identical).
    mispred = 0.0
    depend = 0.0
    issue = 0.0
    current_line = -1
    bound = yield
    for index, pc, flags, fetch_line in zip(*trace.fetch_events(line_size)):
        while index >= bound:
            bound = yield
        if fetch_line != current_line:
            current_line = fetch_line
            fetch(fetch_line)

        if flags:
            if flags & FLAG_BRANCH:
                outcome = predict_raw(
                    pc,
                    sizes[index],
                    flags & FLAG_TAKEN != 0,
                    targets[index],
                    flags & FLAG_INDIRECT != 0,
                    flags & FLAG_CALL != 0,
                    flags & FLAG_RETURN != 0,
                )
                if outcome[2]:
                    mispred += penalty
                if flags & FLAG_TAKEN:
                    # Fetch redirects to the branch target.
                    current_line = -1
            if flags & FLAG_MEM:
                data(mems[index], pc, flags & FLAG_STORE != 0, mem_lines[index])
            if flags & FLAG_DEPEND:
                depend += depends[index]
            if flags & FLAG_ISSUE:
                issue += issues[index]

    instructions = len(trace.pc)
    retire = _retire_total(1.0 / config.dispatch_width, instructions)
    branches = branch_stats.branches - branches_before
    mispredictions = branch_stats.mispredictions - mispredictions_before
    results = []
    for core in cores:
        frontend = core.frontend
        backend_stats = core.backend.stats
        backend_stats.depend_stall_cycles += depend
        backend_stats.issue_stall_cycles += issue
        topdown = TopDownBreakdown(
            retire=retire,
            ifetch=frontend.stats.ifetch_stall_cycles,
            mispred=mispred,
            depend=depend,
            issue=issue,
            mem=backend_stats.mem_stall_cycles,
        )
        results.append(
            CoreResult(
                instructions=instructions,
                cycles=topdown.total_cycles,
                topdown=topdown,
                branches=branches,
                branch_mispredictions=mispredictions,
                line_stall_cycles=dict(frontend.line_stall_cycles),
                line_miss_counts=dict(frontend.line_miss_counts),
            )
        )
    return results


def _fan_out(cores: Sequence[CoreModel]):
    """One fetch and one data callable that drive every core, in order."""
    fetches = [core.frontend.fetch_line_fast for core in cores]
    accesses = [core.backend.access_data_fast for core in cores]

    def fetch(fetch_line: int) -> None:
        for fetch_fast in fetches:
            fetch_fast(fetch_line)

    def data(address: int, pc: int, is_store: bool, mem_line: int) -> None:
        for access_fast in accesses:
            access_fast(address, pc, is_store, mem_line)

    return fetch, data


