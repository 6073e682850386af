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
packed trace with everything computed from it alone — its fetch-line
automaton, one branch unit, one translation and one set of prefetchers —
driving one or more cores: solo replay is one lane of one core, lockstep (a
policy sweep) is one lane of N cores, and a multi-core co-run is N one-core
lanes taking round-robin turns.  The record loop in :meth:`CoreModel.run`
stays as the reference the packed loop is pinned against
(``tests/test_vector_equivalence.py``, ``tests/test_lockstep.py``).
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
from repro.common.translation import AddressTranslator, IdentityTranslator
from repro.cpu.backend import BackendModel
from repro.cpu.branch import BranchPredictionUnit
from repro.cpu.config import CoreConfig
from repro.cpu.frontend import FetchEngine
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

    Everything that depends only on the lane's event stream is computed
    once, on the *first* (lead) core, whatever the number of cores:

    * the trace decode and the fetch-boundary decisions (the current-fetch-
      line automaton depends only on the trace);
    * the branch outcomes, on the lead core's branch unit — predictor state
      never observes the memory system;
    * the address translation of each new fetch line and each data access,
      through the lead core's translator — the MMU never changes a mapping
      once it has made it, so a line's translation is cached for the lane;
    * the prefetchers' training, on the lead core's L1-I, L1-D and L2
      prefetchers — they observe only the physical address and the PC of
      each demand access, never its outcome, so one table issues exactly
      the targets each core's own table would.

    Every core then walks only its own caches with the physical address,
    line number and prefetch targets the lane hands it
    (:meth:`FetchEngine.fetch_translated`,
    :meth:`BackendModel.access_translated`).  The other cores' branch
    units, prefetcher tables and translators are left untouched, and their
    results report the shared branch unit's deltas.  A one-core lane (a solo
    run, each core of a co-run) does all of this on its own core.  Each
    core's ``ifetch`` and ``mem`` totals accumulate in its frontend and
    backend statistics, in the order the record loop adds them.
    """
    lead = cores[0]
    line_size = lead.line_size
    config = lead.config
    translator = lead.frontend.translator
    prefetchers = _prefetcher_configs(lead)
    for core in cores[1:]:
        # Full config equality (dataclass ==, covering frontend, backend and
        # every branch-predictor sizing field): the branch outcomes are
        # computed once on the lead core's unit, so any difference in
        # predictor geometry would silently change the other cores' results.
        # Translation and prefetcher training run once too.
        if (
            core.line_size != line_size
            or core.config != config
            or type(core.frontend.translator) is not type(translator)
            or _prefetcher_configs(core) != prefetchers
        ):
            raise ValueError(
                "cores sharing a lane need identical core/branch "
                "configuration, line size, kind of translator and prefetchers"
            )
    for core in cores:
        core._begin_replay()
    fetches = [core.frontend.fetch_translated for core in cores]
    accesses = [core.backend.access_translated for core in cores]
    translate_instruction = translator.translate_instruction
    translate_data = _data_translation(translator)
    hierarchy = lead.hierarchy
    l1i_observe = hierarchy.l1i_observe
    l1d_observe = hierarchy.l1d_observe
    l2_observe = hierarchy.l2_observe
    line_shift = line_size.bit_length() - 1
    # Virtual fetch line -> (paddr, temperature, physical line number).
    translations: dict[int, tuple] = {}
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
    # Virtual line numbers of the data accesses, read only under identity
    # translation (an MMU's physical lines come from its translation).
    mem_lines = trace.mem_lines(line_size) if translate_data is None else None
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
            translation = translations.get(fetch_line)
            if translation is None:
                paddr, temperature = translate_instruction(fetch_line)
                translation = (paddr, temperature, paddr >> line_shift)
                translations[fetch_line] = translation
            # The L1-I prefetcher's targets, then the L2 prefetcher's: the
            # order in which the record path issues them.
            prefetch = _NO_TARGETS
            if l1i_observe is not None:
                prefetch = l1i_observe(translation[0], fetch_line)
            if l2_observe is not None:
                l2_prefetch = l2_observe(translation[0], fetch_line)
                if l2_prefetch:
                    prefetch = [*prefetch, *l2_prefetch]
            for fetch in fetches:
                fetch(fetch_line, translation, prefetch)

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
                if translate_data is None:
                    paddr = mems[index]
                    line_no = mem_lines[index]
                else:
                    paddr = translate_data(mems[index])
                    line_no = paddr >> line_shift
                prefetch = _NO_TARGETS
                if l1d_observe is not None:
                    prefetch = l1d_observe(paddr, pc)
                if l2_observe is not None:
                    l2_prefetch = l2_observe(paddr, pc)
                    if l2_prefetch:
                        prefetch = [*prefetch, *l2_prefetch]
                is_store = flags & FLAG_STORE != 0
                for access in accesses:
                    access(paddr, pc, is_store, line_no, prefetch)
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


#: The prefetch targets of a demand access no prefetcher issues on.
_NO_TARGETS: tuple[int, ...] = ()


def _prefetcher_configs(core: CoreModel) -> list:
    """The prefetcher name and parameters of a core's L1-I, L1-D and L2."""
    config = core.hierarchy.config
    return [
        (level.prefetcher, level.prefetcher_kwargs)
        for level in (config.l1i, config.l1d, config.l2)
    ]


def _data_translation(translator: AddressTranslator):
    """Address-only data translation through ``translator``, or ``None``
    under identity translation (physical == virtual, so the trace's
    precomputed line numbers are the physical ones)."""
    if type(translator) is IdentityTranslator:
        return None
    translate = getattr(translator, "translate_data_addr", None)
    if translate is not None:
        # Skips the (always untagged) temperature tuple per data access.
        return translate
    translate_data = translator.translate_data
    return lambda vaddr: translate_data(vaddr)[0]
