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

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Optional, Sequence

from repro.cache.hierarchy import CacheHierarchy
from repro.common.addressing import CACHE_LINE_SIZE, line_address
from repro.common.request import AccessType, MemoryRequest
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

_IFETCH = AccessType.INSTRUCTION_FETCH
_LOAD = AccessType.DATA_LOAD
_STORE = AccessType.DATA_STORE

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


#: Trace events per tape chunk.  A lane's shared pass records the accesses of
#: this many events (at most a fetch and a data access each) before its cores
#: replay them, so the tape stays small whatever the length of the trace.
_CHUNK_EVENTS = 2048


def _lane_loop(cores: Sequence[CoreModel], trace: PackedTrace):
    """The replay loop of one lane, as a generator resumable between turns.

    Each ``send(bound)`` replays the events of the instructions below
    ``bound``; an event past the bound waits in the loop for the next turn.
    The generator returns the lane's results once the trace is exhausted.

    A *shared pass* computes everything that depends only on the lane's
    event stream once, on the *first* (lead) core, whatever the number of
    cores:

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

    It records every fetch and data access on a *tape*, one chunk of
    :data:`_CHUNK_EVENTS` trace events at a time, and each core then replays
    the chunk through its own caches (:func:`_core_replay`), core after core.
    That order is exact because the cores of one lane share no cache (a lane
    whose cores do is rejected): each core still sees its own accesses in
    trace order, and the cores of other lanes (a co-run's) meet it in the
    shared L2 only at turn bounds, where the replay stops mid-chunk.  The
    shared pass of a co-run lane runs up to a chunk ahead of its turn; that
    is exact because its work is local to the lane (two lanes share a page
    table only when they replay the same prepared workload, and identical
    streams demand-map pages in first-touch order either way).

    The other cores' branch units, prefetcher tables and translators are
    left untouched, and their results report the shared branch unit's
    deltas.  A one-core lane (a solo run, each core of a co-run) does all of
    this on its own core.
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
    if len({id(core.hierarchy.shared) for core in cores}) != len(cores):
        raise ValueError(
            "cores sharing a lane must not share a cache system: the lane "
            "replays its cores one after another"
        )
    for core in cores:
        core._begin_replay()
    replays = [_core_replay(core) for core in cores]
    for replay in replays:
        next(replay)
    translate_instruction = translator.translate_instruction
    translate_data = _data_translation(translator)
    hierarchy = lead.hierarchy
    l1i_observe = hierarchy.l1i_observe
    l1d_observe = hierarchy.l1d_observe
    l2_observe = hierarchy.l2_observe
    observe_fetches = l1i_observe is not None or l2_observe is not None
    line_shift = line_size.bit_length() - 1
    # Virtual fetch line -> its tape entry without prefetch targets.
    fetch_entries: dict[int, tuple] = {}
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
    ifetch = _IFETCH
    load = _LOAD
    store = _STORE
    # Only instructions that carry flags or cross a fetch boundary can change
    # simulator state; everything else just retires.  Iterate the
    # precomputed events and account retire bandwidth separately (with the
    # record loop's one add per instruction, so the total stays
    # bit-identical).
    mispred = 0.0
    depend = 0.0
    issue = 0.0
    current_line = -1
    events = zip(*trace.fetch_events(line_size))
    bound = yield
    while True:
        # Tape entries are (kind, address, pc, physical line, translation,
        # prefetch targets): a fetch carries its virtual line as address and
        # pc and its (paddr, temperature); a data access its physical
        # address and no translation.
        tape: list[tuple] = []
        record = tape.append
        # The instruction index of each tape entry, for the turn bounds.
        positions: list[int] = []
        mark = positions.append
        index = -1
        for index, pc, flags, fetch_line in islice(events, _CHUNK_EVENTS):
            if fetch_line != current_line:
                current_line = fetch_line
                entry = fetch_entries.get(fetch_line)
                if entry is None:
                    paddr, temperature = translate_instruction(fetch_line)
                    entry = (
                        ifetch, fetch_line, fetch_line, paddr >> line_shift,
                        (paddr, temperature), _NO_TARGETS,
                    )
                    fetch_entries[fetch_line] = entry
                if observe_fetches:
                    # The L1-I prefetcher's targets, then the L2
                    # prefetcher's: the order the record path issues them.
                    paddr = entry[4][0]
                    prefetch = _NO_TARGETS
                    if l1i_observe is not None:
                        prefetch = l1i_observe(paddr, fetch_line)
                    if l2_observe is not None:
                        l2_prefetch = l2_observe(paddr, fetch_line)
                        if l2_prefetch:
                            prefetch = [*prefetch, *l2_prefetch]
                    if prefetch:
                        entry = (*entry[:5], prefetch)
                record(entry)
                mark(index)

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
                    else:
                        paddr = translate_data(mems[index])
                    prefetch = _NO_TARGETS
                    if l1d_observe is not None:
                        prefetch = l1d_observe(paddr, pc)
                    if l2_observe is not None:
                        l2_prefetch = l2_observe(paddr, pc)
                        if l2_prefetch:
                            prefetch = [*prefetch, *l2_prefetch]
                    record((
                        store if flags & FLAG_STORE else load, paddr, pc,
                        paddr >> line_shift, None, prefetch,
                    ))
                    mark(index)
                if flags & FLAG_DEPEND:
                    depend += depends[index]
                if flags & FLAG_ISSUE:
                    issue += issues[index]
        if index < 0:  # no event left: the trace is exhausted
            break
        # Replay the chunk on every core, stopping at each turn's bound.
        start = 0
        end = len(tape)
        while start < end:
            if positions[start] >= bound:
                bound = yield
                continue
            stop = bisect_left(positions, bound, start + 1, end)
            entries = tape[start:stop]
            for replay in replays:
                replay.send(entries)
            start = stop
    for replay in replays:
        replay.close()

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


def _core_replay(core: CoreModel):
    """One core's replay of its lane's tape, as a generator.

    Each ``send(entries)`` replays tape entries through the core's own
    caches; ``close()`` adds the counters the replay kept to the core's
    statistics.  Everything the loop touches is bound once per lane.  The
    demand path is inline: an L1 hit updates the replacement state (with no
    Python call where the policy declares its hit update), a miss continues
    in the walk below that L1 (``CacheHierarchy._walk_below_l1i`` /
    ``_walk_below_l1d``), and the prefetch targets go to
    :meth:`CacheHierarchy._issue_targets` after the demand access, as on the
    record path (:meth:`CacheHierarchy.access_instruction`,
    :meth:`~CacheHierarchy.access_data`).

    A fetch travels as the frontend's cached request for its line (dropped
    when the line's starvation hint flips), a data access as the backend's
    scratch request, so the walk, ``l2_access_observer`` and request-aware
    policies see the values the record path hands them.  Integer counters
    are summed in locals and added on close; the float ``ifetch`` and
    ``mem`` stall totals are carried in locals from their current values and
    grow by one add per access, and the per-line stall maps are updated per
    access, so every float is the record path's sum in the record path's
    order.
    """
    hierarchy = core.hierarchy
    frontend = core.frontend
    backend = core.backend
    walk_l1i = hierarchy._walk_below_l1i
    walk_l1d = hierarchy._walk_below_l1d
    issue_targets = hierarchy._issue_targets
    l1i = hierarchy.l1i
    l1i_map = l1i._line_map
    l1i_mask = l1i._set_mask
    i_kind = l1i._touch_kind
    i_rows = l1i._touch_rows
    i_arg = l1i._touch_arg
    i_touch = l1i._policy_touch
    i_on_hit = l1i.policy.on_hit
    l1d = hierarchy.l1d
    l1d_map = l1d._line_map
    l1d_mask = l1d._set_mask
    l1d_ways = l1d.associativity
    l1d_dirty = l1d._dirty
    d_kind = l1d._touch_kind
    d_rows = l1d._touch_rows
    d_arg = l1d._touch_arg
    d_touch = l1d._policy_touch
    d_on_hit = l1d.policy.on_hit
    lat_l1i = hierarchy._lat_l1i
    lat_l1d = hierarchy._lat_l1d
    requests = frontend._request_cache
    starved = frontend._starved_lines
    remember = frontend._remember_starvation
    line_stalls = frontend.line_stall_cycles
    line_misses = frontend.line_miss_counts
    hidden = frontend._hidden_latency
    core_id = frontend.core
    scratch = backend._scratch
    hide = backend._hide_latency
    scale = backend._stall_scale
    ifetch = _IFETCH
    store = _STORE
    # An L1 hit's exposed stall is a constant per access kind (none in the
    # shipped configurations, whose L1 latency is fully hidden).
    fetch_hit_stall = float(lat_l1i) - hidden
    exposed = lat_l1d - hide
    load_hit_stall = float(exposed) * scale if exposed > 0 else 0.0
    store_hit_stall = load_hit_stall * 0.5
    fetch_hits = fetch_misses = fetch_l2_misses = 0
    data_hits = data_misses = data_l2_misses = 0
    dram = 0
    miss_latency = 0
    ifetch_stall = frontend.stats.ifetch_stall_cycles
    mem_stall = backend.stats.mem_stall_cycles
    try:
        while True:
            entries = yield
            for kind, address, pc, line_no, translation, targets in entries:
                if kind is ifetch:
                    request = requests.get(address)
                    if request is None:
                        request = MemoryRequest(
                            address=translation[0],
                            access_type=ifetch,
                            pc=address,
                            temperature=translation[1],
                            starvation_hint=address in starved,
                            core=core_id,
                        )
                        requests[address] = request
                    way = l1i_map.get(line_no)
                    if way is not None:
                        fetch_hits += 1
                        if i_kind == 2:
                            clock = i_arg[0] + 1
                            i_arg[0] = clock
                            i_rows[line_no & l1i_mask][way] = clock
                        elif i_kind == 1:
                            i_rows[line_no & l1i_mask][way] = i_arg
                        elif i_kind == 0:
                            if i_touch is not None:
                                i_touch(line_no & l1i_mask, way)
                            else:
                                i_on_hit(line_no & l1i_mask, way, request)
                        if targets:
                            issue_targets(request, l1i, targets)
                        if fetch_hit_stall <= 0:
                            continue
                        stall = fetch_hit_stall
                    else:
                        fetch_misses += 1
                        latency, level = walk_l1i(request, None, line_no)
                        miss_latency += latency
                        if targets:
                            issue_targets(request, l1i, targets)
                        if level >= 3:
                            fetch_l2_misses += 1
                            if level == 4:
                                dram += 1
                            remember(address)
                        stall = latency - hidden
                        if stall <= 0:
                            continue
                    ifetch_stall += stall
                    line_stalls[address] = line_stalls.get(address, 0.0) + stall
                    line_misses[address] = line_misses.get(address, 0) + 1
                    continue

                way = l1d_map.get(line_no)
                if way is not None:
                    data_hits += 1
                    set_index = line_no & l1d_mask
                    if kind is store:
                        l1d_dirty[set_index * l1d_ways + way] = 1
                    if d_kind == 2:
                        clock = d_arg[0] + 1
                        d_arg[0] = clock
                        d_rows[set_index][way] = clock
                    elif d_kind == 1:
                        d_rows[set_index][way] = d_arg
                    elif d_kind == 0:
                        if d_touch is not None:
                            d_touch(set_index, way)
                        else:
                            scratch.address = address
                            scratch.access_type = kind
                            scratch.pc = pc
                            d_on_hit(set_index, way, scratch)
                    if targets:
                        scratch.address = address
                        scratch.access_type = kind
                        scratch.pc = pc
                        issue_targets(scratch, l1d, targets)
                    if load_hit_stall:
                        mem_stall += store_hit_stall if kind is store else load_hit_stall
                    continue
                data_misses += 1
                scratch.address = address
                scratch.access_type = kind
                scratch.pc = pc
                latency, level = walk_l1d(scratch, None, line_no)
                miss_latency += latency
                if level >= 3:
                    data_l2_misses += 1
                    if level == 4:
                        dram += 1
                if targets:
                    issue_targets(scratch, l1d, targets)
                exposed = latency - hide
                if exposed > 0:
                    stall = float(exposed) * scale
                    if kind is store:
                        stall *= 0.5
                    mem_stall += stall
    finally:
        stats = hierarchy.stats
        fetches = fetch_hits + fetch_misses
        accesses = data_hits + data_misses
        stats.instruction_fetches += fetches
        stats.data_accesses += accesses
        stats.l1i_misses += fetch_misses
        stats.l1d_misses += data_misses
        stats.l2_inst_misses += fetch_l2_misses
        stats.l2_data_misses += data_l2_misses
        stats.slc_misses += dram
        stats.dram_accesses += dram
        stats.total_latency += (
            lat_l1i * fetch_hits + lat_l1d * data_hits + miss_latency
        )
        l1i.stats.inst_hits += fetch_hits
        l1i.stats.inst_misses += fetch_misses
        l1d.stats.data_hits += data_hits
        l1d.stats.data_misses += data_misses
        frontend.stats.demand_fetches += fetches
        frontend.stats.starvation_events += fetch_l2_misses
        frontend.stats.ifetch_stall_cycles = ifetch_stall
        backend.stats.data_accesses += accesses
        backend.stats.mem_stall_cycles = mem_stall


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
    under identity translation (physical == virtual)."""
    if type(translator) is IdentityTranslator:
        return None
    translate = getattr(translator, "translate_data_addr", None)
    if translate is not None:
        # Skips the (always untagged) temperature tuple per data access.
        return translate
    translate_data = translator.translate_data
    return lambda vaddr: translate_data(vaddr)[0]
