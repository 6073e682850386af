"""Cache hierarchy model: L1-I, L1-D, unified L2, SLC and DRAM.

The structure matches Table 1 of the paper: private L1 instruction and data
caches, a shared unified L2 (inclusive of the L1s) where the evaluated
replacement policies are applied, a shared unified SLC (exclusive,
victim-filled from L2 evictions) and a fixed-latency DRAM backend.  Each level
can host a stride/next-line prefetcher.

The L2 and SLC live in a :class:`SharedCacheSystem`, which every
:class:`CacheHierarchy` is attached to: a single-core hierarchy builds its own
one-core system, and the multi-core mode attaches every core's hierarchy to
one.  There is therefore one miss-path walk.  It operates directly on the flat
columns of :class:`~repro.cache.cache.SetAssociativeCache`: the request's
line number is computed once and shared by every level (set index and tag are
shift/mask derivations per level), L2/SLC lookups are inlined rather than
dispatched, and SLC victim fills travel as one reused scratch request.  All
statistics updates and replacement-policy hook invocations happen in exactly
the order of the historical per-level ``access``/``fill`` calls, which is
what keeps results bit-identical (``tests/test_determinism.py``).
"""

from __future__ import annotations

from typing import Optional

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheLevelConfig, HierarchyConfig
from repro.cache.prefetch import NullPrefetcher, Prefetcher, make_prefetcher
from repro.cache.replacement.factory import create_policy
from repro.cache.stats import HierarchyStats
from repro.common.errors import ConfigurationError
from repro.common.request import (
    AccessResult,
    AccessType,
    HitLevel,
    MemoryRequest,
    ScratchRequest,
)

_IFETCH = AccessType.INSTRUCTION_FETCH
_LOAD = AccessType.DATA_LOAD
_STORE = AccessType.DATA_STORE


def _build_cache(name: str, cfg: CacheLevelConfig, line_size: int) -> SetAssociativeCache:
    num_sets = cfg.size_bytes // (cfg.associativity * line_size)
    policy = create_policy(cfg.policy, num_sets, cfg.associativity, **cfg.policy_kwargs)
    return SetAssociativeCache(
        name=name,
        size_bytes=cfg.size_bytes,
        associativity=cfg.associativity,
        policy=policy,
        line_size=line_size,
    )


class SharedCacheSystem:
    """One L2 + SLC instance below the L1s of one or more cores.

    Every :class:`CacheHierarchy` (one core's L1s and prefetchers) is
    attached to one of these: a single-core hierarchy builds its own, and the
    multi-core interleaved mode attaches every core's hierarchy to one, so
    every core's miss path lands in the *same* L2/SLC arrays and
    replacement-policy state.  Besides the caches it keeps the sharing
    bookkeeping the contention experiments report:

    * ``owners`` — L2 line number -> index of the core that last filled it
      (occupancy attribution);
    * ``inter_core_evictions[c]`` — lines core ``c`` owned that another core
      evicted (how much core ``c`` suffered);
    * ``evictions_caused[c]`` — lines of *other* cores that core ``c``'s
      fills evicted (how much core ``c`` inflicted).

    Back-invalidation is cross-core: an inclusive-L2 victim is invalidated in
    every registered core's L1s, not just the filler's.  An N=1 multi-core
    run is therefore the single-core run, bit for bit
    (``tests/test_multicore.py``).
    """

    def __init__(self, config: HierarchyConfig) -> None:
        config.validate()
        self.config = config
        line = config.line_size
        self.l2 = _build_cache("L2", config.l2, line)
        self.slc = _build_cache("SLC", config.slc, line)
        #: L2 line number -> core index of the last filler.
        self.owners: dict[int, int] = {}
        #: Core index -> L2 lines it owned that another core evicted.
        self.inter_core_evictions: dict[int, int] = {}
        #: Core index -> other cores' L2 lines its fills evicted.
        self.evictions_caused: dict[int, int] = {}
        #: Per-core L1 views for cross-core back-invalidation, appended by
        #: :meth:`register`.  The list object is identity-stable: walk
        #: closures built before later cores register still see them.
        self._l1_registry: list[tuple[dict, dict, object, object]] = []

    def register(self, core_id: int, hierarchy: "CacheHierarchy") -> None:
        """Attach one core's private hierarchy to the shared levels."""
        cfg = hierarchy.config
        if (
            cfg.l2 != self.config.l2
            or cfg.slc != self.config.slc
            or cfg.line_size != self.config.line_size
            or cfg.l2_inclusive != self.config.l2_inclusive
            or cfg.slc_exclusive != self.config.slc_exclusive
        ):
            raise ConfigurationError(
                "shared-cache cores must agree on L2/SLC geometry, line size "
                "and inclusion flags"
            )
        if core_id in self.inter_core_evictions:
            raise ConfigurationError(f"core {core_id} registered twice")
        self.inter_core_evictions[core_id] = 0
        self.evictions_caused[core_id] = 0
        self._l1_registry.append(
            (
                hierarchy.l1i._line_map,
                hierarchy.l1d._line_map,
                hierarchy.l1i.invalidate_line,
                hierarchy.l1d.invalidate_line,
            )
        )

    def occupancy(self) -> dict[int, int]:
        """Resident L2 lines per owning core (cores with none report 0)."""
        counts = {core: 0 for core in sorted(self.inter_core_evictions)}
        for core in self.owners.values():
            counts[core] = counts.get(core, 0) + 1
        return counts

    def reset(self) -> None:
        """Empty the L2 and SLC and forget every owner and eviction count."""
        self.l2.reset()
        self.slc.reset()
        self.owners.clear()
        self.reset_sharing_stats()

    def reset_sharing_stats(self) -> None:
        """Zero the eviction counters while keeping ownership state.

        Called after warm-up, mirroring ``reset_stats`` on the caches: the
        measured window starts with warmed contents (owners persist) but
        clean counters.
        """
        for core in self.inter_core_evictions:
            self.inter_core_evictions[core] = 0
        for core in self.evictions_caused:
            self.evictions_caused[core] = 0


class CacheHierarchy:
    """Drives memory requests through the modelled cache hierarchy.

    The L1s and prefetchers are this core's own; the L2 and SLC are those of
    ``shared`` (multi-core interleaved mode), or of a one-core
    :class:`SharedCacheSystem` the hierarchy builds for itself.
    """

    def __init__(
        self,
        config: HierarchyConfig,
        shared: Optional[SharedCacheSystem] = None,
        core_id: int = 0,
    ) -> None:
        config.validate()
        self.config = config
        if shared is None:
            shared = SharedCacheSystem(config)
        self.shared = shared
        self.core_id = core_id
        line = config.line_size
        self.l1i = _build_cache("L1I", config.l1i, line)
        self.l1d = _build_cache("L1D", config.l1d, line)
        self.l2 = shared.l2
        self.slc = shared.slc
        self.l1i_prefetcher: Prefetcher = make_prefetcher(
            config.l1i.prefetcher, **config.l1i.prefetcher_kwargs
        )
        self.l1d_prefetcher: Prefetcher = make_prefetcher(
            config.l1d.prefetcher, **config.l1d.prefetcher_kwargs
        )
        self.l2_prefetcher: Prefetcher = make_prefetcher(
            config.l2.prefetcher, **config.l2.prefetcher_kwargs
        )
        self.stats = HierarchyStats()
        #: Optional hook invoked as ``observer(request, hit)`` for every
        #: *demand* access that reaches the L2 (i.e. every L1 miss).  Used by
        #: the reuse-distance analysis (Figure 3) without perturbing timing.
        #: Observers must read the request during the callback and not retain
        #: it (the replay lane's data requests are reused scratch objects).
        self.l2_access_observer = None
        self._prefetch_scratch = ScratchRequest()
        self._prefetch_scratch.is_prefetch = True
        self._prefetch_scratch.core = core_id
        #: Reused request for SLC victim fills (temperature NONE, no
        #: starvation hint, prefetch-flagged — the values a fresh
        #: ``MemoryRequest`` would carry); every consumer on the fill path
        #: only reads field values.
        self._slc_scratch = ScratchRequest()
        self._slc_scratch.is_prefetch = True
        self._slc_scratch.core = core_id
        # ---- precomputed geometry and latencies for the walk hot path ----
        self._line_shift = self.l1i._line_shift
        self._lat_l1i = config.l1i.latency
        self._lat_l1d = config.l1d.latency
        self._lat_l2 = config.l2.latency
        self._lat_slc = config.slc.latency
        self._lat_dram = config.dram_latency
        self._l2_inclusive = config.l2_inclusive
        self._slc_exclusive = config.slc_exclusive
        #: The prefetchers' pre-bound ``observe(address, pc)``, ``None`` for
        #: a null engine (skipped entirely).  The record path trains them in
        #: :meth:`_run_prefetchers`; the replay lane trains its lead core's
        #: and hands the targets to every core (:func:`repro.cpu.core.run_lanes`).
        self.l1i_observe = self._active_observe(self.l1i_prefetcher)
        self.l1d_observe = self._active_observe(self.l1d_prefetcher)
        self.l2_observe = self._active_observe(self.l2_prefetcher)
        #: The below-L1 walk and the prefetch issue as closures over the
        #: (identity-stable) caches built above: the record path's
        #: :meth:`_access` and the replay lane (:func:`repro.cpu.core.run_lanes`)
        #: enter the hierarchy through them.  The seed baseline replaces the
        #: caches after construction but never uses these paths — it
        #: overrides the whole access path.
        shared.register(core_id, self)
        self._walk_below_l1i = self._make_walk(self.l1i)
        self._walk_below_l1d = self._make_walk(self.l1d)
        self._issue_targets = self._make_issue_targets()

    @staticmethod
    def _active_observe(prefetcher: Prefetcher):
        """``prefetcher.observe`` pre-bound, or ``None`` for the null engine."""
        if isinstance(prefetcher, NullPrefetcher):
            return None
        return prefetcher.observe

    # ----------------------------------------------------------- public API
    def access_instruction(self, request: MemoryRequest) -> AccessResult:
        """Service an instruction fetch (or instruction prefetch)."""
        if not request.is_instruction:
            raise ValueError("access_instruction requires an instruction request")
        return self._access(request, self.l1i, self.l1i_prefetcher)

    def access_data(self, request: MemoryRequest) -> AccessResult:
        """Service a data load/store (or data prefetch)."""
        if request.is_instruction:
            raise ValueError("access_data requires a data request")
        return self._access(request, self.l1d, self.l1d_prefetcher)

    def access(self, request: MemoryRequest) -> AccessResult:
        """Dispatch a request to the instruction or data path."""
        if request.is_instruction:
            return self.access_instruction(request)
        return self.access_data(request)

    def reset(self) -> None:
        """Power-on state: empty caches (the shared L2 and SLC included, with
        their ownership), cleared prefetchers and statistics."""
        self.l1i.reset()
        self.l1d.reset()
        self.shared.reset()
        for prefetcher in (self.l1i_prefetcher, self.l1d_prefetcher, self.l2_prefetcher):
            prefetcher.reset()
        self.stats.reset()

    def reset_stats(self) -> None:
        """Clear statistics while keeping cache contents and policy state.

        Used after the warm-up (fast-forward) phase so that only the measured
        window contributes to MPKI and latency counters.
        """
        for cache in (self.l1i, self.l1d, self.l2, self.slc):
            cache.stats.reset()
        self.stats.reset()

    # -------------------------------------------------------------- internals
    def _access(
        self,
        request: MemoryRequest,
        l1: SetAssociativeCache,
        l1_prefetcher: Prefetcher,
        allow_prefetch: bool = True,
    ) -> AccessResult:
        demand = not request.is_prefetch
        if demand:
            if request.access_type is _IFETCH:
                self.stats.instruction_fetches += 1
            else:
                self.stats.data_accesses += 1

        line_no = request.address >> self._line_shift
        if l1.access_line(request, line_no):
            latency = self._l1_latency(request)
            result = AccessResult(
                request=request,
                hit_level=HitLevel.L1,
                latency=latency,
                l1_hit=True,
            )
            self._account(request, latency, 1, True, demand)
        else:
            evicted: list[int] = []
            walk = self._walk_below_l1i if l1 is self.l1i else self._walk_below_l1d
            latency, level = walk(request, evicted, line_no)
            result = AccessResult(
                request=request,
                hit_level=HitLevel(level),
                latency=latency,
                l2_hit=level == 2,
                slc_hit=level == 3,
                evicted_lines=tuple(evicted),
            )
            self._account(request, latency, level, False, demand)

        if allow_prefetch and demand:
            self._run_prefetchers(request, l1, l1_prefetcher)
        return result

    def _account(
        self,
        request: MemoryRequest,
        latency: int,
        level: int,
        l1_hit: bool,
        demand: bool,
    ) -> None:
        """Update hierarchy counters for an access serviced at ``level``.

        ``level`` is the integer value of the servicing :class:`HitLevel`
        (1=L1 … 4=DRAM); an L2 miss therefore is ``level >= 3``.
        """
        stats = self.stats
        is_instruction = request.access_type is _IFETCH
        l2_miss = level >= 3
        # Instruction-side L2 misses are counted for demand fetches *and* for
        # FDIP instruction prefetches: with a decoupled frontend the run-ahead
        # prefetcher issues the demand stream early, so its misses are the
        # instruction misses the program pays for (the later demand fetch then
        # hits the L1-I).  Data prefetches stay excluded from MPKI.
        if l2_miss and is_instruction:
            stats.l2_inst_misses += 1

        if demand:
            stats.total_latency += latency
            if not l1_hit:
                if is_instruction:
                    stats.l1i_misses += 1
                else:
                    stats.l1d_misses += 1
            if l2_miss and not is_instruction:
                stats.l2_data_misses += 1
            if level == 4:
                # Serviced by DRAM: missed the SLC as well as the L2.
                stats.slc_misses += 1
                stats.dram_accesses += 1

    def _make_walk(self, l1: SetAssociativeCache):
        """Build the walk below ``l1`` as a closure over stable hierarchy state.

        ``walk(request, evicted, line_no)`` continues after an L1 miss has
        already been recorded and returns ``(latency, level)`` with
        ``level`` the integer :class:`~repro.common.request.HitLevel` that
        serviced the access.  ``line_no`` is the request's physical line
        number.  ``evicted`` collects the addresses of lines evicted by the
        fills when a list is supplied (the record path exposes them through
        ``AccessResult.evicted_lines``; the replay lane passes ``None``).

        The L2 and SLC lookups are inlined copies of
        :meth:`SetAssociativeCache.access_line`, the L2 victim handling
        (ownership, back-invalidation, exclusive-SLC victim fill) is inlined
        as well, and so is the L1 fill of a full set under a fused LRU
        replacement (every shipped L1) — statistics, dirty-bit and
        replacement-hook updates happen in exactly the order of the
        historical per-level ``access``/``fill`` calls.  At each L2 fill the
        owner map records this core as the filler, and an evicted line owned
        by *another* core bumps the inter-core eviction counters;
        back-invalidation consults every registered core's L1s.  Every
        captured object is identity-stable for the hierarchy lifetime
        (caches reset in place); the one dynamic attribute,
        ``l2_access_observer``, is read through ``self`` per call.
        """
        hier = self
        shared = self.shared
        core_id = self.core_id
        owners = shared.owners
        inter_core = shared.inter_core_evictions
        caused = shared.evictions_caused
        l1_registry = shared._l1_registry
        l1_map = l1._line_map
        l1_fill = l1._fill_scalars
        l1_lines, l1_dirty, l1_instr, l1_temps, l1_pcs = l1._columns
        l1_counts = l1._valid_counts
        l1_stats = l1.stats
        l1_ways = l1.associativity
        l1_set_mask = l1._set_mask
        l1_lru = l1._replace_kind == 1
        l1_stamps = l1._replace_rows
        l1_clock = l1._replace_a
        l2 = self.l2
        slc = self.slc
        l2_map = l2._line_map
        slc_map = slc._line_map
        l2_stats = l2.stats
        slc_stats = slc.stats
        l2_dirty = l2._dirty
        slc_dirty = slc._dirty
        l2_ways = l2.associativity
        slc_ways = slc.associativity
        l2_set_mask = l2._set_mask
        slc_set_mask = slc._set_mask
        l2_touch_kind = l2._touch_kind
        l2_touch_rows = l2._touch_rows
        l2_touch_arg = l2._touch_arg
        l2_policy_touch = l2._policy_touch
        l2_on_hit = l2.policy.on_hit
        slc_touch_kind = slc._touch_kind
        slc_touch_rows = slc._touch_rows
        slc_touch_arg = slc._touch_arg
        slc_policy_touch = slc._policy_touch
        slc_on_hit = slc.policy.on_hit
        l2_fill = l2._fill_scalars
        slc_fill = slc._fill_scalars
        slc_invalidate = slc.invalidate_line
        temp_none = self._slc_scratch.temperature
        lat_l1i = self._lat_l1i
        lat_l1d = self._lat_l1d
        lat_l2 = self._lat_l2
        lat_slc = self._lat_slc
        lat_slc_dram = self._lat_slc + self._lat_dram
        l2_inclusive = self._l2_inclusive
        slc_exclusive = self._slc_exclusive
        line_shift = self._line_shift
        scratch = self._slc_scratch

        def walk(
            request: MemoryRequest,
            evicted: Optional[list[int]],
            line_no: int,
        ) -> tuple[int, int]:
            access_type = request.access_type
            is_ifetch = access_type is _IFETCH
            is_prefetch = request.is_prefetch
            latency = (lat_l1i if is_ifetch else lat_l1d) + lat_l2
            observer = hier.l2_access_observer
            # Scalar request fields, extracted once and shared by every
            # level's fill (see SetAssociativeCache._fill_scalars).
            dirty_new = 1 if access_type is _STORE else 0
            instr_new = 1 if is_ifetch else 0
            temperature = request.temperature
            pc = request.pc

            # L2 lookup (the level whose policy is under evaluation).
            way = l2_map.get(line_no)
            if way is not None:
                if is_prefetch:
                    l2_stats.prefetch_hits += 1
                elif is_ifetch:
                    l2_stats.inst_hits += 1
                else:
                    l2_stats.data_hits += 1
                set_index = line_no & l2_set_mask
                if access_type is _STORE:
                    l2_dirty[set_index * l2_ways + way] = 1
                if l2_touch_kind == 1:
                    l2_touch_rows[set_index][way] = l2_touch_arg
                elif l2_touch_kind == 2:
                    clock = l2_touch_arg[0] + 1
                    l2_touch_arg[0] = clock
                    l2_touch_rows[set_index][way] = clock
                elif l2_touch_kind == 0:
                    if l2_policy_touch is not None:
                        l2_policy_touch(set_index, way)
                    else:
                        l2_on_hit(set_index, way, request)
                if observer is not None and not is_prefetch:
                    observer(request, True)
                level = 2
            else:
                if is_prefetch:
                    l2_stats.prefetch_misses += 1
                elif is_ifetch:
                    l2_stats.inst_misses += 1
                else:
                    l2_stats.data_misses += 1
                if observer is not None and not is_prefetch:
                    observer(request, False)

                # SLC lookup, else DRAM.
                way = slc_map.get(line_no)
                if way is not None:
                    if is_prefetch:
                        slc_stats.prefetch_hits += 1
                    elif is_ifetch:
                        slc_stats.inst_hits += 1
                    else:
                        slc_stats.data_hits += 1
                    set_index = line_no & slc_set_mask
                    if access_type is _STORE:
                        slc_dirty[set_index * slc_ways + way] = 1
                    if slc_touch_kind == 2:
                        clock = slc_touch_arg[0] + 1
                        slc_touch_arg[0] = clock
                        slc_touch_rows[set_index][way] = clock
                    elif slc_touch_kind == 1:
                        slc_touch_rows[set_index][way] = slc_touch_arg
                    elif slc_touch_kind == 0:
                        if slc_policy_touch is not None:
                            slc_policy_touch(set_index, way)
                        else:
                            slc_on_hit(set_index, way, request)
                    latency += lat_slc
                    if slc_exclusive:
                        slc_invalidate(line_no)
                    level = 3
                else:
                    if is_prefetch:
                        slc_stats.prefetch_misses += 1
                    elif is_ifetch:
                        slc_stats.inst_misses += 1
                    else:
                        slc_stats.data_misses += 1
                    latency += lat_slc_dram
                    level = 4

                victim = l2_fill(
                    line_no, 1, False, dirty_new, instr_new,
                    temperature, pc, is_prefetch, request,
                )
                owners[line_no] = core_id
                if victim is not None:
                    victim_line, victim_instr, victim_pc = victim
                    owner = owners.pop(victim_line, core_id)
                    if owner != core_id:
                        inter_core[owner] += 1
                        caused[core_id] += 1
                    if evicted is not None:
                        evicted.append(victim_line << line_shift)
                    if l2_inclusive:
                        for l1i_map, l1d_map, l1i_inv, l1d_inv in l1_registry:
                            if victim_line in l1i_map:
                                l1i_inv(victim_line)
                            if victim_line in l1d_map:
                                l1d_inv(victim_line)
                    if slc_exclusive:
                        scratch.address = victim_line << line_shift
                        scratch.access_type = _IFETCH if victim_instr else _LOAD
                        scratch.pc = victim_pc
                        slc_fill(
                            victim_line, 0, False, 0,
                            1 if victim_instr else 0,
                            temp_none, victim_pc, True, scratch,
                        )
                if level == 4 and not slc_exclusive:
                    slc_fill(
                        line_no, 0, False, dirty_new, instr_new,
                        temperature, pc, is_prefetch, request,
                    )

            # L1 fill: the line just missed the L1, so no resident refresh.
            set_index = line_no & l1_set_mask
            if l1_lru and l1_counts[set_index] == l1_ways:
                stamps = l1_stamps[set_index]
                way = stamps.index(min(stamps))
                clock = l1_clock[0] + 1
                l1_clock[0] = clock
                stamps[way] = clock
                slot = set_index * l1_ways + way
                victim_line = l1_lines[slot]
                del l1_map[victim_line]
                l1_stats.evictions += 1
                if l1_dirty[slot]:
                    l1_stats.writebacks += 1
                l1_lines[slot] = line_no
                l1_dirty[slot] = dirty_new
                l1_instr[slot] = instr_new
                l1_temps[slot] = temperature
                l1_pcs[slot] = pc
                l1_map[line_no] = way
                l1_stats.fills += 1
                if is_prefetch:
                    l1_stats.prefetch_fills += 1
                if evicted is not None:
                    evicted.append(victim_line << line_shift)
            elif evicted is None:
                l1_fill(
                    line_no, 0, False, dirty_new, instr_new,
                    temperature, pc, is_prefetch, request,
                )
            else:
                victim = l1_fill(
                    line_no, 1, False, dirty_new, instr_new,
                    temperature, pc, is_prefetch, request,
                )
                if victim is not None:
                    evicted.append(victim[0] << line_shift)
            return latency, level

        return walk

    def _l1_latency(self, request: MemoryRequest) -> int:
        if request.access_type is _IFETCH:
            return self._lat_l1i
        return self._lat_l1d

    def _run_prefetchers(
        self,
        request: MemoryRequest,
        l1: SetAssociativeCache,
        l1_prefetcher: Prefetcher,
    ) -> None:
        if l1_prefetcher is self.l1i_prefetcher:
            observe = self.l1i_observe
        elif l1_prefetcher is self.l1d_prefetcher:
            observe = self.l1d_observe
        else:
            observe = self._active_observe(l1_prefetcher)
        if observe is not None:
            targets = observe(request.address, request.pc)
            if targets:
                self._issue_targets(request, l1, targets)
        observe = self.l2_observe
        if observe is not None:
            targets = observe(request.address, request.pc)
            if targets:
                self._issue_targets(request, l1, targets)

    def _make_issue_targets(self):
        """Build the prefetch-issue path as a closure.

        Issues prefetches for the targets derived from a demand request.  The
        prefetch requests travel as one reused
        :class:`~repro.common.request.ScratchRequest` — every consumer on the
        prefetch walk (cache stats, fills, replacement hooks) only reads field
        values, so a mutable request carrying the same values is
        indistinguishable from a fresh frozen one.  Each target is equivalent
        to ``_access(target, ..., allow_prefetch=False)``: no demand
        counters, no nested prefetching, only the instruction-prefetch
        L2-miss accounting; the L1 probe is inlined.
        """
        scratch = self._prefetch_scratch
        stats = self.stats
        l1i = self.l1i
        walk_l1i = self._walk_below_l1i
        walk_l1d = self._walk_below_l1d
        line_shift = self._line_shift

        def issue_targets(request, l1: SetAssociativeCache, targets) -> None:
            scratch.access_type = access_type = request.access_type
            scratch.pc = request.pc
            scratch.temperature = request.temperature
            scratch.starvation_hint = request.starvation_hint
            l1_map = l1._line_map
            walk = walk_l1i if l1 is l1i else walk_l1d
            for address in targets:
                stats.prefetches_issued += 1
                scratch.address = address
                line_no = address >> line_shift
                way = l1_map.get(line_no)
                if way is not None:
                    # A prefetch L1 hit updates no hierarchy counters
                    # (inlined access_line for a prefetch hit).
                    l1.stats.prefetch_hits += 1
                    set_index = line_no & l1._set_mask
                    if access_type is _STORE:
                        l1._dirty[set_index * l1.associativity + way] = 1
                    kind = l1._touch_kind
                    if kind == 2:
                        cell = l1._touch_arg
                        clock = cell[0] + 1
                        cell[0] = clock
                        l1._touch_rows[set_index][way] = clock
                    elif kind == 1:
                        l1._touch_rows[set_index][way] = l1._touch_arg
                    elif kind == 0:
                        touch = l1._policy_touch
                        if touch is not None:
                            touch(set_index, way)
                        else:
                            l1.policy.on_hit(set_index, way, scratch)
                    continue
                l1.stats.prefetch_misses += 1
                latency, level = walk(scratch, None, line_no)
                if level >= 3 and access_type is _IFETCH:
                    stats.l2_inst_misses += 1

        return issue_targets

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CacheHierarchy(l1i={self.l1i.size_bytes}, l1d={self.l1d.size_bytes}, "
            f"l2={self.l2.size_bytes}/{self.l2.policy.name}, slc={self.slc.size_bytes})"
        )
