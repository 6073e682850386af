"""Faithful replica of the seed revision's simulation engine hot path.

The engine-speed benchmark (``test_bench_engine_speed.py``) needs a
*seed-equivalent baseline loop* to measure the fast engine against: the
record-at-a-time replay the repository shipped with, where every cache line is
a :class:`CacheBlock` object, every lookup linearly scans all ways of a set
with Python attribute lookups, every level of the walk builds an
:class:`AccessResult`, and every prefetch copies the demand request.  The
production classes no longer work that way (flat tag/metadata columns,
inlined scalar walks, packed traces), so the seed behaviour is vendored here —
limited to the hot path, with the current replacement-policy and value objects
reused where they only make the baseline *faster* (keeping the measured
speedup conservative).

This module must only be used for benchmarking; the simulation results it
produces are identical to the production engine's (the data structures differ,
the modelled semantics do not), which the speed benchmark asserts as a sanity
check.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.cache.block import CacheBlock
from repro.cache.cache import SetAssociativeCache
from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig
from repro.cache.prefetch import StridePrefetcher, make_prefetcher
from repro.cache.replacement.base import ReplacementPolicy
from repro.cache.replacement.basic import LRUPolicy
from repro.cache.replacement.factory import create_policy
from repro.cache.replacement.rrip import RRIPBase
from repro.common.addressing import line_address
from repro.common.request import AccessResult, AccessType, HitLevel, MemoryRequest
from repro.cpu.core import CoreModel


@dataclass
class SeedCacheStats:
    """Seed-revision per-cache counters: a plain (non-slotted) dataclass whose
    aggregate counters are stored and incremented on every access."""

    demand_accesses: int = 0
    demand_hits: int = 0
    demand_misses: int = 0
    inst_accesses: int = 0
    inst_hits: int = 0
    inst_misses: int = 0
    data_accesses: int = 0
    data_hits: int = 0
    data_misses: int = 0
    prefetch_accesses: int = 0
    prefetch_hits: int = 0
    prefetch_misses: int = 0
    fills: int = 0
    prefetch_fills: int = 0
    evictions: int = 0
    invalidations: int = 0
    writebacks: int = 0

    def reset(self) -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)


class SeedLRUPolicy(LRUPolicy):
    """Seed-revision LRU hooks: per-call index validation and helper calls."""

    def _touch(self, set_index: int, way: int) -> None:
        self._clock += 1
        self._stamps[set_index][way] = self._clock

    def on_hit(self, set_index: int, way: int, request) -> None:
        self._check_set(set_index)
        self._check_way(way)
        self._touch(set_index, way)

    def on_insert(self, set_index: int, way: int, request) -> None:
        self._check_set(set_index)
        self._check_way(way)
        self._touch(set_index, way)

    def select_victim(self, set_index: int, request) -> int:
        self._check_set(set_index)
        stamps = self._stamps[set_index]
        return min(range(self.num_ways), key=lambda way: stamps[way])


def _seed_rrip_hooks(policy: ReplacementPolicy) -> ReplacementPolicy:
    """Restore the seed's validated ``set_rrpv`` calls on RRIP-family hooks."""
    if isinstance(policy, RRIPBase) and type(policy).on_hit is RRIPBase.on_hit:
        def on_hit(set_index, way, request, _p=policy):
            _p.set_rrpv(set_index, way, _p.rrpv_immediate)

        def on_insert(set_index, way, request, _p=policy):
            _p.set_rrpv(set_index, way, _p.insertion_rrpv(set_index, request))

        def select_victim(set_index, request, _p=policy):
            _p._check_set(set_index)
            rrpvs = _p._rrpv[set_index]
            while True:
                for way in range(_p.num_ways):
                    if rrpvs[way] >= _p.rrpv_distant:
                        return way
                for way in range(_p.num_ways):
                    rrpvs[way] = min(rrpvs[way] + 1, _p.rrpv_max)

        policy.on_hit = on_hit  # type: ignore[method-assign]
        policy.on_insert = on_insert  # type: ignore[method-assign]
        policy.select_victim = select_victim  # type: ignore[method-assign]
    return policy


class SeedCache(SetAssociativeCache):
    """Seed-revision cache: one :class:`CacheBlock` object per line, O(ways)
    linear probes, no tag index.

    The production base class keeps its state in flat columns now, so this
    replica rebuilds the seed's object-per-block storage (``self._sets``) and
    overrides every access path to use it; the inherited columns stay empty
    and unused.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.stats = SeedCacheStats()
        self._sets: list[list[CacheBlock]] = [
            [CacheBlock() for _ in range(self.associativity)]
            for _ in range(self.num_sets)
        ]
        self._time = 0

    # Seed-revision divide-based address geometry.
    def set_index_of(self, address: int) -> int:
        return (address // self.line_size) % self.num_sets

    def tag_of(self, address: int) -> int:
        return address // self._tag_divisor

    def probe(self, address: int) -> Optional[int]:
        set_index = self.set_index_of(address)
        tag = self.tag_of(address)
        for way, block in enumerate(self._sets[set_index]):
            if block.valid and block.tag == tag:
                return way
        return None

    def contains(self, address: int) -> bool:
        return self.probe(address) is not None

    def access(self, request: MemoryRequest) -> bool:
        self._time += 1
        set_index = self.set_index_of(request.address)
        way = self.probe(request.address)
        hit = way is not None
        self._record_access(request, hit)
        if hit:
            block = self._sets[set_index][way]
            block.last_access_time = self._time
            block.access_count += 1
            if request.is_write:
                block.dirty = True
            self.policy.on_hit(set_index, way, request)
        return hit

    def _record_access(self, request: MemoryRequest, hit: bool) -> None:
        stats = self.stats
        if request.is_prefetch:
            stats.prefetch_accesses += 1
            if hit:
                stats.prefetch_hits += 1
            else:
                stats.prefetch_misses += 1
            return
        stats.demand_accesses += 1
        if hit:
            stats.demand_hits += 1
        else:
            stats.demand_misses += 1
        if request.is_instruction:
            stats.inst_accesses += 1
            if hit:
                stats.inst_hits += 1
            else:
                stats.inst_misses += 1
        else:
            stats.data_accesses += 1
            if hit:
                stats.data_hits += 1
            else:
                stats.data_misses += 1

    def fill(self, request: MemoryRequest) -> Optional[CacheBlock]:
        return self._seed_fill_impl(request, copy_victim=True)

    def fill_raw(self, request: MemoryRequest):
        return self._seed_fill_impl(request, copy_victim=False)

    def _seed_fill_impl(self, request: MemoryRequest, copy_victim: bool):
        self._time += 1
        set_index = self.set_index_of(request.address)
        tag = self.tag_of(request.address)
        blocks = self._sets[set_index]

        existing = self.probe(request.address)
        if existing is not None:
            block = blocks[existing]
            was_dirty = block.dirty
            self._install_block(block, request, tag)
            if was_dirty:
                block.dirty = True
            return None

        victim = None
        way = self._find_invalid_way(set_index)
        if way is None:
            way = self.policy.select_victim(set_index, request)
            block = blocks[way]
            if block.valid:
                victim = (
                    self._copy_block(block)
                    if copy_victim
                    else (block.address, block.is_instruction, block.pc)
                )
                self.stats.evictions += 1
                if block.dirty:
                    self.stats.writebacks += 1
                self.policy.on_evict(set_index, way, request)

        self._install_block(blocks[way], request, tag)
        self.stats.fills += 1
        if request.is_prefetch:
            self.stats.prefetch_fills += 1
        self.policy.on_insert(set_index, way, request)
        return victim

    def _find_invalid_way(self, set_index: int) -> Optional[int]:
        for way, block in enumerate(self._sets[set_index]):
            if not block.valid:
                return way
        return None

    def _install_block(self, block: CacheBlock, request: MemoryRequest, tag: int) -> None:
        address = request.address
        block.tag = tag
        block.address = address - address % self.line_size
        block.valid = True
        block.dirty = request.access_type is AccessType.DATA_STORE
        block.is_instruction = request.access_type is AccessType.INSTRUCTION_FETCH
        block.temperature = request.temperature
        block.pc = request.pc
        block.insertion_time = self._time
        block.last_access_time = self._time
        block.access_count = 0

    @staticmethod
    def _copy_block(block: CacheBlock) -> CacheBlock:
        return CacheBlock(
            tag=block.tag,
            address=block.address,
            valid=True,
            dirty=block.dirty,
            is_instruction=block.is_instruction,
            temperature=block.temperature,
            pc=block.pc,
            insertion_time=block.insertion_time,
            last_access_time=block.last_access_time,
            access_count=block.access_count,
        )

    def invalidate(self, address: int) -> bool:
        set_index = self.set_index_of(address)
        way = self.probe(address)
        if way is None:
            return False
        self.policy.on_evict(set_index, way, None)
        self._sets[set_index][way].invalidate()
        self.stats.invalidations += 1
        return True

    def reset(self) -> None:
        for blocks in self._sets:
            for block in blocks:
                block.invalidate()
        self.stats.reset()
        self.policy.reset()
        self._time = 0


class SeedStridePrefetcher(StridePrefetcher):
    """Seed-revision stride prefetcher: allocates a fresh list per call."""

    def observe(self, address: int, pc: int):
        key = pc % self.table_entries if pc else (
            address // 4096
        ) % self.table_entries
        entry = self._table.get(key)
        if entry is None:
            if len(self._table) >= self.table_entries:
                self._table.pop(next(iter(self._table)))
            from repro.cache.prefetch import _StrideEntry

            self._table[key] = _StrideEntry(last_address=address)
            return []

        stride = address - entry.last_address
        if stride != 0 and stride == entry.stride:
            entry.confidence = min(entry.confidence + 1, self.threshold + 2)
        else:
            entry.confidence = max(entry.confidence - 1, 0)
            entry.stride = stride
        entry.last_address = address

        if entry.confidence < self.threshold or entry.stride == 0:
            return []
        base = address
        prefetches = []
        for i in range(1, self.degree + 1):
            target = base + i * entry.stride
            if target >= 0:
                prefetches.append(line_address(target, self.line_size))
        return prefetches


def _build_seed_cache(name, cfg, line_size):
    num_sets = cfg.size_bytes // (cfg.associativity * line_size)
    if cfg.policy == "lru":
        policy = SeedLRUPolicy(num_sets, cfg.associativity)
    else:
        policy = _seed_rrip_hooks(
            create_policy(cfg.policy, num_sets, cfg.associativity, **cfg.policy_kwargs)
        )
    return SeedCache(
        name=name,
        size_bytes=cfg.size_bytes,
        associativity=cfg.associativity,
        policy=policy,
        line_size=line_size,
    )


def _seed_prefetcher(name: str, **kwargs):
    if name == "stride":
        return SeedStridePrefetcher(**kwargs)
    return make_prefetcher(name, **kwargs)


class SeedHierarchy(CacheHierarchy):
    """Seed-revision hierarchy walk: an ``AccessResult`` per level, list-based
    prefetch target collection, and ``replace``-style prefetch copies."""

    def __init__(self, config: HierarchyConfig) -> None:
        super().__init__(config)
        line = config.line_size
        self.l1i = _build_seed_cache("L1I", config.l1i, line)
        self.l1d = _build_seed_cache("L1D", config.l1d, line)
        # Through the shared system too, so reset() empties the seed caches.
        self.l2 = self.shared.l2 = _build_seed_cache("L2", config.l2, line)
        self.slc = self.shared.slc = _build_seed_cache("SLC", config.slc, line)
        self.l1i_prefetcher = _seed_prefetcher(
            config.l1i.prefetcher, **config.l1i.prefetcher_kwargs
        )
        self.l1d_prefetcher = _seed_prefetcher(
            config.l1d.prefetcher, **config.l1d.prefetcher_kwargs
        )
        self.l2_prefetcher = _seed_prefetcher(
            config.l2.prefetcher, **config.l2.prefetcher_kwargs
        )

    def _access(
        self,
        request: MemoryRequest,
        l1,
        l1_prefetcher,
        allow_prefetch: bool = True,
    ) -> AccessResult:
        demand = not request.is_prefetch
        if demand:
            if request.is_instruction:
                self.stats.instruction_fetches += 1
            else:
                self.stats.data_accesses += 1

        result = self._seed_walk(request, l1)

        if result.l2_miss and request.is_instruction:
            self.stats.l2_inst_misses += 1

        if demand:
            self.stats.total_latency += result.latency
            if not result.l1_hit:
                if request.is_instruction:
                    self.stats.l1i_misses += 1
                else:
                    self.stats.l1d_misses += 1
            if result.l2_miss and not request.is_instruction:
                self.stats.l2_data_misses += 1
            if not result.slc_hit and result.l2_miss:
                self.stats.slc_misses += 1
            if result.dram_access:
                self.stats.dram_accesses += 1

        if allow_prefetch and demand:
            targets = []
            targets.extend(l1_prefetcher.observe(request.address, request.pc))
            targets.extend(self.l2_prefetcher.observe(request.address, request.pc))
            for address in targets:
                self.stats.prefetches_issued += 1
                # The seed's as_prefetch used dataclasses.replace.
                prefetch = dataclasses.replace(
                    request, address=address, is_prefetch=True
                )
                self._access(prefetch, l1, l1_prefetcher, allow_prefetch=False)
        return result

    def _seed_walk(self, request: MemoryRequest, l1) -> AccessResult:
        cfg = self.config
        evicted: list[int] = []

        if l1.access(request):
            return AccessResult(
                request=request,
                hit_level=HitLevel.L1,
                latency=self._l1_latency(request),
                l1_hit=True,
            )
        latency = self._l1_latency(request)

        l2_hit = self.l2.access(request)
        if self.l2_access_observer is not None and not request.is_prefetch:
            self.l2_access_observer(request, l2_hit)
        if l2_hit:
            latency += cfg.l2.latency
            self._seed_fill(l1, request, evicted)
            return AccessResult(
                request=request,
                hit_level=HitLevel.L2,
                latency=latency,
                l2_hit=True,
                evicted_lines=tuple(evicted),
            )
        latency += cfg.l2.latency

        if self.slc.access(request):
            latency += cfg.slc.latency
            if cfg.slc_exclusive:
                self.slc.invalidate(request.address)
            self._seed_fill_l2(request, evicted)
            self._seed_fill(l1, request, evicted)
            return AccessResult(
                request=request,
                hit_level=HitLevel.SLC,
                latency=latency,
                slc_hit=True,
                evicted_lines=tuple(evicted),
            )
        latency += cfg.slc.latency

        latency += cfg.dram_latency
        self._seed_fill_l2(request, evicted)
        if not cfg.slc_exclusive:
            self.slc.fill(request)
        self._seed_fill(l1, request, evicted)
        return AccessResult(
            request=request,
            hit_level=HitLevel.DRAM,
            latency=latency,
            evicted_lines=tuple(evicted),
        )

    def _seed_fill(self, cache, request, evicted: list[int]) -> None:
        victim = cache.fill(request)
        if victim is not None:
            evicted.append(victim.address)

    def _seed_fill_l2(self, request, evicted: list[int]) -> None:
        victim = self.l2.fill(request)
        if victim is None:
            return
        evicted.append(victim.address)
        if self.config.l2_inclusive:
            self.l1i.invalidate(victim.address)
            self.l1d.invalidate(victim.address)
        if self.config.slc_exclusive:
            access_type = (
                AccessType.INSTRUCTION_FETCH
                if victim.is_instruction
                else AccessType.DATA_LOAD
            )
            self.slc.fill(
                MemoryRequest(
                    address=victim.address,
                    access_type=access_type,
                    pc=victim.pc,
                    is_prefetch=True,
                )
            )


def build_seed_core(config, translator=None) -> CoreModel:
    """A :class:`CoreModel` whose memory system is the seed-equivalent one.

    Replaying a list of :class:`TraceRecord` objects through
    ``build_seed_core(...).run(records)`` reproduces the seed engine's
    record-at-a-time loop: per-record dataclass consumption, linear cache
    probes and result-object construction at every level.
    """
    hierarchy = SeedHierarchy(config.hierarchy)
    return CoreModel(
        hierarchy,
        translator=translator,
        config=config.core,
        line_size=config.hierarchy.line_size,
    )
