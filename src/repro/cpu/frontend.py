"""CPU frontend: instruction fetch, decoupled (pseudo-FDIP) fetch, starvation.

The fetch engine is responsible for three things:

* issuing demand instruction fetches (one per new cache line touched by the
  PC stream) through the MMU and cache hierarchy;
* modelling the *pseudo-FDIP* decoupled frontend of Section 4.1: the fetch
  target queue runs ahead of decode along the predicted path, so a fixed
  number of cycles of each fetch's latency is hidden (``fdip_lead_cycles``).
  FDIP is modelled as latency hiding rather than as separate prefetch
  requests: in a trace-driven simulator the predicted path equals the executed
  path for correctly-predicted branches, so run-ahead changes *when* a line is
  requested, not *which* lines enter the cache — and wrong-path pollution is
  explicitly not modelled, exactly as the paper states;
* recording which instruction lines caused *decode starvation* (a demand miss
  that had to be serviced beyond the L2), which is the metadata Emissary's
  replacement policy consumes and which Figure 7 calls "costly instruction
  misses".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.hierarchy import CacheHierarchy
from repro.common.addressing import CACHE_LINE_SIZE, line_address
from repro.common.request import AccessResult, AccessType, MemoryRequest
from repro.common.translation import AddressTranslator, IdentityTranslator
from repro.cpu.config import FrontendConfig


@dataclass
class FrontendStats:
    """Counters kept by the fetch engine."""

    demand_fetches: int = 0
    starvation_events: int = 0
    #: Exposed fetch stall cycles of the current replay call (zeroed when a
    #: replay starts, like the per-line stall maps).
    ifetch_stall_cycles: float = 0.0


@dataclass
class FetchOutcome:
    """Result of fetching one instruction cache line."""

    stall_cycles: float
    result: AccessResult
    caused_starvation: bool


class FetchEngine:
    """Demand fetch + pseudo-FDIP lead + Emissary starvation tracking."""

    def __init__(
        self,
        hierarchy: CacheHierarchy,
        translator: AddressTranslator | None = None,
        config: FrontendConfig | None = None,
        line_size: int = CACHE_LINE_SIZE,
        core: int = 0,
    ) -> None:
        self.hierarchy = hierarchy
        self.translator = translator or IdentityTranslator()
        self.config = config or FrontendConfig()
        self.config.validate()
        self.line_size = line_size
        #: Issuing core index, stamped into every request (multi-core mode).
        self.core = core
        self.stats = FrontendStats()
        #: Virtual line addresses whose demand miss starved decode; requests
        #: to these lines carry Emissary's starvation hint when refetched.
        self._starved_lines: dict[int, bool] = {}
        #: Per-virtual-line cache of ``(translated request, physical line
        #: number)`` pairs used by the lane path.  ``MemoryRequest`` is
        #: immutable and the translation of a line never changes once the page
        #: is mapped, so a cached request is value-identical to a freshly
        #: built one; entries are dropped whenever the line's starvation hint
        #: changes.
        self._request_cache: dict[int, tuple[MemoryRequest, int]] = {}
        #: Fetch latency hidden from decode (buffer slack + FDIP run-ahead),
        #: hoisted for the lane path; the config is treated as frozen once
        #: the engine is built.
        self._hidden_latency = float(self.config.fetch_buffer_slack)
        if self.config.fdip_enabled:
            self._hidden_latency += self.config.fdip_lead_cycles
        #: Per-virtual-line accumulated demand ifetch stall cycles and miss
        #: counts, used by the costly-miss coverage analysis (Figure 7).
        self.line_stall_cycles: dict[int, float] = {}
        self.line_miss_counts: dict[int, int] = {}
        #: The lane's fetch path as a closure over stable engine state
        #: (stats and the per-line maps are reset in place).
        self.fetch_translated = self._make_fetch_translated()

    # ----------------------------------------------------------------- fetch
    def fetch_line(self, vaddr: int) -> FetchOutcome:
        """Issue a demand fetch for the line containing ``vaddr``."""
        vline = line_address(vaddr, self.line_size)
        paddr, temperature = self.translator.translate_instruction(vline)
        request = MemoryRequest(
            address=paddr,
            access_type=AccessType.INSTRUCTION_FETCH,
            pc=vline,
            temperature=temperature,
            starvation_hint=self._starved_lines.get(vline, False),
            core=self.core,
        )
        result = self.hierarchy.access_instruction(request)
        self.stats.demand_fetches += 1

        hidden = self.config.fetch_buffer_slack
        if self.config.fdip_enabled:
            hidden += self.config.fdip_lead_cycles
        stall = max(0.0, float(result.latency) - hidden)
        caused_starvation = result.l2_miss
        if caused_starvation:
            self._remember_starvation(vline)
            self.stats.starvation_events += 1
        if stall > 0:
            self.stats.ifetch_stall_cycles += stall
            self.line_stall_cycles[vline] = self.line_stall_cycles.get(vline, 0.0) + stall
            self.line_miss_counts[vline] = self.line_miss_counts.get(vline, 0) + 1
        return FetchOutcome(
            stall_cycles=stall, result=result, caused_starvation=caused_starvation
        )

    def _make_fetch_translated(self):
        """Build the replay lane's fetch path as a closure.

        ``fetch_translated(vline, translation, targets) -> stall`` fetches
        the line-aligned virtual address ``vline``.  The lane has already
        translated it — ``translation`` is ``(paddr, temperature,
        physical line number)`` — and trained the prefetchers on it
        (``targets``, see :meth:`CacheHierarchy._make_instruction_line`).
        The request is cached per line, so a repeat fetch of a resident
        line costs two dict lookups instead of three object allocations and
        a full hierarchy walk.  All simulation state transitions (cache
        statistics, replacement state, starvation tracking, per-line stall
        maps) are identical to :meth:`fetch_line`; this engine's translator
        and the hierarchy's prefetchers are not consulted.
        """
        request_cache = self._request_cache
        access_line = self.hierarchy.access_instruction_line
        stats = self.stats
        starved_lines = self._starved_lines
        remember = self._remember_starvation
        line_stall_cycles = self.line_stall_cycles
        line_miss_counts = self.line_miss_counts
        hidden_latency = self._hidden_latency
        core = self.core

        def fetch_translated(vline: int, translation, targets) -> float:
            cached = request_cache.get(vline)
            if cached is None:
                paddr, temperature, line_no = translation
                request = MemoryRequest(
                    address=paddr,
                    access_type=AccessType.INSTRUCTION_FETCH,
                    pc=vline,
                    temperature=temperature,
                    starvation_hint=vline in starved_lines,
                    core=core,
                )
                cached = (request, line_no)
                request_cache[vline] = cached
            request, line_no = cached
            latency, l2_miss = access_line(request, line_no, targets)
            stats.demand_fetches += 1

            stall = float(latency) - hidden_latency
            if l2_miss:
                remember(vline)
                stats.starvation_events += 1
            if stall > 0:
                stats.ifetch_stall_cycles += stall
                line_stall_cycles[vline] = line_stall_cycles.get(vline, 0.0) + stall
                line_miss_counts[vline] = line_miss_counts.get(vline, 0) + 1
                return stall
            return 0.0

        return fetch_translated

    # ------------------------------------------------------------- starvation
    def _remember_starvation(self, vline: int) -> None:
        if vline not in self._starved_lines:
            if len(self._starved_lines) >= self.config.starvation_table_entries:
                evicted = next(iter(self._starved_lines))
                self._starved_lines.pop(evicted)
                # The evicted line's hint flips back to False: rebuild its
                # cached request on next fetch.
                self._request_cache.pop(evicted, None)
            # This line's hint flips to True: invalidate its cached request.
            self._request_cache.pop(vline, None)
        self._starved_lines[vline] = True

    def starved_lines(self) -> frozenset[int]:
        """Virtual line addresses known to have caused decode starvation."""
        return frozenset(self._starved_lines)

    def reset(self) -> None:
        # In place: the lane-path closure captures the stats object and maps.
        stats = self.stats
        stats.demand_fetches = 0
        stats.starvation_events = 0
        stats.ifetch_stall_cycles = 0.0
        self._starved_lines.clear()
        self._request_cache.clear()
        self.line_stall_cycles.clear()
        self.line_miss_counts.clear()
