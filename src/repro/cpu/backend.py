"""CPU backend model: data-side memory accesses and out-of-order overlap.

The backend is modelled mechanistically (interval-style): every data access
goes through the MMU and cache hierarchy, and the resulting latency is charged
as backend ``mem`` stall cycles only to the extent the out-of-order window
cannot hide it.  Modern cores hide most L2-hit latency but expose a growing
fraction of SLC/DRAM latency as the ROB fills — which is why the paper argues
trading a small data MPKI increase for a large instruction MPKI reduction is
profitable (Section 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.hierarchy import CacheHierarchy
from repro.common.addressing import CACHE_LINE_SIZE, line_address
from repro.common.request import (
    AccessResult,
    AccessType,
    MemoryRequest,
    ScratchRequest,
)
from repro.common.translation import AddressTranslator, IdentityTranslator


@dataclass
class BackendConfig:
    """Backend (OoO execution) model parameters."""

    rob_entries: int = 128
    #: Latency (cycles) fully hidden by out-of-order execution / MLP.
    hide_latency: int = 24
    #: Fraction of the *exposed* data-access latency that still overlaps with
    #: useful work (memory-level parallelism).  0.0 = fully exposed.
    overlap_fraction: float = 0.85

    def validate(self) -> None:
        if self.rob_entries <= 0:
            raise ValueError("rob_entries must be positive")
        if self.hide_latency < 0:
            raise ValueError("hide_latency must be non-negative")
        if not 0.0 <= self.overlap_fraction < 1.0:
            raise ValueError("overlap_fraction must be in [0, 1)")


@dataclass
class BackendStats:
    """Counters kept by the backend model."""

    data_accesses: int = 0
    #: Stall cycles of the current replay call (zeroed when a replay
    #: starts); ``data_accesses`` counts across calls.
    mem_stall_cycles: float = 0.0
    depend_stall_cycles: float = 0.0
    issue_stall_cycles: float = 0.0


@dataclass
class DataAccessOutcome:
    """Result of one data-side access."""

    stall_cycles: float
    result: AccessResult


class BackendModel:
    """Charges backend stalls for data accesses and synthetic hazards."""

    def __init__(
        self,
        hierarchy: CacheHierarchy,
        translator: AddressTranslator | None = None,
        config: BackendConfig | None = None,
        line_size: int = CACHE_LINE_SIZE,
        core: int = 0,
    ) -> None:
        self.hierarchy = hierarchy
        self.translator = translator or IdentityTranslator()
        self.config = config or BackendConfig()
        self.config.validate()
        self.line_size = line_size
        #: Issuing core index, stamped into every request (multi-core mode).
        self.core = core
        self.stats = BackendStats()
        #: Reusable request object for the packed-trace data fast path.
        self._scratch = ScratchRequest()
        self._scratch.core = core
        #: Identity translation (no OS model): physical == virtual, so the
        #: fast path skips the per-access translator call entirely.
        self._identity = type(self.translator) is IdentityTranslator
        #: Address-only data translation, when the translator offers it
        #: (avoids one tuple allocation per data access on the fast path).
        self._translate_data_addr = getattr(
            self.translator, "translate_data_addr", None
        )
        # Config scalars hoisted for the fast path (the config object is
        # treated as frozen once the model is built, like the hierarchy's
        # precomputed latencies).
        self._hide_latency = self.config.hide_latency
        self._stall_scale = 1.0 - self.config.overlap_fraction
        #: The data fast path as a closure over stable model state (stats is
        #: reset in place, so every captured object keeps its identity).
        self.access_data_fast = self._make_data_fast()

    def access_data(self, vaddr: int, pc: int, is_store: bool) -> DataAccessOutcome:
        """Issue a data load/store and return the exposed stall cycles."""
        paddr, _temperature = self.translator.translate_data(vaddr)
        request = MemoryRequest(
            address=paddr,
            access_type=AccessType.DATA_STORE if is_store else AccessType.DATA_LOAD,
            pc=pc,
            core=self.core,
        )
        result = self.hierarchy.access_data(request)
        self.stats.data_accesses += 1

        exposed = max(0.0, float(result.latency - self.config.hide_latency))
        stall = exposed * (1.0 - self.config.overlap_fraction)
        # Stores retire through the store buffer; expose only half their cost.
        if is_store:
            stall *= 0.5
        self.stats.mem_stall_cycles += stall
        return DataAccessOutcome(stall_cycles=stall, result=result)

    def _make_data_fast(self):
        """Build the data fast path (twin of :meth:`access_data`) as a closure.

        Used by the packed-trace replay loop: repeat L1-D hits skip the full
        hierarchy walk, and the request travels as a reused
        :class:`ScratchRequest` so no outcome or request object is allocated.
        All state updates are identical to the slow path; custom
        ``l2_access_observer`` hooks must not retain the request.

        The returned callable has signature
        ``access_data_fast(vaddr, pc, is_store, line_no=-1)`` where
        ``line_no`` is the *virtual* line number precomputed by the trace's
        geometry columns; it equals the physical line number exactly when no
        OS model remaps pages, so it is forwarded to the hierarchy only under
        identity translation.
        """
        scratch = self._scratch
        hierarchy_fast = self.hierarchy.access_data_fast
        stats = self.stats
        identity = self._identity
        translate = self._translate_data_addr
        translate_full = self.translator.translate_data
        hide_latency = self._hide_latency
        stall_scale = self._stall_scale
        store_type = AccessType.DATA_STORE
        load_type = AccessType.DATA_LOAD

        def access_data_fast(
            vaddr: int, pc: int, is_store: bool, line_no: int = -1
        ) -> float:
            if identity:
                paddr = vaddr
            else:
                if translate is not None:
                    paddr = translate(vaddr)
                else:
                    paddr, _temperature = translate_full(vaddr)
                line_no = -1
            scratch.address = paddr
            scratch.access_type = store_type if is_store else load_type
            scratch.pc = pc
            latency = hierarchy_fast(scratch, line_no)
            stats.data_accesses += 1

            exposed = latency - hide_latency
            if exposed <= 0:
                return 0.0
            stall = float(exposed) * stall_scale
            # Stores retire through the store buffer; expose half their cost.
            if is_store:
                stall *= 0.5
            stats.mem_stall_cycles += stall
            return stall

        return access_data_fast

    def charge_depend_stall(self, cycles: float) -> float:
        """Account synthetic dependency-chain stalls from the trace."""
        if cycles < 0:
            raise ValueError("stall cycles must be non-negative")
        self.stats.depend_stall_cycles += cycles
        return cycles

    def charge_issue_stall(self, cycles: float) -> float:
        """Account synthetic issue-queue-full stalls from the trace."""
        if cycles < 0:
            raise ValueError("stall cycles must be non-negative")
        self.stats.issue_stall_cycles += cycles
        return cycles

    def reset(self) -> None:
        # In place: the fast-path closure captures the stats object.
        stats = self.stats
        stats.data_accesses = 0
        stats.mem_stall_cycles = 0.0
        stats.depend_stall_cycles = 0.0
        stats.issue_stall_cycles = 0.0
