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
from repro.common.addressing import CACHE_LINE_SIZE
from repro.common.request import (
    AccessResult,
    AccessType,
    MemoryRequest,
    ScratchRequest,
)
from repro.common.translation import AddressTranslator, IdentityTranslator
from repro.cpu.config import BackendConfig


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
        #: Reusable request object for the replay lane's data path.
        self._scratch = ScratchRequest()
        self._scratch.core = core
        # Config scalars hoisted for the lane path (the config object is
        # treated as frozen once the model is built, like the hierarchy's
        # precomputed latencies).
        self._hide_latency = self.config.hide_latency
        self._stall_scale = 1.0 - self.config.overlap_fraction
        #: The lane's data path as a closure over stable model state (stats
        #: is reset in place, so every captured object keeps its identity).
        self.access_translated = self._make_access_translated()

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

    def _make_access_translated(self):
        """Build the replay lane's data path (twin of :meth:`access_data`).

        ``access_translated(paddr, pc, is_store, line_no, targets) -> stall``:
        the lane has already translated the access (``line_no`` is the
        physical line number of ``paddr``) and trained the prefetchers on it
        (``targets``, see :meth:`CacheHierarchy._make_data_line`).  Repeat
        L1-D hits skip the full hierarchy walk, and the request travels as a
        reused :class:`ScratchRequest`, so no outcome or request object is
        allocated.  All state updates are identical to the record path;
        custom ``l2_access_observer`` hooks must not retain the request.
        """
        scratch = self._scratch
        access_line = self.hierarchy.access_data_line
        stats = self.stats
        hide_latency = self._hide_latency
        stall_scale = self._stall_scale
        store_type = AccessType.DATA_STORE
        load_type = AccessType.DATA_LOAD

        def access_translated(
            paddr: int, pc: int, is_store: bool, line_no: int, targets
        ) -> float:
            scratch.address = paddr
            scratch.access_type = store_type if is_store else load_type
            scratch.pc = pc
            latency = access_line(scratch, line_no, targets)
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

        return access_translated

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
        # In place: the lane-path closure captures the stats object.
        stats = self.stats
        stats.data_accesses = 0
        stats.mem_stall_cycles = 0.0
        stats.depend_stall_cycles = 0.0
        stats.issue_stall_cycles = 0.0
