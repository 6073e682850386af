"""Re-Reference Interval Prediction policies (SRRIP and BRRIP).

RRIP [Jaleel et al., ISCA 2010] encodes a re-reference prediction per line in
an ``M``-bit RRPV (Re-Reference Prediction Value).  With the paper's 2-bit
RRPVs the predictions are:

====================  =====
prediction            RRPV
====================  =====
Immediate re-ref.       0
Near re-ref.            1
Intermediate re-ref.    2
Distant re-ref.         3
====================  =====

* **SRRIP** (Static RRIP) inserts new lines at *Intermediate* and promotes a
  line to *Immediate* on a hit (hit-priority variant).
* **BRRIP** (Bimodal RRIP) inserts at *Distant* most of the time and only
  occasionally (1/32 by default) at *Intermediate*, which resists thrashing.
* Victim selection searches for a line at *Distant*; if none exists, every
  RRPV in the set is incremented and the search repeats (aging).

These classes are the foundation for DRRIP, SHiP, CLIP and TRRIP.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.replacement.base import ReplacementPolicy
from repro.common.request import MemoryRequest


class RRIPBase(ReplacementPolicy):
    """Shared RRPV storage and victim-selection (aging) machinery."""

    name = "rrip-base"

    def __init__(self, num_sets: int, num_ways: int, rrpv_bits: int = 2) -> None:
        super().__init__(num_sets, num_ways)
        if rrpv_bits < 1:
            raise ValueError(f"rrpv_bits must be >= 1, got {rrpv_bits}")
        self.rrpv_bits = rrpv_bits
        self.rrpv_max = (1 << rrpv_bits) - 1
        #: "Immediate re-reference" prediction.
        self.rrpv_immediate = 0
        #: "Near re-reference" prediction.
        self.rrpv_near = min(1, self.rrpv_max)
        #: "Intermediate (long) re-reference" prediction, SRRIP insertion point.
        self.rrpv_intermediate = self.rrpv_max - 1
        #: "Distant re-reference" prediction, eviction candidates.
        self.rrpv_distant = self.rrpv_max
        self._rrpv = [[self.rrpv_max] * num_ways for _ in range(num_sets)]

    # ------------------------------------------------------------------ state
    def rrpv(self, set_index: int, way: int) -> int:
        """Current RRPV of a way (exposed for tests and analysis)."""
        self._check_set(set_index)
        self._check_way(way)
        return self._rrpv[set_index][way]

    def set_rrpv(self, set_index: int, way: int, value: int) -> None:
        self._check_set(set_index)
        self._check_way(way)
        if not 0 <= value <= self.rrpv_max:
            raise ValueError(f"RRPV {value} out of range [0, {self.rrpv_max}]")
        self._rrpv[set_index][way] = value

    def reset(self) -> None:
        for rrpvs in self._rrpv:
            for way in range(self.num_ways):
                rrpvs[way] = self.rrpv_max

    # ------------------------------------------------------------------ hooks
    # The hooks write the RRPV arrays directly: they run on every access of
    # the simulation hot loop with indices the cache validated already, and
    # ``insertion_rrpv`` implementations return in-range predictions by
    # construction.  ``rrpv``/``set_rrpv`` (with their validation) remain the
    # entry points for tests and analysis code.
    def on_hit(self, set_index: int, way: int, request: MemoryRequest) -> None:
        """Default RRIP hit promotion: predict immediate re-reference."""
        self._rrpv[set_index][way] = self.rrpv_immediate

    def hit_update_spec(self):
        return ("const", self._rrpv, self.rrpv_immediate)

    def on_insert(self, set_index: int, way: int, request: MemoryRequest) -> None:
        """Default (SRRIP-style) insertion at intermediate re-reference."""
        self._rrpv[set_index][way] = self.insertion_rrpv(set_index, request)

    def insertion_rrpv(self, set_index: int, request: MemoryRequest) -> int:
        """RRPV assigned to a newly inserted line (overridden by subclasses)."""
        return self.rrpv_intermediate

    def select_victim(self, set_index: int, request: MemoryRequest) -> int:
        """RRIP eviction: age the set until some way reaches *Distant*.

        Equivalent to the textbook scan-and-increment loop, but the aging is
        collapsed into one arithmetic step: no RRPV can exceed
        ``rrpv_distant`` (``set_rrpv`` enforces the range and the insertion
        hooks produce in-range predictions), so ``rrpv_distant - max(rrpvs)``
        rounds of +1 aging move the current maximum exactly to *Distant*
        without saturating any other way.  The victim is then the first way
        at *Distant*, found at C speed with ``list.index``.
        """
        rrpvs = self._rrpv[set_index]
        distant = self.rrpv_distant
        oldest = max(rrpvs)
        if oldest < distant:
            delta = distant - oldest
            for way in range(self.num_ways):
                rrpvs[way] += delta
        return rrpvs.index(distant)

    def on_evict(
        self, set_index: int, way: int, request: Optional[MemoryRequest] = None
    ) -> None:
        self._rrpv[set_index][way] = self.rrpv_max

    def evict_update_spec(self):
        return ("const", self._rrpv, self.rrpv_max)


class SRRIPPolicy(RRIPBase):
    """Static RRIP: scan-resistant insertion at intermediate re-reference."""

    name = "srrip"

    def replace_spec(self):
        # Aging, then the static insertion; the Distant RRPV on_evict writes
        # is dead (the way already holds it).  Exact for SRRIP only: a
        # subclass overriding ``insertion_rrpv`` or any other summarised hook
        # is called through its hooks (see ``inherited_feature_is_exact``).
        return ("rrip", self._rrpv, self.rrpv_distant, self.rrpv_intermediate)


class BRRIPPolicy(RRIPBase):
    """Bimodal RRIP: thrash-resistant insertion mostly at distant re-reference.

    A small fraction of insertions (``1 / bimodal_interval``) are placed at
    intermediate re-reference so that a working set can eventually be
    retained.  The counter-based duty cycle makes behaviour deterministic.
    """

    name = "brrip"

    def __init__(
        self,
        num_sets: int,
        num_ways: int,
        rrpv_bits: int = 2,
        bimodal_interval: int = 32,
    ) -> None:
        super().__init__(num_sets, num_ways, rrpv_bits)
        if bimodal_interval < 1:
            raise ValueError(
                f"bimodal_interval must be >= 1, got {bimodal_interval}"
            )
        self.bimodal_interval = bimodal_interval
        self._insert_counter = 0

    def insertion_rrpv(self, set_index: int, request: MemoryRequest) -> int:
        self._insert_counter += 1
        if self._insert_counter % self.bimodal_interval == 0:
            return self.rrpv_intermediate
        return self.rrpv_distant

    def reset(self) -> None:
        super().reset()
        self._insert_counter = 0
