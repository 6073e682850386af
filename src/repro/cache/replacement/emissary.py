"""Emissary: Enhanced Miss Awareness Replacement Policy [Nagendra et al., ISCA 2023].

Emissary observes that some instruction misses are costlier than others: the
ones that starve the decode stage.  Lines whose miss caused decode starvation
(and whose instructions eventually retire) are marked with a priority bit.
When such a line is refetched, it is preserved in the cache by way-locking on
top of LRU: up to ``priority_ways`` lines per set hold their priority status
and are only evicted when no unprioritised victim exists.

The starvation signal is produced by the CPU frontend model (it cannot be
derived inside the cache).  It arrives on the request as
:attr:`repro.common.request.MemoryRequest.starvation_hint`, mirroring the
per-line metadata bits the hardware proposal adds to the L1/L2 (which is what
Table 4 charges Emissary for).

The paper's configuration (Section 4.3): 4 priority ways per set in the 8-way
L2, built on LRU.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.cache.replacement.base import ReplacementPolicy
from repro.common.request import MemoryRequest


class EmissaryPolicy(ReplacementPolicy):
    """Priority-way LRU driven by decode-starvation hints."""

    name = "emissary"

    def __init__(
        self,
        num_sets: int,
        num_ways: int,
        priority_ways: int = 4,
        priority_probability: float = 1.0 / 16.0,
        rotate_on_saturation: bool = False,
        seed: int = 0,
    ) -> None:
        super().__init__(num_sets, num_ways)
        if priority_ways < 0 or priority_ways > num_ways:
            raise ValueError(
                f"priority_ways must be in [0, {num_ways}], got {priority_ways}"
            )
        if not 0.0 <= priority_probability <= 1.0:
            raise ValueError("priority_probability must be in [0, 1]")
        self.priority_ways = priority_ways
        #: Emissary assigns priority with a low probability so that only lines
        #: which starve decode *repeatedly* accumulate protected status,
        #: rather than whatever starved first.
        self.priority_probability = priority_probability
        #: Optionally demote the stalest protected line when the protected
        #: ways are full (off by default, matching the original's behaviour of
        #: capping the protected population).
        self.rotate_on_saturation = rotate_on_saturation
        self._seed = seed
        self._rng = random.Random(seed)
        self._clock = 0
        self._stamps = [[0] * num_ways for _ in range(num_sets)]
        self._priority = [[False] * num_ways for _ in range(num_sets)]

    # ------------------------------------------------------------------ state
    def is_priority(self, set_index: int, way: int) -> bool:
        """Whether a way currently holds a starvation-priority line."""
        self._check_set(set_index)
        self._check_way(way)
        return self._priority[set_index][way]

    def _priority_count(self, set_index: int) -> int:
        return sum(1 for flag in self._priority[set_index] if flag)

    # ------------------------------------------------------------------ hooks
    def _grant_priority(self, set_index: int, request: MemoryRequest) -> bool:
        if not (request.is_instruction and request.starvation_hint):
            return False
        if self._rng.random() >= self.priority_probability:
            return False
        if self._priority_count(set_index) >= self.priority_ways:
            if not self.rotate_on_saturation:
                return False
            # Rotate: demote the stalest protected line so priority status
            # tracks current behaviour rather than whatever starved first.
            priority = self._priority[set_index]
            stamps = self._stamps[set_index]
            stalest = min(
                (way for way in range(self.num_ways) if priority[way]),
                key=lambda way: stamps[way],
            )
            priority[stalest] = False
        return True

    def on_hit(self, set_index: int, way: int, request: MemoryRequest) -> None:
        self._clock += 1
        self._stamps[set_index][way] = self._clock
        if not self._priority[set_index][way] and self._grant_priority(
            set_index, request
        ):
            self._priority[set_index][way] = True

    def on_insert(self, set_index: int, way: int, request: MemoryRequest) -> None:
        self._clock += 1
        self._stamps[set_index][way] = self._clock
        self._priority[set_index][way] = self._grant_priority(set_index, request)

    def select_victim(self, set_index: int, request: MemoryRequest) -> int:
        """Priority-way LRU selection (hints only matter on hit/insert, never
        during victim selection)."""
        self._check_set(set_index)
        stamps = self._stamps[set_index]
        priority = self._priority[set_index]
        unprotected = [way for way in range(self.num_ways) if not priority[way]]
        if unprotected:
            return min(unprotected, key=lambda way: stamps[way])
        # Every way is protected (can only happen when priority_ways == num_ways
        # or through saturation): fall back to plain LRU across the whole set.
        return stamps.index(min(stamps))

    def on_evict(
        self, set_index: int, way: int, request: Optional[MemoryRequest] = None
    ) -> None:
        self._priority[set_index][way] = False
        self._stamps[set_index][way] = 0

    def reset(self) -> None:
        self._clock = 0
        self._rng = random.Random(self._seed)
        for stamps, priority in zip(self._stamps, self._priority):
            for way in range(self.num_ways):
                stamps[way] = 0
                priority[way] = False
