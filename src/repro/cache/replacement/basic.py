"""Baseline replacement policies: LRU, FIFO and Random.

LRU is the baseline the paper's Table 1 uses for the L1 caches and the SLC,
and one of the evaluated L2 mechanisms in Figure 6 / Table 3.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.cache.replacement.base import ReplacementPolicy
from repro.common.request import MemoryRequest


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used replacement.

    Recency is tracked with a monotonically increasing per-policy counter; the
    victim is the valid way with the smallest stamp.  New lines are inserted
    as most-recently-used.

    LRU never reads the request, and declares all three inline forms, so the
    cache runs its hits, full-set fills and evictions with no Python call.
    """

    name = "lru"

    def __init__(self, num_sets: int, num_ways: int) -> None:
        super().__init__(num_sets, num_ways)
        #: The monotonic clock lives in a one-element list so the cache can
        #: advance it inline through :meth:`hit_update_spec`.
        self._clock_cell = [0]
        self._stamps = [[0] * num_ways for _ in range(num_sets)]

    @property
    def _clock(self) -> int:
        """Object view of the clock cell (used by cold paths and subclasses)."""
        return self._clock_cell[0]

    @_clock.setter
    def _clock(self, value: int) -> None:
        self._clock_cell[0] = value

    # The hooks run on the simulation hot loop with indices the cache
    # validated already; list indexing raises IndexError for out-of-range
    # ways on its own, so the explicit range checks are left out.
    def on_hit(self, set_index: int, way: int, request: MemoryRequest) -> None:
        cell = self._clock_cell
        clock = cell[0] + 1
        cell[0] = clock
        self._stamps[set_index][way] = clock

    def hit_update_spec(self):
        return ("clock", self._stamps, self._clock_cell)

    def replace_spec(self):
        # The zero stamp on_evict writes is dead: on_insert overwrites it.
        return ("lru", self._stamps, self._clock_cell)

    def evict_update_spec(self):
        return ("const", self._stamps, 0)

    def select_victim(self, set_index: int, request: MemoryRequest) -> int:
        # min()/index() run at C speed over the per-set stamp array, which is
        # measurably faster than a Python loop for the 8/16-way paper caches.
        stamps = self._stamps[set_index]
        return stamps.index(min(stamps))

    # A new line is stamped most-recently-used, exactly as a hit is.
    on_insert = on_hit

    def on_evict(
        self, set_index: int, way: int, request: Optional[MemoryRequest] = None
    ) -> None:
        self._stamps[set_index][way] = 0

    def reset(self) -> None:
        self._clock = 0
        for stamps in self._stamps:
            for way in range(self.num_ways):
                stamps[way] = 0


class FIFOPolicy(ReplacementPolicy):
    """First-in first-out replacement (insertion order, hits do not refresh)."""

    name = "fifo"

    def __init__(self, num_sets: int, num_ways: int) -> None:
        super().__init__(num_sets, num_ways)
        #: Monotonic insertion clock in a one-element cell so the full-set
        #: fill can run declaratively (see :meth:`replace_spec`).
        self._clock_cell = [0]
        self._stamps = [[0] * num_ways for _ in range(num_sets)]

    @property
    def _clock(self) -> int:
        """Object view of the clock cell (kept for subclasses and tests)."""
        return self._clock_cell[0]

    @_clock.setter
    def _clock(self, value: int) -> None:
        self._clock_cell[0] = value

    # on_hit stays the base no-op: FIFO hits do not refresh recency.
    def hit_update_spec(self):
        return ("noop",)

    def on_insert(self, set_index: int, way: int, request: MemoryRequest) -> None:
        # Request-indifferent: the stamp is a pure function of policy state.
        cell = self._clock_cell
        clock = cell[0] + 1
        cell[0] = clock
        self._stamps[set_index][way] = clock

    def select_victim(self, set_index: int, request: MemoryRequest) -> int:
        self._check_set(set_index)
        stamps = self._stamps[set_index]
        return stamps.index(min(stamps))

    def replace_spec(self):
        # FIFO's full-set fill is the same min-stamp-evict + clock-restamp
        # step as LRU's (hits never touch the stamps, which is the only
        # difference between the policies and lives in hit_update_spec).
        return ("lru", self._stamps, self._clock_cell)

    def reset(self) -> None:
        self._clock_cell[0] = 0
        for stamps in self._stamps:
            for way in range(self.num_ways):
                stamps[way] = 0


class RandomPolicy(ReplacementPolicy):
    """Random replacement with a deterministic seed (useful as a floor)."""

    name = "random"

    def __init__(self, num_sets: int, num_ways: int, seed: int = 0) -> None:
        super().__init__(num_sets, num_ways)
        self._seed = seed
        self._rng = random.Random(seed)

    def select_victim(self, set_index: int, request: MemoryRequest) -> int:
        self._check_set(set_index)
        return self._rng.randrange(self.num_ways)

    def reset(self) -> None:
        self._rng = random.Random(self._seed)
