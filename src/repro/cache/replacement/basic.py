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

    LRU is fully request-free: its whole interface is the array-state protocol
    (``touch``/``victim``), which the cache calls directly on the hot path.
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

    # The touch hook runs on every single cache access in the simulation hot
    # loop; list indexing raises IndexError for out-of-range ways on its own,
    # so the explicit range checks are left to the cold entry points.
    def touch(self, set_index: int, way: int) -> None:
        cell = self._clock_cell
        clock = cell[0] + 1
        cell[0] = clock
        self._stamps[set_index][way] = clock

    # Backwards-compatible private alias (the seed baseline subclasses it).
    _touch = touch

    def hit_update_spec(self):
        return ("clock", self._stamps, self._clock_cell)

    def replace_spec(self):
        return ("lru", self._stamps, self._clock_cell)

    def evict_update_spec(self):
        if type(self).on_evict is not LRUPolicy.on_evict:
            return None
        return ("const", self._stamps, 0)

    def victim(self, set_index: int) -> int:
        # min()/index() run at C speed over the per-set stamp array, which is
        # measurably faster than a Python loop for the 8/16-way paper caches.
        stamps = self._stamps[set_index]
        return stamps.index(min(stamps))

    def replace(self, set_index: int) -> int:
        """Fused victim + evict + insert: evict the LRU way and stamp it MRU.

        Exactly ``victim`` (pick min stamp) followed by ``on_evict`` (zero the
        stamp — dead, the insert overwrites it) and the insert ``touch``.
        """
        stamps = self._stamps[set_index]
        way = stamps.index(min(stamps))
        cell = self._clock_cell
        clock = cell[0] + 1
        cell[0] = clock
        stamps[way] = clock
        return way

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
        #: Monotonic insertion clock in a one-element cell so the fused
        #: replacement can run declaratively (see :meth:`replace_spec`).
        self._clock_cell = [0]
        self._stamps = [[0] * num_ways for _ in range(num_sets)]

    @property
    def _clock(self) -> int:
        """Object view of the clock cell (kept for subclasses and tests)."""
        return self._clock_cell[0]

    @_clock.setter
    def _clock(self, value: int) -> None:
        self._clock_cell[0] = value

    # touch stays the base no-op: FIFO hits do not refresh recency.
    def hit_update_spec(self):
        return ("noop",)

    def on_insert(self, set_index: int, way: int, request: MemoryRequest) -> None:
        # Request-indifferent: the stamp is a pure function of policy state.
        cell = self._clock_cell
        clock = cell[0] + 1
        cell[0] = clock
        self._stamps[set_index][way] = clock

    def victim(self, set_index: int) -> int:
        self._check_set(set_index)
        stamps = self._stamps[set_index]
        return stamps.index(min(stamps))

    def replace(self, set_index: int) -> int:
        """Fused victim + evict + insert: evict oldest, stamp insertion order."""
        self._check_set(set_index)
        stamps = self._stamps[set_index]
        way = stamps.index(min(stamps))
        cell = self._clock_cell
        clock = cell[0] + 1
        cell[0] = clock
        stamps[way] = clock
        return way

    def replace_spec(self):
        # FIFO's fused replacement is the same min-stamp-evict + clock-restamp
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

    def touch(self, set_index: int, way: int) -> None:
        self._check_set(set_index)
        self._check_way(way)

    def victim(self, set_index: int) -> int:
        self._check_set(set_index)
        return self._rng.randrange(self.num_ways)

    def reset(self) -> None:
        self._rng = random.Random(self._seed)
