"""Belady's OPT (MIN) replacement — an oracle used for analysis only.

Belady's algorithm evicts the line whose next use is farthest in the future.
It is not implementable in hardware but gives an upper bound on achievable hit
rate; the repository uses it for the ablation study recorded in
``EXPERIMENTS.md`` (the paper cites it as the target Hawkeye/Mockingjay/SHiP
try to mimic).

The policy must be primed with the future reference stream before simulation:
:meth:`OptimalPolicy.prime` takes the sequence of line addresses that will be
presented to the cache, in order.  During simulation the policy tracks its
position in that stream and answers "when is this line used next?" queries
from per-line occurrence lists.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Iterable, Optional, Sequence

from repro.cache.replacement.base import ReplacementPolicy
from repro.common.addressing import line_address
from repro.common.request import MemoryRequest

#: Sentinel distance for lines never referenced again.
NEVER = float("inf")


class OptimalPolicy(ReplacementPolicy):
    """Belady's MIN replacement using a pre-recorded future trace."""

    name = "opt"

    def __init__(self, num_sets: int, num_ways: int) -> None:
        super().__init__(num_sets, num_ways)
        self._occurrences: dict[int, list[int]] = defaultdict(list)
        self._position = 0
        self._resident: list[list[Optional[int]]] = [
            [None] * num_ways for _ in range(num_sets)
        ]

    # ------------------------------------------------------------------ setup
    def prime(self, line_addresses: Iterable[int]) -> None:
        """Record the future reference stream (line-aligned addresses)."""
        self._occurrences = defaultdict(list)
        for position, address in enumerate(line_addresses):
            self._occurrences[line_address(address)].append(position)
        self._position = 0

    def advance(self) -> None:
        """Advance the oracle's notion of "now" by one reference."""
        self._position += 1

    def _next_use(self, address: Optional[int]) -> float:
        if address is None:
            return NEVER
        positions: Sequence[int] = self._occurrences.get(line_address(address), ())
        index = bisect.bisect_left(positions, self._position)
        if index >= len(positions):
            return NEVER
        return positions[index]

    # ------------------------------------------------------------------ hooks
    def on_hit(self, set_index: int, way: int, request: MemoryRequest) -> None:
        self._resident[set_index][way] = line_address(request.address)

    def on_insert(self, set_index: int, way: int, request: MemoryRequest) -> None:
        self._resident[set_index][way] = line_address(request.address)

    def select_victim(self, set_index: int, request: MemoryRequest) -> int:
        """Evict the line re-used farthest in the future (the oracle consults
        only its pre-recorded stream position)."""
        self._check_set(set_index)
        resident = self._resident[set_index]
        return max(range(self.num_ways), key=lambda way: self._next_use(resident[way]))

    def on_evict(
        self, set_index: int, way: int, request: Optional[MemoryRequest] = None
    ) -> None:
        self._resident[set_index][way] = None

    def reset(self) -> None:
        self._position = 0
        for resident in self._resident:
            for way in range(self.num_ways):
                resident[way] = None
