"""Static way-partitioning for shared caches (QoS partitions).

``partition`` is a *composition* policy: the ways of every set are carved
into contiguous per-core segments (``ways="4+4"`` gives core 0 ways 0-3 and
core 1 ways 4-7) and each segment runs its own instance of a base policy
(``base="lru"``, ``"srrip"``, ...).  Victim selection is confined to the
requesting core's segment — the QoS property: one core's thrashing cannot
evict another core's lines once the cache is warm.  Lookups are unrestricted
(partitioning constrains *allocation*, not residency checks), and cold-start
fills may transiently land in any invalid way because the cache always
prefers invalid ways over victimisation; the partition bound is exact in the
steady state every measured window runs in.

The policy consumes ``request.core`` and declares no inline form, so the
cache calls its four hooks on every hit, fill and eviction.
Requests from cores beyond the configured segment count wrap around
(``core % segments``), so a 2-segment partition also serves 4-core runs.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.replacement.base import ReplacementPolicy
from repro.common.errors import ConfigurationError
from repro.common.request import MemoryRequest


def parse_partition_ways(text: str, num_ways: int) -> tuple[int, ...]:
    """Parse a ``"4+4"``-style segment description against a geometry.

    An empty string means an even two-way split.  Segment counts must be
    positive and sum to exactly ``num_ways`` (a partial partition would
    leave dead ways no policy ever victimises).
    """
    if not text:
        if num_ways < 2:
            raise ConfigurationError(
                "partition needs at least 2 ways to split; "
                f"cache has {num_ways}"
            )
        half = num_ways // 2
        return (half, num_ways - half)
    try:
        counts = tuple(int(part) for part in text.split("+"))
    except ValueError:
        raise ConfigurationError(
            f"partition ways {text!r} must be '+'-separated integers, "
            "e.g. ways=4+4"
        ) from None
    if not counts or any(count <= 0 for count in counts):
        raise ConfigurationError(
            f"partition ways {text!r} must all be positive"
        )
    if sum(counts) != num_ways:
        raise ConfigurationError(
            f"partition ways {text!r} sum to {sum(counts)}, but the cache "
            f"has {num_ways} ways; segments must cover the cache exactly"
        )
    return counts


class PartitionPolicy(ReplacementPolicy):
    """Static per-core way partitioning over a base replacement policy."""

    name = "partition"

    def __init__(
        self,
        num_sets: int,
        num_ways: int,
        ways: str = "",
        base: str = "lru",
    ) -> None:
        super().__init__(num_sets, num_ways)
        # Late import: the registry module imports this one.
        from repro.cache.replacement.spec import PolicySpec

        base_name = base.strip().lower()
        if base_name == self.name:
            raise ConfigurationError("partition cannot nest inside itself")
        self._ways_text = ways
        self._base_name = base_name
        self._segment_ways = parse_partition_ways(ways, num_ways)
        self._offsets: list[int] = []
        offset = 0
        for count in self._segment_ways:
            self._offsets.append(offset)
            offset += count
        #: Sub-policy per segment, each sized to its own way count.  The
        #: base token is validated through the registry (unknown names raise
        #: ConfigurationError naming the token).
        base_spec = PolicySpec.of(base_name)
        self._subs = [
            base_spec.build(num_sets, count) for count in self._segment_ways
        ]
        #: way -> owning segment index, precomputed for the hooks.
        self._segment_of_way = [
            segment
            for segment, count in enumerate(self._segment_ways)
            for _ in range(count)
        ]
        self._segments = len(self._segment_ways)

    # ------------------------------------------------------------------ hooks
    def on_hit(self, set_index: int, way: int, request: MemoryRequest) -> None:
        segment = self._segment_of_way[way]
        self._subs[segment].on_hit(
            set_index, way - self._offsets[segment], request
        )

    def on_insert(self, set_index: int, way: int, request: MemoryRequest) -> None:
        segment = self._segment_of_way[way]
        self._subs[segment].on_insert(
            set_index, way - self._offsets[segment], request
        )

    def select_victim(self, set_index: int, request: MemoryRequest) -> int:
        segment = getattr(request, "core", 0) % self._segments
        local = self._subs[segment].select_victim(set_index, request)
        return self._offsets[segment] + local

    def on_evict(
        self, set_index: int, way: int, request: Optional[MemoryRequest] = None
    ) -> None:
        segment = self._segment_of_way[way]
        self._subs[segment].on_evict(
            set_index, way - self._offsets[segment], request
        )

    def reset(self) -> None:
        for sub in self._subs:
            sub.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        layout = "+".join(str(count) for count in self._segment_ways)
        return (
            f"PartitionPolicy(sets={self.num_sets}, ways={layout}, "
            f"base={self._base_name})"
        )
