"""Hardware prefetcher models.

Table 1 of the paper attaches stride-based prefetchers (including next-line)
to every cache.  The frontend additionally runs a pseudo-FDIP prefetcher
(modelled in :mod:`repro.cpu.frontend`); the classes here are the per-cache
engines trained on demand accesses.

A prefetcher observes only the demand stream: the physical address and the
PC of each access, never whether it hit or any other per-core cache state.
Its targets are therefore a pure function of the stream, which is what lets
a lockstep lane (:func:`repro.cpu.core.run_lanes`) train one table and hand
its targets to every core replaying the same trace.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence

from repro.common.addressing import CACHE_LINE_SIZE, line_address


#: Shared empty result for observations that issue nothing — the common case,
#: returned once per demand access in the simulation hot loop.
_NO_PREFETCHES: tuple[int, ...] = ()


class Prefetcher(abc.ABC):
    """Interface of a per-cache prefetch engine."""

    name: str = "none"

    @abc.abstractmethod
    def observe(self, address: int, pc: int) -> "Sequence[int]":
        """Observe a demand access to physical ``address`` by ``pc`` and
        return line addresses to prefetch."""

    def reset(self) -> None:
        """Restore the prefetcher to its power-on state."""


class NullPrefetcher(Prefetcher):
    """Prefetcher that never issues anything."""

    name = "none"

    def observe(self, address: int, pc: int) -> "Sequence[int]":
        return _NO_PREFETCHES


class NextLinePrefetcher(Prefetcher):
    """Sequential next-line prefetcher (degree configurable).

    Effective for instruction streams where fall-through execution dominates,
    which PGO's layout optimisations deliberately encourage.
    """

    name = "nextline"

    def __init__(self, degree: int = 1, line_size: int = CACHE_LINE_SIZE) -> None:
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        self.degree = degree
        self.line_size = line_size

    def observe(self, address: int, pc: int) -> list[int]:
        base = line_address(address, self.line_size)
        return [base + i * self.line_size for i in range(1, self.degree + 1)]


@dataclass(slots=True)
class _StrideEntry:
    """Object form of a stride-table entry (used by the seed baseline; the
    production table stores ``[last_address, stride, confidence]`` lists,
    which the hot observe path reads and writes by index at C speed)."""

    last_address: int = 0
    stride: int = 0
    confidence: int = 0


class StridePrefetcher(Prefetcher):
    """PC-indexed stride prefetcher with confidence counters.

    Each static instruction (PC) gets a table entry tracking the last address
    it touched and the last observed stride.  When the same stride repeats
    ``threshold`` times the prefetcher issues ``degree`` prefetches along it.
    """

    name = "stride"

    def __init__(
        self,
        table_entries: int = 256,
        degree: int = 2,
        threshold: int = 2,
        line_size: int = CACHE_LINE_SIZE,
    ) -> None:
        if table_entries < 1 or degree < 1 or threshold < 1:
            raise ValueError("table_entries, degree and threshold must be >= 1")
        self.table_entries = table_entries
        self.degree = degree
        self.threshold = threshold
        self.line_size = line_size
        #: ``key -> [last_address, stride, confidence]``.
        self._table: dict[int, list[int]] = {}
        # The production observe runs as a closure over the (stable) table
        # and parameters — it is called on every demand event of the replay
        # hot loop.  Subclasses that override observe (the seed baseline)
        # keep their method: an instance attribute would shadow it, so the
        # closure is only bound when the class-level observe is the base one.
        self._observe_impl = self._make_observe()
        if type(self).observe is StridePrefetcher.observe:
            self.observe = self._observe_impl

    def _make_observe(self):
        table = self._table
        entries = self.table_entries
        threshold = self.threshold
        confidence_cap = threshold + 2
        degree_range = range(1, self.degree + 1)
        line_size = self.line_size

        def observe(address: int, pc: int) -> "Sequence[int]":
            key = pc % entries if pc else (address // 4096) % entries
            entry = table.get(key)
            if entry is None:
                if len(table) >= entries:
                    # Capacity eviction: drop the oldest-inserted entry.
                    table.pop(next(iter(table)))
                table[key] = [address, 0, 0]
                return _NO_PREFETCHES

            stride = address - entry[0]
            if stride != 0 and stride == entry[1]:
                confidence = entry[2] + 1
                if confidence > confidence_cap:
                    confidence = confidence_cap
                entry[2] = confidence
            else:
                confidence = entry[2] - 1
                if confidence < 0:
                    confidence = 0
                entry[2] = confidence
                entry[1] = stride
            entry[0] = address

            if confidence < threshold or stride == 0:
                return _NO_PREFETCHES
            prefetches = []
            for i in degree_range:
                target = address + i * stride
                if target >= 0:
                    prefetches.append(target - target % line_size)
            return prefetches

        return observe

    def observe(self, address: int, pc: int) -> "Sequence[int]":
        """Method form of the observe closure (overridden by subclasses;
        production instances shadow this with the pre-built closure)."""
        return self._observe_impl(address, pc)

    def reset(self) -> None:
        self._table.clear()


def make_prefetcher(name: str, **kwargs) -> Prefetcher:
    """Factory for prefetchers by configuration name."""
    name = name.lower()
    if name in ("none", "null", ""):
        return NullPrefetcher()
    if name in ("nextline", "next-line"):
        return NextLinePrefetcher(**kwargs)
    if name == "stride":
        return StridePrefetcher(**kwargs)
    raise ValueError(f"unknown prefetcher {name!r}")
