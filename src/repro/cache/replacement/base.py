"""Replacement policy interface.

Every evaluated mechanism (LRU, SRRIP, BRRIP, DRRIP, SHiP, CLIP, Emissary and
the paper's TRRIP variants) implements :class:`ReplacementPolicy`.  The cache
model calls four hooks in a fixed order:

* ``on_hit``        — a lookup found the line in ``way``;
* ``select_victim`` — the set is full and a way must be chosen for eviction;
* ``on_evict``      — the chosen victim (or an invalidated line) leaves the set;
* ``on_insert``     — the new line has been placed into ``way``.

A full-set fill is ``select_victim``, then ``on_evict``, then ``on_insert``;
a fill into an invalid way is ``on_insert`` alone.

Policies never see cache tags directly; any per-line metadata they need (RRPV
values, LRU stamps, SHiP signatures, Emissary priority bits) is kept in arrays
owned by the policy itself, exactly mirroring the storage the hardware
proposals add next to the tag array.

Inline forms
------------

A policy whose update is a fixed write into its per-set state arrays may
also declare that write as *data*, so the cache performs it inline with no
Python call on the hot path:

* ``hit_update_spec``   — the whole of ``on_hit``;
* ``replace_spec``      — ``select_victim`` + ``on_evict`` + ``on_insert``
  of a full-set fill;
* ``evict_update_spec`` — the whole of ``on_evict`` (evictions and
  invalidations).

A form is a promise of exact equivalence made by the class that defines it.
A subclass that overrides a hook the form summarises inherits the form but
not the promise, so the cache trusts a form only while every hook it
summarises (``_FUSED_FEATURE_HOOKS``) resolves to the defining class's
function (:func:`inherited_feature_is_exact`); otherwise it calls the hooks.
"""

from __future__ import annotations

import abc
from typing import Optional

from repro.common.request import MemoryRequest


class ReplacementPolicy(abc.ABC):
    """Abstract base class for set-associative replacement policies."""

    #: Short identifier used by the policy factory and experiment tables.
    name: str = "base"

    def __init__(self, num_sets: int, num_ways: int) -> None:
        if num_sets <= 0 or num_ways <= 0:
            raise ValueError(
                f"num_sets and num_ways must be positive, got {num_sets}x{num_ways}"
            )
        self.num_sets = num_sets
        self.num_ways = num_ways

    # ------------------------------------------------------------------ hooks
    def on_hit(self, set_index: int, way: int, request: MemoryRequest) -> None:
        """Update re-reference state after a hit on ``way`` (default: none)."""

    @abc.abstractmethod
    def select_victim(self, set_index: int, request: MemoryRequest) -> int:
        """Pick the way to evict from a full set."""

    def on_evict(
        self, set_index: int, way: int, request: Optional[MemoryRequest] = None
    ) -> None:
        """Notify that the line in ``way`` left the set (eviction/invalidate)."""

    def on_insert(self, set_index: int, way: int, request: MemoryRequest) -> None:
        """Initialise re-reference state for a newly inserted line."""

    def reset(self) -> None:
        """Restore the policy to its power-on state."""

    # ----------------------------------------------------------- inline forms
    def hit_update_spec(self):
        """Declarative form of :meth:`on_hit`, or ``None``.

        * ``("const", rows, value)`` — ``rows[set_index][way] = value``
          (RRIP-style promotion to a fixed prediction);
        * ``("clock", rows, cell)``  — ``cell[0] += 1; rows[set_index][way] =
          cell[0]`` (LRU-style recency stamping; ``cell`` is a one-element
          list holding the policy's monotonic clock);
        * ``("noop",)``              — hits do not change policy state (FIFO);
        * ``None``                   — the cache calls :meth:`on_hit`.

        The returned arrays must stay identity-stable across :meth:`reset`
        (reset in place).
        """
        return None

    def replace_spec(self):
        """Declarative form of a full-set fill, or ``None``.

        * ``("lru", rows, cell)`` — evict the way with the minimum stamp and
          restamp it from the monotonic clock in ``cell`` (LRU and FIFO);
        * ``("rrip", rows, distant, insertion)`` — age the set to *Distant*,
          evict the first way there, insert at the fixed ``insertion``
          prediction (static RRIP).

        The arrays must stay identity-stable across :meth:`reset`.
        """
        return None

    def evict_update_spec(self):
        """Declarative form of :meth:`on_evict`, or ``None``.

        ``("const", rows, value)`` means an eviction (or invalidation) of
        ``(set, way)`` is exactly ``rows[set_index][way] = value``.
        """
        return None

    # ------------------------------------------------------------------ misc
    def _check_set(self, set_index: int) -> None:
        if not 0 <= set_index < self.num_sets:
            raise IndexError(f"set index {set_index} out of range [0, {self.num_sets})")

    def _check_way(self, way: int) -> None:
        if not 0 <= way < self.num_ways:
            raise IndexError(f"way {way} out of range [0, {self.num_ways})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(sets={self.num_sets}, ways={self.num_ways})"


#: The hooks each inline form summarises.  A form inherited from a base class
#: is only trusted when the concrete policy class leaves every one of these
#: exactly as the form's defining class saw them.
_FUSED_FEATURE_HOOKS = {
    "hit_update_spec": ("on_hit",),
    "replace_spec": ("select_victim", "on_evict", "on_insert", "insertion_rrpv"),
    "evict_update_spec": ("on_evict",),
}


def inherited_feature_is_exact(policy: ReplacementPolicy, feature: str) -> bool:
    """Whether the inline form ``feature`` still matches the policy's hooks.

    The class that defines the form promises its equivalence; a subclass that
    overrides any of the summarised hooks (say an MRU variant overriding
    ``select_victim``) inherits the form but not the equivalence, and the
    cache must call the hooks instead.
    """
    policy_type = type(policy)
    owner = next(
        klass for klass in policy_type.__mro__ if feature in klass.__dict__
    )
    return all(
        getattr(policy_type, hook, None) is getattr(owner, hook, None)
        for hook in _FUSED_FEATURE_HOOKS[feature]
    )
