"""Replacement policy interface.

Every evaluated mechanism (LRU, SRRIP, BRRIP, DRRIP, SHiP, CLIP, Emissary and
the paper's TRRIP variants) implements :class:`ReplacementPolicy`.  The cache
model calls the hooks in a fixed order:

* ``on_hit``      — a lookup found the line in ``way``;
* ``select_victim`` — the set is full and a way must be chosen for eviction;
* ``on_evict``    — the chosen victim (or an invalidated line) leaves the set;
* ``on_insert``   — the new line has been placed into ``way``.

Policies never see cache tags directly; any per-line metadata they need (RRPV
values, LRU stamps, SHiP signatures, Emissary priority bits) is kept in arrays
owned by the policy itself, exactly mirroring the storage the hardware
proposals add next to the tag array.

Array-state protocol
--------------------

Most policies never read the request: their whole state machine is "promote
this (set, way)" and "pick a way from this set's metadata array".  That narrow
protocol is expressed by two request-free methods over the per-set integer
arrays:

* ``touch(set_index, way)``  — recency/promotion update;
* ``victim(set_index)``      — choose the way to evict.

The request-aware hooks default to delegating to them, so a request-free
policy implements only ``touch``/``victim`` and the cache can (and does) call
those directly, skipping the unused request argument on the hot path.  The
cache detects request-free policies structurally: a policy whose class leaves
``on_hit`` (respectively ``select_victim``) at the base-class default is
promising that the request cannot influence the outcome.  Policies that *do*
consume request metadata (TRRIP's temperature, SHiP's signature, Emissary's
starvation hint, DRRIP's demand/prefetch split) override the request-aware
hook and are called through it, exactly as before.
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

    # ------------------------------------------- array-state protocol (narrow)
    def touch(self, set_index: int, way: int) -> None:
        """Request-free recency/promotion update for ``(set_index, way)``.

        The default is a no-op (stateless policies); policies with recency
        state override this with a plain array write.
        """

    def victim(self, set_index: int) -> int:
        """Pick the way to evict from a full set using policy state only."""
        raise NotImplementedError(
            f"{type(self).__name__} implements neither victim() nor "
            "select_victim()"
        )

    #: Optional fused request-free replacement hook.  A policy may set this
    #: to a ``replace(set_index) -> way`` method whose effect is *exactly*
    #: ``way = victim(set); on_evict(set, way); on_insert(set, way)`` for any
    #: request — one call instead of three on the eviction-fill hot path.
    #: Defining it is a promise of that equivalence: a subclass that changes
    #: any of the three underlying hooks must override ``replace`` too (or
    #: reset it to ``None`` to fall back to the three-call sequence).
    replace = None

    def hit_update_spec(self):
        """Declarative form of :meth:`touch`, or ``None``.

        A policy whose hit update is a single write into its per-set state
        arrays can return the write as *data* so the cache performs it inline
        — zero Python calls on the hit hot path:

        * ``("const", rows, value)`` — ``rows[set_index][way] = value``
          (RRIP-style promotion to a fixed prediction);
        * ``("clock", rows, cell)``  — ``cell[0] += 1; rows[set_index][way] =
          cell[0]`` (LRU-style recency stamping; ``cell`` is a one-element
          list holding the policy's monotonic clock);
        * ``("noop",)``              — hits do not change policy state (FIFO);
        * ``None``                   — no declarative form; the cache calls
          :meth:`touch` / :meth:`on_hit`.

        The spec must describe *exactly* what ``touch`` does; the cache only
        consults it for policies whose ``on_hit`` is the request-free default.
        The returned arrays must stay identity-stable across :meth:`reset`
        (reset in place).
        """
        return None

    def replace_spec(self):
        """Declarative form of :meth:`replace`, or ``None``.

        Like :meth:`hit_update_spec` but for the fused eviction+insertion:

        * ``("lru", rows, cell)`` — evict the way with the minimum stamp and
          restamp it from the monotonic clock in ``cell`` (LRU and FIFO);
        * ``("rrip", rows, distant, insertion)`` — age the set to *Distant*,
          evict the first way there, insert at the fixed ``insertion``
          prediction (static RRIP).

        The spec must describe *exactly* what :meth:`replace` does, under the
        same equivalence promise; a subclass that changes any underlying hook
        inherits ``replace = None`` or must override both.  The arrays must
        stay identity-stable across :meth:`reset`.
        """
        return None

    def evict_update_spec(self):
        """Declarative form of :meth:`on_evict`, or ``None``.

        ``("const", rows, value)`` means an eviction (or invalidation) of
        ``(set, way)`` is exactly ``rows[set_index][way] = value``.
        Implementations must self-guard against subclasses that override
        ``on_evict`` (return ``None`` when ``type(self).on_evict`` is not the
        class's own) so inherited specs can never shadow a richer hook.
        """
        return None

    # ------------------------------------------------------ request-aware hooks
    def on_hit(self, set_index: int, way: int, request: MemoryRequest) -> None:
        """Update re-reference state after a hit on ``way``.

        Defaults to the request-free :meth:`touch`; a policy whose class keeps
        this default is treated as request-free by the cache hot path.
        """
        self.touch(set_index, way)

    def on_insert(self, set_index: int, way: int, request: MemoryRequest) -> None:
        """Initialise re-reference state for a newly inserted line."""
        self.touch(set_index, way)

    def select_victim(self, set_index: int, request: MemoryRequest) -> int:
        """Pick the way to evict from a full set.

        Defaults to the request-free :meth:`victim`; a policy whose class
        keeps this default is treated as request-free by the cache hot path.
        """
        return self.victim(set_index)

    def on_evict(
        self, set_index: int, way: int, request: Optional[MemoryRequest] = None
    ) -> None:
        """Notify that the line in ``way`` left the set (eviction/invalidate)."""

    def reset(self) -> None:
        """Restore the policy to its power-on state."""

    # ------------------------------------------------------------------ misc
    def _check_set(self, set_index: int) -> None:
        if not 0 <= set_index < self.num_sets:
            raise IndexError(f"set index {set_index} out of range [0, {self.num_sets})")

    def _check_way(self, way: int) -> None:
        if not 0 <= way < self.num_ways:
            raise IndexError(f"way {way} out of range [0, {self.num_ways})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(sets={self.num_sets}, ways={self.num_ways})"


def is_request_free_hit(policy: ReplacementPolicy) -> bool:
    """Whether ``policy``'s hit update provably ignores the request."""
    return type(policy).on_hit is ReplacementPolicy.on_hit


def is_request_free_insert(policy: ReplacementPolicy) -> bool:
    """Whether ``policy``'s insert update provably ignores the request."""
    return type(policy).on_insert is ReplacementPolicy.on_insert


#: Hooks whose behaviour a fused/declarative feature summarises.  A feature
#: inherited from a base class is only trusted when the concrete policy
#: class leaves every one of these hooks exactly as the feature's defining
#: class saw them (see :func:`inherited_feature_is_exact`).
_FUSED_FEATURE_HOOKS = {
    "replace": (
        "victim",
        "select_victim",
        "touch",
        "on_insert",
        "on_evict",
        "insertion_rrpv",
    ),
    "replace_spec": (
        "victim",
        "select_victim",
        "touch",
        "on_insert",
        "on_evict",
        "insertion_rrpv",
        "replace",
    ),
    "hit_update_spec": ("touch", "on_hit"),
    "evict_update_spec": ("on_evict",),
}


def inherited_feature_is_exact(policy: ReplacementPolicy, feature: str) -> bool:
    """Whether a fused/declarative ``feature`` still matches the policy.

    ``replace``/``replace_spec``/``hit_update_spec``/``evict_update_spec``
    promise to be exactly equivalent to a specific combination of the plain
    hooks.  That promise is made by the *class that defines the feature*; a
    subclass that overrides any of the summarised hooks (say an MRU variant
    overriding ``select_victim``) inherits the feature attribute but not its
    equivalence.  The cache therefore only trusts a feature when every hook
    it summarises resolves to the same function on the concrete policy class
    as on the feature's defining class — any override disables the shortcut
    and the cache falls back to calling the plain hooks.
    """
    policy_type = type(policy)
    owner = next(
        (
            klass
            for klass in policy_type.__mro__
            if feature in klass.__dict__
        ),
        None,
    )
    if owner is None or klass_feature_is_none(owner, feature):
        return False
    return all(
        getattr(policy_type, hook, None) is getattr(owner, hook, None)
        for hook in _FUSED_FEATURE_HOOKS[feature]
    )


def klass_feature_is_none(owner: type, feature: str) -> bool:
    """Whether the defining class explicitly disabled the feature."""
    return owner.__dict__[feature] is None


def is_request_free_victim(policy: ReplacementPolicy) -> bool:
    """Whether ``policy``'s victim selection provably ignores the request."""
    return type(policy).select_victim is ReplacementPolicy.select_victim
