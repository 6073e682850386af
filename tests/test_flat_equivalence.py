"""Flat-array cache vs an object-backed reference: behavioural equivalence.

The production :class:`~repro.cache.cache.SetAssociativeCache` keeps its
state in flat columns with a line-number residency dict, pre-bound policy
hooks and declarative (inline) hit/replace/evict updates.  This suite
replays randomized access streams through it and through
:class:`ReferenceCache` — a deliberately naive object-per-block model that
drives the *same replacement-policy class* through the plain
``on_hit``/``select_victim``/``on_evict``/``on_insert`` hook sequence — and
asserts the two observe **identical hit/miss/evict/writeback sequences** for
every registered policy.  Any shortcut in the flat cache (inline forms,
skipped probes) that changed behaviour for any policy would diverge here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.replacement.spec import PolicySpec
from repro.common.request import AccessType, MemoryRequest
from repro.common.temperature import Temperature
from repro.testing import equivalence_policy_names

SETS = 8
WAYS = 4
LINE = 64
SIZE = SETS * WAYS * LINE

#: Footprint of the random streams (in distinct lines): several times the
#: cache capacity, so the streams exercise misses, evictions and refills.
FOOTPRINT_LINES = SETS * WAYS * 4

STREAM_LENGTH = 3000
SEEDS = (1, 2)


@dataclass
class ReferenceBlock:
    """One line of the object-backed reference model."""

    tag: int = 0
    address: int = 0
    valid: bool = False
    dirty: bool = False
    is_instruction: bool = False
    temperature: Temperature = Temperature.NONE
    pc: int = 0


@dataclass
class ReferenceCache:
    """Textbook object-per-block set-associative cache.

    Linear probes over block objects, no residency index, no pre-bound
    hooks: every policy interaction goes through the four request-aware
    hook methods in the canonical order.  Only behaviour-relevant fields
    are modelled; the event log is the observable surface the equivalence
    test compares.
    """

    policy: object
    num_sets: int = SETS
    ways: int = WAYS
    line_size: int = LINE
    events: list[tuple] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.sets = [
            [ReferenceBlock() for _ in range(self.ways)]
            for _ in range(self.num_sets)
        ]

    def _locate(self, address: int) -> tuple[int, int, Optional[int]]:
        set_index = (address // self.line_size) % self.num_sets
        tag = address // (self.line_size * self.num_sets)
        for way, block in enumerate(self.sets[set_index]):
            if block.valid and block.tag == tag:
                return set_index, tag, way
        return set_index, tag, None

    def access(self, request: MemoryRequest) -> bool:
        set_index, _tag, way = self._locate(request.address)
        if way is None:
            self.events.append(("miss", request.address))
            return False
        self.events.append(("hit", request.address))
        if request.access_type is AccessType.DATA_STORE:
            self.sets[set_index][way].dirty = True
        self.policy.on_hit(set_index, way, request)
        return True

    def fill(self, request: MemoryRequest) -> None:
        set_index, tag, way = self._locate(request.address)
        blocks = self.sets[set_index]
        if way is not None:
            # Refresh keeps a pending writeback.
            was_dirty = blocks[way].dirty
            self._install(blocks[way], request, tag)
            blocks[way].dirty = blocks[way].dirty or was_dirty
            self.events.append(("refresh", request.address))
            return
        way = next(
            (w for w, block in enumerate(blocks) if not block.valid), None
        )
        if way is None:
            way = self.policy.select_victim(set_index, request)
            victim = blocks[way]
            self.events.append(
                ("evict", victim.address, bool(victim.dirty))
            )
            self.policy.on_evict(set_index, way, request)
        self._install(blocks[way], request, tag)
        self.events.append(("fill", request.address))
        self.policy.on_insert(set_index, way, request)

    def _install(self, block: ReferenceBlock, request: MemoryRequest, tag: int) -> None:
        block.tag = tag
        block.address = request.address - request.address % self.line_size
        block.valid = True
        block.dirty = request.access_type is AccessType.DATA_STORE
        block.is_instruction = request.access_type is AccessType.INSTRUCTION_FETCH
        block.temperature = request.temperature
        block.pc = request.pc

    def invalidate(self, address: int) -> None:
        set_index, _tag, way = self._locate(address)
        if way is None:
            self.events.append(("inval-miss", address))
            return
        self.policy.on_evict(set_index, way, None)
        self.sets[set_index][way] = ReferenceBlock()
        self.events.append(("inval", address))


class FlatRecorder:
    """Drives the production flat-array cache, logging the same event shapes."""

    def __init__(self, policy) -> None:
        self.cache = SetAssociativeCache("flat", SIZE, WAYS, policy, LINE)
        self.events: list[tuple] = []

    def access(self, request: MemoryRequest) -> bool:
        hit = self.cache.access(request)
        self.events.append(("hit" if hit else "miss", request.address))
        return hit

    def fill(self, request: MemoryRequest) -> None:
        before = (self.cache.stats.fills, self.cache.stats.evictions)
        victim = self.cache.fill(request)
        after = (self.cache.stats.fills, self.cache.stats.evictions)
        if victim is not None:
            self.events.append(("evict", victim.address, bool(victim.dirty)))
        if after[0] == before[0]:
            self.events.append(("refresh", request.address))
        else:
            self.events.append(("fill", request.address))

    def invalidate(self, address: int) -> None:
        if self.cache.invalidate(address):
            self.events.append(("inval", address))
        else:
            self.events.append(("inval-miss", address))


def build_policy(name: str):
    return PolicySpec.of(name).build(SETS, WAYS)


def make_stream(seed: int) -> list[tuple]:
    """A deterministic random op stream: accesses, miss-fills, invalidates."""
    rng = random.Random(seed)
    ops = []
    for _ in range(STREAM_LENGTH):
        line = rng.randrange(FOOTPRINT_LINES)
        address = line * LINE + rng.randrange(LINE)
        kind = rng.random()
        if kind < 0.08:
            ops.append(("invalidate", address))
            continue
        access_type = rng.choice(
            (
                AccessType.INSTRUCTION_FETCH,
                AccessType.DATA_LOAD,
                AccessType.DATA_STORE,
            )
        )
        temperature = rng.choice(
            (Temperature.NONE, Temperature.HOT, Temperature.WARM, Temperature.COLD)
        )
        request = MemoryRequest(
            address=address,
            access_type=access_type,
            pc=(line * 4) & 0xFFFF,
            temperature=temperature,
            starvation_hint=rng.random() < 0.1,
            is_prefetch=rng.random() < 0.15,
        )
        ops.append(("access", request))
    return ops


def model_policy(model):
    return model.cache.policy if isinstance(model, FlatRecorder) else model.policy


def replay(model, ops, line_addresses) -> list[tuple]:
    policy = model_policy(model)
    is_opt = policy.name == "opt"
    if is_opt:
        policy.prime(line_addresses)
    for op in ops:
        if op[0] == "invalidate":
            model.invalidate(op[1])
            continue
        request = op[1]
        if not model.access(request):
            # Miss: fill, exactly like the hierarchy walk would.
            model.fill(request)
        if is_opt:
            policy.advance()
    return model.events


@pytest.mark.parametrize("policy_name", equivalence_policy_names())
@pytest.mark.parametrize("seed", SEEDS)
def test_flat_cache_matches_object_reference(policy_name, seed):
    ops = make_stream(seed)
    line_addresses = [
        op[1].address if op[0] == "access" else op[1] for op in ops
    ]

    flat = FlatRecorder(build_policy(policy_name))
    reference = ReferenceCache(policy=build_policy(policy_name))

    flat_events = replay(flat, ops, line_addresses)
    reference_events = replay(reference, ops, line_addresses)

    assert flat_events == reference_events

    # The end states agree too: same resident lines, same dirty bits.
    for set_index in range(SETS):
        flat_blocks = flat.cache.blocks_in_set(set_index)
        reference_blocks = reference.sets[set_index]
        flat_view = sorted(
            (b.tag, b.dirty) for b in flat_blocks if b.valid
        )
        reference_view = sorted(
            (b.tag, b.dirty) for b in reference_blocks if b.valid
        )
        assert flat_view == reference_view


class TestSubclassOverrideGuards:
    """A subclass overriding a hook an inline form summarises is called.

    The inline forms (``hit_update_spec``, ``replace_spec``,
    ``evict_update_spec``) are inherited attributes; the cache's structural
    guard has to notice the overridden hook and call it, otherwise the
    override is silently bypassed.  LRU, FIFO and SRRIP between them declare
    every form.
    """

    @pytest.mark.parametrize(
        "base, hook",
        [
            (base, hook)
            for base in ("lru", "fifo", "srrip")
            for hook in ("on_hit", "select_victim", "on_evict", "on_insert")
        ]
        + [("srrip", "insertion_rrpv")],
        ids=lambda value: value,
    )
    def test_override_is_called(self, base, hook):
        policy_class = type(build_policy(base))
        original = getattr(policy_class, hook)
        calls = []

        def logged(self, *args):
            calls.append(args)
            result = original(self, *args)
            if hook == "select_victim":
                # Evict the way after the base choice: the cache must honour
                # the override's answer, not only call it.
                result = (result + 1) % WAYS
            return result

        logging_class = type("Logging", (policy_class,), {hook: logged})
        cache = SetAssociativeCache(
            "log", SIZE, WAYS, logging_class(SETS, WAYS), LINE
        )

        # One set filled past capacity (one full-set fill), one hit and one
        # invalidation: every hook runs at least once.
        stride = SETS * LINE
        requests = [
            MemoryRequest(address=way * stride, access_type=AccessType.DATA_LOAD)
            for way in range(WAYS + 1)
        ]
        victims = [cache.fill(request) for request in requests]
        # Every base evicts way 0 of the full set (oldest stamp, or the first
        # way aged to Distant); the select_victim override shifts it.
        assert victims[-1].address == (stride if hook == "select_victim" else 0)
        assert cache.access(requests[-1])
        assert cache.invalidate(requests[-1].address)

        expected = {
            "on_hit": 1,
            "select_victim": 1,
            "on_evict": 2,
            "on_insert": WAYS + 1,
            "insertion_rrpv": WAYS + 1,
        }[hook]
        assert len(calls) == expected
