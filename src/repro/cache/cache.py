"""Set-associative cache model with pluggable replacement policies.

The cache stores no per-line objects: every tag-array field lives in a flat
column (one entry per ``(set, way)`` slot), mirroring the structure-of-arrays
tag stores of C++ simulators (gem5's tag arrays, ChampSim's per-set integer
state).  See :class:`SetAssociativeCache` for the layout.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.block import CacheBlock
from repro.cache.replacement.base import (
    ReplacementPolicy,
    inherited_feature_is_exact,
)
from repro.cache.stats import CacheStats
from repro.common.addressing import CACHE_LINE_SIZE, is_power_of_two
from repro.common.errors import ConfigurationError
from repro.common.request import AccessType, MemoryRequest
from repro.common.temperature import Temperature

_IFETCH = AccessType.INSTRUCTION_FETCH
_STORE = AccessType.DATA_STORE


class SetAssociativeCache:
    """A single level of set-associative cache.

    The cache only models tags and replacement state — no data payloads — so a
    "hit" answers *would the line be resident*, which is all the paper's
    metrics (MPKI, stall cycles) need.

    The allocation decision (when to fill which level) is made by
    :class:`repro.cache.hierarchy.CacheHierarchy`; this class exposes
    ``access`` (lookup + replacement-state update on hits), ``fill`` (insert a
    line, returning the evicted block if any), ``invalidate`` and ``probe``
    (side-effect free lookup).

    Data layout
    -----------

    All per-line state lives in flat parallel columns indexed by
    ``slot = set_index * associativity + way``:

    * ``_lines`` — the resident line's global *line number*
      (``address >> _line_shift``), which encodes both tag and set index
      (``tag = line >> _set_bits``, ``set = line & _set_mask``,
      ``address = line << _line_shift``);
    * ``_valid`` — a valid-bit vector (``bytearray``, for the C-speed
      invalid-way scan); ``_dirty`` / ``_instr`` — 0/1 flag columns;
    * ``_temps`` / ``_pcs`` — temperature and fill-PC metadata consumed by
      victim fills and the TRRIP analysis.

    Residency is answered by one dict per cache, ``_line_map``, mapping the
    resident line number to its way — a single hash probe per lookup with no
    per-level shift/mask work, kept consistent by ``fill`` / ``invalidate`` /
    ``reset``.  Address geometry is precomputed shift/mask state, and the
    ``*_line`` entry points accept an already-computed line number so one
    shift per request is shared by every level of the hierarchy walk.

    The historical object-per-line view remains available through
    :meth:`blocks_in_set`, which materialises :class:`CacheBlock` snapshots
    from the columns for tests and analysis code.  The flat cache does not
    maintain the seed engine's per-line timestamps (``insertion_time``,
    ``last_access_time``, ``access_count``) — nothing behavioural ever read
    them, and dropping the bookkeeping removes three column writes from the
    hottest paths; snapshots report them as zero.
    """

    __slots__ = (
        "name",
        "size_bytes",
        "associativity",
        "line_size",
        "num_sets",
        "policy",
        "stats",
        "_lines",
        "_valid",
        "_dirty",
        "_instr",
        "_pcs",
        "_temps",
        "_columns",
        "_line_map",
        "_valid_counts",
        "_line_shift",
        "_set_mask",
        "_set_bits",
        "_tag_divisor",
        "_touch_kind",
        "_touch_rows",
        "_touch_arg",
        "_replace_kind",
        "_replace_rows",
        "_replace_a",
        "_replace_b",
        "_evict_rows",
        "_evict_arg",
        "_fill",
        "_fill_scalars",
    )

    def __init__(
        self,
        name: str,
        size_bytes: int,
        associativity: int,
        policy: ReplacementPolicy,
        line_size: int = CACHE_LINE_SIZE,
    ) -> None:
        if size_bytes <= 0 or associativity <= 0 or line_size <= 0:
            raise ConfigurationError(
                f"{name}: size, associativity and line size must be positive"
            )
        if not is_power_of_two(line_size):
            raise ConfigurationError(
                f"{name}: line size must be a power of two, got {line_size}"
            )
        if size_bytes % (associativity * line_size) != 0:
            raise ConfigurationError(
                f"{name}: size {size_bytes} is not divisible by "
                f"associativity*line_size = {associativity * line_size}"
            )
        num_sets = size_bytes // (associativity * line_size)
        if not is_power_of_two(num_sets):
            raise ConfigurationError(
                f"{name}: number of sets must be a power of two, got {num_sets}"
            )
        if policy.num_sets != num_sets or policy.num_ways != associativity:
            raise ConfigurationError(
                f"{name}: policy geometry {policy.num_sets}x{policy.num_ways} does "
                f"not match cache geometry {num_sets}x{associativity}"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.associativity = associativity
        self.line_size = line_size
        self.num_sets = num_sets
        self.policy = policy
        self.stats = CacheStats()
        slots = num_sets * associativity
        #: Plain lists rather than ``array``/``bytearray``: CPython list
        #: indexing is measurably cheaper than buffer-backed indexing on the
        #: fill/touch hot paths.
        self._lines: list[int] = [0] * slots
        self._valid = bytearray(slots)
        self._dirty: list[int] = [0] * slots
        self._instr: list[int] = [0] * slots
        self._pcs: list[int] = [0] * slots
        self._temps: list[Temperature] = [Temperature.NONE] * slots
        #: The metadata columns bundled for one-attribute-load unpacking on
        #: the fill hot path (identity-stable: reset() clears in place).
        self._columns = (
            self._lines,
            self._dirty,
            self._instr,
            self._temps,
            self._pcs,
        )
        #: ``resident line number -> way`` over the whole cache: the single
        #: authoritative residency index.
        self._line_map: dict[int, int] = {}
        #: Number of valid slots per set (skips the invalid-way scan once a
        #: set is full, which is the steady state after warm-up).
        self._valid_counts: list[int] = [0] * num_sets
        #: Precomputed address geometry (shift/mask; both powers of two).
        self._line_shift = line_size.bit_length() - 1
        self._set_mask = num_sets - 1
        self._set_bits = num_sets.bit_length() - 1
        #: Divisor that turns a byte address into a tag (kept for analysis
        #: code and the seed baseline, which still use the divide form).
        self._tag_divisor = line_size * num_sets
        self._bind_policy_hooks()

    def _bind_policy_hooks(self) -> None:
        """Bind the policy's inline forms (see
        :mod:`repro.cache.replacement.base`).

        A form is used only while the concrete policy class leaves every hook
        it summarises untouched (``inherited_feature_is_exact``); a subclass
        overriding e.g. ``select_victim`` is called through its hooks.
        """
        policy = self.policy
        #: Declarative hit update (see ``ReplacementPolicy.hit_update_spec``):
        #: kind 0 = call ``on_hit``, 1 = ``rows[set][way] = arg``,
        #: 2 = ``arg[0] += 1; rows[set][way] = arg[0]``, 3 = no-op.  Kinds
        #: 1-3 let every hit site write the policy array inline, with zero
        #: Python calls.
        spec = _exact_spec(policy, "hit_update_spec")
        if spec is None:
            self._touch_kind = 0
            self._touch_rows = None
            self._touch_arg = None
        elif spec[0] == "const":
            self._touch_kind = 1
            self._touch_rows = spec[1]
            self._touch_arg = spec[2]
        elif spec[0] == "clock":
            self._touch_kind = 2
            self._touch_rows = spec[1]
            self._touch_arg = spec[2]
        elif spec[0] == "noop":
            self._touch_kind = 3
            self._touch_rows = None
            self._touch_arg = None
        else:  # pragma: no cover - defensive
            raise ConfigurationError(
                f"{self.name}: unknown hit_update_spec {spec!r}"
            )
        #: Declarative full-set fill (see ``ReplacementPolicy.replace_spec``):
        #: kind 0 = call ``select_victim``, then the eviction update, then
        #: ``on_insert``; 1 = LRU clock restamp, 2 = static RRIP aging.
        #: Kinds 1-2 run the whole eviction+insertion policy update inline in
        #: the fill closure, with zero Python calls.
        rspec = _exact_spec(policy, "replace_spec")
        if rspec is None:
            self._replace_kind = 0
            self._replace_rows = None
            self._replace_a = None
            self._replace_b = None
        elif rspec[0] == "lru":
            self._replace_kind = 1
            self._replace_rows = rspec[1]
            self._replace_a = rspec[2]
            self._replace_b = None
        elif rspec[0] == "rrip":
            self._replace_kind = 2
            self._replace_rows = rspec[1]
            self._replace_a = rspec[2]
            self._replace_b = rspec[3]
        else:  # pragma: no cover - defensive
            raise ConfigurationError(
                f"{self.name}: unknown replace_spec {rspec!r}"
            )
        #: Declarative eviction update (``rows[set][way] = value``), or None.
        espec = _exact_spec(policy, "evict_update_spec")
        if espec is None:
            self._evict_rows = None
            self._evict_arg = None
        elif espec[0] == "const":
            self._evict_rows = espec[1]
            self._evict_arg = espec[2]
        else:  # pragma: no cover - defensive
            raise ConfigurationError(
                f"{self.name}: unknown evict_update_spec {espec!r}"
            )
        #: The fill hot path as closures over the cache's stable state (all
        #: captured objects keep their identity across reset(), which clears
        #: them in place).  Closure-variable loads replace the ~15 attribute
        #: loads a method body would pay per fill; ``_fill_scalars`` is the
        #: core taking pre-extracted request fields (the walk's form), and
        #: ``_fill`` the request-object wrapper.
        self._fill, self._fill_scalars = self._make_fill()

    # -------------------------------------------------------------- indexing
    def set_index_of(self, address: int) -> int:
        """Set index for a byte address."""
        return (address >> self._line_shift) & self._set_mask

    def tag_of(self, address: int) -> int:
        """Tag for a byte address."""
        return address >> (self._line_shift + self._set_bits)

    def blocks_in_set(self, set_index: int) -> list[CacheBlock]:
        """Snapshot of one set as :class:`CacheBlock` views.

        The blocks are materialised from the flat columns on demand (for
        analysis and tests); mutating them does not write back to the cache.
        """
        base = set_index * self.associativity
        set_bits = self._set_bits
        line_shift = self._line_shift
        blocks = []
        for slot in range(base, base + self.associativity):
            if self._valid[slot]:
                line = self._lines[slot]
                blocks.append(
                    CacheBlock(
                        tag=line >> set_bits,
                        address=line << line_shift,
                        valid=True,
                        dirty=bool(self._dirty[slot]),
                        is_instruction=bool(self._instr[slot]),
                        temperature=self._temps[slot],
                        pc=self._pcs[slot],
                    )
                )
            else:
                blocks.append(CacheBlock())
        return blocks

    def tag_map_of(self, set_index: int) -> dict[int, int]:
        """The ``tag -> way`` view of one set (exposed for invariant tests)."""
        set_bits = self._set_bits
        mask = self._set_mask
        return {
            line >> set_bits: way
            for line, way in self._line_map.items()
            if line & mask == set_index
        }

    # -------------------------------------------------------------- lookups
    def probe(self, address: int) -> Optional[int]:
        """Return the way holding ``address`` without touching any state."""
        return self._line_map.get(address >> self._line_shift)

    def contains(self, address: int) -> bool:
        """Whether the line containing ``address`` is resident."""
        return (address >> self._line_shift) in self._line_map

    # -------------------------------------------------------------- accesses
    def access(self, request: MemoryRequest) -> bool:
        """Look up a request; update stats and replacement state on a hit.

        Returns ``True`` on a hit.  Misses do **not** allocate — the hierarchy
        decides where fills go.
        """
        return self.access_line(request, request.address >> self._line_shift)

    def access_line(self, request: MemoryRequest, line_no: int) -> bool:
        """Like :meth:`access` with the request's line number precomputed.

        The hierarchy walk computes ``address >> _line_shift`` once per
        request and shares it with every level (all levels have the same line
        size by construction).
        """
        way = self._line_map.get(line_no)
        stats = self.stats
        access_type = request.access_type
        if way is not None:
            if request.is_prefetch:
                stats.prefetch_hits += 1
            elif access_type is _IFETCH:
                stats.inst_hits += 1
            else:
                stats.data_hits += 1
            set_index = line_no & self._set_mask
            if access_type is _STORE:
                self._dirty[set_index * self.associativity + way] = 1
            kind = self._touch_kind
            if kind == 2:
                cell = self._touch_arg
                clock = cell[0] + 1
                cell[0] = clock
                self._touch_rows[set_index][way] = clock
            elif kind == 1:
                self._touch_rows[set_index][way] = self._touch_arg
            elif kind == 0:
                self.policy.on_hit(set_index, way, request)
            return True
        if request.is_prefetch:
            stats.prefetch_misses += 1
        elif access_type is _IFETCH:
            stats.inst_misses += 1
        else:
            stats.data_misses += 1
        return False

    def fill(self, request: MemoryRequest) -> Optional[CacheBlock]:
        """Insert the line for ``request``; return the evicted block, if any.

        Filling a line that is already resident refreshes its metadata without
        evicting anything (this happens with overlapping prefetches).  The
        refresh keeps the line's dirty bit: a clean refill must not discard a
        pending writeback.
        """
        return self._fill(request, request.address >> self._line_shift, 2)

    def fill_raw(self, request: MemoryRequest) -> Optional[tuple[int, int, int]]:
        """Like :meth:`fill`, but the victim is ``(address, is_instruction,
        pc)`` instead of a copied :class:`CacheBlock`.

        The hierarchy only needs those three victim fields (back-invalidation
        and SLC victim fills); skipping the block-view construction matters on
        eviction-heavy workloads.
        """
        victim = self._fill(request, request.address >> self._line_shift, 1)
        if victim is None:
            return None
        return (victim[0] << self._line_shift, victim[1], victim[2])

    def _make_fill(self):
        """Build the fill hot path as a closure over stable cache state.

        The fill is the single hottest function on memory-bound replays
        (every miss fills 2-4 levels), so it runs as one flat body whose
        state — columns, residency map, stats, pre-bound policy hooks — is
        captured in closure cells instead of being re-fetched through
        ``self`` on every call.  Signature of the returned callable:
        ``fill(request, line_no, victim_mode, check_existing=True)``.

        * ``victim_mode``: 0 = caller discards the victim, 1 = victim as a
          ``(line number, is_instruction, pc)`` triple, 2 = victim as a
          :class:`CacheBlock`.
        * ``check_existing=False`` is the hierarchy walk's contract: a walk
          only ever fills the line it just *missed* on at every level, so
          the resident-refresh probe is provably a miss and is skipped.
          Every public entry point keeps the probe (overlapping prefetch
          refreshes arrive through ``fill``/``fill_raw``).
        """
        line_map = self._line_map
        set_mask = self._set_mask
        set_bits = self._set_bits
        line_shift = self._line_shift
        ways = self.associativity
        lines, dirty, instr, temps, pcs = self._columns
        valid = self._valid
        valid_counts = self._valid_counts
        stats = self.stats
        policy = self.policy
        policy_select = policy.select_victim
        policy_evict = policy.on_evict
        policy_on_insert = policy.on_insert
        replace_kind = self._replace_kind
        replace_rows = self._replace_rows
        replace_a = self._replace_a
        replace_b = self._replace_b
        evict_rows = self._evict_rows
        evict_arg = self._evict_arg
        way_range = range(ways)

        def fill_scalars(
            line_no: int,
            victim_mode: int,
            check_existing: bool,
            dirty_new: int,
            instr_new: int,
            temperature,
            pc: int,
            is_prefetch: bool,
            request,
        ):
            # Core fill body over scalar request fields: the hierarchy walk
            # extracts them once per miss and reuses them for every level's
            # fill.  ``request`` is only consulted by the policy's hooks.
            set_index = line_no & set_mask
            base = set_index * ways

            if check_existing:
                existing = line_map.get(line_no)
                if existing is not None:
                    # Refresh in place; the slot keeps a pending writeback.
                    slot = base + existing
                    if not dirty[slot]:
                        dirty[slot] = dirty_new
                    instr[slot] = instr_new
                    temps[slot] = temperature
                    pcs[slot] = pc
                    return None

            victim = None
            hooked = False
            if valid_counts[set_index] < ways:
                # An invalid slot exists; bytearray.find scans at C speed.
                way = valid.find(0, base, base + ways) - base
                slot = base + way
                valid[slot] = 1
                valid_counts[set_index] += 1
            else:
                if replace_kind == 1:
                    # Declarative fused LRU replace: evict min stamp, restamp
                    # MRU from the policy clock — no Python call at all.
                    stamps = replace_rows[set_index]
                    way = stamps.index(min(stamps))
                    clock = replace_a[0] + 1
                    replace_a[0] = clock
                    stamps[way] = clock
                    hooked = True
                elif replace_kind == 2:
                    # Declarative fused static-RRIP replace: collapse the
                    # aging loop, evict the first Distant way, insert at the
                    # static prediction (see RRIPBase.select_victim for why
                    # the delta step is exact).
                    rrpvs = replace_rows[set_index]
                    oldest = max(rrpvs)
                    if oldest < replace_a:
                        delta = replace_a - oldest
                        for w in way_range:
                            rrpvs[w] += delta
                    way = rrpvs.index(replace_a)
                    rrpvs[way] = replace_b
                    hooked = True
                else:
                    way = policy_select(set_index, request)
                slot = base + way
                # The set is full: the chosen slot is always a valid line.
                if victim_mode:
                    if victim_mode == 1:
                        victim = (lines[slot], instr[slot], pcs[slot])
                    else:
                        line = lines[slot]
                        victim = CacheBlock(
                            tag=line >> set_bits,
                            address=line << line_shift,
                            valid=True,
                            dirty=bool(dirty[slot]),
                            is_instruction=bool(instr[slot]),
                            temperature=temps[slot],
                            pc=pcs[slot],
                        )
                del line_map[lines[slot]]
                stats.evictions += 1
                if dirty[slot]:
                    stats.writebacks += 1
                if not hooked:
                    if evict_rows is not None:
                        evict_rows[set_index][way] = evict_arg
                    else:
                        policy_evict(set_index, way, request)

            lines[slot] = line_no
            dirty[slot] = dirty_new
            instr[slot] = instr_new
            temps[slot] = temperature
            pcs[slot] = pc
            line_map[line_no] = way
            stats.fills += 1
            if is_prefetch:
                stats.prefetch_fills += 1
            if not hooked:
                policy_on_insert(set_index, way, request)
            return victim

        def fill(
            request: MemoryRequest,
            line_no: int,
            victim_mode: int,
            check_existing: bool = True,
        ):
            access_type = request.access_type
            return fill_scalars(
                line_no,
                victim_mode,
                check_existing,
                1 if access_type is _STORE else 0,
                1 if access_type is _IFETCH else 0,
                request.temperature,
                request.pc,
                request.is_prefetch,
                request,
            )

        return fill, fill_scalars

    def invalidate(self, address: int) -> bool:
        """Remove the line containing ``address`` (back-invalidation)."""
        return self.invalidate_line(address >> self._line_shift)

    def invalidate_line(self, line_no: int) -> bool:
        """Like :meth:`invalidate` with the line number precomputed."""
        way = self._line_map.pop(line_no, None)
        if way is None:
            return False
        set_index = line_no & self._set_mask
        evict_rows = self._evict_rows
        if evict_rows is not None:
            evict_rows[set_index][way] = self._evict_arg
        else:
            self.policy.on_evict(set_index, way, None)
        self._valid_counts[set_index] -= 1
        # Only the valid bit needs clearing: every other column is dead while
        # the slot is invalid (victim reads and block views guard on valid,
        # and a refill overwrites all of them).
        self._valid[set_index * self.associativity + way] = 0
        self.stats.invalidations += 1
        return True

    def reset(self) -> None:
        """Clear contents, statistics and replacement state.

        Columns are cleared in place: their identity is stable for the whole
        cache lifetime (the fill hot path and the hierarchy rely on that).
        """
        slots = self.num_sets * self.associativity
        self._lines[:] = [0] * slots
        self._valid[:] = bytes(slots)
        self._dirty[:] = [0] * slots
        self._instr[:] = [0] * slots
        self._pcs[:] = [0] * slots
        self._temps[:] = [Temperature.NONE] * slots
        self._line_map.clear()
        for set_index in range(self.num_sets):
            self._valid_counts[set_index] = 0
        self.stats.reset()
        self.policy.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SetAssociativeCache(name={self.name!r}, size={self.size_bytes}, "
            f"ways={self.associativity}, sets={self.num_sets}, "
            f"policy={self.policy.name})"
        )


def _exact_spec(policy: ReplacementPolicy, feature: str):
    """The policy's inline form ``feature``, or ``None`` where a subclass
    overrides a hook the form summarises."""
    if inherited_feature_is_exact(policy, feature):
        return getattr(policy, feature)()
    return None
