"""Structured replacement-policy specifications and the policy registry.

Historically every layer of the harness addressed replacement policies by
ad-hoc strings (``"trrip-1"``, ``"ship"``) that were only interpreted deep
inside the cache factory — after workload preparation had already been paid
for, and with no way to pass parameters short of threading ``**kwargs``
through every call site.  This module replaces those strings with a small,
self-describing layer:

* :data:`POLICY_REGISTRY` — one :class:`PolicyInfo` per registered policy:
  canonical name, accepted aliases, a one-line description (surfaced by
  ``repro policies``) and the typed parameters its builder accepts.
* :class:`PolicySpec` — a frozen, hashable (name + typed params) value
  object.  It validates eagerly against the registry, raising
  :class:`~repro.common.errors.ConfigurationError` that names the offending
  token and the valid choices, parses the CLI syntax
  ``name:param=value,param=value`` (:meth:`PolicySpec.parse`), and renders a
  canonical string (:meth:`PolicySpec.canonical`) that is stable across
  processes — the result store keys cached runs by it.

Plain policy names remain accepted everywhere (``PolicySpec.of("srrip")``),
so existing call sites and cached store entries keep working unchanged: a
parameterless spec's canonical form is exactly the bare policy name.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.common.errors import ConfigurationError
from repro.common.params import TypedParam, parse_spec_token, render_param_value

if TYPE_CHECKING:
    from repro.cache.replacement.base import ReplacementPolicy

#: One typed parameter a policy builder accepts.  The shared
#: :class:`~repro.common.params.TypedParam` machinery (also used by workload
#: families) defaults its ``kind`` to "policy", so the construction and
#: error-message behaviour are unchanged.
PolicyParam = TypedParam


@dataclass(frozen=True)
class PolicyInfo:
    """Registry entry for one replacement policy."""

    name: str
    description: str
    builder: Callable[..., ReplacementPolicy]
    params: tuple[PolicyParam, ...] = ()
    aliases: tuple[str, ...] = ()

    def param(self, name: str) -> PolicyParam:
        for param in self.params:
            if param.name == name:
                return param
        valid = ", ".join(p.name for p in self.params) or "(none)"
        raise ConfigurationError(
            f"policy {self.name!r} has no parameter {name!r}; "
            f"valid parameters: {valid}"
        )

    def build(self, num_sets: int, num_ways: int, **kwargs) -> ReplacementPolicy:
        return self.builder(num_sets, num_ways, **kwargs)


def _builder(
    module: str, name: str, **fixed: Any
) -> Callable[..., ReplacementPolicy]:
    """A builder that imports policy class ``name`` from ``module`` when it
    first builds one.  Naming, validating and describing policies needs
    only the registry, so a process that builds no cache (``repro
    policies``, a re-render from the store) loads no policy module.  It
    also keeps the layering acyclic for TRRIP, which lives in
    :mod:`repro.core`, a package that depends on this one."""

    def build(num_sets: int, num_ways: int, **kwargs) -> ReplacementPolicy:
        policy_class = getattr(importlib.import_module(module), name)
        return policy_class(num_sets, num_ways, **fixed, **kwargs)

    return build


_RRPV_BITS = PolicyParam("rrpv_bits", int, 2, "RRPV counter width in bits")
_LEADER_SETS = PolicyParam(
    "leader_sets", int, 32, "leader sets per constituency for set dueling"
)
_PSEL_BITS = PolicyParam("psel_bits", int, 10, "policy-selector counter width")
_BIMODAL = PolicyParam(
    "bimodal_interval", int, 32, "1/N of insertions placed at intermediate"
)

#: Every registered replacement policy, in catalog order (baselines, the
#: RRIP family, the paper's competitors, TRRIP, then oracles).
POLICY_REGISTRY: dict[str, PolicyInfo] = {
    info.name: info
    for info in (
        PolicyInfo(
            "lru",
            "least-recently-used baseline",
            _builder("repro.cache.replacement.basic", "LRUPolicy"),
        ),
        PolicyInfo(
            "fifo",
            "first-in-first-out baseline",
            _builder("repro.cache.replacement.basic", "FIFOPolicy"),
        ),
        PolicyInfo(
            "random",
            "uniform random victim selection (deterministic seed)",
            _builder("repro.cache.replacement.basic", "RandomPolicy"),
            params=(PolicyParam("seed", int, 0, "RNG seed"),),
        ),
        PolicyInfo(
            "srrip",
            "static RRIP, the paper's baseline (hit-priority variant)",
            _builder("repro.cache.replacement.rrip", "SRRIPPolicy"),
            params=(_RRPV_BITS,),
        ),
        PolicyInfo(
            "brrip",
            "bimodal RRIP: thrash-resistant distant insertion",
            _builder("repro.cache.replacement.rrip", "BRRIPPolicy"),
            params=(_RRPV_BITS, _BIMODAL),
        ),
        PolicyInfo(
            "drrip",
            "dynamic RRIP: set dueling between SRRIP and BRRIP",
            _builder("repro.cache.replacement.drrip", "DRRIPPolicy"),
            params=(_RRPV_BITS, _LEADER_SETS, _PSEL_BITS, _BIMODAL),
        ),
        PolicyInfo(
            "ship",
            "signature-based hit prediction over SRRIP",
            _builder("repro.cache.replacement.ship", "SHiPPolicy"),
            params=(
                _RRPV_BITS,
                PolicyParam("shct_entries", int, 16384, "SHCT table entries"),
                PolicyParam("shct_bits", int, 2, "SHCT counter width"),
                PolicyParam(
                    "instruction_only", bool, True, "train only on ifetches"
                ),
            ),
        ),
        PolicyInfo(
            "clip",
            "code-line instruction prioritisation via set dueling",
            _builder("repro.cache.replacement.clip", "CLIPPolicy"),
            params=(_RRPV_BITS, _LEADER_SETS, _PSEL_BITS),
        ),
        PolicyInfo(
            "emissary",
            "priority-way partitioning for costly instruction lines",
            _builder("repro.cache.replacement.emissary", "EmissaryPolicy"),
            params=(
                PolicyParam("priority_ways", int, 4, "ways reserved for priority"),
                PolicyParam(
                    "priority_probability",
                    float,
                    1.0 / 16.0,
                    "probability a starved fill is prioritised",
                ),
                PolicyParam(
                    "rotate_on_saturation",
                    bool,
                    False,
                    "rotate priority ways when saturated",
                ),
                PolicyParam("seed", int, 0, "RNG seed"),
            ),
        ),
        PolicyInfo(
            "partition",
            "static per-core way partitioning (QoS) over a base policy",
            _builder("repro.cache.replacement.partition", "PartitionPolicy"),
            params=(
                PolicyParam(
                    "ways",
                    str,
                    "",
                    "'+'-separated per-core way counts, e.g. 4+4 "
                    "(empty = even two-way split)",
                ),
                PolicyParam(
                    "base",
                    str,
                    "lru",
                    "bare policy name each partition runs internally",
                ),
            ),
        ),
        PolicyInfo(
            "trrip-1",
            "temperature RRIP, variant 1: hot lines pinned at immediate",
            _builder("repro.core.trrip", "TRRIPPolicy", variant=1),
            params=(_RRPV_BITS,),
            aliases=("trrip", "trrip1"),
        ),
        PolicyInfo(
            "trrip-2",
            "temperature RRIP, variant 2: warm insertion + conservative hits",
            _builder("repro.core.trrip", "TRRIPPolicy", variant=2),
            params=(_RRPV_BITS,),
            aliases=("trrip2",),
        ),
        PolicyInfo(
            "opt",
            "Belady's MIN oracle (must be primed with the future trace)",
            _builder("repro.cache.replacement.belady", "OptimalPolicy"),
        ),
    )
}

#: alias -> canonical name, for lookups.
_ALIASES: dict[str, str] = {
    alias: info.name for info in POLICY_REGISTRY.values() for alias in info.aliases
}


def policy_names() -> tuple[str, ...]:
    """Canonical registered names, in catalog order."""
    return tuple(POLICY_REGISTRY)


def get_policy_info(name: str) -> PolicyInfo:
    """Resolve a (possibly aliased) policy name to its registry entry."""
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    info = POLICY_REGISTRY.get(key)
    if info is None:
        raise ConfigurationError(
            f"unknown replacement policy {name!r}; known policies: "
            f"{', '.join(sorted(POLICY_REGISTRY))}"
        )
    return info


@dataclass(frozen=True)
class PolicySpec:
    """A replacement policy plus its (typed, validated) parameters.

    ``params`` is stored as a name-sorted tuple of ``(name, value)`` pairs so
    specs are hashable, order-insensitive and canonicalise deterministically
    for content hashing.  Instances are validated on construction: unknown
    names and unknown/badly-typed parameters raise
    :class:`~repro.common.errors.ConfigurationError` immediately, not deep
    inside the cache factory after workload preparation.
    """

    name: str
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        info = get_policy_info(self.name)
        coerced = tuple(
            sorted(
                (info.param(key).name, info.param(key).coerce(value, info.name))
                for key, value in dict(self.params).items()
            )
        )
        object.__setattr__(self, "name", info.name)
        object.__setattr__(self, "params", coerced)

    # --------------------------------------------------------- constructions
    @classmethod
    def of(
        cls, value: "PolicySpec | str", **overrides: Any
    ) -> "PolicySpec":
        """Coerce a policy name / CLI token / spec into a :class:`PolicySpec`."""
        if isinstance(value, PolicySpec):
            if overrides:
                merged = dict(value.params)
                merged.update(overrides)
                return cls(value.name, tuple(merged.items()))
            return value
        if isinstance(value, str):
            spec = cls.parse(value)
            if overrides:
                return cls.of(spec, **overrides)
            return spec
        raise ConfigurationError(
            f"cannot interpret {value!r} as a replacement policy"
        )

    @classmethod
    def parse(cls, text: str) -> "PolicySpec":
        """Parse the CLI syntax ``name`` or ``name:param=value,param=value``."""
        name, params = parse_spec_token(text, kind="policy")
        return cls(name, tuple(params.items()))

    # -------------------------------------------------------------- accessors
    @property
    def info(self) -> PolicyInfo:
        return get_policy_info(self.name)

    @property
    def kwargs(self) -> dict[str, Any]:
        """Builder keyword arguments (non-default parameters only)."""
        return dict(self.params)

    def canonical(self) -> str:
        """Stable text form: ``name`` or ``name:a=1,b=2`` (params sorted).

        Parameterless specs render as the bare policy name, so canonical
        strings — and therefore result-store keys and report labels — are
        byte-identical to the legacy string-based addressing.
        """
        if not self.params:
            return self.name
        rendered = ",".join(
            f"{key}={self._render(value)}" for key, value in self.params
        )
        return f"{self.name}:{rendered}"

    #: Canonical value rendering, shared with the workload-family specs so
    #: both registries' canonical strings (and store keys) stay consistent.
    _render = staticmethod(render_param_value)

    def __str__(self) -> str:
        return self.canonical()

    # ------------------------------------------------------------------ build
    def build(self, num_sets: int, num_ways: int, **extra: Any) -> ReplacementPolicy:
        """Instantiate the policy for a cache geometry."""
        kwargs = self.kwargs
        for key, value in extra.items():
            kwargs[self.info.param(key).name] = self.info.param(key).coerce(
                value, self.name
            )
        return self.info.build(num_sets, num_ways, **kwargs)


def describe_policies() -> list[tuple[PolicyInfo, Optional[str]]]:
    """(info, rendered-parameter summary) rows for ``repro policies``."""
    rows: list[tuple[PolicyInfo, Optional[str]]] = []
    for info in POLICY_REGISTRY.values():
        if info.params:
            summary = ", ".join(
                f"{p.name}:{p.type.__name__}={PolicySpec._render(p.default)}"
                for p in info.params
            )
        else:
            summary = None
        rows.append((info, summary))
    return rows
