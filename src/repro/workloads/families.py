"""Parametric workload families: an open grid on the workload axis.

The paper's catalog (:mod:`repro.workloads.spec`) is a fixed set of fifteen
hand-written proxy/system specs.  Every Scenario/Session experiment can grid
freely over *policies* and *configurations*, but until this module the
workload axis had nothing new to offer.  A **workload family** closes that
gap: it is a named, parametric generator that synthesizes a
:class:`~repro.workloads.spec.WorkloadSpec` for one behaviour archetype —

* ``streaming``      — sequential scans over a large buffer, tiny hot loop;
* ``pointer-chase``  — dependent loads walking a resident linked structure;
* ``zipf``           — data accesses Zipf-skewed over a footprint (``alpha``
  shapes how much of the footprint is hot);
* ``phased``         — code that migrates between hot phases, so the hot set
  seen by the L2 changes over time;
* ``interleave``     — several programs round-robin on one core, built on the
  catalog specs via the spec override hooks (footprints add up, reuse
  distances stretch).

Families mirror the replacement-policy registry
(:mod:`repro.cache.replacement.spec`) exactly: each is a registry entry with
typed, defaulted parameters, addressable from code and the CLI as
``name:param=value,param=value`` (``WorkloadFamilySpec.parse("zipf:alpha=1.2")``,
``repro run table3 --spec zipf:alpha=1.2``).  Synthesis is a pure
function of the canonical parameters, so a family token denotes the same
trace everywhere — which is what lets family runs share the result store and
the trace archive (:mod:`repro.workloads.capture`) across processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Union

from repro.common.errors import ConfigurationError, WorkloadError
from repro.common.params import TypedParam, parse_spec_token, render_param_value
from repro.workloads.spec import KB, WorkloadSpec, get_spec


@dataclass(frozen=True)
class FamilyParam(TypedParam):
    """One typed parameter a workload-family generator accepts."""

    kind: str = "workload family"


@dataclass(frozen=True)
class FamilyInfo:
    """Registry entry for one workload family."""

    name: str
    description: str
    synthesize: Callable[..., WorkloadSpec]
    params: tuple[FamilyParam, ...] = ()
    aliases: tuple[str, ...] = ()

    def param(self, name: str) -> FamilyParam:
        for param in self.params:
            if param.name == name:
                return param
        valid = ", ".join(p.name for p in self.params) or "(none)"
        raise ConfigurationError(
            f"workload family {self.name!r} has no parameter {name!r}; "
            f"valid parameters: {valid}"
        )

    def defaults(self) -> dict[str, Any]:
        return {param.name: param.default for param in self.params}


def _functions_for(kb: float, blocks_per_function: int, block_bytes: int = 64) -> int:
    """How many functions of the given shape cover ``kb`` of code."""
    return max(2, round(kb * KB / (blocks_per_function * block_bytes)))


# --------------------------------------------------------------- the families
def _streaming(
    footprint_kb: int,
    reuse_kb: int,
    access_rate: float,
    hot_kb: int,
    instructions: int,
    warmup: int,
    seed: int,
) -> WorkloadSpec:
    """Sequential scans over ``footprint_kb`` with a compact hot loop."""
    return WorkloadSpec(
        name="",
        category="family",
        description="synthetic streaming-scan workload",
        hot_functions=_functions_for(hot_kb, 8),
        warm_functions=6,
        cold_functions=16,
        blocks_per_hot_function=8,
        internal_cold_blocks=2,
        data_access_rate=access_rate,
        data_stream_kb=max(footprint_kb, 1),
        data_reuse_kb=max(reuse_kb, 1),
        data_stream_fraction=0.85,
        branch_entropy=0.04,
        eval_instructions=instructions,
        warmup_instructions=warmup,
        seed=seed,
    )


def _pointer_chase(
    footprint_kb: int,
    access_rate: float,
    depth: int,
    hot_kb: int,
    instructions: int,
    warmup: int,
    seed: int,
) -> WorkloadSpec:
    """Dependent loads walking a ``footprint_kb`` resident structure.

    ``depth`` is the dependent-chain length between branches; it maps onto
    the backend stall annotations (longer chains stall the core harder) and
    is capped so the stall rate stays a probability.
    """
    if depth < 1:
        raise ConfigurationError(
            f"workload family 'pointer-chase': depth must be >= 1, got {depth}"
        )
    return WorkloadSpec(
        name="",
        category="family",
        description="synthetic pointer-chasing workload",
        hot_functions=_functions_for(hot_kb, 10),
        warm_functions=8,
        cold_functions=24,
        data_access_rate=access_rate,
        data_stream_kb=max(footprint_kb // 8, 1),
        data_reuse_kb=max(footprint_kb, 1),
        data_stream_fraction=0.05,
        branch_entropy=0.12,
        depend_stall_rate=min(0.06 * depth, 0.9),
        depend_stall_cycles=2 + depth,
        eval_instructions=instructions,
        warmup_instructions=warmup,
        seed=seed,
    )


def _zipf(
    alpha: float,
    footprint_kb: int,
    access_rate: float,
    hot_kb: int,
    instructions: int,
    warmup: int,
    seed: int,
) -> WorkloadSpec:
    """Zipf(``alpha``)-skewed data accesses over ``footprint_kb``.

    The footprint is modelled as 1 kB buckets with weight ``(i+1)**-alpha``.
    The *reused* region is the smallest head of that ranking carrying at
    least two thirds of the access mass; the remaining tail is streamed.
    High ``alpha`` concentrates the mass into a cache-resident head, low
    ``alpha`` degenerates towards a uniform sweep of the whole footprint —
    the skew knob the fixed catalog never exposed.
    """
    if alpha < 0:
        raise ConfigurationError(
            f"workload family 'zipf': alpha must be >= 0, got {alpha}"
        )
    if footprint_kb < 2:
        raise ConfigurationError(
            f"workload family 'zipf': footprint_kb must be >= 2, got {footprint_kb}"
        )
    weights = [(i + 1) ** -alpha for i in range(footprint_kb)]
    total = sum(weights)
    cumulative, head = 0.0, footprint_kb
    for index, weight in enumerate(weights):
        cumulative += weight
        if cumulative >= total * (2.0 / 3.0):
            head = index + 1
            break
    head = min(head, footprint_kb - 1)
    tail_mass = 1.0 - sum(weights[:head]) / total
    return WorkloadSpec(
        name="",
        category="family",
        description="synthetic zipf-skewed data workload",
        hot_functions=_functions_for(hot_kb, 10),
        warm_functions=10,
        cold_functions=32,
        data_access_rate=access_rate,
        data_stream_kb=max(footprint_kb - head, 1),
        data_reuse_kb=head,
        data_stream_fraction=min(max(tail_mass, 0.0), 1.0),
        eval_instructions=instructions,
        warmup_instructions=warmup,
        seed=seed,
    )


def _phased(
    phases: int,
    hot_kb: int,
    cold_kb: int,
    visit_probability: float,
    instructions: int,
    warmup: int,
    seed: int,
) -> WorkloadSpec:
    """Code migrating between ``phases`` hot working sets.

    Each phase is a segment of the outer iteration; a large *occasional*
    class with per-iteration visit probability makes the hot set seen by the
    L2 drift between iterations (long reuse-distance tail), which is the
    regime where insertion-priority policies separate from recency ones.
    """
    if phases < 1:
        raise ConfigurationError(
            f"workload family 'phased': phases must be >= 1, got {phases}"
        )
    return WorkloadSpec(
        name="",
        category="family",
        description="synthetic phased hot/cold-code workload",
        hot_functions=_functions_for(hot_kb, 10),
        warm_functions=12,
        cold_functions=_functions_for(cold_kb, 6),
        blocks_per_cold_function=6,
        internal_cold_blocks=4,
        segments_per_iteration=phases,
        hot_core_fraction=0.15,
        hot_occasional_fraction=min(0.2 + 0.1 * phases, 0.7),
        occasional_visit_probability=visit_probability,
        data_access_rate=0.24,
        data_stream_kb=24,
        data_reuse_kb=8,
        data_stream_fraction=0.3,
        eval_instructions=instructions,
        warmup_instructions=warmup,
        seed=seed,
    )


def _interleave(
    programs: int,
    base: str,
    instructions: int,
    warmup: int,
    seed: int,
) -> WorkloadSpec:
    """``programs`` copies of a catalog workload round-robin on one core.

    Built on the spec override hooks: code and data footprints add up across
    the co-running programs, each outer iteration gains one segment per
    program (the scheduler slice), and the occasional-visit probability
    drops, stretching every hot line's L2 reuse distance — the classic
    multi-programmed pressure the single-program catalog cannot express.
    """
    if programs < 1:
        raise ConfigurationError(
            f"workload family 'interleave': programs must be >= 1, got {programs}"
        )
    spec = get_spec(base)
    return spec.with_overrides(
        category="family",
        description=f"{programs}-program interleave of {base!r}",
        hot_functions=spec.hot_functions * programs,
        warm_functions=spec.warm_functions * programs,
        cold_functions=spec.cold_functions * programs,
        data_stream_kb=spec.data_stream_kb * programs,
        data_reuse_kb=spec.data_reuse_kb * programs,
        segments_per_iteration=spec.segments_per_iteration * programs,
        occasional_visit_probability=(
            spec.occasional_visit_probability / programs
        ),
        eval_instructions=instructions,
        warmup_instructions=warmup,
        seed=seed,
    )


_INSTRUCTIONS = FamilyParam(
    "instructions", int, 60_000, "measured-window length in instructions"
)
_WARMUP = FamilyParam("warmup", int, 15_000, "warm-up prefix in instructions")
_SEED = FamilyParam("seed", int, 701, "deterministic generator seed")
_ACCESS_RATE = FamilyParam(
    "access_rate", float, 0.35, "fraction of instructions with a data operand"
)
_HOT_KB = FamilyParam("hot_kb", int, 8, "hot code footprint in kB")

#: Every registered workload family, in catalog order.
WORKLOAD_FAMILIES: dict[str, FamilyInfo] = {
    info.name: info
    for info in (
        FamilyInfo(
            "streaming",
            "sequential scans over a large buffer, compact hot loop",
            _streaming,
            params=(
                FamilyParam("footprint_kb", int, 96, "streamed buffer size in kB"),
                FamilyParam("reuse_kb", int, 8, "reused-region size in kB"),
                _ACCESS_RATE,
                _HOT_KB,
                _INSTRUCTIONS,
                _WARMUP,
                _SEED,
            ),
            aliases=("stream",),
        ),
        FamilyInfo(
            "pointer-chase",
            "dependent loads walking a resident linked structure",
            _pointer_chase,
            params=(
                FamilyParam("footprint_kb", int, 32, "chased structure size in kB"),
                _ACCESS_RATE,
                FamilyParam(
                    "depth", int, 4, "dependent-chain length between branches"
                ),
                _HOT_KB,
                _INSTRUCTIONS,
                _WARMUP,
                _SEED,
            ),
            aliases=("pointer_chase", "chase"),
        ),
        FamilyInfo(
            "zipf",
            "zipf-skewed data accesses over a footprint (alpha = skew)",
            _zipf,
            params=(
                FamilyParam("alpha", float, 1.2, "zipf skew exponent"),
                FamilyParam("footprint_kb", int, 64, "total data footprint in kB"),
                _ACCESS_RATE,
                _HOT_KB,
                _INSTRUCTIONS,
                _WARMUP,
                _SEED,
            ),
        ),
        FamilyInfo(
            "phased",
            "code migrating between hot phases (drifting L2 hot set)",
            _phased,
            params=(
                FamilyParam("phases", int, 3, "hot phases per outer iteration"),
                FamilyParam("hot_kb", int, 16, "hot code footprint in kB"),
                FamilyParam("cold_kb", int, 48, "cold code footprint in kB"),
                FamilyParam(
                    "visit_probability",
                    float,
                    0.35,
                    "per-iteration probability an occasional phase runs",
                ),
                _INSTRUCTIONS,
                _WARMUP,
                _SEED,
            ),
        ),
        FamilyInfo(
            "interleave",
            "N catalog programs round-robin on one core (footprints add up)",
            _interleave,
            params=(
                FamilyParam("programs", int, 2, "co-running program count"),
                FamilyParam(
                    "base", str, "sqlite", "catalog workload to interleave"
                ),
                _INSTRUCTIONS,
                _WARMUP,
                _SEED,
            ),
            aliases=("multiprogram",),
        ),
    )
}

#: alias -> canonical name, for lookups.
_ALIASES: dict[str, str] = {
    alias: info.name
    for info in WORKLOAD_FAMILIES.values()
    for alias in info.aliases
}


def family_names() -> tuple[str, ...]:
    """Canonical registered family names, in catalog order."""
    return tuple(WORKLOAD_FAMILIES)


def get_family_info(name: str) -> FamilyInfo:
    """Resolve a (possibly aliased) family name to its registry entry."""
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    info = WORKLOAD_FAMILIES.get(key)
    if info is None:
        raise ConfigurationError(
            f"unknown workload family {name!r}; known families: "
            f"{', '.join(sorted(WORKLOAD_FAMILIES))}"
        )
    return info


def is_family_token(text: str) -> bool:
    """Whether ``text`` names a workload family (bare or parameterised)."""
    if not isinstance(text, str) or not text.strip():
        return False
    name = text.strip().partition(":")[0].strip().lower()
    return name in WORKLOAD_FAMILIES or name in _ALIASES


@dataclass(frozen=True)
class WorkloadFamilySpec:
    """A workload family plus its (typed, validated) parameters.

    The exact mirror of :class:`~repro.cache.replacement.spec.PolicySpec` on
    the workload axis: ``params`` is a name-sorted tuple of ``(name, value)``
    pairs, construction validates eagerly against the family registry, and
    :meth:`canonical` renders a stable token that round-trips through
    :meth:`parse`.  :meth:`synthesize` produces the concrete
    :class:`~repro.workloads.spec.WorkloadSpec`, whose ``name`` is the
    canonical token — so family runs label reports, result-store entries and
    trace-archive keys consistently everywhere.
    """

    name: str
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        info = get_family_info(self.name)
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
        cls, value: "WorkloadFamilySpec | str", **overrides: Any
    ) -> "WorkloadFamilySpec":
        """Coerce a family name / CLI token / spec into a family spec."""
        if isinstance(value, WorkloadFamilySpec):
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
            f"cannot interpret {value!r} as a workload family"
        )

    @classmethod
    def parse(cls, text: str) -> "WorkloadFamilySpec":
        """Parse the CLI syntax ``name`` or ``name:param=value,param=value``."""
        name, params = parse_spec_token(text, kind="workload")
        return cls(name, tuple(params.items()))

    # ------------------------------------------------------------- accessors
    @property
    def info(self) -> FamilyInfo:
        return get_family_info(self.name)

    @property
    def kwargs(self) -> dict[str, Any]:
        """Generator keyword arguments (non-default parameters only)."""
        return dict(self.params)

    def canonical(self) -> str:
        """Stable text form: ``name`` or ``name:a=1,b=2`` (params sorted)."""
        if not self.params:
            return self.name
        rendered = ",".join(
            f"{key}={render_param_value(value)}" for key, value in self.params
        )
        return f"{self.name}:{rendered}"

    def __str__(self) -> str:
        return self.canonical()

    # ------------------------------------------------------------- synthesis
    def synthesize(self) -> WorkloadSpec:
        """The concrete workload spec this family token denotes.

        Pure and deterministic: equal canonical tokens synthesize equal
        specs, in this process or any other — the property the result store
        and the trace archive key on.
        """
        info = self.info
        kwargs = info.defaults()
        kwargs.update(self.kwargs)
        return info.synthesize(**kwargs).with_overrides(name=self.canonical())


def resolve_workload(
    token: Union[str, WorkloadSpec, "WorkloadFamilySpec"],
) -> WorkloadSpec:
    """Resolve any workload token to a concrete spec.

    Accepts a full :class:`~repro.workloads.spec.WorkloadSpec` (returned
    as-is), a :class:`WorkloadFamilySpec` or family CLI token
    (``"zipf:alpha=1.2"`` — synthesized), or a catalog benchmark name
    (``"sqlite"`` — looked up).  Unknown names raise with both catalogs'
    valid choices via :func:`~repro.workloads.spec.get_spec`.
    """
    if isinstance(token, WorkloadSpec):
        return token
    if isinstance(token, WorkloadFamilySpec):
        return token.synthesize()
    if isinstance(token, str) and is_family_token(token):
        return WorkloadFamilySpec.parse(token).synthesize()
    try:
        return get_spec(token)
    except WorkloadError as error:
        raise WorkloadError(
            f"{error}; workload families (see `repro workloads`): "
            f"{', '.join(WORKLOAD_FAMILIES)}"
        ) from None


def describe_families() -> list[tuple[FamilyInfo, Optional[str]]]:
    """(info, rendered-parameter summary) rows for ``repro workloads``."""
    rows: list[tuple[FamilyInfo, Optional[str]]] = []
    for info in WORKLOAD_FAMILIES.values():
        if info.params:
            summary = ", ".join(
                f"{p.name}:{p.type.__name__}={render_param_value(p.default)}"
                for p in info.params
            )
        else:
            summary = None
        rows.append((info, summary))
    return rows
