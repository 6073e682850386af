"""Simulator configurations.

:func:`SimulatorConfig.paper` reproduces Table 1 of the paper; the
:func:`SimulatorConfig.scaled` configuration keeps the same structure,
latencies and policy logic but shrinks the caches (and therefore the workload
footprints needed to stress them) so that the pure-Python model can run every
experiment in seconds instead of hours.  All experiment entry points take a
configuration argument, so any experiment can be re-run at paper scale.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.cache.config import CacheLevelConfig, HierarchyConfig
from repro.cache.replacement.spec import PolicySpec
from repro.common.errors import ConfigurationError
from repro.common.hashing import canonical_payload, stable_hash
from repro.cpu.config import CoreConfig

KB = 1024
MB = 1024 * KB

#: Replacement policies evaluated in Figure 6 / Table 3, in paper order.
EVALUATED_POLICIES: tuple[str, ...] = (
    "lru",
    "brrip",
    "drrip",
    "ship",
    "clip",
    "emissary",
    "trrip-1",
    "trrip-2",
)

#: The baseline every result is normalised to.
BASELINE_POLICY = "srrip"


@dataclass
class SimulatorConfig:
    """Full system configuration: cache hierarchy + core + OS page size."""

    name: str
    hierarchy: HierarchyConfig
    core: CoreConfig = field(default_factory=CoreConfig)
    page_size: int = 4096
    #: Multiplier applied to workload footprints/trace lengths for this
    #: configuration (1.0 for the scaled config the specs are written for).
    workload_scale: float = 1.0

    def validate(self) -> None:
        if self.page_size <= 0:
            raise ConfigurationError("page_size must be positive")
        if self.workload_scale <= 0:
            raise ConfigurationError("workload_scale must be positive")
        self.hierarchy.validate()
        self.core.validate()

    # ----------------------------------------------------------- derivations
    @property
    def l2_policy(self) -> str:
        return self.hierarchy.l2.policy

    @property
    def l2_policy_spec(self) -> PolicySpec:
        """The L2 replacement policy as a structured spec (name + params)."""
        return PolicySpec(
            self.hierarchy.l2.policy, tuple(self.hierarchy.l2.policy_kwargs.items())
        )

    def with_l2_policy(
        self, policy: "str | PolicySpec", **policy_kwargs
    ) -> "SimulatorConfig":
        """Return a copy whose L2 uses a different replacement policy.

        ``policy`` may be a plain name (``"srrip"``), a parameterised token
        (``"ship:shct_bits=3"``) or a
        :class:`~repro.cache.replacement.spec.PolicySpec`; it is validated
        against the policy registry here, so an unknown name or parameter
        raises :class:`~repro.common.errors.ConfigurationError` before any
        workload preparation or simulation starts.
        """
        spec = PolicySpec.of(policy, **policy_kwargs)
        hierarchy = dataclasses.replace(
            self.hierarchy,
            l2=dataclasses.replace(
                self.hierarchy.l2, policy=spec.name, policy_kwargs=spec.kwargs
            ),
        )
        return dataclasses.replace(
            self, name=f"{self.name}/{spec.canonical()}", hierarchy=hierarchy
        )

    def with_l2_geometry(
        self, size_bytes: int | None = None, associativity: int | None = None
    ) -> "SimulatorConfig":
        """Return a copy with a different L2 size and/or associativity."""
        l2 = self.hierarchy.l2
        hierarchy = dataclasses.replace(
            self.hierarchy,
            l2=dataclasses.replace(
                l2,
                size_bytes=size_bytes if size_bytes is not None else l2.size_bytes,
                associativity=(
                    associativity if associativity is not None else l2.associativity
                ),
            ),
        )
        return dataclasses.replace(self, hierarchy=hierarchy)

    def with_page_size(self, page_size: int) -> "SimulatorConfig":
        return dataclasses.replace(self, page_size=page_size)

    # ---------------------------------------------------------- serialisation
    def to_dict(self) -> dict:
        """Canonical nested-dict form of the full configuration.

        Every field that influences simulation results is included (cache
        geometry and latencies, policy names and kwargs, core parameters,
        page size, workload scale), so two configs with equal dicts produce
        identical simulations.  Used by the result store to key cached runs.
        """
        return canonical_payload(self)

    def content_hash(self) -> str:
        """Stable hex digest of :meth:`to_dict` (process-independent)."""
        return stable_hash(self)

    # --------------------------------------------------------- constructions
    @classmethod
    def paper(cls, l2_policy: str = BASELINE_POLICY) -> "SimulatorConfig":
        """Table 1 configuration (64 kB L1s, 512 kB L2, 1 MB SLC)."""
        hierarchy = HierarchyConfig(
            l1i=CacheLevelConfig(
                size_bytes=64 * KB,
                associativity=4,
                latency=3,
                policy="lru",
                # Instruction prefetching is handled by the frontend's
                # pseudo-FDIP engine, which models prefetch timeliness.
                prefetcher="none",
            ),
            l1d=CacheLevelConfig(
                size_bytes=64 * KB,
                associativity=4,
                latency=3,
                policy="lru",
                prefetcher="stride",
            ),
            l2=CacheLevelConfig(
                size_bytes=512 * KB,
                associativity=8,
                latency=12,
                policy=l2_policy,
                prefetcher="stride",
            ),
            slc=CacheLevelConfig(
                size_bytes=1 * MB,
                associativity=16,
                latency=30,
                policy="lru",
            ),
            dram_latency=400,
        )
        return cls(
            name="paper",
            hierarchy=hierarchy,
            core=CoreConfig(),
            page_size=4096,
            workload_scale=12.0,
        )

    @classmethod
    def scaled(cls, l2_policy: str = BASELINE_POLICY) -> "SimulatorConfig":
        """Fast configuration: same structure, caches shrunk ~8-16x."""
        hierarchy = HierarchyConfig(
            l1i=CacheLevelConfig(
                size_bytes=4 * KB,
                associativity=4,
                latency=3,
                policy="lru",
                # Instruction prefetching is handled by the frontend's
                # pseudo-FDIP engine, which models prefetch timeliness.
                prefetcher="none",
            ),
            l1d=CacheLevelConfig(
                size_bytes=4 * KB,
                associativity=4,
                latency=3,
                policy="lru",
                prefetcher="stride",
            ),
            l2=CacheLevelConfig(
                size_bytes=32 * KB,
                associativity=8,
                latency=12,
                policy=l2_policy,
                prefetcher="stride",
            ),
            slc=CacheLevelConfig(
                size_bytes=64 * KB,
                associativity=16,
                latency=30,
                policy="lru",
            ),
            dram_latency=400,
        )
        return cls(
            name="scaled",
            hierarchy=hierarchy,
            core=CoreConfig(),
            page_size=4096,
            workload_scale=1.0,
        )

    @classmethod
    def default(cls) -> "SimulatorConfig":
        """The configuration experiments use unless told otherwise."""
        return cls.scaled()


#: Named configuration constructors shared by the CLI (``--config``) and the
#: ``repro serve`` submission protocol (the ``"config"`` field).
NAMED_CONFIGS = {
    "scaled": SimulatorConfig.scaled,
    "paper": SimulatorConfig.paper,
}


def named_config(name: str) -> SimulatorConfig:
    """Build the named configuration, failing eagerly on unknown names."""
    from repro.common.errors import ConfigurationError

    constructor = NAMED_CONFIGS.get(name)
    if constructor is None:
        raise ConfigurationError(
            f"unknown configuration {name!r}; expected one of "
            f"{', '.join(NAMED_CONFIGS)}"
        )
    return constructor()


def normalize_interleave(
    interleave: Optional[Sequence[int]], cores: int
) -> tuple[int, ...]:
    """Validate an interleave ratio against a core count.

    ``None`` or empty means plain round-robin (one instruction per core per
    turn).  Otherwise one positive integer quantum per core.
    """
    if not interleave:
        return (1,) * cores
    ratio = tuple(int(value) for value in interleave)
    if len(ratio) != cores:
        raise ConfigurationError(
            f"interleave ratio has {len(ratio)} entries for {cores} cores"
        )
    if any(value <= 0 for value in ratio):
        raise ConfigurationError("interleave quanta must be positive integers")
    return ratio


def table1_rows(config: SimulatorConfig | None = None) -> list[tuple[str, str]]:
    """Human-readable (component, configuration) rows mirroring Table 1."""
    cfg = config or SimulatorConfig.paper()
    core = cfg.core
    h = cfg.hierarchy

    def cache_row(level: CacheLevelConfig) -> str:
        return (
            f"{level.size_bytes // KB}kB, {level.associativity}-way, "
            f"{level.policy.upper()} replacement, "
            f"{level.prefetcher or 'no'} prefetcher, {level.latency}-cycle latency"
        )

    return [
        (
            "Core",
            f"{core.dispatch_width}-wide dispatch, pseudo-FDIP prefetching, "
            f"{core.backend.rob_entries}-entry ROB, {core.frequency_ghz:g}GHz",
        ),
        (
            "Branch",
            f"{core.branch.btb_entries}-entry BTB, "
            f"{core.branch.indirect_btb_entries}-entry indirect-BTB, "
            f"{core.branch.loop_predictor_entries}-entry loop predictor, "
            f"{core.branch.global_predictor_entries}-entry global predictor, "
            f"{core.branch.mispredict_penalty}-cycle mispredict penalty",
        ),
        ("L1-D", cache_row(h.l1d)),
        ("L1-I", cache_row(h.l1i)),
        ("Unified Shared L2", cache_row(h.l2)),
        ("Unified Shared SLC", cache_row(h.slc)),
        ("DRAM", f"{h.dram_latency}-cycle latency"),
    ]
