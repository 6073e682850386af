"""Cache level and hierarchy configurations (Table 1 shape).

Plain value types, kept apart from the cache model in
:mod:`repro.cache.hierarchy` so that building, hashing or validating a
:class:`~repro.sim.config.SimulatorConfig` does not import the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.addressing import CACHE_LINE_SIZE
from repro.common.errors import ConfigurationError


@dataclass
class CacheLevelConfig:
    """Configuration of one cache level."""

    size_bytes: int
    associativity: int
    latency: int
    policy: str = "lru"
    policy_kwargs: dict = field(default_factory=dict)
    prefetcher: str = "none"
    prefetcher_kwargs: dict = field(default_factory=dict)

    def validate(self, name: str) -> None:
        if self.size_bytes <= 0:
            raise ConfigurationError(f"{name}: size must be positive")
        if self.associativity <= 0:
            raise ConfigurationError(f"{name}: associativity must be positive")
        if self.latency < 0:
            raise ConfigurationError(f"{name}: latency must be non-negative")


@dataclass
class HierarchyConfig:
    """Configuration of the whole cache hierarchy (Table 1 shape)."""

    l1i: CacheLevelConfig
    l1d: CacheLevelConfig
    l2: CacheLevelConfig
    slc: CacheLevelConfig
    dram_latency: int = 400
    line_size: int = CACHE_LINE_SIZE
    l2_inclusive: bool = True
    slc_exclusive: bool = True

    def validate(self) -> None:
        for name in ("l1i", "l1d", "l2", "slc"):
            getattr(self, name).validate(name)
        if self.dram_latency < 0:
            raise ConfigurationError("dram_latency must be non-negative")
        if self.line_size <= 0:
            raise ConfigurationError("line_size must be positive")
