"""Core, frontend, backend and branch-predictor configurations.

Plain value types, kept apart from the CPU model modules so that building,
hashing or validating a :class:`~repro.sim.config.SimulatorConfig` does not
import the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class FrontendConfig:
    """Fetch engine configuration."""

    #: Whether the decoupled pseudo-FDIP frontend is enabled at all.
    fdip_enabled: bool = True
    #: Cycles of fetch latency the decoupled frontend hides by running ahead
    #: of decode along the predicted path.
    fdip_lead_cycles: float = 8.0
    #: Latency (cycles) the fetch/decode buffer can absorb without starving
    #: decode; anything above this (plus the FDIP lead) is an ifetch stall.
    fetch_buffer_slack: int = 3
    #: Maximum number of distinct starved lines remembered for Emissary hints.
    starvation_table_entries: int = 4096

    def validate(self) -> None:
        if self.fdip_lead_cycles < 0:
            raise ValueError("fdip_lead_cycles must be non-negative")
        if self.fetch_buffer_slack < 0:
            raise ValueError("fetch_buffer_slack must be non-negative")
        if self.starvation_table_entries <= 0:
            raise ValueError("starvation_table_entries must be positive")


@dataclass
class BackendConfig:
    """Backend (OoO execution) model parameters."""

    rob_entries: int = 128
    #: Latency (cycles) fully hidden by out-of-order execution / MLP.
    hide_latency: int = 24
    #: Fraction of the *exposed* data-access latency that still overlaps with
    #: useful work (memory-level parallelism).  0.0 = fully exposed.
    overlap_fraction: float = 0.85

    def validate(self) -> None:
        if self.rob_entries <= 0:
            raise ValueError("rob_entries must be positive")
        if self.hide_latency < 0:
            raise ValueError("hide_latency must be non-negative")
        if not 0.0 <= self.overlap_fraction < 1.0:
            raise ValueError("overlap_fraction must be in [0, 1)")


@dataclass
class BranchPredictorConfig:
    """Sizing of the branch prediction structures (Table 1 defaults)."""

    btb_entries: int = 1024
    indirect_btb_entries: int = 512
    loop_predictor_entries: int = 256
    global_predictor_entries: int = 1024
    history_bits: int = 10
    return_stack_entries: int = 16
    mispredict_penalty: int = 8

    def validate(self) -> None:
        for name in (
            "btb_entries",
            "indirect_btb_entries",
            "loop_predictor_entries",
            "global_predictor_entries",
            "return_stack_entries",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.history_bits <= 0 or self.history_bits > 24:
            raise ValueError("history_bits must be in (0, 24]")
        if self.mispredict_penalty < 0:
            raise ValueError("mispredict_penalty must be non-negative")


@dataclass
class CoreConfig:
    """Core-level parameters (Table 1: 6-wide dispatch, 128-entry ROB, 2 GHz)."""

    dispatch_width: int = 6
    frequency_ghz: float = 2.0
    frontend: FrontendConfig = field(default_factory=FrontendConfig)
    backend: BackendConfig = field(default_factory=BackendConfig)
    branch: BranchPredictorConfig = field(default_factory=BranchPredictorConfig)

    def validate(self) -> None:
        if self.dispatch_width <= 0:
            raise ValueError("dispatch_width must be positive")
        if self.frequency_ghz <= 0:
            raise ValueError("frequency_ghz must be positive")
        self.frontend.validate()
        self.backend.validate()
        self.branch.validate()
