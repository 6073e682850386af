"""Simulation driver: configurations, the system simulator and results."""

from repro.common.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".results": (
            "MulticoreResult",
            "SimulationResult",
            "geometric_mean",
            "geomean_speedup",
            "geomean_reduction",
        ),
        ".multicore": ("MulticoreSimulator",),
        ".config": (
            "SimulatorConfig",
            "table1_rows",
            "EVALUATED_POLICIES",
            "BASELINE_POLICY",
        ),
        ".simulator": ("SystemSimulator",),
    },
)
