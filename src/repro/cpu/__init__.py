"""CPU core substrate: branch prediction, frontend, backend, Top-Down."""

from repro.common.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".config": (
            "BranchPredictorConfig",
            "FrontendConfig",
            "BackendConfig",
            "CoreConfig",
        ),
        ".branch": ("BranchPredictionUnit", "BranchStats", "PredictionOutcome"),
        ".frontend": ("FetchEngine", "FrontendStats"),
        ".backend": ("BackendModel", "BackendStats"),
        ".core": ("CoreModel", "CoreResult"),
        ".topdown": ("TopDownBreakdown",),
    },
)
