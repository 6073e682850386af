"""The paper's contribution: the TRRIP policy and the co-design pipeline."""

from repro.common.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".trrip": ("TRRIPPolicy",),
        ".pipeline": ("CoDesignPipeline", "PipelineOptions", "PreparedWorkload"),
    },
)
