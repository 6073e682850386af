"""Analysis utilities: reuse distance, miss coverage, power/area modelling."""

from repro.common.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".reuse": (
            "ReuseDistanceTracker",
            "ReuseHistogram",
            "REUSE_BUCKETS",
            "bucket_for_distance",
        ),
        ".coverage": ("CoverageResult", "costly_miss_coverage", "DEFAULT_PERCENTILES"),
        ".power": ("PowerAreaModel", "PowerAreaReport", "MechanismOverhead"),
    },
)
