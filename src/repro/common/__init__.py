"""Shared value types used across every TRRIP subsystem.

The common package intentionally has no dependencies on the rest of the
library so that the cache, CPU, compiler, OS and workload substrates can all
exchange :class:`~repro.common.request.MemoryRequest` objects and
:class:`~repro.common.temperature.Temperature` values without import cycles.
"""

from repro.common.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".temperature": ("Temperature",),
        ".request": ("AccessType", "HitLevel", "MemoryRequest", "AccessResult"),
        ".addressing": (
            "CACHE_LINE_SIZE",
            "line_address",
            "line_index",
            "line_offset",
            "page_number",
            "page_offset",
            "align_down",
            "align_up",
        ),
        ".errors": (
            "ReproError",
            "ConfigurationError",
            "SimulationError",
            "WorkloadError",
        ),
    },
)
