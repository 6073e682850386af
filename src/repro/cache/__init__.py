"""Cache hierarchy substrate: caches, prefetchers and replacement policies."""

from repro.common.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".block": ("CacheBlock",),
        ".cache": ("SetAssociativeCache",),
        ".hierarchy": ("CacheHierarchy",),
        ".config": ("CacheLevelConfig", "HierarchyConfig"),
        ".stats": ("CacheStats", "HierarchyStats"),
        ".prefetch": (
            "Prefetcher",
            "NullPrefetcher",
            "NextLinePrefetcher",
            "StridePrefetcher",
            "make_prefetcher",
        ),
    },
)
