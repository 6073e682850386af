"""Operating-system substrate: pages, page tables, loader and MMU."""

from repro.common.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".loader": ("ProgramLoader", "LoaderConfig", "LoadedProgram"),
        ".mmu": ("MMU", "MMUStats"),
        ".page_table": ("PageTable",),
        ".pages": (
            "OverlapPolicy",
            "PageTableEntry",
            "count_pages_by_temperature",
            "pages_spanned",
            "PAGE_SIZE_4K",
            "PAGE_SIZE_16K",
            "PAGE_SIZE_2M",
            "SUPPORTED_PAGE_SIZES",
        ),
    },
)
