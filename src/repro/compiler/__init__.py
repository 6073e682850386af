"""Synthetic compiler / PGO substrate (Figure 4, steps 1-5)."""

from repro.common.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".ir": ("BasicBlock", "BlockId", "Function", "Program", "make_function"),
        ".profile": ("InstrumentationProfile",),
        ".classify": ("ClassifierConfig", "TemperatureClassifier", "TemperatureMap"),
        ".layout": ("CodeLayoutEngine", "LayoutConfig"),
        ".elf": ("ELFImage", "ELFSection", "ProgramHeader"),
        ".pgo": ("CompiledBinary", "PGOCompiler"),
    },
)
