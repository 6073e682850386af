"""Cache replacement policies evaluated by the paper (plus baselines)."""

from repro.common.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".base": ("ReplacementPolicy",),
        ".basic": ("LRUPolicy", "FIFOPolicy", "RandomPolicy"),
        ".rrip": ("RRIPBase", "SRRIPPolicy", "BRRIPPolicy"),
        ".drrip": ("DRRIPPolicy",),
        ".ship": ("SHiPPolicy",),
        ".clip": ("CLIPPolicy",),
        ".emissary": ("EmissaryPolicy",),
        ".belady": ("OptimalPolicy",),
        ".dueling": ("SetDuelingController", "SaturatingCounter", "Constituency"),
        ".factory": ("available_policies", "create_policy"),
    },
)
