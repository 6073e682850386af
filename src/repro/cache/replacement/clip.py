"""CLIP: Code Line Preservation [Jaleel et al., HPCA 2015].

CLIP is an RRIP-based policy that gives preferential treatment to instruction
cache lines in a unified cache for frontend-bound applications:

* all instruction lines are inserted at *Immediate* re-reference;
* a set-dueling choice decides whether data lines keep normal RRIP hit
  promotion (variant A) or are prevented from being promoted all the way to
  *Immediate* on a hit (variant B), which protects code lines further.

CLIP needs no software support — it blindly treats every instruction line the
same, which is exactly the behaviour the paper contrasts TRRIP against
(Section 4.7: CLIP is equivalent to TRRIP with ``percentile_hot`` = 100%).
"""

from __future__ import annotations

from repro.cache.replacement.dueling import SetDuelingController
from repro.cache.replacement.rrip import RRIPBase
from repro.common.request import MemoryRequest


class CLIPPolicy(RRIPBase):
    """Code Line Preservation replacement."""

    name = "clip"

    def __init__(
        self,
        num_sets: int,
        num_ways: int,
        rrpv_bits: int = 2,
        leader_sets: int = 32,
        psel_bits: int = 10,
    ) -> None:
        super().__init__(num_sets, num_ways, rrpv_bits)
        self.dueling = SetDuelingController(
            num_sets, leader_sets_per_policy=leader_sets, psel_bits=psel_bits
        )

    def insertion_rrpv(self, set_index: int, request: MemoryRequest) -> int:
        if request.is_instruction:
            return self.rrpv_immediate
        return self.rrpv_intermediate

    def on_hit(self, set_index: int, way: int, request: MemoryRequest) -> None:
        rrpvs = self._rrpv[set_index]
        if request.is_instruction:
            rrpvs[way] = self.rrpv_immediate
            return
        if self.dueling.use_policy_a(set_index):
            # Variant A: default RRIP promotion for data lines.
            rrpvs[way] = self.rrpv_immediate
        else:
            # Variant B: data lines step towards Near (never past it, and a
            # line already at Immediate is left alone), preserving code lines.
            current = rrpvs[way]
            rrpvs[way] = min(current, max(current - 1, self.rrpv_near))

    def on_insert(self, set_index: int, way: int, request: MemoryRequest) -> None:
        if not request.is_prefetch:
            self.dueling.record_miss(set_index)
        super().on_insert(set_index, way, request)

    def reset(self) -> None:
        super().reset()
        self.dueling.reset()
