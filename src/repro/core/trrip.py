"""TRRIP: Temperature-based Re-Reference Interval Prediction (Algorithm 1).

This is the paper's hardware contribution: a small extension of RRIP insertion
and hit-promotion driven by the code-temperature attribute that arrives with
each instruction memory request (from the MMU / PTE bits).  The eviction
mechanism is untouched RRIP aging.

Behaviour per Algorithm 1 (2-bit RRPVs):

=====================  ==========================  ==========================
event                  TRRIP-1                      TRRIP-2
=====================  ==========================  ==========================
hit, hot line          RRPV = Immediate (0)         RRPV = Immediate (0)
hit, warm/cold line    default (Immediate)          RRPV = max(RRPV - 1, 0)
hit, untagged/data     default (Immediate)          default (Immediate)
miss fill, hot line    insert at Immediate (0)      insert at Immediate (0)
miss fill, warm line   default (Intermediate, 2)    insert at Near (1)
miss fill, cold line   default (Intermediate, 2)    default (Intermediate, 2)
miss fill, untagged    default (Intermediate, 2)    default (Intermediate, 2)
=====================  ==========================  ==========================

The policy only reacts to *instruction* requests carrying a valid temperature;
data lines and untagged instruction lines obey baseline SRRIP, exactly as
Section 3.4 specifies ("TRRIP's replacement policy features only trigger on
instruction memory requests containing valid temperature information").
"""

from __future__ import annotations

from repro.cache.replacement.rrip import RRIPBase
from repro.common.request import MemoryRequest
from repro.common.temperature import Temperature


class TRRIPPolicy(RRIPBase):
    """Temperature-based RRIP replacement (paper's Algorithm 1).

    Parameters
    ----------
    variant:
        ``1`` — only *hot* instruction lines are treated specially (insert and
        promote at Immediate re-reference).
        ``2`` — additionally, *warm* lines are inserted at Near re-reference
        and warm/cold hits are conservatively decremented instead of being
        promoted straight to Immediate.
    """

    name = "trrip"

    def __init__(
        self,
        num_sets: int,
        num_ways: int,
        rrpv_bits: int = 2,
        variant: int = 1,
    ) -> None:
        super().__init__(num_sets, num_ways, rrpv_bits)
        if variant not in (1, 2):
            raise ValueError(f"TRRIP variant must be 1 or 2, got {variant}")
        self.variant = variant
        self.name = f"trrip-{variant}"

    # ------------------------------------------------------------------ hits
    def on_hit(self, set_index: int, way: int, request: MemoryRequest) -> None:
        # Writes the RRPV array directly, as every RRIPBase hook does.
        rrpvs = self._rrpv[set_index]
        temperature = self._effective_temperature(request)
        if temperature is Temperature.HOT:
            # TRRIP variant 1 & 2: hot lines predicted immediate re-reference.
            rrpvs[way] = self.rrpv_immediate
            return
        if self.variant == 2 and temperature in (Temperature.WARM, Temperature.COLD):
            # TRRIP variant 2 only: conservative decrement so hot lines keep
            # exclusive claim to the Immediate position.
            rrpvs[way] = max(rrpvs[way] - 1, self.rrpv_immediate)
            return
        # Default RRIP behaviour (data lines, untagged lines, and warm/cold in
        # variant 1).
        rrpvs[way] = self.rrpv_immediate

    # ------------------------------------------------------------------ fills
    def insertion_rrpv(self, set_index: int, request: MemoryRequest) -> int:
        temperature = self._effective_temperature(request)
        if temperature is Temperature.HOT:
            # TRRIP variant 1 & 2: prevent premature eviction of hot code.
            return self.rrpv_immediate
        if self.variant == 2 and temperature is Temperature.WARM:
            # TRRIP variant 2 only: warm code above data, below hot code.
            return self.rrpv_near
        # Default behaviour (SRRIP insertion).
        return self.rrpv_intermediate

    # ------------------------------------------------------------------ util
    @staticmethod
    def _effective_temperature(request: MemoryRequest) -> Temperature:
        """Temperature the policy is allowed to react to.

        Only instruction requests with valid temperature bits trigger TRRIP
        behaviour; everything else is treated as untagged.
        """
        if request.is_instruction and request.temperature.is_tagged:
            return request.temperature
        return Temperature.NONE
