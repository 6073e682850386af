"""What every registered replacement policy does, pinned.

The equivalence suites compare two engines (flat vs reference cache, lane
vs record loop) that drive the *same* policy classes, so a change of
behaviour inside a hook passes all of them.  These pins do not: each
registered policy's L2 misses and cycles on one small workload are exact
values, and so is the inline form the cache binds each policy as, so a
later edit cannot silently take LRU or SRRIP off the inline path.
"""

from __future__ import annotations

import pytest

from repro.api.scenario import Scenario
from repro.api.session import Session
from repro.cache.cache import SetAssociativeCache
from repro.cache.replacement.spec import PolicySpec
from repro.sim.config import SimulatorConfig
from repro.testing import equivalence_policy_names

#: A phased family workload with six hot phases against an L2 halved to
#: 16 KB: small enough to run every policy in about a second, under enough
#: L2 pressure that every policy's result differs, and with hot and warm
#: instruction lines hitting the L2, so TRRIP's and CLIP's hit cases,
#: Emissary's recency and SHiP's training all move a pinned value.
WORKLOAD = "phased:instructions=20000,warmup=5000,phases=6"
L2_BYTES = 16 * 1024
L2_WAYS = 8

#: ``policy: (l2_inst_misses, l2_data_misses, cycles)``.
RESULTS = {
    "brrip": (295, 363, 75183.90833333251),
    "clip": (281, 423, 75003.63333333249),
    "drrip": (313, 253, 75454.5333333325),
    "emissary": (351, 314, 76814.50833333249),
    "fifo": (387, 516, 78451.45833333247),
    "lru": (356, 301, 76910.28333333248),
    "opt": (334, 626, 77145.08333333247),
    "partition": (329, 497, 76618.28333333248),
    "random": (368, 528, 77912.40833333247),
    "ship": (351, 216, 76514.03333333251),
    "srrip": (310, 222, 75289.35833333251),
    "trrip-1": (295, 318, 75113.5333333325),
    "trrip-2": (289, 325, 74942.1333333325),
}

#: ``policy: (hit kind, replace kind, evict form)``: hit kind 0 calls
#: ``on_hit``, 1 writes a constant, 2 stamps a clock, 3 does nothing;
#: replace kind 0 calls the hooks, 1 is the LRU restamp, 2 static RRIP aging.
INLINE_FORMS = {
    "brrip": (1, 0, True),
    "clip": (0, 0, True),
    "drrip": (1, 0, True),
    "emissary": (0, 0, False),
    "fifo": (3, 1, False),
    "lru": (2, 1, True),
    "opt": (0, 0, False),
    "partition": (0, 0, False),
    "random": (0, 0, False),
    "ship": (0, 0, False),
    "srrip": (1, 2, True),
    "trrip-1": (0, 0, True),
    "trrip-2": (0, 0, True),
}


def test_every_registered_policy_is_pinned():
    assert set(RESULTS) == set(INLINE_FORMS) == set(equivalence_policy_names())


def test_results_are_pinned():
    config = SimulatorConfig.scaled().with_l2_geometry(size_bytes=L2_BYTES)
    runs = Session(config=config).run(
        Scenario(benchmarks=(WORKLOAD,), policies=tuple(RESULTS))
    )
    assert {
        run.result.policy: (
            run.result.l2_inst_misses,
            run.result.l2_data_misses,
            run.result.cycles,
        )
        for run in runs
    } == RESULTS


@pytest.mark.parametrize("name", sorted(INLINE_FORMS))
def test_inline_form_is_pinned(name):
    sets = L2_BYTES // (L2_WAYS * 64)
    cache = SetAssociativeCache(
        "L2", L2_BYTES, L2_WAYS, PolicySpec.of(name).build(sets, L2_WAYS)
    )
    form = (cache._touch_kind, cache._replace_kind, cache._evict_rows is not None)
    assert form == INLINE_FORMS[name]
