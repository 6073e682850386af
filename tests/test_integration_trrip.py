"""End-to-end integration tests exercising the headline claims of the paper.

These tests run the full co-design pipeline (compiler -> OS -> MMU -> caches)
on a purpose-built workload whose hot working set slightly exceeds what SRRIP
can retain, and check the *direction* of the paper's results: TRRIP reduces L2
instruction misses and execution cycles relative to SRRIP, and the temperature
information actually flows through the PTE/MMU interface rather than being
read from the compiler directly.
"""

import pytest

from repro.api.session import Session
from repro.core.pipeline import CoDesignPipeline, PipelineOptions
from repro.sim.config import SimulatorConfig
from repro.workloads.spec import WorkloadSpec


@pytest.fixture(scope="module")
def marginal_spec() -> WorkloadSpec:
    """A workload tuned so hot code marginally overflows the scaled L2."""
    return WorkloadSpec(
        name="marginal",
        category="proxy",
        description="integration workload with marginal hot working set",
        hot_functions=28,
        warm_functions=12,
        cold_functions=32,
        blocks_per_hot_function=10,
        internal_cold_blocks=6,
        data_access_rate=0.24,
        data_stream_kb=48,
        data_reuse_kb=8,
        data_stream_fraction=0.30,
        eval_instructions=60_000,
        warmup_instructions=20_000,
        seed=77,
    )


@pytest.fixture(scope="module")
def sweep(marginal_spec):
    session = Session(config=SimulatorConfig.scaled())
    return session.sweep(
        [marginal_spec], ["trrip-1", "trrip-2", "clip", "lru"]
    ).results[marginal_spec.name]


class TestHeadlineClaims:
    def test_trrip_reduces_instruction_misses_vs_srrip(self, sweep):
        baseline = sweep["srrip"]
        trrip = sweep["trrip-1"]
        assert trrip.l2_inst_misses < baseline.l2_inst_misses

    def test_trrip_improves_performance_vs_srrip(self, sweep):
        assert sweep["trrip-1"].speedup_over(sweep["srrip"]) > 0

    def test_trrip2_also_reduces_instruction_misses(self, sweep):
        assert sweep["trrip-2"].l2_inst_misses <= sweep["srrip"].l2_inst_misses

    def test_data_mpki_cost_is_bounded(self, sweep):
        """The instruction-for-data trade must stay small (paper: a few %)."""
        baseline = sweep["srrip"]
        trrip = sweep["trrip-1"]
        _, data_reduction = trrip.mpki_reduction_over(baseline)
        assert data_reduction > -30.0

    def test_selective_trrip_beats_blind_clip_on_instructions(self, sweep):
        """Section 4.7: prioritising selectively (TRRIP) beats prioritising
        every instruction line (CLIP) — allow a small tolerance."""
        trrip_inst = sweep["trrip-1"].l2_inst_misses
        clip_inst = sweep["clip"].l2_inst_misses
        assert trrip_inst <= clip_inst * 1.10

    def test_srrip_baseline_outperforms_lru(self, sweep):
        """Section 4.4: RRIP-based baselines beat LRU on these workloads."""
        assert sweep["lru"].cycles >= sweep["srrip"].cycles


class TestInterfaceFlow:
    def test_temperature_must_flow_through_the_pte_interface(self, marginal_spec):
        """If the loader drops the PTE bits, TRRIP degrades to SRRIP exactly."""
        session = Session(config=SimulatorConfig.scaled())
        untagged_options = PipelineOptions(propagate_temperature=False)
        srrip = session.run_one(
            marginal_spec, "srrip", options=untagged_options
        ).result
        trrip_untagged = session.run_one(
            marginal_spec, "trrip-1", options=untagged_options
        ).result
        assert trrip_untagged.l2_inst_misses == srrip.l2_inst_misses
        assert trrip_untagged.cycles == pytest.approx(srrip.cycles)

    def test_pgo_layout_reduces_frontend_stalls(self, marginal_spec):
        """Figure 2: PGO improves the retire fraction of the same workload."""
        session = Session(config=SimulatorConfig.scaled())
        no_pgo = session.run_one(
            marginal_spec, "srrip", options=PipelineOptions(apply_pgo=False)
        ).result
        pgo = session.run_one(
            marginal_spec, "srrip", options=PipelineOptions(apply_pgo=True)
        ).result
        assert pgo.topdown.fraction("retire") > no_pgo.topdown.fraction("retire")
        assert pgo.cycles < no_pgo.cycles

    def test_hot_pages_exist_after_loading(self, marginal_spec):
        prepared = CoDesignPipeline().prepare(marginal_spec)
        assert prepared.loaded.pages_by_temperature
        from repro.common.temperature import Temperature

        assert prepared.loaded.pages_by_temperature[Temperature.HOT] >= 2
