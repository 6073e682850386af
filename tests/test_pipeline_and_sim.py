"""Integration tests: co-design pipeline, simulator configs, system simulator."""

import dataclasses

import pytest

from repro.common.errors import ConfigurationError
from repro.common.temperature import Temperature
from repro.core.pipeline import CoDesignPipeline, PipelineOptions
from repro.cpu.topdown import TopDownBreakdown
from repro.osmodel.loader import OverlapPolicy
from repro.sim.config import EVALUATED_POLICIES, SimulatorConfig, table1_rows
from repro.sim.results import (
    SimulationResult,
    geomean_reduction,
    geomean_speedup,
    geometric_mean,
)
from repro.sim.simulator import SystemSimulator
from repro.workloads.spec import InputSet


class TestPipeline:
    def test_prepare_produces_tagged_pgo_binary(self, tiny_spec):
        prepared = CoDesignPipeline().prepare(tiny_spec)
        assert prepared.pgo_applied
        assert prepared.binary.temperature_map is not None
        assert prepared.loaded.tagged_pages > 0
        hot_vaddr = prepared.binary.image.section(".text.hot").vaddr
        _, temperature = prepared.mmu().translate_instruction(hot_vaddr)
        assert temperature is Temperature.HOT

    def test_non_pgo_pipeline_has_single_section(self, tiny_spec):
        options = PipelineOptions(apply_pgo=False)
        prepared = CoDesignPipeline(options).prepare(tiny_spec)
        assert not prepared.pgo_applied
        assert [s.name for s in prepared.binary.image.sections] == [".text"]
        assert prepared.loaded.tagged_pages == 0

    def test_temperature_propagation_can_be_disabled(self, tiny_spec):
        options = PipelineOptions(propagate_temperature=False)
        prepared = CoDesignPipeline(options).prepare(tiny_spec)
        assert prepared.pgo_applied
        assert prepared.loaded.tagged_pages == 0

    def test_options_map_to_sub_configs(self):
        options = PipelineOptions(
            percentile_hot=0.8,
            page_size=16384,
            overlap_policy=OverlapPolicy.DISABLE,
            pad_sections_to_page=True,
        )
        assert options.classifier_config().percentile_hot == 0.8
        assert options.layout_config().page_size == 16384
        assert options.loader_config().overlap_policy is OverlapPolicy.DISABLE

    def test_trace_generator_uses_evaluation_input(self, tiny_spec):
        prepared = CoDesignPipeline().prepare(tiny_spec)
        generator = prepared.trace_generator(InputSet.EVALUATION)
        assert len(generator.take(100)) == 100


class TestSimulatorConfig:
    def test_paper_config_matches_table1(self):
        config = SimulatorConfig.paper()
        assert config.hierarchy.l2.size_bytes == 512 * 1024
        assert config.hierarchy.l1i.size_bytes == 64 * 1024
        assert config.hierarchy.l2.associativity == 8
        assert config.core.dispatch_width == 6

    def test_scaled_config_keeps_structure(self):
        config = SimulatorConfig.scaled()
        assert config.hierarchy.l2.associativity == 8
        assert config.hierarchy.slc.size_bytes > config.hierarchy.l2.size_bytes
        config.validate()

    def test_with_l2_policy_returns_modified_copy(self):
        config = SimulatorConfig.scaled()
        trrip = config.with_l2_policy("trrip-1")
        assert trrip.l2_policy == "trrip-1"
        assert config.l2_policy == "srrip"

    def test_with_l2_geometry(self):
        config = SimulatorConfig.scaled().with_l2_geometry(
            size_bytes=64 * 1024, associativity=16
        )
        assert config.hierarchy.l2.size_bytes == 64 * 1024
        assert config.hierarchy.l2.associativity == 16

    def test_invalid_page_size_rejected(self):
        config = dataclasses.replace(SimulatorConfig.scaled(), page_size=0)
        with pytest.raises(ConfigurationError):
            config.validate()

    def test_table1_rows_cover_all_components(self):
        components = [component for component, _ in table1_rows()]
        assert "Core" in components
        assert "Unified Shared L2" in components
        assert "DRAM" in components

    def test_evaluated_policies_match_paper_set(self):
        assert set(EVALUATED_POLICIES) == {
            "lru",
            "brrip",
            "drrip",
            "ship",
            "clip",
            "emissary",
            "trrip-1",
            "trrip-2",
        }


class TestResults:
    def _result(self, cycles: float, inst_mpki: float = 1.0, data_mpki: float = 2.0):
        return SimulationResult(
            benchmark="demo",
            policy="srrip",
            config_name="scaled",
            instructions=1000,
            cycles=cycles,
            ipc=1000 / cycles,
            topdown=TopDownBreakdown(retire=cycles),
            l2_inst_misses=int(inst_mpki),
            l2_data_misses=int(data_mpki),
            l2_inst_mpki=inst_mpki,
            l2_data_mpki=data_mpki,
            l1i_mpki=10.0,
            branch_mpki=1.0,
            dram_accesses=0,
        )

    def test_speedup_is_cycle_ratio_minus_one(self):
        baseline = self._result(cycles=1000)
        faster = self._result(cycles=800)
        assert faster.speedup_over(baseline) == pytest.approx(0.25)

    def test_speedup_requires_same_benchmark(self):
        baseline = self._result(cycles=1000)
        other = dataclasses.replace(self._result(cycles=900), benchmark="other")
        with pytest.raises(ValueError):
            other.speedup_over(baseline)

    def test_mpki_reduction_signs(self):
        baseline = self._result(cycles=1000, inst_mpki=4.0, data_mpki=10.0)
        better = self._result(cycles=900, inst_mpki=3.0, data_mpki=11.0)
        inst, data = better.mpki_reduction_over(baseline)
        assert inst == pytest.approx(25.0)
        assert data == pytest.approx(-10.0)

    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_geomean_speedup(self):
        assert geomean_speedup([0.1, 0.1]) == pytest.approx(0.1)
        assert geomean_speedup([]) == 0.0

    def test_geomean_reduction_handles_negatives(self):
        value = geomean_reduction([50.0, -50.0])
        assert -50.0 < value < 50.0


class TestSystemSimulator:
    def test_end_to_end_run_produces_sane_metrics(self, tiny_spec, scaled_config):
        prepared = CoDesignPipeline().prepare(tiny_spec)
        simulator = SystemSimulator(
            scaled_config, translator=prepared.mmu(), benchmark=tiny_spec.name
        )
        generator = prepared.trace_generator()
        simulator.warm_up(generator.records(tiny_spec.warmup_instructions))
        result = simulator.run(generator.records(tiny_spec.eval_instructions))
        assert result.instructions == tiny_spec.eval_instructions
        assert result.cycles > 0
        assert 0 < result.ipc <= simulator.config.core.dispatch_width
        assert result.l2_inst_mpki >= 0
        assert sum(result.topdown.fractions().values()) == pytest.approx(1.0)

    def test_stats_reset_between_warmup_and_measurement(self, tiny_spec, scaled_config):
        prepared = CoDesignPipeline().prepare(tiny_spec)
        simulator = SystemSimulator(
            scaled_config, translator=prepared.mmu(), benchmark=tiny_spec.name
        )
        generator = prepared.trace_generator()
        simulator.warm_up(generator.records(2000))
        assert simulator.hierarchy.stats.instruction_fetches > 0
        result = simulator.run(generator.records(2000))
        # Measured window only counts its own fetches.
        assert simulator.hierarchy.stats.instruction_fetches <= 2000

    def test_empty_measurement_window_rejected(self, tiny_spec, scaled_config):
        prepared = CoDesignPipeline().prepare(tiny_spec)
        simulator = SystemSimulator(scaled_config, translator=prepared.mmu())
        with pytest.raises(Exception):
            simulator.run(iter(()))

    def test_identical_runs_are_deterministic(self, tiny_spec, scaled_config):
        results = []
        for _ in range(2):
            prepared = CoDesignPipeline().prepare(tiny_spec)
            simulator = SystemSimulator(
                scaled_config, translator=prepared.mmu(), benchmark=tiny_spec.name
            )
            generator = prepared.trace_generator()
            simulator.warm_up(generator.records(tiny_spec.warmup_instructions))
            results.append(
                simulator.run(generator.records(tiny_spec.eval_instructions))
            )
        assert results[0].cycles == results[1].cycles
        assert results[0].l2_inst_misses == results[1].l2_inst_misses

    def test_mmu_fills_leave_temperature_tagged_lines(self):
        """Under the co-design MMU, fills of tagged code pages write the
        page temperature into the caches' per-line metadata."""
        from repro.experiments.runner import BenchmarkRunner
        from repro.workloads.families import WorkloadFamilySpec

        spec = WorkloadFamilySpec.of(
            "phased", instructions=4000, warmup=1000
        ).synthesize()
        runner = BenchmarkRunner(
            config=SimulatorConfig.scaled().with_l2_policy("srrip")
        )
        prepared = runner._prepare_resolved(spec)
        warmup, measured = runner.packed_traces(prepared)
        simulator = SystemSimulator(
            runner.config, translator=prepared.mmu(), benchmark="phased"
        )
        simulator.warm_up(warmup)
        simulator.run(measured)

        hierarchy = simulator.hierarchy
        tagged = [
            temperature
            for cache in (hierarchy.l1i, hierarchy.l1d, hierarchy.l2, hierarchy.slc)
            for temperature in cache._temps
            if temperature.is_tagged
        ]
        assert tagged, "expected temperature-tagged lines under the co-design MMU"
