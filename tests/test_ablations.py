"""Tests for the ablation studies that go beyond the paper's figures."""

import pytest

from repro.api.session import Session
from repro.experiments.ablations import (
    format_page_size_ablation,
    run_kill_switch_ablation,
    run_page_size_ablation,
)
from repro.osmodel.loader import OverlapPolicy
from repro.sim.config import SimulatorConfig
from repro.workloads.spec import WorkloadSpec


@pytest.fixture(scope="module")
def tiny_session_and_spec():
    spec = WorkloadSpec(
        name="tiny-ablation",
        category="proxy",
        description="miniature workload for ablation tests",
        hot_functions=8,
        warm_functions=4,
        cold_functions=8,
        blocks_per_hot_function=4,
        blocks_per_warm_function=3,
        blocks_per_cold_function=3,
        internal_cold_blocks=2,
        data_access_rate=0.25,
        data_stream_kb=8,
        data_reuse_kb=4,
        eval_instructions=6_000,
        warmup_instructions=2_000,
        seed=55,
    )
    return Session(config=SimulatorConfig.scaled()), spec


class TestPageSizeAblation:
    def test_points_cover_all_variants(self, tiny_session_and_spec):
        session, spec = tiny_session_and_spec
        points = run_page_size_ablation(
            benchmark=spec, page_sizes=(4096, 16384), session=session
        )
        assert len(points) == 6
        assert {p.page_size for p in points} == {4096, 16384}
        assert {p.overlap_policy for p in points} == {
            OverlapPolicy.MAJORITY,
            OverlapPolicy.DISABLE,
        }
        assert "page" in format_page_size_ablation(points)

    def test_larger_pages_never_increase_tagged_page_count(self, tiny_session_and_spec):
        session, spec = tiny_session_and_spec
        points = run_page_size_ablation(
            benchmark=spec, page_sizes=(4096, 16384), session=session
        )
        small = [p for p in points if p.page_size == 4096 and not p.padded_sections]
        large = [p for p in points if p.page_size == 16384 and not p.padded_sections]
        assert max(p.tagged_pages for p in large) <= max(p.tagged_pages for p in small)

    def test_padded_sections_remove_mixed_pages(self, tiny_session_and_spec):
        session, spec = tiny_session_and_spec
        points = run_page_size_ablation(
            benchmark=spec, page_sizes=(4096,), session=session
        )
        padded = [p for p in points if p.padded_sections]
        assert all(p.mixed_pages == 0 for p in padded)


class TestKillSwitch:
    def test_disabling_temperature_degrades_to_srrip(self, tiny_session_and_spec):
        session, spec = tiny_session_and_spec
        result = run_kill_switch_ablation(benchmark=spec, session=session)
        assert result.degrades_to_baseline
