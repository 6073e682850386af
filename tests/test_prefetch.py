"""Unit tests for the hardware prefetcher models."""

import pytest

from repro.cache.prefetch import (
    NextLinePrefetcher,
    NullPrefetcher,
    StridePrefetcher,
    make_prefetcher,
)


class TestNullPrefetcher:
    def test_never_prefetches(self):
        prefetcher = NullPrefetcher()
        assert not prefetcher.observe(0x1000, 0x400)


class TestNextLinePrefetcher:
    def test_prefetches_following_lines(self):
        prefetcher = NextLinePrefetcher(degree=2)
        targets = prefetcher.observe(0x1010, 0x400)
        assert targets == [0x1040, 0x1080]

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            NextLinePrefetcher(degree=0)


class TestStridePrefetcher:
    def test_detects_constant_stride(self):
        prefetcher = StridePrefetcher(degree=2, threshold=2)
        pc = 0x400
        targets = []
        for i in range(6):
            targets = prefetcher.observe(0x1000 + i * 256, pc)
        assert targets  # confident by now
        assert targets[0] == 0x1000 + 5 * 256 + 256 - (0x1000 + 5 * 256 + 256) % 64

    def test_no_prefetch_without_confidence(self):
        prefetcher = StridePrefetcher(degree=1, threshold=3)
        pc = 0x400
        assert not prefetcher.observe(0x1000, pc)
        assert not prefetcher.observe(0x1100, pc)

    def test_irregular_strides_reset_confidence(self):
        prefetcher = StridePrefetcher(degree=1, threshold=2)
        pc = 0x400
        addresses = [0x1000, 0x1100, 0x1200, 0x5000, 0x1400]
        results = [prefetcher.observe(a, pc) for a in addresses]
        assert not results[-1]

    def test_table_capacity_is_bounded(self):
        prefetcher = StridePrefetcher(table_entries=4)
        for pc in range(16):
            prefetcher.observe(0x1000 + pc * 8, pc)
        assert len(prefetcher._table) <= 4

    def test_reset_clears_table(self):
        prefetcher = StridePrefetcher()
        prefetcher.observe(0x1000, 0x4)
        prefetcher.reset()
        assert len(prefetcher._table) == 0


class TestFactory:
    def test_factory_builds_each_kind(self):
        assert isinstance(make_prefetcher("none"), NullPrefetcher)
        assert isinstance(make_prefetcher("nextline"), NextLinePrefetcher)
        assert isinstance(make_prefetcher("stride"), StridePrefetcher)

    def test_factory_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_prefetcher("oracle")
