"""Tests for the cache hierarchy: fill paths, dirty cascades and
write-allocate."""

import pytest

from repro.cpu.cache import CacheConfig
from repro.cpu.hierarchy import CacheHierarchy, HierarchyConfig
from repro.cpu.prefetcher import PrefetcherConfig
from repro.errors import ConfigurationError


def tiny_hierarchy(prefetch=False):
    config = HierarchyConfig(
        l1=CacheConfig(4 * 64, ways=2, latency=1),
        l2=CacheConfig(16 * 64, ways=2, latency=5),
        llc=CacheConfig(64 * 64, ways=2, latency=14),
        llc_slices=2,
        prefetcher=PrefetcherConfig(enabled=prefetch),
    )
    return CacheHierarchy(config, config.make_llc()), config


class TestConfig:
    # The paper's 11 MB LLC: 3 slices do not divide it, and an eleventh
    # of it has 1,489 sets, not a power of two.
    @pytest.mark.parametrize("slices", [0, -1, True, 2.0, "8", 3, 11])
    def test_breach_raises_at_construction(self, slices):
        with pytest.raises(ConfigurationError, match="llc_slices"):
            HierarchyConfig(llc_slices=slices)


class TestLevels:
    def test_first_access_goes_to_memory(self):
        h, __ = tiny_hierarchy()
        result = h.access(1000, is_write=False)
        assert result.level == "mem"
        assert result.latency == 1 + 5 + 14

    def test_second_access_hits_l1(self):
        h, __ = tiny_hierarchy()
        h.access(1000, is_write=False)
        result = h.access(1000, is_write=False)
        assert result.level == "l1"
        assert result.latency == 1

    def test_l1_eviction_leaves_l2_hit(self):
        h, config = tiny_hierarchy()
        # Fill one L1 set beyond its ways with same-set lines; L1 has
        # 2 sets here, so lines 0, 2, 4 share set 0.
        h.access(0, False)
        h.access(2, False)
        h.access(4, False)  # evicts 0 from L1
        result = h.access(0, False)
        assert result.level == "l2"

    def test_llc_hit_after_l2_eviction(self):
        h, __ = tiny_hierarchy()
        # L2: 8 sets x 2 ways; lines k*8 share L2 set 0.
        for k in range(3):
            h.access(k * 8, False)
        # Line 0 evicted from L2 (clean), still in LLC.
        result = h.access(0, False)
        assert result.level in ("l2", "llc")

    def test_line_of(self):
        h, __ = tiny_hierarchy()
        assert h.line_of(0) == 0
        assert h.line_of(64) == 1
        assert h.line_of(130) == 2


class TestWritePath:
    def test_store_miss_is_write_allocate(self):
        h, __ = tiny_hierarchy()
        result = h.access(42, is_write=True)
        assert result.level == "mem"  # reads the line first
        assert h.l1.invalidate(42) is True  # and it is dirty in L1

    def test_dirty_line_cascades_to_dram_writeback(self):
        h, __ = tiny_hierarchy()
        # Dirty a line, then stream enough lines through the same sets
        # to push it out of every level.
        h.access(0, is_write=True)
        writebacks = []
        for k in range(1, 200):
            result = h.access(k * 2, False)  # all even lines, set 0 paths
            writebacks.extend(result.writebacks)
        assert 0 in writebacks

    def test_clean_lines_never_write_back(self):
        h, __ = tiny_hierarchy()
        writebacks = []
        for k in range(200):
            result = h.access(k, False)
            writebacks.extend(result.writebacks)
        assert writebacks == []


class TestPrefetchPath:
    def test_prefetch_candidates_on_stream(self):
        h, __ = tiny_hierarchy(prefetch=True)
        lines = []
        for line in range(1000, 1020):
            result = h.access(line, False)
            lines.extend(result.prefetch_lines)
        assert lines, "stream should trigger prefetch candidates"
        assert all(line > 1000 for line in lines)

    def test_fill_prefetched_makes_llc_hit(self):
        h, __ = tiny_hierarchy(prefetch=True)
        h.fill_prefetched(5000)
        result = h.access(5000, False)
        assert result.level == "llc"

    def test_candidates_not_in_llc_state(self):
        h, __ = tiny_hierarchy(prefetch=True)
        candidates = []
        for line in range(1000, 1010):
            candidates.extend(h.access(line, False).prefetch_lines)
        # Dropped candidates must not appear cached.
        for line in candidates:
            if line >= 1010:
                assert not h.llc.contains(line)
