"""Unit tests for the set-associative cache and shared LLC."""

import pytest

from repro.cpu.cache import CacheConfig, SetAssociativeCache, SharedCache
from repro.errors import ConfigurationError


def small_cache(ways=2, sets=4):
    config = CacheConfig(
        size_bytes=ways * sets * 64, ways=ways, line_bytes=64, latency=1
    )
    return SetAssociativeCache(config)


class TestConfig:
    def test_num_sets(self):
        assert CacheConfig(32 * 1024, ways=8).num_sets == 64

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(3 * 64 * 2, ways=2)

    def test_rejects_too_small(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(64, ways=8)

    @pytest.mark.parametrize("kwargs", [
        dict(size_bytes=4096, ways=0),
        dict(size_bytes=4096, ways=2, line_bytes=0),
        dict(size_bytes=4096, ways=2.5),
        dict(size_bytes=384, ways=2, line_bytes=48),  # 4 sets
        dict(size_bytes=4096, latency=-20),
    ], ids=["ways-0", "line-0", "ways-float", "line-48", "latency-neg"])
    def test_breach_raises_at_construction(self, kwargs):
        with pytest.raises(ConfigurationError):
            CacheConfig(**kwargs)


class TestLookupInsert:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert not cache.lookup(5)
        cache.insert(5)
        assert cache.lookup(5)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_set_mapping_by_line_number(self):
        cache = small_cache(ways=1, sets=4)
        # Lines 0 and 4 share a set (4 sets); 0 and 1 do not.
        cache.insert(0)
        cache.insert(1)
        assert cache.contains(0) and cache.contains(1)
        cache.insert(4)  # evicts 0
        assert not cache.contains(0)
        assert cache.contains(1)

    def test_lru_eviction_order(self):
        cache = small_cache(ways=2, sets=1)
        cache.insert(10)
        cache.insert(20)
        cache.lookup(10)  # 20 is now LRU
        evicted = cache.insert(30)
        assert evicted == (20, False)

    def test_dirty_eviction_reported(self):
        cache = small_cache(ways=1, sets=1)
        cache.insert(1, dirty=True)
        evicted = cache.insert(2)
        assert evicted == (1, True)
        assert cache.stats.dirty_evictions == 1

    def test_write_hit_dirties(self):
        cache = small_cache()
        cache.insert(7, dirty=False)
        cache.lookup(7, is_write=True)
        assert cache.invalidate(7) is True  # was dirty

    def test_insert_existing_keeps_dirty(self):
        cache = small_cache()
        cache.insert(7, dirty=True)
        assert cache.insert(7, dirty=False) is None
        assert cache.invalidate(7) is True

    def test_occupancy(self):
        cache = small_cache()
        for line in range(5):
            cache.insert(line)
        assert cache.occupancy() == 5


class TestSharedCache:
    def test_slicing_distributes_lines(self):
        llc = SharedCache(CacheConfig(64 * 1024, ways=8), slices=8)
        for line in range(64):
            llc.insert(line)
        per_slice = [s.occupancy() for s in llc._slices]
        assert all(count == 8 for count in per_slice)

    def test_stats_aggregate(self):
        llc = SharedCache(CacheConfig(64 * 1024, ways=8), slices=8)
        llc.lookup(0)
        llc.insert(0)
        llc.lookup(0)
        stats = llc.stats
        assert stats.hits == 1
        assert stats.misses == 1

    def test_rejects_indivisible_size(self):
        with pytest.raises(ConfigurationError):
            SharedCache(CacheConfig(65 * 1024, ways=8), slices=8)

    def test_paper_llc_geometry(self):
        # 11 MB / 8 slices / 11 ways gives power-of-two sets per slice.
        llc = SharedCache(
            CacheConfig(11 * 1024 * 1024, ways=11, latency=14), slices=8
        )
        assert llc._slices[0].config.num_sets == 2048
