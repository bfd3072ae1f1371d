"""Unit tests for the stream prefetcher."""

import pytest

from repro.cpu.prefetcher import PrefetcherConfig, StreamPrefetcher
from repro.errors import ConfigurationError


def run_stream(pf, lines):
    out = []
    for line in lines:
        out.extend(pf.observe(line))
    return out


class TestDetection:
    def test_no_prefetch_before_confirmation(self):
        pf = StreamPrefetcher()
        assert pf.observe(100) == []
        assert pf.observe(101) == []  # stride learned, not yet confirmed

    def test_confirmed_ascending_stream(self):
        pf = StreamPrefetcher(PrefetcherConfig(degree=2, distance=8))
        run_stream(pf, [100, 101])
        issued = pf.observe(102)
        assert issued and all(line > 102 for line in issued)

    def test_descending_stream(self):
        pf = StreamPrefetcher(PrefetcherConfig(degree=2, distance=8))
        run_stream(pf, [200, 199])
        issued = pf.observe(198)
        assert issued and all(line < 198 for line in issued)

    def test_random_pattern_never_prefetches(self):
        pf = StreamPrefetcher()
        lines = [5, 900, 13, 7777, 42, 123456, 9, 55555]
        assert run_stream(pf, lines) == []

    def test_prefetches_stay_within_distance(self):
        config = PrefetcherConfig(degree=4, distance=6)
        pf = StreamPrefetcher(config)
        issued = run_stream(pf, range(100, 120))
        for trigger, line in zip(range(100, 120), issued):
            pass  # order is complex; just bound the run-ahead overall:
        demand_max = 119
        assert max(issued) <= demand_max + config.distance

    def test_no_duplicate_prefetches_in_steady_state(self):
        pf = StreamPrefetcher(PrefetcherConfig(degree=2, distance=8))
        issued = run_stream(pf, range(100, 200))
        assert len(issued) == len(set(issued))

    def test_disabled(self):
        pf = StreamPrefetcher(PrefetcherConfig(enabled=False))
        assert run_stream(pf, range(100, 120)) == []


class TestStreamTable:
    def test_multiple_interleaved_streams(self):
        pf = StreamPrefetcher(PrefetcherConfig(degree=2, distance=8))
        a = list(range(1000, 1020))
        b = list(range(500000, 500020))
        interleaved = [line for pair in zip(a, b) for line in pair]
        issued = run_stream(pf, interleaved)
        near_a = [line for line in issued if line < 10000]
        near_b = [line for line in issued if line >= 10000]
        assert near_a and near_b

    def test_lru_stream_replacement(self):
        pf = StreamPrefetcher(
            PrefetcherConfig(streams=2, degree=1, distance=4)
        )
        pf.observe(100)
        pf.observe(10_000)
        pf.observe(20_000_000)  # evicts stream at 100
        assert len(pf._streams) == 2

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            PrefetcherConfig(degree=0)
        with pytest.raises(ConfigurationError):
            PrefetcherConfig(degree=8, distance=4)

    @pytest.mark.parametrize("field,value", [
        ("streams", True),
        ("degree", 1.5),
        ("enabled", "no"),
    ])
    def test_breach_raises_at_construction(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            PrefetcherConfig(**{field: value})
