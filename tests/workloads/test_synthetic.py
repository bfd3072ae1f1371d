"""Tests for the synthetic workloads."""

import pytest

from repro.errors import WorkloadError
from repro.workloads.synthetic import (
    RandomWorkload,
    SequentialWorkload,
    SyntheticConfig,
    make_pattern,
)


class TestConfig:
    def test_rejects_bad_store_fraction(self):
        with pytest.raises(WorkloadError):
            SyntheticConfig(store_fraction=1.5)

    def test_rejects_zero_accesses(self):
        with pytest.raises(WorkloadError):
            SyntheticConfig(accesses_per_core=0)

    @pytest.mark.parametrize("field,value", [
        ("store_fraction", True),
        ("store_fraction", "0.5"),
        ("accesses_per_core", True),
        ("accesses_per_core", 2.5),
        ("instructions_per_access", -1),
        ("instructions_per_access", float("nan")),
        ("footprint_bytes", 0),
        ("line_bytes", 0),
        ("line_bytes", 48),
    ])
    def test_rejects_bad_value_at_construction(self, field, value):
        with pytest.raises(WorkloadError, match=field):
            SyntheticConfig(**{field: value})


class TestSequential:
    def test_addresses_are_consecutive_lines(self):
        wl = SequentialWorkload(SyntheticConfig(accesses_per_core=100))
        items = list(wl.traces(1)[0])
        addresses = [item.address for item in items]
        deltas = {b - a for a, b in zip(addresses, addresses[1:])}
        assert deltas == {64}

    def test_cores_get_disjoint_regions(self):
        wl = SequentialWorkload(SyntheticConfig(accesses_per_core=100))
        traces = [list(t) for t in wl.traces(4)]
        ranges = [
            (t[0].address, t[-1].address) for t in traces
        ]
        for (lo1, hi1), (lo2, hi2) in zip(ranges, ranges[1:]):
            assert hi1 < lo2

    def test_regions_staggered_across_bank_groups(self):
        from repro.dram.address import AddressMapping
        from repro.dram.timing import Organization

        mapping = AddressMapping.default_scheme(Organization())
        wl = SequentialWorkload(SyntheticConfig(accesses_per_core=10))
        starts = [list(t)[0].address for t in wl.traces(4)]
        groups = {mapping.decode(a).bank_group for a in starts}
        assert len(groups) == 4

    def test_store_fraction_realized(self):
        config = SyntheticConfig(accesses_per_core=1000, store_fraction=0.2)
        items = list(SequentialWorkload(config).traces(1)[0])
        stores = sum(1 for item in items if item.is_store)
        assert stores == pytest.approx(200, abs=2)

    def test_stores_evenly_spread(self):
        config = SyntheticConfig(accesses_per_core=100, store_fraction=0.5)
        items = list(SequentialWorkload(config).traces(1)[0])
        flags = [item.is_store for item in items]
        # Alternating pattern, no long runs.
        longest_run = max(
            len(list(run))
            for run in _runs(flags)
        )
        assert longest_run <= 2


def _runs(flags):
    current = [flags[0]]
    for flag in flags[1:]:
        if flag == current[-1]:
            current.append(flag)
        else:
            yield current
            current = [flag]
    yield current


class TestRandom:
    def test_addresses_within_footprint(self):
        config = SyntheticConfig(
            accesses_per_core=500, footprint_bytes=1 << 20
        )
        wl = RandomWorkload(config)
        items = list(wl.traces(1)[0])
        base = wl.base_address
        for item in items:
            assert base <= item.address < base + (1 << 20)

    def test_deterministic_per_seed(self):
        config = SyntheticConfig(accesses_per_core=200, seed=7)
        a = [i.address for i in RandomWorkload(config).traces(1)[0]]
        b = [i.address for i in RandomWorkload(config).traces(1)[0]]
        assert a == b

    def test_cores_differ(self):
        wl = RandomWorkload(SyntheticConfig(accesses_per_core=200))
        t0, t1 = [list(t) for t in wl.traces(2)]
        assert [i.address for i in t0] != [i.address for i in t1]

    def test_dependency_distance_set(self):
        wl = RandomWorkload(
            SyntheticConfig(accesses_per_core=10, dependency=5)
        )
        items = list(wl.traces(1)[0])
        assert all(item.dependency_distance == 5 for item in items)

    def test_default_instruction_count_calibrated(self):
        wl = RandomWorkload()
        items = list(wl.traces(1)[0])[:5]
        assert all(item.instructions == 16 for item in items)


class TestFactory:
    def test_make_pattern(self):
        assert isinstance(make_pattern("sequential"), SequentialWorkload)
        assert isinstance(make_pattern("random"), RandomWorkload)

    def test_unknown_pattern(self):
        with pytest.raises(WorkloadError):
            make_pattern("zigzag")

    def test_names(self):
        assert SequentialWorkload().name == "sequential-w0"
        config = SyntheticConfig(store_fraction=0.5)
        assert SequentialWorkload(config).name == "sequential-w50"


class TestStrided:
    def test_stride_applied(self):
        from repro.workloads.synthetic import StridedWorkload

        wl = StridedWorkload(
            SyntheticConfig(accesses_per_core=50), stride_bytes=256
        )
        items = list(wl.traces(1)[0])
        deltas = {
            b.address - a.address for a, b in zip(items, items[1:])
        }
        assert deltas == {256}

    def test_negative_stride_walks_backwards(self):
        from repro.workloads.synthetic import StridedWorkload

        wl = StridedWorkload(
            SyntheticConfig(accesses_per_core=50), stride_bytes=-128
        )
        items = list(wl.traces(1)[0])
        assert items[1].address < items[0].address

    def test_rejects_partial_line_stride(self):
        from repro.workloads.synthetic import StridedWorkload

        with pytest.raises(WorkloadError):
            StridedWorkload(stride_bytes=100)

    def test_rejects_zero_stride(self):
        from repro.workloads.synthetic import StridedWorkload

        with pytest.raises(WorkloadError):
            StridedWorkload(stride_bytes=0)


class TestPointerChase:
    def test_fully_serialized(self):
        from repro.workloads.synthetic import PointerChaseWorkload

        wl = PointerChaseWorkload(SyntheticConfig(accesses_per_core=20))
        items = list(wl.traces(1)[0])
        assert all(item.dependency_distance == 1 for item in items)

    def test_slower_than_random(self):
        from repro.cpu import CpuSystem, SystemConfig
        from repro.workloads.synthetic import (
            PointerChaseWorkload,
            RandomWorkload,
        )

        config = SyntheticConfig(accesses_per_core=400)
        chase = CpuSystem(SystemConfig(cores=1)).run(
            PointerChaseWorkload(config).traces(1)
        )
        rand = CpuSystem(SystemConfig(cores=1)).run(
            RandomWorkload(config).traces(1)
        )
        assert (
            chase.achieved_bandwidth_gbps < rand.achieved_bandwidth_gbps
        )

    def test_factory_names(self):
        assert make_pattern("strided").name.startswith("strided")
        assert make_pattern("pointer-chase").name == "pointer-chase"


class TestPhased:
    def test_phases_concatenate(self):
        from repro.workloads.synthetic import PhasedWorkload

        wl = PhasedWorkload(
            ("sequential", "random"), phases=4,
            config=SyntheticConfig(accesses_per_core=400),
        )
        trace = wl.traces(1)[0]
        assert len(trace) == 400

    def test_phases_use_distinct_regions(self):
        from repro.workloads.synthetic import PhasedWorkload

        wl = PhasedWorkload(
            ("sequential",), phases=2,
            config=SyntheticConfig(accesses_per_core=200),
        )
        trace = wl.traces(1)[0]
        first = {item.address >> 26 for item in trace[:100]}
        second = {item.address >> 26 for item in trace[100:]}
        assert first.isdisjoint(second)

    def test_detectable_phases_end_to_end(self):
        from repro.analysis.phases import detect_phases
        from repro.cpu import CpuSystem, SystemConfig
        from repro.workloads.synthetic import PhasedWorkload

        wl = PhasedWorkload(
            ("sequential", "random"), phases=2,
            config=SyntheticConfig(accesses_per_core=3000),
        )
        system = CpuSystem(SystemConfig(cores=1))
        result = system.run(wl.traces(1))
        series = result.bandwidth_series(
            max(1000, result.total_cycles // 16)
        )
        phases = detect_phases(series, threshold=0.35, min_bins=2)
        assert len(phases) >= 2

    def test_rejects_empty(self):
        from repro.workloads.synthetic import PhasedWorkload

        with pytest.raises(WorkloadError):
            PhasedWorkload((), phases=2)
        with pytest.raises(WorkloadError):
            PhasedWorkload(phases=0)
