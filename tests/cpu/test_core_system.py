"""Integration tests for the interval core + system driver."""

import pytest

from repro.cpu import CpuSystem, SystemConfig
from repro.cpu.cache import CacheConfig
from repro.cpu.core import CoreConfig, IntervalCore, TraceItem
from repro.cpu.hierarchy import HierarchyConfig
from repro.errors import ConfigurationError
from repro.reliability.fingerprint import diff_fingerprints, result_fingerprint


def seq_trace(n, start=1 << 28, instructions=8, stride=64, store_every=0):
    for i in range(n):
        yield TraceItem(
            instructions=instructions,
            address=start + i * stride,
            is_store=store_every > 0 and i % store_every == 0,
        )


def compute_trace(n, instructions=100):
    for __ in range(n):
        yield TraceItem(instructions=instructions)


class TestSingleCore:
    def test_compute_only_runs_at_dispatch_rate(self):
        system = CpuSystem(SystemConfig(cores=1))
        result = system.run([compute_trace(100, instructions=120)])
        rate = system.config.core.instructions_per_cycle
        expected = 100 * 120 / rate
        # idle-padding to the memory drain may add a little.
        assert result.total_cycles >= int(expected)
        stack = result.cycle_stack()
        assert stack["base"] > 0.9

    def test_memory_trace_generates_dram_reads(self):
        system = CpuSystem(SystemConfig(cores=1))
        result = system.run([seq_trace(500)])
        assert result.dram_reads >= 490  # prefetch may add a few

    def test_stores_generate_dram_writes(self):
        # A small LLC so dirty lines actually evict to DRAM.
        from repro.cpu.cache import CacheConfig
        from repro.cpu.hierarchy import HierarchyConfig

        hierarchy = HierarchyConfig(
            l1=CacheConfig(4 * 1024, ways=4, latency=1),
            l2=CacheConfig(16 * 1024, ways=8, latency=5),
            llc=CacheConfig(64 * 1024, ways=8, latency=14),
            llc_slices=4,
        )
        system = CpuSystem(SystemConfig(cores=1, hierarchy=hierarchy))
        result = system.run([seq_trace(3000, store_every=2)])
        # Dirty lines must eventually evict as DRAM writes.
        assert result.dram_writes > 100

    def test_fast_engine_steps_a_generator_trace(self, monkeypatch):
        """A generator trace is made into a list once, so the fast
        engine steps it and matches the reference stepper exactly."""
        reference = CpuSystem(SystemConfig(
            cores=1, core=CoreConfig(engine="reference"),
        )).run([list(seq_trace(600, store_every=3))], guard=False)

        def refuse(self, quantum):
            raise AssertionError("the reference stepper ran")

        monkeypatch.setattr(IntervalCore, "_advance_reference", refuse)
        fast = CpuSystem(SystemConfig(
            cores=1, core=CoreConfig(engine="fast"),
        )).run([seq_trace(600, store_every=3)], guard=False)
        problems = diff_fingerprints(
            result_fingerprint(reference), result_fingerprint(fast)
        )
        assert not problems, "\n".join(problems)

    def test_dependent_chain_serializes(self):
        system_dep = CpuSystem(SystemConfig(cores=1))
        items = [
            TraceItem(instructions=4, address=(1 << 28) + i * 8192,
                      dependency_distance=1)
            for i in range(300)
        ]
        serial = system_dep.run([items])
        system_indep = CpuSystem(SystemConfig(cores=1))
        items2 = [
            TraceItem(instructions=4, address=(1 << 28) + i * 8192)
            for i in range(300)
        ]
        parallel = system_indep.run([items2])
        assert serial.total_cycles > 1.5 * parallel.total_cycles

    def test_mlp_bounded_by_mshrs(self):
        config = SystemConfig(
            cores=1, core=CoreConfig(mshrs=2, dram_inflight_cap=2)
        )
        narrow = CpuSystem(config).run([seq_trace(400)])
        wide = CpuSystem(SystemConfig(cores=1)).run([seq_trace(400)])
        assert narrow.achieved_bandwidth_gbps < wide.achieved_bandwidth_gbps


class TestSystemConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(quantum=float("nan")),
        dict(quantum=float("inf")),
        dict(hierarchy=HierarchyConfig(
            l1=CacheConfig(32 * 1024, ways=8, line_bytes=128)
        )),
        dict(hierarchy=HierarchyConfig(
            llc=CacheConfig(2 * 1024 * 1024, ways=8, line_bytes=128)
        )),
    ], ids=["quantum-nan", "quantum-inf", "l1-line-128", "llc-line-128"])
    def test_breach_raises_at_construction(self, kwargs):
        """A NaN quantum never moves a core (the run never ends), and
        a cache line other than the DRAM's 64 bytes miscounts lines."""
        with pytest.raises(ConfigurationError):
            SystemConfig(**kwargs)


class TestMultiCore:
    def test_more_cores_more_bandwidth(self):
        results = {}
        for cores in (1, 4):
            system = CpuSystem(SystemConfig(cores=cores))
            traces = [
                seq_trace(800, start=(1 << 28) + i * (1 << 24) + i * 8192)
                for i in range(cores)
            ]
            results[cores] = system.run(traces).achieved_bandwidth_gbps
        assert results[4] > 2 * results[1]

    def test_barriers_synchronize(self):
        # Core 0 does much more work before the barrier; core 1 must
        # show idle time.
        long_part = [TraceItem(instructions=12000)]
        short_part = [TraceItem(instructions=12)]
        barrier = [TraceItem(barrier=True)]
        tail = [TraceItem(instructions=1200)]
        system = CpuSystem(SystemConfig(cores=2))
        result = system.run([
            long_part + barrier + tail,
            short_part + barrier + tail,
        ])
        idle = system.cores[1].cycle_stack.stack()["idle"]
        assert idle > 0.5

    def test_trace_count_must_match_cores(self):
        system = CpuSystem(SystemConfig(cores=2))
        with pytest.raises(ConfigurationError):
            system.run([seq_trace(10)])

    def test_shared_llc_hits_across_cores(self):
        # Both cores read the same lines; the second core should hit
        # lines the first brought into the shared LLC.
        system = CpuSystem(SystemConfig(cores=2))
        addresses = [(1 << 28) + i * 64 for i in range(400)]
        trace_a = [TraceItem(instructions=8, address=a) for a in addresses]
        trace_b = [TraceItem(instructions=8000)] + [
            TraceItem(instructions=8, address=a) for a in addresses
        ]
        system.run([trace_a, trace_b])
        stats = system.cores[1].stats
        # Hits in the shared LLC, or joins on core 0's in-flight fills.
        assert stats.llc_hits + stats.dram_pending_hits > 100


class TestResultStacks:
    def make_result(self):
        system = CpuSystem(SystemConfig(cores=2))
        traces = [
            seq_trace(600, start=(1 << 28) + i * (1 << 24)) for i in range(2)
        ]
        return system.run(traces)

    def test_bandwidth_stack_sums_to_peak(self):
        result = self.make_result()
        result.bandwidth_stack().check_total(
            result.spec.peak_bandwidth_gbps
        )

    def test_cycle_stack_sums_to_one(self):
        result = self.make_result()
        assert result.cycle_stack().total == pytest.approx(1.0)

    def test_latency_stack_base_at_least_dram_minimum(self):
        result = self.make_result()
        stack = result.latency_stack()
        minimum = (
            result.spec.tCL + result.spec.burst_cycles
            + result.base_controller_cycles
        ) * result.spec.cycle_ns
        assert stack["base"] == pytest.approx(minimum)

    def test_series_shapes(self):
        result = self.make_result()
        bw_series = result.bandwidth_series(bin_cycles=2000)
        lat_series = result.latency_series(bin_cycles=2000)
        assert len(bw_series) == len(lat_series)

    def test_summary_keys(self):
        summary = self.make_result().summary()
        for key in ("cores", "achieved_gbps", "dram_reads", "page_hit_rate"):
            assert key in summary
