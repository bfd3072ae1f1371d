"""Tests for the multi-channel MemorySystem."""

import pytest

from repro.dram import (
    MemorySystem,
    MemorySystemConfig,
    Request,
    RequestType,
)
from repro.dram.timing import DDR4_2400
from repro.errors import ConfigurationError


def system(channels=2):
    return MemorySystem(MemorySystemConfig(channels=channels))


def enqueue_stream(mem, count, gap=4, stride=64):
    for i in range(count):
        mem.enqueue(Request(RequestType.READ, i * stride, arrival=i * gap))


class TestRouting:
    def test_line_interleaved_channels(self):
        mem = system(2)
        assert mem.channel_of(0) == 0
        assert mem.channel_of(64) == 1
        assert mem.channel_of(128) == 0

    def test_requests_split_across_channels(self):
        mem = system(2)
        enqueue_stream(mem, 100)
        mem.drain()
        for mc in mem.controllers:
            assert mc.stats.reads_completed == 50

    def test_single_channel_gets_everything(self):
        mem = system(1)
        enqueue_stream(mem, 40)
        mem.drain()
        assert mem.controllers[0].stats.reads_completed == 40

    def test_channel_count_power_of_two(self):
        with pytest.raises(ConfigurationError):
            MemorySystemConfig(channels=3)

    @pytest.mark.parametrize("channels", [True, 2.0, "2"])
    def test_channel_count_must_be_an_int(self, channels):
        with pytest.raises(ConfigurationError, match="channels"):
            MemorySystemConfig(channels=channels)


class TestAggregation:
    def test_peak_scales_with_channels(self):
        assert system(2).peak_bandwidth_gbps == pytest.approx(
            2 * DDR4_2400.peak_bandwidth_gbps
        )

    def test_aggregate_stack_sums_to_system_peak(self):
        mem = system(2)
        enqueue_stream(mem, 400, gap=2)
        mem.drain()
        mem.finalize()
        total = mem.now
        stack = mem.bandwidth_stack(total)
        stack.check_total(mem.peak_bandwidth_gbps)

    def test_two_channels_double_throughput(self):
        def bandwidth(channels):
            mem = system(channels)
            # Saturating backlog: everything enqueued at once.
            for i in range(800):
                mem.enqueue(Request(RequestType.READ, i * 64, arrival=0))
            mem.drain()
            mem.finalize()
            stack = mem.bandwidth_stack(mem.now)
            return stack["read"]

        assert bandwidth(2) > 1.6 * bandwidth(1)

    def test_per_channel_stacks(self):
        mem = system(2)
        enqueue_stream(mem, 200)
        mem.drain()
        mem.finalize()
        stacks = mem.per_channel_bandwidth_stacks(mem.now)
        assert len(stacks) == 2
        for stack in stacks:
            stack.check_total(DDR4_2400.peak_bandwidth_gbps)

    def test_latency_stack_weighted_across_channels(self):
        mem = system(2)
        enqueue_stream(mem, 200)
        mem.drain()
        mem.finalize()
        stack = mem.latency_stack(base_controller_cycles=42)
        minimum = (42 + DDR4_2400.tCL + DDR4_2400.burst_cycles)
        assert stack.total >= minimum * DDR4_2400.cycle_ns

    def test_run_until_advances_all_channels(self):
        mem = system(2)
        enqueue_stream(mem, 10, gap=100)
        done = mem.run_until(2000)
        assert all(r.finish <= 2000 for r in done)
        assert mem.now <= 2000
