"""Focused tests for IntervalCore mechanics."""

import pytest

from repro.cpu import CpuSystem, SystemConfig
from repro.cpu.core import CoreConfig, TraceItem
from repro.errors import ConfigurationError


def run_one(items, core=None, cores=1):
    config = SystemConfig(cores=cores, core=core or CoreConfig())
    system = CpuSystem(config)
    traces = [list(items)] + [[] for __ in range(cores - 1)]
    result = system.run(traces)
    return system, result


class TestDispatch:
    def test_instruction_blocks_accounted_as_base(self):
        system, __ = run_one([TraceItem(instructions=1200)])
        stack = system.cores[0].cycle_stack.stack()
        assert stack["base"] > 0.95

    def test_branch_penalty_accounted(self):
        items = [TraceItem(instructions=10, branch_mispredicts=3)] * 50
        system, __ = run_one(items)
        stack = system.cores[0].cycle_stack.stack()
        assert stack["branch"] > 0.5

    def test_dispatch_rate_matches_config(self):
        core = CoreConfig(dispatch_width=2, freq_ratio=2.0)
        __, result = run_one([TraceItem(instructions=4000)], core=core)
        # 4 instructions per memory cycle -> ~1000 cycles + drain tail.
        assert result.total_cycles >= 1000

    def test_zero_instruction_memory_items(self):
        items = [
            TraceItem(instructions=0, address=(1 << 28) + i * 64)
            for i in range(100)
        ]
        __, result = run_one(items)
        assert result.dram_reads >= 100


class TestRobAndMshr:
    def test_rob_blocks_on_oldest_incomplete_load(self):
        # One giant dependent region: instructions >> ROB between loads.
        core = CoreConfig(rob_size=32)
        items = []
        for i in range(40):
            items.append(TraceItem(
                instructions=64,  # exceeds the ROB alone
                address=(1 << 28) + i * 8192,
            ))
        system, result = run_one(items, core=core)
        stack = system.cores[0].cycle_stack.stack()
        assert stack["dram_latency"] + stack["dram_queue"] > 0.2

    def test_store_misses_do_not_stall_retirement(self):
        # A tiny ROB binds loads (the head load blocks retirement) but
        # not stores, which retire without waiting for their fill.
        core = CoreConfig(rob_size=24)

        def items(is_store):
            return [
                TraceItem(instructions=16, address=(1 << 28) + i * 8192,
                          is_store=is_store)
                for i in range(200)
            ]

        __, loads = run_one(items(False), core=core)
        __, stores = run_one(items(True), core=core)
        # Store-only traffic keeps the core moving: fewer stall cycles.
        assert stores.total_cycles < loads.total_cycles

    def test_rejects_bad_core_config(self):
        with pytest.raises(ConfigurationError):
            CoreConfig(dispatch_width=0)
        with pytest.raises(ConfigurationError):
            CoreConfig(freq_ratio=0)

    @pytest.mark.parametrize("field,value", [
        ("freq_ratio", float("nan")),
        ("freq_ratio", float("inf")),
        ("cycle_stack_bin", 0),
        ("cycle_stack_bin", -5),
        ("noc_request_cycles", -30),
        ("noc_response_cycles", -1),
    ])
    def test_rejects_value_at_construction(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            CoreConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("branch_penalty", -5.0),
        ("branch_penalty", float("nan")),
        ("rob_size", 1.5),
        ("dispatch_width", 2.5),
        ("dram_inflight_cap", -1),
        ("noc_request_cycles", 1.5),
        ("freq_ratio", "x"),
        ("freq_ratio", None),
        ("freq_ratio", True),
    ])
    def test_breach_raises_at_construction(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            CoreConfig(**{field: value})


class TestPendingHits:
    def test_duplicate_addresses_share_one_dram_read(self):
        # Two cores reading the same line at nearly the same time should
        # trigger one DRAM fetch, not two.
        address = 1 << 28
        trace_a = [TraceItem(instructions=8, address=address)]
        trace_b = [TraceItem(instructions=8, address=address)]
        system = CpuSystem(SystemConfig(cores=2))
        result = system.run([trace_a, trace_b])
        demand_reads = [
            r for r in system.memory.completed_requests
            if r.is_read and not r.is_prefetch
        ]
        assert len(demand_reads) == 1
        stats = [c.stats for c in system.cores]
        assert sum(s.dram_loads for s in stats) == 1
        assert sum(s.dram_pending_hits for s in stats) == 1


class TestIdleAccounting:
    def test_trailing_idle_charged(self):
        # Core 0 finishes early; core 1 works long. Core 0 ends idle.
        system = CpuSystem(SystemConfig(cores=2))
        system.run([
            [TraceItem(instructions=12)],
            [TraceItem(instructions=120000)],
        ])
        idle = system.cores[0].cycle_stack.stack()["idle"]
        assert idle > 0.9
