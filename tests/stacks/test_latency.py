"""Tests for latency stack accounting."""

import pytest

from repro.dram import (
    ControllerConfig,
    MemoryController,
    Request,
    RequestType,
)
from repro.dram.timing import DDR4_2400
from repro.dram.wqueue import WriteQueueConfig
from repro.errors import AccountingError
from repro.stacks.latency import (
    LATENCY_COMPONENTS,
    LATENCY_COMPONENTS_SPLIT,
    LatencyStackAccountant,
    latency_stack_from_requests,
)

from tests.conftest import make_reads, run_stream

SPEC = DDR4_2400
BASE_DRAM_NS = (SPEC.tCL + SPEC.burst_cycles) * SPEC.cycle_ns


def completed_read(arrival, cas, finish, pre=None, act=None):
    request = Request(RequestType.READ, 0, arrival=arrival)
    request.cas_issue = cas
    request.finish = finish
    if pre:
        request.own_pre_start, request.own_pre_end = pre
    if act:
        request.own_act_start, request.own_act_end = act
    return request


class TestDecompose:
    def setup_method(self):
        self.acct = LatencyStackAccountant(SPEC)

    def test_uncontended_read_is_all_base(self):
        request = completed_read(0, 0, SPEC.tCL + SPEC.burst_cycles)
        parts = self.acct.decompose(request, [], [])
        assert parts["base"] == SPEC.tCL + SPEC.burst_cycles
        assert parts["queue"] == 0

    def test_wait_without_cause_is_queue(self):
        request = completed_read(0, 30, 30 + 21)
        parts = self.acct.decompose(request, [], [])
        assert parts["queue"] == 30

    def test_refresh_overlap(self):
        request = completed_read(0, 100, 121)
        parts = self.acct.decompose(request, [(10, 60)], [])
        assert parts["refresh"] == 50
        assert parts["queue"] == 50

    def test_writeburst_overlap_after_refresh_priority(self):
        request = completed_read(0, 100, 121)
        parts = self.acct.decompose(request, [(0, 40)], [(20, 80)])
        assert parts["refresh"] == 40
        assert parts["writeburst"] == 40  # only the non-refresh part
        assert parts["queue"] == 20

    def test_own_pre_act(self):
        request = completed_read(
            0, 100, 121, pre=(10, 27), act=(27, 44)
        )
        parts = self.acct.decompose(request, [], [])
        assert parts["pre_act"] == 34
        assert parts["queue"] == 66

    def test_own_pre_act_under_drain_counts_as_writeburst(self):
        request = completed_read(0, 100, 121, pre=(10, 27))
        parts = self.acct.decompose(request, [], [(0, 50)])
        assert parts["writeburst"] == 50
        assert parts["pre_act"] == 0  # the pre happened inside the drain
        assert parts["queue"] == 50

    def test_components_sum_to_latency(self):
        request = completed_read(
            5, 200, 221, pre=(50, 67), act=(80, 97)
        )
        parts = self.acct.decompose(request, [(0, 30)], [(100, 150)])
        assert sum(parts.values()) == 221 - 5

    def test_write_rejected(self):
        request = Request(RequestType.WRITE, 0, arrival=0)
        request.cas_issue = 10
        with pytest.raises(AccountingError):
            self.acct.decompose(request, [], [])

    def test_incomplete_read_rejected(self):
        request = Request(RequestType.READ, 0, arrival=0)
        with pytest.raises(AccountingError):
            self.acct.decompose(request, [], [])


class TestAccount:
    def test_averages_over_reads(self):
        acct = LatencyStackAccountant(SPEC)
        reads = [
            completed_read(0, 0, 21),
            completed_read(0, 20, 41),
        ]
        stack = acct.account(reads, [], [])
        assert stack["base"] == pytest.approx(21 * SPEC.cycle_ns)
        assert stack["queue"] == pytest.approx(10 * SPEC.cycle_ns)

    def test_base_controller_cycles_added(self):
        acct = LatencyStackAccountant(SPEC, base_controller_cycles=42)
        stack = acct.account([completed_read(0, 0, 21)], [], [])
        assert stack["base"] == pytest.approx((21 + 42) * SPEC.cycle_ns)

    def test_split_base(self):
        acct = LatencyStackAccountant(
            SPEC, base_controller_cycles=42, split_base=True
        )
        stack = acct.account([completed_read(0, 0, 21)], [], [])
        assert tuple(stack.components) == LATENCY_COMPONENTS_SPLIT
        assert stack["base_cntlr"] == pytest.approx(42 * SPEC.cycle_ns)
        assert stack["base_dram"] == pytest.approx(21 * SPEC.cycle_ns)

    def test_empty_input_gives_zero_stack(self):
        acct = LatencyStackAccountant(SPEC)
        stack = acct.account([], [], [])
        assert stack.total == 0.0
        assert tuple(stack.components) == LATENCY_COMPONENTS

    def test_prefetches_included_by_default(self):
        # Prefetch reads are DRAM reads like any other (see module doc).
        acct = LatencyStackAccountant(SPEC)
        normal = completed_read(0, 0, 21)
        prefetch = completed_read(0, 50, 71)
        prefetch.is_prefetch = True
        stack = acct.account([normal, prefetch], [], [])
        assert stack["queue"] == pytest.approx(25 * SPEC.cycle_ns)

    def test_prefetches_can_be_excluded(self):
        acct = LatencyStackAccountant(SPEC, include_prefetch=False)
        normal = completed_read(0, 0, 21)
        prefetch = completed_read(0, 50, 71)
        prefetch.is_prefetch = True
        stack = acct.account([normal, prefetch], [], [])
        assert stack["queue"] == 0.0  # only the demand read counted


class TestSimulated:
    def test_uncontended_stream_is_mostly_base(self):
        mc = MemoryController(ControllerConfig(refresh="none"))
        run_stream(mc, make_reads(100, gap=50))
        stack = latency_stack_from_requests(
            mc.completed_requests, mc.log, SPEC
        )
        assert stack.fraction("base") > 0.8

    def test_saturated_stream_has_queueing(self):
        mc = MemoryController(ControllerConfig(refresh="none"))
        run_stream(mc, make_reads(500, gap=2))
        stack = latency_stack_from_requests(
            mc.completed_requests, mc.log, SPEC
        )
        assert stack["queue"] > stack["base"]

    def test_row_misses_show_pre_act(self):
        mc = MemoryController(ControllerConfig(refresh="none"))
        run_stream(mc, make_reads(100, stride=1 << 21, gap=60))
        stack = latency_stack_from_requests(
            mc.completed_requests, mc.log, SPEC
        )
        assert stack["pre_act"] > 0

    def test_write_bursts_show_in_latency(self):
        config = ControllerConfig(
            refresh="none",
            write_queue=WriteQueueConfig(capacity=8, high_watermark=0.5,
                                         low_watermark=0.1),
        )
        mc = MemoryController(config)
        requests = []
        for i in range(200):
            requests.append(Request(RequestType.READ, i * 64, arrival=i * 8))
            requests.append(
                Request(RequestType.WRITE, (1 << 23) + i * 64, arrival=i * 8)
            )
        run_stream(mc, requests)
        stack = latency_stack_from_requests(
            mc.completed_requests, mc.log, SPEC
        )
        assert stack["writeburst"] > 0

    def test_refresh_appears_with_enough_reads(self):
        mc = MemoryController(ControllerConfig())
        # Span several refresh intervals.
        run_stream(mc, make_reads(2000, gap=20))
        stack = latency_stack_from_requests(
            mc.completed_requests, mc.log, SPEC
        )
        assert stack["refresh"] > 0

    def test_series_buckets_by_completion(self):
        mc = MemoryController(ControllerConfig(refresh="none"))
        run_stream(mc, make_reads(300, gap=10))
        acct = LatencyStackAccountant(SPEC)
        series = acct.account_series(
            mc.completed_requests, mc.log.refresh_windows,
            mc.log.drain_windows, mc.now, bin_cycles=500,
        )
        assert len(series) == -(-mc.now // 500)
        # Total reads across bins equals completed reads.
        assert sum(
            1 for s in series for _ in [None] if s.total > 0
        ) > 0
