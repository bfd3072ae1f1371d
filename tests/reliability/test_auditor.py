"""Tests for the invariant auditor and the accountants' exactness checks.

Every violation raises AccountingError; none is recorded, repaired or
downgraded to a warning.
"""

import pytest

from repro.dram import ControllerConfig, MemoryController, Request, RequestType
from repro.errors import AccountingError
from repro.experiments.runner import run_qos, run_synthetic
from repro.reliability.auditor import InvariantAuditor
from repro.reliability.faults import corrupt_request, overlap_bursts
from repro.stacks.bandwidth import BandwidthStackAccountant
from repro.stacks.latency import LatencyStackAccountant


def run_small(requests=200):
    mc = MemoryController(ControllerConfig())
    for i in range(requests):
        kind = RequestType.WRITE if i % 5 == 0 else RequestType.READ
        mc.enqueue(Request(kind, i * 64, arrival=i * 6))
    mc.drain()
    mc.finalize()
    return mc


def corrupt_first_read(requests):
    """Apply corrupt_request to the first completed read with arrival > 0."""
    read = next(
        r for r in requests
        if r.is_read and not r.forwarded and r.cas_issue >= 0
        and r.arrival > 0
    )
    return corrupt_request(read)


def negative_queue_message(read):
    return (
        f"negative latency component(s) ['queue'] for request "
        f"{read.req_id} (arrival {read.arrival}, cas {read.cas_issue})"
    )


class TestIncrementalLogAudit:
    def test_clean_log_stays_clean(self):
        mc = run_small()
        cursors = {}
        InvariantAuditor().audit_log_increment(mc.log, cursors)
        assert cursors["bursts"] == len(mc.log.bursts)

    def test_overlap_caught_only_once(self):
        """An overlap appended after one audit raises on the next."""
        mc = run_small()
        auditor = InvariantAuditor()
        cursors = {}
        auditor.audit_log_increment(mc.log, cursors)
        audited = cursors["bursts"]
        overlap_bursts(mc.log)
        with pytest.raises(AccountingError, match="overlap"):
            auditor.audit_log_increment(mc.log, cursors)
        assert cursors["bursts"] == audited

    @pytest.mark.parametrize("name", [
        "bursts", "pre_windows", "act_windows", "cas_windows", "blocked",
    ])
    def test_backwards_event_raises(self, name):
        """Only an event's (start, end) pair is audited."""
        mc = run_small()
        getattr(mc.log, name).append((mc.now + 10, mc.now + 5))
        with pytest.raises(AccountingError, match="runs backwards"):
            InvariantAuditor().audit_log_increment(mc.log, {})


class TestBandwidthAccounting:
    def test_overlap_strict_raises_without_auditor(self):
        mc = run_small()
        overlap_bursts(mc.log)
        with pytest.raises(AccountingError):
            BandwidthStackAccountant(mc.spec).account(mc.log, mc.now)

    def test_guard_end_audit_is_clean_on_healthy_log(self):
        mc = run_small()
        bins = BandwidthStackAccountant(mc.spec).account_cycles(
            mc.log, mc.now, 10_000
        )
        assert sum(map(sum, (b.values() for b in bins))) == (
            mc.spec.organization.total_banks * mc.now
        )


class TestLatencyAccounting:
    def test_corrupt_read_strict_raises(self):
        mc = run_small()
        reads = [r for r in mc.completed_requests if r.is_read]
        read = corrupt_request(reads[3])
        acct = LatencyStackAccountant(mc.spec)
        with pytest.raises(AccountingError) as excinfo:
            acct.account(
                reads, mc.log.refresh_windows, mc.log.drain_windows
            )
        assert str(excinfo.value) == negative_queue_message(read)

    def test_healthy_latency_audit_clean(self):
        mc = run_small()
        stack = LatencyStackAccountant(mc.spec).account(
            mc.completed_requests,
            mc.log.refresh_windows,
            mc.log.drain_windows,
        )
        assert all(value >= 0 for value in stack.components.values())

    def test_corrupt_read_raises_from_per_requester_stacks(self):
        result = run_qos(scheduling="wrr", guard=False)
        read = corrupt_first_read(result.memory.completed_requests)
        with pytest.raises(AccountingError) as excinfo:
            result.per_requester_latency_stacks()
        assert str(excinfo.value) == negative_queue_message(read)


class TestDefaultGuardResult:
    """Under the default guard, every stack a single-channel result
    builds raises on a violation instead of shipping a wrong figure."""

    @pytest.mark.parametrize("build", [
        lambda r: r.bandwidth_stack(),
        lambda r: r.bandwidth_series(1_000),
    ], ids=["bandwidth_stack", "bandwidth_series"])
    def test_overlapping_bursts_raise(self, build):
        result = run_synthetic("random", cores=1)
        overlap_bursts(result.memory.log)
        with pytest.raises(AccountingError, match="overlapping data bursts"):
            build(result)

    @pytest.mark.parametrize("build", [
        lambda r: r.latency_stack(),
        lambda r: r.latency_series(1_000),
        lambda r: r.per_core_latency_stacks(),
    ], ids=["latency_stack", "latency_series", "per_core_latency_stacks"])
    def test_corrupt_read_raises(self, build):
        result = run_synthetic("random", cores=1)
        corrupt_first_read(result.memory.completed_requests)
        with pytest.raises(AccountingError, match="negative latency"):
            build(result)
