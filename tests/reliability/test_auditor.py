"""Tests for the invariant auditor and its three modes."""

import pytest

from repro.dram import ControllerConfig, MemoryController, Request, RequestType
from repro.errors import AccountingError
from repro.reliability.auditor import AuditWarning, InvariantAuditor
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


class TestModes:
    def test_strict_raises(self):
        auditor = InvariantAuditor(mode="strict")
        with pytest.raises(AccountingError, match="boom"):
            auditor.report("test-kind", "boom")
        assert auditor.clean  # nothing recorded: the raise is the report

    def test_warn_records_and_warns(self):
        auditor = InvariantAuditor(mode="warn")
        with pytest.warns(AuditWarning, match="drifted"):
            auditor.report("test-kind", "drifted", residual=2.0)
        assert not auditor.clean
        assert auditor.total_violations == 1
        violation = auditor.violations[0]
        assert violation.kind == "test-kind"
        assert violation.residual == 2.0
        assert not violation.repaired

    def test_repair_applies_callable(self):
        auditor = InvariantAuditor(mode="repair")
        state = {"fixed": False}
        with pytest.warns(AuditWarning):
            auditor.report(
                "test-kind", "fixable",
                repair=lambda: state.__setitem__("fixed", True),
            )
        assert state["fixed"]
        assert auditor.violations[0].repaired

    def test_unknown_mode_rejected(self):
        with pytest.raises(AccountingError, match="unknown audit mode"):
            InvariantAuditor(mode="lenient")


class TestIncrementalLogAudit:
    def test_clean_log_stays_clean(self):
        mc = run_small()
        auditor = InvariantAuditor(mode="warn")
        cursors = {}
        auditor.audit_log_increment(mc.log, cursors)
        assert auditor.clean
        assert cursors["bursts"] == len(mc.log.bursts)

    def test_overlap_caught_only_once(self):
        mc = run_small()
        auditor = InvariantAuditor(mode="warn")
        cursors = {}
        auditor.audit_log_increment(mc.log, cursors)
        overlap_bursts(mc.log)
        with pytest.warns(AuditWarning, match="overlap"):
            auditor.audit_log_increment(mc.log, cursors)
        count = auditor.total_violations
        assert count >= 1
        # Re-auditing must not re-report the same events.
        auditor.audit_log_increment(mc.log, cursors)
        assert auditor.total_violations == count


class TestBandwidthAccounting:
    def test_overlap_strict_raises_without_auditor(self):
        mc = run_small()
        overlap_bursts(mc.log)
        with pytest.raises(AccountingError):
            BandwidthStackAccountant(mc.spec).account(mc.log, mc.now)

    def test_overlap_warn_completes_and_records(self):
        mc = run_small()
        overlap_bursts(mc.log)
        auditor = InvariantAuditor(mode="warn")
        acct = BandwidthStackAccountant(mc.spec, auditor=auditor)
        with pytest.warns(AuditWarning):
            acct.account_cycles(mc.log, mc.now)
        assert any(
            v.kind == "burst-overlap" for v in auditor.violations
        )

    def test_repair_restores_exactness(self):
        mc = run_small()
        overlap_bursts(mc.log)
        auditor = InvariantAuditor(mode="repair")
        acct = BandwidthStackAccountant(mc.spec, auditor=auditor)
        with pytest.warns(AuditWarning):
            counters = acct.account_cycles(mc.log, mc.now)[0]
        # After repair, the components again sum to n_banks * cycles.
        assert sum(counters.values()) == acct.num_banks * mc.now
        assert not auditor.clean

    def test_guard_end_audit_is_clean_on_healthy_log(self):
        mc = run_small()
        auditor = InvariantAuditor(mode="warn")
        BandwidthStackAccountant(mc.spec, auditor=auditor).account_cycles(
            mc.log, mc.now, 10_000
        )
        assert auditor.clean


class TestLatencyAccounting:
    def test_corrupt_read_strict_raises(self):
        mc = run_small()
        reads = [r for r in mc.completed_requests if r.is_read]
        corrupt_request(reads[3])
        acct = LatencyStackAccountant(mc.spec)
        with pytest.raises(AccountingError):
            acct.account(
                reads, mc.log.refresh_windows, mc.log.drain_windows
            )

    def test_corrupt_read_warn_records(self):
        mc = run_small()
        reads = [r for r in mc.completed_requests if r.is_read]
        corrupt_request(reads[3])
        auditor = InvariantAuditor(mode="warn")
        acct = LatencyStackAccountant(mc.spec, auditor=auditor)
        with pytest.warns(AuditWarning):
            acct.account(
                reads, mc.log.refresh_windows, mc.log.drain_windows
            )
        kinds = {v.kind for v in auditor.violations}
        assert "latency-negative" in kinds

    def test_corrupt_read_repair_preserves_per_read_sum(self):
        mc = run_small()
        reads = [r for r in mc.completed_requests if r.is_read]
        corrupt_request(reads[3])
        auditor = InvariantAuditor(mode="repair")
        acct = LatencyStackAccountant(mc.spec, auditor=auditor)
        with pytest.warns(AuditWarning):
            stack = acct.account(
                reads, mc.log.refresh_windows, mc.log.drain_windows
            )
        # Repaired components are all non-negative in the aggregate.
        for name in stack.components:
            assert stack[name] >= 0
        assert any(v.repaired for v in auditor.violations)

    def test_healthy_latency_audit_clean(self):
        mc = run_small()
        auditor = InvariantAuditor(mode="warn")
        LatencyStackAccountant(mc.spec, auditor=auditor).account(
            mc.completed_requests,
            mc.log.refresh_windows,
            mc.log.drain_windows,
        )
        assert auditor.clean
