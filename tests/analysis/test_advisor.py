"""Tests for the bottleneck advisor and report rendering."""

from repro.analysis.advisor import advise
from repro.analysis.report import render_comparison, render_report
from repro.stacks.bandwidth import BANDWIDTH_COMPONENTS
from repro.stacks.components import ordered_stack
from repro.stacks.latency import LATENCY_COMPONENTS

PEAK = 19.2


def bw(read=2.0, write=0.0, precharge=0.0, activate=0.0, refresh=0.8,
       constraints=0.0, bank_idle=0.0):
    used = (
        read + write + precharge + activate + refresh + constraints
        + bank_idle
    )
    return ordered_stack(
        dict(read=read, write=write, precharge=precharge, activate=activate,
             refresh=refresh, constraints=constraints, bank_idle=bank_idle,
             idle=PEAK - used),
        BANDWIDTH_COMPONENTS, "GB/s", "test",
    )


def lat(base=50.0, pre_act=0.0, refresh=0.0, writeburst=0.0, queue=0.0):
    return ordered_stack(
        dict(base=base, pre_act=pre_act, refresh=refresh,
             writeburst=writeburst, queue=queue),
        LATENCY_COMPONENTS, "ns", "test",
    )


class TestAdvise:
    def test_idle_suggests_more_requests(self):
        findings = advise(bw(read=2.0))
        assert any(
            f.component == "idle" and "request rate" in f.remedy
            for f in findings
        )

    def test_bank_idle_without_queueing(self):
        findings = advise(bw(read=2.0, bank_idle=8.0), lat(queue=2.0))
        finding = next(f for f in findings if f.component == "bank_idle")
        assert "request rate" in finding.remedy

    def test_bank_idle_with_queueing_suggests_interleaving(self):
        # The paper's complementarity rule (Sec. V).
        findings = advise(bw(read=2.0, bank_idle=8.0), lat(queue=60.0))
        finding = next(f for f in findings if f.component == "bank_idle")
        assert "interleav" in finding.remedy

    def test_pre_act_suggests_locality(self):
        findings = advise(bw(read=4.0, precharge=2.0, activate=2.0))
        assert any("locality" in f.remedy for f in findings)

    def test_constraints_suggests_rw_switching(self):
        findings = advise(bw(read=4.0, constraints=4.0))
        assert any(f.component == "constraints" for f in findings)

    def test_writeburst_finding(self):
        findings = advise(bw(read=4.0), lat(queue=5.0, writeburst=20.0))
        assert any(f.component == "writeburst" for f in findings)

    def test_saturated_system(self):
        findings = advise(bw(read=18.0))
        assert any(f.component == "achieved" for f in findings)

    def test_sorted_by_severity(self):
        findings = advise(bw(read=1.0, bank_idle=4.0))
        severities = [f.severity for f in findings]
        assert severities == sorted(severities, reverse=True)

    def test_small_components_ignored(self):
        findings = advise(bw(read=18.5, constraints=0.2))
        assert not any(f.component == "constraints" for f in findings)


class TestReport:
    def test_report_contains_sections(self):
        text = render_report(bw(read=5.0), lat(queue=10.0))
        assert "Bandwidth stack" in text
        assert "Latency stack" in text
        assert "Findings" in text
        assert "achieved bandwidth" in text

    def test_report_without_latency(self):
        text = render_report(bw(read=5.0))
        assert "Latency stack" not in text

    def test_comparison_table(self):
        text = render_comparison([bw(read=5.0), bw(read=9.0)])
        assert "read" in text
