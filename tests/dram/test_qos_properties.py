"""Property suite for QoS scheduling and per-requester stacks.

Locks down the multi-requester model (docs/qos.md) from four angles:

* **Conservation** — per-requester bandwidth counters, folded with
  ``interference`` -> ``constraints``, equal the aggregate accountant's
  integer counters exactly, and sum to ``num_banks * total_cycles``.
* **Degenerate invariance** — with a single requester, ``wrr`` (any
  weights) and ``bank-reg`` with an unlimited budget reproduce the
  ``fr-fcfs`` event log bit for bit, and the interference components
  are identically zero.
* **Arbitration** — equal-weight ``wrr`` keeps CAS service balanced
  within one command while both requesters have backlog (and weighted
  ``wrr`` within one round's weight); ``bank-reg`` never exceeds its
  per-(requester, bank) CAS budget in any period.
* **Exactness** — per-requester latency components sum to each read's
  measured latency (the accountant raises otherwise), with the
  queue/interference split non-negative.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram import (
    ControllerConfig,
    MemoryController,
    Request,
    RequestType,
)
from repro.dram.address import Coordinates
from repro.dram.components import make_scheduler, validate_scheduling
from repro.dram.components.accounting import DIGEST_WIDTHS
from repro.dram.timing import DDR4_2400
from repro.errors import ConfigurationError
from repro.reliability.fingerprint import event_log_digest
from repro.stacks.bandwidth import BandwidthStackAccountant
from repro.stacks.requester import (
    REQUESTER_BANDWIDTH_COMPONENTS,
    SHARED_REQUESTER,
    RequesterBandwidthAccountant,
    RequesterLatencyAccountant,
    fold_interference,
)
from tests.conftest import run_stream

#: The QoS policies under test, with parameter variants.
QOS_SCHEDULINGS = (
    "fr-fcfs",
    "wrr",
    "wrr:3,1",
    "bank-reg:period=400,budget=3",
)


@st.composite
def qos_streams(draw, requesters: int = 2):
    """A mixed-requester request stream (reads with some writes)."""
    count = draw(st.integers(min_value=1, max_value=50))
    t = 0
    requests = []
    for _ in range(count):
        t += draw(st.integers(min_value=0, max_value=120))
        line = draw(st.integers(min_value=0, max_value=(1 << 14) - 1))
        is_write = draw(st.booleans()) and draw(st.booleans())
        requester = draw(st.integers(min_value=0, max_value=requesters - 1))
        requests.append(Request(
            RequestType.WRITE if is_write else RequestType.READ,
            line * 64,
            arrival=t,
            core_id=requester,
            requester_id=requester,
        ))
    return requests


def spec_of(requests):
    """Pickle the stream into a rebuildable form (runs mutate requests)."""
    return [
        (rq.req_type, rq.address, rq.arrival, rq.core_id, rq.requester_id)
        for rq in requests
    ]


def rebuild(stream_spec):
    return [
        Request(type_, address, arrival=arrival, core_id=core,
                requester_id=requester)
        for type_, address, arrival, core, requester in stream_spec
    ]


def coalesce_blocked(log):
    """Blocked windows merged across requester splits (same
    scope/reason)."""
    merged = []
    for start, end, scope, bg, reason, *__ in log.blocked:
        if merged and merged[-1][1] == start and merged[-1][2:] == (
            scope, bg, reason
        ):
            merged[-1] = (merged[-1][0], end, scope, bg, reason)
        else:
            merged.append((start, end, scope, bg, reason))
    return merged


def run(scheduling: str, requests, page_policy: str = "open"):
    """Run a fresh controller over the stream; returns the controller."""
    config = ControllerConfig(
        spec=DDR4_2400, scheduling=scheduling, page_policy=page_policy
    )
    return run_stream(MemoryController(config), requests)


class TestConservation:
    """Per-requester counters fold back to the aggregate, exactly."""

    @settings(max_examples=50, deadline=None)
    @given(
        requests=qos_streams(),
        scheduling=st.sampled_from(QOS_SCHEDULINGS),
        page_policy=st.sampled_from(["open", "closed"]),
        device=st.sampled_from(["ddr4-2400", "lpddr5-6400"]),
    )
    def test_folded_rows_equal_aggregate(
        self, requests, scheduling, page_policy, device
    ):
        """Also on LPDDR5, whose per-bank refresh (REFpb) is shared."""
        ctrl = run_stream(MemoryController(ControllerConfig(
            device=device, scheduling=scheduling, page_policy=page_policy
        )), requests)
        spec = ctrl.spec
        rows = RequesterBandwidthAccountant(spec).account_cycles(
            ctrl.log, ctrl.now
        )
        aggregate = BandwidthStackAccountant(spec).account_cycles(
            ctrl.log, ctrl.now
        )[0]
        assert fold_interference(rows) == aggregate
        shared = rows.get(SHARED_REQUESTER, {})
        assert shared.get("refresh", 0) == aggregate["refresh"]
        n = spec.organization.total_banks
        total = sum(sum(row.values()) for row in rows.values())
        assert total == n * ctrl.now
        for row in rows.values():
            assert all(count >= 0 for count in row.values())
            assert set(row) <= set(REQUESTER_BANDWIDTH_COMPONENTS)

    @settings(max_examples=25, deadline=None)
    @given(requests=qos_streams(requesters=3))
    def test_three_requesters_conserve_under_wrr(self, requests):
        ctrl = run("wrr:4,2,1", requests)
        rows = RequesterBandwidthAccountant(DDR4_2400).account_cycles(
            ctrl.log, ctrl.now
        )
        aggregate = BandwidthStackAccountant(DDR4_2400).account_cycles(
            ctrl.log, ctrl.now
        )[0]
        assert fold_interference(rows) == aggregate

    @settings(max_examples=25, deadline=None)
    @given(requests=qos_streams())
    def test_stacks_total_peak_bandwidth(self, requests):
        ctrl = run("wrr", requests)
        stacks = RequesterBandwidthAccountant(DDR4_2400).account(
            ctrl.log, ctrl.now
        )
        total = sum(stack.total for stack in stacks.values())
        assert total == pytest.approx(DDR4_2400.peak_bandwidth_gbps)


class TestDegenerateInvariance:
    """One requester: the QoS schedulers are fr-fcfs, bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(
        requests=qos_streams(requesters=1),
        scheduling=st.sampled_from(["wrr", "wrr:7", "bank-reg"]),
        page_policy=st.sampled_from(["open", "closed"]),
    )
    def test_event_log_matches_fr_fcfs(
        self, requests, scheduling, page_policy
    ):
        stream_spec = spec_of(requests)
        baseline = run("fr-fcfs", rebuild(stream_spec), page_policy)
        candidate = run(scheduling, rebuild(stream_spec), page_policy)
        assert event_log_digest(candidate.log) == event_log_digest(
            baseline.log
        )

    @settings(max_examples=25, deadline=None)
    @given(
        requests=qos_streams(requesters=1),
        scheduling=st.sampled_from(["wrr", "bank-reg"]),
    )
    def test_interference_is_zero(self, requests, scheduling):
        ctrl = run(scheduling, requests)
        bandwidth = RequesterBandwidthAccountant(DDR4_2400).account_cycles(
            ctrl.log, ctrl.now
        )
        assert set(bandwidth) <= {0, SHARED_REQUESTER}
        for row in bandwidth.values():
            assert row.get("interference", 0) == 0
        latency = RequesterLatencyAccountant(DDR4_2400).account(
            ctrl.completed_requests, ctrl.log
        )
        for stack in latency.values():
            assert stack["interference"] == 0.0

    @settings(max_examples=15, deadline=None)
    @given(requests=qos_streams())
    def test_fr_fcfs_ignores_requester_ids(self, requests):
        """Requester ids never steer fr-fcfs arbitration.

        Every command window is identical with and without ids, up to
        the requester it names; only the *attribution* differs. (The
        blocked list may split one contiguous window where the victim
        changes, so blocked windows are compared coalesced, ignoring
        requester boundaries.)
        """
        stream_spec = spec_of(requests)
        tagged = run("fr-fcfs", rebuild(stream_spec))
        untagged = run("fr-fcfs", rebuild([
            (type_, address, arrival, core, 0)
            for type_, address, arrival, core, __ in stream_spec
        ]))
        for field in (
            "bursts", "pre_windows", "act_windows", "cas_windows",
            "refresh_windows", "drain_windows",
        ):
            width = DIGEST_WIDTHS[field]
            assert [w[:width] for w in getattr(tagged.log, field)] == [
                w[:width] for w in getattr(untagged.log, field)
            ], field
        assert coalesce_blocked(tagged.log) == coalesce_blocked(
            untagged.log
        )


def backlog_controller(scheduling: str, count: int) -> MemoryController:
    """Run two requesters with `count` same-cycle reads each.

    Each requester streams row hits in its *own bank group*, so both
    always contribute a candidate and the WRR filter — which arbitrates
    between the per-bank FR-FCFS candidates — decides every CAS. (With
    both streams in one bank, in-bank row-hit preference would decide
    instead; WRR arbitrates requesters, not rows.)
    """
    ctrl = MemoryController(
        ControllerConfig(spec=DDR4_2400, scheduling=scheduling)
    )
    requests = []
    for i in range(count):
        for requester in (0, 1):
            address = ctrl.mapping.encode(
                Coordinates(0, 0, requester, 0, 0, i)
            )
            requests.append(Request(
                RequestType.READ, address, arrival=0,
                core_id=requester, requester_id=requester,
            ))
    return run_stream(ctrl, requests)


class TestWrrArbitration:
    """Service-order fairness while both requesters have backlog."""

    @settings(max_examples=20, deadline=None)
    @given(count=st.integers(min_value=4, max_value=24))
    def test_equal_weights_balance_within_one(self, count):
        ctrl = backlog_controller("wrr", count)
        order = [window[3] for window in ctrl.log.cas_windows]
        served = {0: 0, 1: 0}
        for owner in order:
            served[owner] += 1
            assert abs(served[0] - served[1]) <= 1, (
                f"service order {order!r} drifted"
            )
        assert served == {0: count, 1: count}

    @settings(max_examples=20, deadline=None)
    @given(count=st.integers(min_value=6, max_value=24))
    def test_weighted_rounds_honor_ratio(self, count):
        """Under wrr:3,1 the R0:R1 service ratio never drifts past one
        round's worth of credit while both sides still have backlog."""
        ctrl = backlog_controller("wrr:3,1", count)
        served = {0: 0, 1: 0}
        for __, __, __, owner in ctrl.log.cas_windows:
            served[owner] += 1
            if served[0] < count and served[1] < count:
                assert abs(served[0] - 3 * served[1]) <= 3
        assert served == {0: count, 1: count}


class TestBankRegulation:
    """The per-(requester, bank) CAS budget is a hard cap per period."""

    @settings(max_examples=25, deadline=None)
    @given(
        requests=qos_streams(),
        period=st.sampled_from([200, 400]),
        budget=st.integers(min_value=1, max_value=3),
    )
    def test_budget_never_exceeded(self, requests, period, budget):
        ctrl = run(f"bank-reg:period={period},budget={budget}", requests)
        issued: dict[tuple[int, int, int], int] = {}
        for start, __, bank, owner in ctrl.log.cas_windows:
            key = (owner, bank, start // period)
            issued[key] = issued.get(key, 0) + 1
            assert issued[key] <= budget, (
                f"requester {owner} issued {issued[key]} CAS to bank "
                f"{bank} in period {start // period} (budget {budget})"
            )

    @settings(max_examples=15, deadline=None)
    @given(requests=qos_streams())
    def test_unlimited_budget_is_fr_fcfs(self, requests):
        """Bare bank-reg (no budget) must not perturb multi-requester
        fr-fcfs arbitration either."""
        stream_spec = spec_of(requests)
        baseline = run("fr-fcfs", rebuild(stream_spec))
        candidate = run("bank-reg", rebuild(stream_spec))
        assert event_log_digest(candidate.log) == event_log_digest(
            baseline.log
        )


class TestLatencyExactness:
    """Per-read components sum exactly; the interference split is sane."""

    @settings(max_examples=30, deadline=None)
    @given(
        requests=qos_streams(),
        scheduling=st.sampled_from(QOS_SCHEDULINGS),
    )
    def test_components_sum_per_read(self, requests, scheduling):
        ctrl = run(scheduling, requests)
        # The accountant raises AccountingError on any per-read
        # mismatch; reaching the assertions below is the exactness proof.
        stacks = RequesterLatencyAccountant(DDR4_2400).account(
            ctrl.completed_requests, ctrl.log
        )
        reads = {
            rq.requester_id
            for rq in ctrl.completed_requests
            if rq.is_read and not rq.forwarded and rq.cas_issue >= 0
        }
        assert set(stacks) == reads
        for stack in stacks.values():
            assert stack["interference"] >= 0.0
            assert stack["queue"] >= 0.0


class TestSchedulingParams:
    """Config-string validation fails fast with pointed errors."""

    @pytest.mark.parametrize("spec", [
        "wrr:x", "wrr:0", "wrr:2,-1",
        "bank-reg:budget=0", "bank-reg:cap=3", "bank-reg:period=abc",
        "fr-fcfs:1,2", "fcfs:fast", "nonsense",
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            validate_scheduling(spec)

    @pytest.mark.parametrize("spec", QOS_SCHEDULINGS + ("fcfs", "wrr:2,1"))
    def test_good_specs_accepted(self, spec):
        assert validate_scheduling(spec) == spec
        assert make_scheduler(spec) is not None

    def test_wrr_weights_parsed(self):
        scheduler = make_scheduler("wrr:3,1")
        assert scheduler.weight_of(0) == 3
        assert scheduler.weight_of(1) == 1
        assert scheduler.weight_of(7) == 1  # unlisted -> weight 1

    def test_bank_reg_params_parsed(self):
        scheduler = make_scheduler("bank-reg:period=500,budget=2")
        assert scheduler.period == 500
        assert scheduler.budget == 2
        assert make_scheduler("bank-reg").budget is None
