"""Property suite for the packed struct-of-arrays controller engine.

Locks down :mod:`repro.dram.packed` from three angles:

* **Write-back** — ``flush()`` on a controller stopped mid-run writes
  back the object state the reference engine holds at the same stop:
  global queue order (reads and writes), per-bank open-row and
  timing-fence state, rank/bus fences, the last requesters and the
  refresh fences. Taking a stall snapshot, which flushes, changes
  nothing a finished run reports, also before the loop first runs.
* **Engine agreement** — random multi-requester streams produce the
  same event log (every list, each window's requester included), the
  same counters and the same final open rows under ``packed`` and
  ``reference``, across the stock and QoS schedulers, both page
  policies and one or two ranks, and over three enqueue→drain phases
  under closed page.
* **Closed policy set** — every name in the policy tables of
  :mod:`repro.dram.components` runs on the packed loop, so no config
  string reaches a policy it does not run; an unknown engine name is
  refused at config time.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram import (
    ControllerConfig,
    MemoryController,
    Request,
    RequestType,
)
from repro.dram import components
from repro.dram.packed import packed_fallback_reason
from repro.dram.timing import DDR4_2400
from repro.errors import ConfigurationError
from tests.conftest import run_stream

#: Schedulers the engines must agree on: the stock pair plus both QoS
#: arbiters, with a budget tight enough that bank-reg gates often.
SCHEDULERS = (
    "fr-fcfs", "fcfs", "wrr", "wrr:3,1", "bank-reg:period=200,budget=2",
)


#: Stream shapes, as (max inter-arrival gap, max line index): sparse
#: over many rows, bursty over few rows, where requesters contend and
#: bank-reg's budget binds, and dense over many rows, where commands to
#: different ranks (two-rank specs) follow each other closely.
SPARSE = (120, (1 << 14) - 1)
BURSTY = (20, 255)
DENSE = (20, (1 << 14) - 1)

#: Timing specs the engines must agree on: the single-rank default and
#: two ranks, where the packed loop's per-rank gate scratch, tFAW rings
#: and tRTRS bus switch all take part. SPARSE and DENSE cross the rank
#: bit (address bit 17 of the two-rank default scheme); BURSTY does not.
SPECS = (DDR4_2400, DDR4_2400.with_organization(ranks=2))


@st.composite
def streams(draw, requesters: int = 1, shapes=(SPARSE,)):
    """A mixed read/write stream over `requesters` requester ids."""
    max_gap, max_line = draw(st.sampled_from(shapes))
    count = draw(st.integers(min_value=1, max_value=50))
    t = 0
    requests = []
    for _ in range(count):
        t += draw(st.integers(min_value=0, max_value=max_gap))
        line = draw(st.integers(min_value=0, max_value=max_line))
        is_write = draw(st.booleans()) and draw(st.booleans())
        requester = draw(st.integers(min_value=0, max_value=requesters - 1))
        requests.append(Request(
            RequestType.WRITE if is_write else RequestType.READ,
            line * 64,
            arrival=t,
            requester_id=requester,
        ))
    return requests


def spec_of(requests):
    """Pickle the stream into a rebuildable form (runs mutate requests)."""
    return [
        (rq.req_type, rq.address, rq.arrival, rq.requester_id)
        for rq in requests
    ]


def rebuild(stream_spec):
    return [
        Request(type_, address, arrival=arrival, requester_id=requester)
        for type_, address, arrival, requester in stream_spec
    ]


def make_controller(
    engine: str = "reference",
    scheduling: str = "fr-fcfs",
    page_policy: str = "open",
    spec=DDR4_2400,
) -> MemoryController:
    return MemoryController(ControllerConfig(
        spec=spec, engine=engine, scheduling=scheduling,
        page_policy=page_policy,
    ))


def object_state(ctrl: MemoryController, position: dict[int, int]):
    """The object state a packed engine's flush writes back.

    Queue order as each request's position in its stream (`position`
    maps request id to index: ids come from one global counter, so two
    runs of one stream number their requests differently), per-bank row
    and timing fences, per-rank/group fences and the FAW window, the
    data bus, the last requester per bank and channel-wide, and the
    refresh fences.
    """
    reads = [
        position[entry.request.req_id]
        for entry in ctrl._read_queue._global_fifo if not entry.served
    ]
    writes = [
        position[entry.request.req_id]
        for entry in ctrl._write_buffer.queue._global_fifo
        if not entry.served
    ]
    banks = [
        (
            bank.open_row, bank.next_act, bank.next_pre, bank.next_cas,
            bank.cas_data_until,
        )
        for bank in ctrl._banks
    ]
    ranks = [
        (
            list(rank._last_cas_group), list(rank._last_act_group),
            list(rank._last_write_data_end_group),
            rank._last_cas_rank, rank._last_act_rank,
            rank._last_read_issue, rank._last_write_data_end_rank,
            list(rank._act_window),
        )
        for rank in ctrl._ranks
    ]
    bus = (ctrl._bus.free_at, ctrl._bus.last_rank)
    requesters = (list(ctrl._last_req_by_bank), ctrl._last_req_channel)
    refresh = (ctrl._refresh.until, ctrl._refresh.next_due)
    return reads, writes, banks, ranks, bus, requesters, refresh


def started(engine, stream_spec, stop, scheduling="fr-fcfs",
            page_policy="open", timing=DDR4_2400):
    """A controller run to `stop` on a rebuilt stream, and the stream's
    request-id -> position map."""
    ctrl = make_controller(engine, scheduling, page_policy, timing)
    requests = rebuild(stream_spec)
    for request in requests:
        ctrl.enqueue(request)
    ctrl.run_until(stop)
    return ctrl, {rq.req_id: i for i, rq in enumerate(requests)}


class TestWriteBack:
    """flush() writes the columns back as the reference engine holds
    them, and observing a packed controller changes nothing."""

    @settings(max_examples=60, deadline=None)
    @given(
        requests=streams(requesters=3, shapes=(SPARSE, BURSTY, DENSE)),
        scheduling=st.sampled_from(SCHEDULERS),
        page_policy=st.sampled_from(["open", "closed"]),
        timing=st.sampled_from(SPECS),
        stop=st.integers(min_value=0, max_value=3000),
    )
    def test_engines_agree_mid_run(
        self, requests, scheduling, page_policy, timing, stop
    ):
        spec = spec_of(requests)
        packed, packed_pos = started(
            "packed", spec, stop, scheduling, page_policy, timing
        )
        reference, reference_pos = started(
            "reference", spec, stop, scheduling, page_policy, timing
        )
        packed._packed.flush()
        assert packed.now == reference.now
        assert object_state(packed, packed_pos) == object_state(
            reference, reference_pos
        ), (
            f"written-back state differs at cycle {stop} for "
            f"{scheduling}/{page_policy}, "
            f"{timing.organization.ranks} rank(s)"
        )

    @settings(max_examples=25, deadline=None)
    @given(
        requests=streams(requesters=3, shapes=(SPARSE, BURSTY, DENSE)),
        scheduling=st.sampled_from(SCHEDULERS),
        page_policy=st.sampled_from(["open", "closed"]),
        stop=st.integers(min_value=0, max_value=3000),
    )
    def test_snapshot_changes_nothing(
        self, requests, scheduling, page_policy, stop
    ):
        spec = spec_of(requests)
        control, __ = started("packed", spec, stop, scheduling, page_policy)
        candidate, __ = started(
            "packed", spec, stop, scheduling, page_policy
        )
        first = candidate.stall_snapshot()
        assert candidate.stall_snapshot() == first
        for ctrl in (control, candidate):
            ctrl.drain()
            ctrl.finalize()
        assert observed(candidate) == observed(control)

    def test_snapshot_before_first_run(self):
        requests = [
            Request(RequestType.READ, i * 4096, arrival=10 + i)
            for i in range(4)
        ]
        ctrl = make_controller("packed")
        for request in requests:
            ctrl.enqueue(request)
        snapshot = ctrl.stall_snapshot()  # flush() before the first run
        assert snapshot["queued_reads"] == snapshot["queued_writes"] == 0
        assert snapshot["queue_head"] == snapshot["candidates"] == []
        assert all(bank["open_row"] is None for bank in snapshot["banks"])
        assert snapshot == make_controller("reference").stall_snapshot()
        # The loop then starts from its untouched columns.
        ran = observed(run_stream(ctrl, []))
        expected = observed(run_stream(
            make_controller("reference"), rebuild(spec_of(requests)),
        ))
        assert ran == expected


def observed(ctrl: MemoryController) -> dict:
    """Everything the stacks read from a finished run — every event-log
    list in full, requesters included — by name, plus the state a later
    run would start from: the counters and every bank's open row."""
    stats = ctrl.stats
    return {
        **{
            entry.name: getattr(ctrl.log, entry.name)
            for entry in dataclasses.fields(ctrl.log)
        },
        "counters": (
            stats.reads_enqueued, stats.writes_enqueued,
            stats.reads_completed, stats.writes_completed,
            stats.activates, stats.precharges,
            stats.row_hits, stats.row_misses,
            stats.page_hit_rate, ctrl.now,
        ),
        "open_rows": [bank.open_row for bank in ctrl.banks],
    }


def run_phases(ctrl: MemoryController, phases) -> MemoryController:
    """Enqueue and drain each phase in turn, its arrivals offset to the
    cycle the previous drain ended; then finalize accounting."""
    for phase in phases:
        base = ctrl.now
        for type_, address, arrival, requester in phase:
            ctrl.enqueue(Request(
                type_, address, arrival=base + arrival,
                requester_id=requester,
            ))
        ctrl.drain()
    ctrl.finalize()
    return ctrl


class TestEngineAgreement:
    """Packed and reference emit the same events, owners and counters,
    and leave the same rows open."""

    @settings(max_examples=60, deadline=None)
    @given(
        requests=streams(requesters=3, shapes=(SPARSE, BURSTY, DENSE)),
        scheduling=st.sampled_from(SCHEDULERS),
        page_policy=st.sampled_from(["open", "closed"]),
        timing=st.sampled_from(SPECS),
    )
    def test_engines_agree(self, requests, scheduling, page_policy, timing):
        spec = spec_of(requests)
        packed, reference = (
            observed(run_stream(
                make_controller(engine, scheduling, page_policy, timing),
                rebuild(spec),
            ))
            for engine in ("packed", "reference")
        )
        ranks = timing.organization.ranks
        for name in packed:
            assert packed[name] == reference[name], (
                f"packed != reference on {name} for "
                f"{scheduling}/{page_policy}, {ranks} rank(s)"
            )

    @settings(max_examples=40, deadline=None)
    @given(
        phases=st.lists(
            streams(requesters=3, shapes=(SPARSE, BURSTY)),
            min_size=3, max_size=3,
        ),
        scheduling=st.sampled_from(SCHEDULERS),
    )
    def test_engines_agree_across_drains(self, phases, scheduling):
        # Closed page: every drain can end while a policy precharge
        # waits, and the next phase starts from whatever the drain left
        # open, so a precharge issued past the end of a drain moves
        # every later phase's log.
        specs = [spec_of(phase) for phase in phases]
        packed, reference = (
            observed(run_phases(
                make_controller(engine, scheduling, "closed"), specs,
            ))
            for engine in ("packed", "reference")
        )
        for name in packed:
            assert packed[name] == reference[name], (
                f"packed != reference on {name} for {scheduling}/closed "
                f"over {len(specs)} drains"
            )


class TestPolicyTables:
    def test_every_policy_name_runs_packed(self):
        for scheduling in components.SCHEDULERS:
            for page_policy in components.PAGE_POLICIES:
                for refresh in components.REFRESH:
                    ctrl = MemoryController(ControllerConfig(
                        scheduling=scheduling, page_policy=page_policy,
                        refresh=refresh,
                    ))
                    assert ctrl._packed is not None
                    assert packed_fallback_reason(ctrl) is None


class TestEagerRejection:
    """Bad engine names fail at config time, listing the choices."""

    def test_engine_error_lists_sorted_choices(self):
        for engine in ("warp", "fast"):
            with pytest.raises(ConfigurationError) as excinfo:
                ControllerConfig(spec=DDR4_2400, engine=engine)
            message = str(excinfo.value)
            assert message.index("packed") < message.index("reference")
