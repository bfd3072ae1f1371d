"""Bus-event regression tests for the multi-requester model.

Every bus event that carries a request must expose the requester
domain, consistently with the request objects themselves — online QoS
observers (a per-domain meter, an interference tracer) must never have
to reach into controller internals. The existing subscribers (the
forward-progress watchdog, the live utilization meter) must keep
working, untouched, on multi-requester runs.
"""

from __future__ import annotations

from repro.core.events import (
    CommandIssued,
    EventBus,
    RequestAdmitted,
    RequestCompleted,
    RequesterStalled,
)
from repro.dram import (
    ControllerConfig,
    MemoryController,
    Request,
    RequestType,
)
from repro.dram.timing import DDR4_2400
from repro.viz.live import LiveUtilizationMeter
from tests.conftest import run_stream


def contended_run(scheduling: str = "wrr", count: int = 24):
    """A contended 2-requester run with every event type collected."""
    bus = EventBus()
    seen: dict[type, list] = {
        CommandIssued: [],
        RequestAdmitted: [],
        RequestCompleted: [],
        RequesterStalled: [],
    }
    for event_type, into in seen.items():
        bus.subscribe(event_type, into.append)
    ctrl = MemoryController(
        ControllerConfig(spec=DDR4_2400, scheduling=scheduling), bus=bus
    )
    requests = []
    for i in range(count):
        for requester in (0, 1):
            requests.append(Request(
                RequestType.READ if i % 3 else RequestType.WRITE,
                (requester << 22) + i * 64,
                arrival=i * 2,
                core_id=requester,
                requester_id=requester,
            ))
    run_stream(ctrl, requests)
    owners = {rq.req_id: rq.requester_id for rq in requests}
    return seen, owners


class TestRequesterIdOnBus:
    def test_admissions_carry_the_request_owner(self):
        seen, owners = contended_run()
        assert len(seen[RequestAdmitted]) == len(owners)
        for event in seen[RequestAdmitted]:
            assert event.requester_id == owners[event.req_id]

    def test_completions_carry_the_request_owner(self):
        seen, owners = contended_run()
        assert seen[RequestCompleted]
        for event in seen[RequestCompleted]:
            assert event.requester_id == owners[event.req_id]

    def test_commands_carry_the_owner_or_minus_one(self):
        seen, owners = contended_run(scheduling="bank-reg:period=400,budget=2")
        assert seen[CommandIssued]
        for event in seen[CommandIssued]:
            if event.req_id >= 0:
                assert event.requester_id == owners[event.req_id]
            else:
                # Policy precharges and refreshes belong to nobody.
                assert event.requester_id == -1

    def test_stalls_name_victim_and_blocker(self):
        seen, owners = contended_run()
        assert seen[RequesterStalled], (
            "a contended 2-requester run must surface interference"
        )
        requesters = set(owners.values())
        for event in seen[RequesterStalled]:
            assert event.requester_id in requesters
            assert event.blocker_id in requesters
            assert event.blocker_id != event.requester_id
            assert event.cycle < event.until
            assert event.reason

    def test_stalls_match_logged_interference(self):
        """Each stall event mirrors an interference blocked window."""
        bus = EventBus()
        stalls: list[RequesterStalled] = []
        bus.subscribe(RequesterStalled, stalls.append)
        ctrl = MemoryController(
            ControllerConfig(spec=DDR4_2400, scheduling="wrr"), bus=bus
        )
        requests = [
            Request(
                RequestType.READ, (r << 22) + i * 64, arrival=0,
                core_id=r, requester_id=r,
            )
            for i in range(16) for r in (0, 1)
        ]
        run_stream(ctrl, requests)
        logged = {
            (start, scope, reason): victim
            for start, __, scope, ___, reason, victim, inter
            in ctrl.log.blocked
            if inter
        }
        assert stalls
        for event in stalls:
            key = next(
                (k for k in logged if k[0] == event.cycle
                 and k[2] == event.reason),
                None,
            )
            assert key is not None, f"stall {event} not in the event log"
            assert logged[key] == event.requester_id


class TestExistingSubscribersSurvive:
    def test_live_meter_on_multi_requester_run(self):
        bus = EventBus()
        meter = LiveUtilizationMeter(interval=200).attach(bus)
        ctrl = MemoryController(
            ControllerConfig(spec=DDR4_2400, scheduling="wrr"), bus=bus
        )
        requests = [
            Request(
                RequestType.READ, (r << 22) + i * 64, arrival=0,
                core_id=r, requester_id=r,
            )
            for i in range(32) for r in (0, 1)
        ]
        run_stream(ctrl, requests)
        meter.finish(ctrl.now)
        assert meter.total_commands > 0
        assert meter.samples

    def test_default_guard_on_multi_requester_run(self):
        """run_qos under the default watchdog + auditor guard."""
        from repro.experiments.config import ExperimentScale
        from repro.experiments.runner import run_qos

        tiny = ExperimentScale(
            "qos-tiny", synthetic_accesses=60, graph_scale=8,
            graph_degree=4,
        )
        result = run_qos(scheduling="wrr", scale=tiny, guard=None)
        assert result.dram_reads > 0
