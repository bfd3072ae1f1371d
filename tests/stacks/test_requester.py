"""System-level conservation of the per-requester stacks.

The controller-level properties (tests/dram/test_qos_properties.py)
prove exact conservation on raw event logs; these tests pin the same
invariants on full :class:`~repro.cpu.system.SimulationResult` runs —
caches, prefetchers and write-backs included — through the public
``per_requester_*`` accessors the figure and service layers use.
"""

from __future__ import annotations

import pytest

from repro.dram import (
    ControllerConfig,
    MemoryController,
    Request,
    RequestType,
)
from repro.devices import DEVICES
from repro.experiments.config import ExperimentScale
from repro.experiments.runner import run_qos, run_synthetic
from repro.stacks.bandwidth import BandwidthStackAccountant
from repro.stacks.requester import (
    SHARED_REQUESTER,
    RequesterBandwidthAccountant,
    fold_interference,
)
from tests.conftest import run_stream

TINY = ExperimentScale(
    "qos-tiny", synthetic_accesses=150, graph_scale=8, graph_degree=4
)

#: Every registered preset that presents one channel, plus DDR5 with
#: one sub-channel: same-bank refresh on a single channel.
ONE_CHANNEL_DEVICES = [
    name for name in DEVICES
    if ControllerConfig(device=name).device_channels == 1
] + ["ddr5-4800:subchannels=1"]


@pytest.fixture(scope="module")
def qos_result():
    return run_qos(scheduling="wrr", scale=TINY, guard=False)


class TestSystemConservation:
    def test_requester_cycles_fold_to_aggregate(self, qos_result):
        """Sum over requesters of (own + interference) == channel stack,
        exact integers."""
        rows = qos_result.per_requester_bandwidth_cycles()
        aggregate = BandwidthStackAccountant(
            qos_result.spec
        ).account_cycles(
            qos_result.memory.log, qos_result.total_cycles
        )[0]
        assert fold_interference(rows) == aggregate
        n = qos_result.spec.organization.total_banks
        total = sum(sum(row.values()) for row in rows.values())
        assert total == n * qos_result.total_cycles

    def test_stacks_sum_to_peak_bandwidth(self, qos_result):
        stacks = qos_result.per_requester_bandwidth_stacks()
        assert set(stacks) == {SHARED_REQUESTER, 0, 1}
        total = sum(stack.total for stack in stacks.values())
        assert total == pytest.approx(qos_result.spec.peak_bandwidth_gbps)

    def test_latency_weighted_mean_matches_aggregate(self, qos_result):
        """Per-requester averages recombine to the aggregate average:
        interference only re-labels queue cycles, never adds any."""
        per_requester = qos_result.per_requester_latency_stacks()
        counts = {}
        for request in qos_result.memory.completed_requests:
            if (
                request.is_read and not request.forwarded
                and request.cas_issue >= 0
            ):
                counts[request.requester_id] = (
                    counts.get(request.requester_id, 0) + 1
                )
        assert set(per_requester) == set(counts)
        weighted = sum(
            per_requester[r].total * counts[r] for r in counts
        )
        aggregate = qos_result.latency_stack()
        assert weighted / sum(counts.values()) == pytest.approx(
            aggregate.total
        )

    def test_labels_name_the_requesters(self, qos_result):
        bandwidth = qos_result.per_requester_bandwidth_stacks("qos ")
        assert bandwidth[0].label == "qos R0"
        assert bandwidth[SHARED_REQUESTER].label == "qos shared"
        latency = qos_result.per_requester_latency_stacks("qos ")
        assert latency[1].label == "qos R1"


class TestSameBankRefresh:
    def test_refpb_cycles_land_on_the_shared_row(self):
        """On LPDDR5 (per-bank REFpb) the folded rows keep every refresh
        unit of the aggregate: same-bank refresh is nobody's cycles."""
        ctrl = MemoryController(ControllerConfig(
            device="lpddr5-6400", scheduling="wrr"
        ))
        run_stream(ctrl, [
            Request(
                RequestType.READ, (i * 7919 % 4096) * 64, arrival=i * 12,
                core_id=i % 2, requester_id=i % 2,
            )
            for i in range(400)
        ])
        assert ctrl.log.bank_refresh_windows
        rows = RequesterBandwidthAccountant(ctrl.spec).account_cycles(
            ctrl.log, ctrl.now
        )
        aggregate = BandwidthStackAccountant(ctrl.spec).account_cycles(
            ctrl.log, ctrl.now
        )[0]
        assert aggregate["refresh"] > 0
        assert rows[SHARED_REQUESTER]["refresh"] == aggregate["refresh"]
        assert fold_interference(rows) == aggregate


class TestSingleRequesterDegeneracy:
    def test_synthetic_run_has_no_interference(self):
        result = run_synthetic(
            "random", cores=2, scale=TINY, guard=False, scheduling="wrr"
        )
        rows = result.per_requester_bandwidth_cycles()
        assert set(rows) == {SHARED_REQUESTER, 0}
        assert all(row.get("interference", 0) == 0 for row in rows.values())
        latency = result.per_requester_latency_stacks()
        assert latency[0]["interference"] == 0.0

    @pytest.mark.parametrize("device", ONE_CHANNEL_DEVICES)
    def test_latency_row_equals_the_aggregate(self, device):
        """With one requester the latency split is the aggregate's,
        same-bank refresh included."""
        result = run_synthetic(
            "random", cores=2, store_fraction=0.2, scale=TINY,
            guard=False, device=device,
        )
        rows = result.per_requester_latency_stacks()
        assert set(rows) == {0}
        row = dict(rows[0])
        assert row.pop("interference") == 0.0
        assert row == pytest.approx(dict(result.latency_stack()))
