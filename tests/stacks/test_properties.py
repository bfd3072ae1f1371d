"""Property-based tests over the full controller + accounting pipeline.

These are the paper's central invariants, checked on randomized request
streams:

* bandwidth stack components always sum exactly to total time (no double
  counting, no lost cycles) — for any stream, any page policy, any
  address scheme;
* latency components of every read are non-negative and sum to its
  measured latency;
* data bursts never overlap (the data bus is exclusive);
* every request eventually completes.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.dram import (
    ControllerConfig,
    MemoryController,
    Request,
    RequestType,
)
from repro.dram.timing import DDR4_2400
from repro.dram.wqueue import WriteQueueConfig
from repro.stacks.bandwidth import BandwidthStackAccountant
from repro.stacks.latency import LatencyStackAccountant

SPEC = DDR4_2400


@st.composite
def request_streams(draw):
    """A short, randomized request stream with mixed patterns."""
    count = draw(st.integers(min_value=1, max_value=60))
    requests = []
    t = 0
    for __ in range(count):
        t += draw(st.integers(min_value=0, max_value=120))
        is_write = draw(st.booleans())
        # Mix of page-local and row-conflicting addresses.
        line = draw(st.integers(min_value=0, max_value=1 << 14))
        address = line * 64
        requests.append(Request(
            RequestType.WRITE if is_write else RequestType.READ,
            address,
            arrival=t,
        ))
    return requests


configs = st.sampled_from([
    ControllerConfig(),
    ControllerConfig(page_policy="closed"),
    ControllerConfig(address_scheme="interleaved"),
    ControllerConfig(scheduling="fcfs"),
    ControllerConfig(refresh="none"),
    ControllerConfig(
        page_policy="closed",
        address_scheme="interleaved",
        write_queue=WriteQueueConfig(capacity=4, high_watermark=0.5,
                                     low_watermark=0.25),
    ),
])


def run(config: ControllerConfig, requests: list[Request]) -> MemoryController:
    mc = MemoryController(config)
    for request in sorted(requests, key=lambda r: r.arrival):
        mc.enqueue(request)
    mc.drain()
    mc.finalize()
    return mc


@settings(max_examples=60, deadline=None)
@given(configs, request_streams())
def test_bandwidth_stack_is_exact(config, requests):
    mc = run(config, requests)
    total = max(mc.now, 1)
    stack = BandwidthStackAccountant(SPEC).account(mc.log, total)
    stack.check_total(SPEC.peak_bandwidth_gbps)


@settings(max_examples=60, deadline=None)
@given(configs, request_streams())
def test_every_request_completes(config, requests):
    mc = run(config, requests)
    assert mc.pending_requests == 0
    assert (
        mc.stats.reads_completed + mc.stats.writes_completed
        == len(requests)
    )


@settings(max_examples=60, deadline=None)
@given(configs, request_streams())
def test_bursts_never_overlap(config, requests):
    mc = run(config, requests)
    bursts = sorted(mc.log.bursts)
    for (s1, e1, *__), (s2, e2, *__) in zip(bursts, bursts[1:]):
        assert e1 <= s2, f"burst [{s2},{e2}) overlaps [{s1},{e1})"


@settings(max_examples=60, deadline=None)
@given(configs, request_streams())
def test_latency_components_exact_and_nonnegative(config, requests):
    mc = run(config, requests)
    acct = LatencyStackAccountant(SPEC)
    for request in mc.completed_requests:
        if not request.is_read or request.forwarded:
            continue
        parts = acct.decompose(
            request, mc.log.refresh_windows, mc.log.drain_windows
        )
        for name, value in parts.items():
            assert value >= 0, f"{name} negative: {value}"
        assert sum(parts.values()) == request.finish - request.arrival


@settings(max_examples=40, deadline=None)
@given(configs, request_streams(), st.integers(min_value=50, max_value=5000))
def test_binned_accounting_is_exact_per_bin(config, requests, bin_cycles):
    mc = run(config, requests)
    total = max(mc.now, 1)
    acct = BandwidthStackAccountant(SPEC)
    bins = acct.account_cycles(mc.log, total, bin_cycles)
    n = SPEC.organization.banks
    covered = 0
    for counters in bins:
        covered += sum(counters.values())
    assert covered == n * total


@settings(max_examples=30, deadline=None)
@given(request_streams())
def test_reads_complete_in_bounded_time(requests):
    # No starvation: with FR-FCFS and drains, every read finishes within
    # a generous bound of its arrival.
    mc = run(ControllerConfig(), requests)
    horizon = 10 * SPEC.tREFI + 200 * len(requests)
    for request in mc.completed_requests:
        assert request.finish - request.arrival < horizon
