"""Differential tests: independent configurations that must agree.

Three families of cross-checks, none of which depend on committed
fixtures — the simulator is differenced against *itself*:

* **packed vs reference engine** — the production struct-of-arrays
  loop (plan cache, per-bank candidate caches, incremental plan repair,
  fused wait-and-issue, the QoS arbiter stage) must produce a
  bit-identical event log and stacks to the straightforward
  re-plan-every-step reference engine;
* **FCFS vs FR-FCFS** — reordering changes timing but never the work:
  both policies must complete exactly the same read/write requests, and
  each must satisfy the stack-exactness invariants;
* **open vs closed page policy** — the page policy changes precharge
  behaviour but not the data moved: bursts and byte counts must match.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cpu.core import CoreConfig
from repro.cpu.prefetcher import PrefetcherConfig
from repro.cpu.system import CpuSystem
from repro.experiments.config import paper_system
from repro.reliability.fingerprint import (
    diff_fingerprints,
    result_fingerprint,
)
from repro.workloads.synthetic import SyntheticConfig, make_pattern

ACCESSES = 1_500


def run_config(
    pattern: str,
    store_fraction: float = 0.0,
    page_policy: str = "open",
    scheduling: str = "fr-fcfs",
    engine: str = "packed",
    cores: int = 2,
    prefetch: bool = True,
    core_engine: str = "fast",
    device: str | None = None,
    requesters: int | None = None,
):
    """One synthetic run with full control over scheduler knobs.

    ``prefetch=False`` (with ``cores=1``) makes the DRAM request stream
    a pure function of the trace: the simulator is closed-loop, so with
    prefetching on, memory timing feeds back into how many prefetches
    fit under the in-flight cap, and with multiple cores it feeds back
    into the shared-LLC interleaving — both legitimately change request
    *counts* across scheduling policies. The cross-policy invariance
    tests below compare the work itself, so they pin the stream down.
    """
    config = paper_system(
        cores=cores, page_policy=page_policy, gap=True,
        core=CoreConfig(engine=core_engine), device=device,
        requesters=requesters,
    )
    memory = replace(config.memory, scheduling=scheduling, engine=engine)
    if prefetch:
        config = replace(config, memory=memory)
    else:
        hierarchy = replace(
            config.hierarchy, prefetcher=PrefetcherConfig(enabled=False)
        )
        config = replace(config, memory=memory, hierarchy=hierarchy)
    workload = make_pattern(pattern, SyntheticConfig(
        accesses_per_core=ACCESSES,
        store_fraction=store_fraction,
    ))
    return CpuSystem(config).run(workload.traces(cores), guard=False)


# ----------------------------------------------------------------------
# Packed engine vs reference engine: bit-identical results.
# ----------------------------------------------------------------------
# The packed struct-of-arrays engine must agree with the reference
# oracle everywhere: both page policies, both stock schedulers, store
# mixes, the QoS arbiters (run with two requester domains, so the
# arbiters actually arbitrate) and the packed loop per channel under
# the DDR5, LPDDR5 and HBM2 (eight pseudo-channels) presets.
PACKED_MATRIX = [
    # (pattern, store_fraction, page_policy, scheduling, device)
    ("sequential", 0.0, "open", "fr-fcfs", None),
    ("random", 0.0, "open", "fr-fcfs", None),
    ("strided", 0.3, "open", "fr-fcfs", None),
    ("pointer-chase", 0.0, "open", "fr-fcfs", None),
    ("sequential", 0.5, "closed", "fr-fcfs", None),
    ("random", 0.5, "closed", "fr-fcfs", None),
    ("sequential", 0.0, "open", "fcfs", None),
    ("random", 0.3, "closed", "fcfs", None),
    ("strided", 0.0, "closed", "fr-fcfs", None),
    ("random", 0.2, "open", "wrr:2,1", None),
    ("random", 0.2, "closed", "wrr:3,1", None),
    ("sequential", 0.3, "open", "bank-reg:period=1000,budget=4", None),
    ("random", 0.0, "open", "fr-fcfs", "ddr5-4800"),
    ("sequential", 0.3, "closed", "fr-fcfs", "ddr5-4800"),
    ("random", 0.0, "open", "fr-fcfs", "lpddr5-6400"),
    ("random", 0.2, "open", "fr-fcfs", "hbm2"),
    ("sequential", 0.5, "closed", "fr-fcfs", "hbm2"),
]

#: The one row where the engines' *blocked attribution* differs. Both
#: issue every command at the same cycle, but on DDR5 sub-channels a
#: wait window can be split at different cycles: packed derives the
#: binding constraint once when the wait starts and extends the window
#: in place, while reference re-derives it at each of its own re-entry
#: cycles, so a fence that expires mid-wait — leaving only the
#: unattributed one-command-per-cycle gate — is labeled differently.
BLOCKED_ATTRIBUTION_DELTA = ("random", 0.0, "open", "fr-fcfs", "ddr5-4800")

#: The fast-vs-reference core-engine matrix: the first eight rows.
ENGINE_MATRIX = [row[:4] for row in PACKED_MATRIX[:8]]


def _channel_logs(result):
    memory = result.memory
    channels = getattr(memory, "channels", None)
    if channels is None:
        return [memory.log]
    return [channel.log for channel in channels]


@pytest.mark.parametrize(
    "pattern,store_fraction,page_policy,scheduling,device",
    PACKED_MATRIX,
    ids=[
        f"{p}-sf{sf}-{pp}-{sched}-{dev or 'ddr4'}"
        for p, sf, pp, sched, dev in PACKED_MATRIX
    ],
)
def test_packed_engine_matches_reference(
    pattern, store_fraction, page_policy, scheduling, device
):
    requesters = 2 if scheduling.startswith(("wrr", "bank-reg")) else None
    runs = {
        engine: run_config(
            pattern, store_fraction, page_policy, scheduling,
            engine=engine, device=device, requesters=requesters,
        )
        for engine in ("packed", "reference")
    }
    problems = diff_fingerprints(
        result_fingerprint(runs["reference"]),
        result_fingerprint(runs["packed"]),
    )
    row = (pattern, store_fraction, page_policy, scheduling, device)
    if row != BLOCKED_ATTRIBUTION_DELTA:
        assert not problems, (
            "packed engine diverged from reference:\n  "
            + "\n  ".join(problems)
        )
        return
    # The stacks and every command timeline must still match exactly:
    # the delta is confined to blocked attribution.
    from repro.dram.components.accounting import DIGEST_WIDTHS

    for ch, (plog, rlog) in enumerate(zip(
        _channel_logs(runs["packed"]), _channel_logs(runs["reference"])
    )):
        for name in DIGEST_WIDTHS:
            if name == "blocked":
                continue
            assert getattr(plog, name) == getattr(rlog, name), (
                f"channel {ch} {name} timeline diverged — the "
                "packed-vs-reference delta must be confined to "
                "blocked attribution"
            )


# ----------------------------------------------------------------------
# Fast core engine vs reference core engine: bit-identical results.
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "pattern,store_fraction,page_policy,scheduling",
    ENGINE_MATRIX,
    ids=[
        f"{p}-sf{sf}-{pp}-{sched}" for p, sf, pp, sched in ENGINE_MATRIX
    ],
)
def test_fast_core_matches_reference_core(
    pattern, store_fraction, page_policy, scheduling
):
    """The event-skipping core stepper is an inline expansion of the
    per-item reference stepper: same floats in the same order, so the
    fingerprints (DRAM event log, stacks, counts) must be identical."""
    fast = result_fingerprint(run_config(
        pattern, store_fraction, page_policy, scheduling,
        core_engine="fast",
    ))
    reference = result_fingerprint(run_config(
        pattern, store_fraction, page_policy, scheduling,
        core_engine="reference",
    ))
    problems = diff_fingerprints(reference, fast)
    assert not problems, (
        "fast core engine diverged from reference:\n  "
        + "\n  ".join(problems)
    )


# ----------------------------------------------------------------------
# FCFS vs FR-FCFS: same completed work, different timing.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("pattern,store_fraction", [
    ("sequential", 0.0),
    ("random", 0.5),
])
def test_scheduling_policies_complete_the_same_work(
    pattern, store_fraction
):
    frfcfs = run_config(
        pattern, store_fraction, scheduling="fr-fcfs",
        cores=1, prefetch=False,
    )
    fcfs = run_config(
        pattern, store_fraction, scheduling="fcfs",
        cores=1, prefetch=False,
    )
    assert frfcfs.dram_reads == fcfs.dram_reads
    assert frfcfs.dram_writes == fcfs.dram_writes
    # Both runs must still satisfy the exactness invariants: the
    # bandwidth stack sums to peak (checked internally — account raises
    # AccountingError on drift when no auditor is attached) and every
    # read's latency components sum to its measured latency.
    for result in (frfcfs, fcfs):
        bandwidth = result.bandwidth_stack()
        latency = result.latency_stack()
        assert bandwidth.total > 0
        assert latency.total > 0
    # FR-FCFS exists to raise row-buffer locality: it must not lose to
    # FCFS on page hits for a pattern with reorderable requests.
    assert (
        frfcfs.memory.stats.page_hit_rate
        >= fcfs.memory.stats.page_hit_rate
    )


# ----------------------------------------------------------------------
# Open vs closed page: same data transferred.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("pattern,store_fraction", [
    ("sequential", 0.0),
    ("random", 0.5),
])
def test_page_policies_transfer_the_same_data(pattern, store_fraction):
    open_page = run_config(
        pattern, store_fraction, page_policy="open",
        cores=1, prefetch=False,
    )
    closed = run_config(
        pattern, store_fraction, page_policy="closed",
        cores=1, prefetch=False,
    )
    assert open_page.dram_reads == closed.dram_reads
    assert open_page.dram_writes == closed.dram_writes
    # Every completed request is one line-sized burst on the data bus.
    open_bursts = len(open_page.memory.log.bursts)
    closed_bursts = len(closed.memory.log.bursts)
    assert open_bursts == closed_bursts
    line = open_page.spec.organization.line_bytes
    assert (
        open_bursts * line
        == (open_page.dram_reads + open_page.dram_writes) * line
    )
