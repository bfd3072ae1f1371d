"""Interleaved A/B micro-benchmark: fast vs reference core stepper.

The two core engines (``CoreConfig.engine="fast"`` / ``"reference"``)
are bit-identical by construction — the golden differential matrix and
the hypothesis property suite prove that. This benchmark measures the
other half of the claim. The engines differ in how the dispatch loop
runs (batched, on hoisted locals, with the cycle-stack add inlined,
versus per-item stepping) and in how they walk the caches: the fast
engine probes L1 and L2 inline and makes one call past L2, the
reference engine calls ``CacheHierarchy.access`` and gets an
``AccessResult`` back. Only the DRAM controller is shared. So the
honest expectations are:

* compute-dominated traces — the dispatch loop is most of the work, the
  fast engine must be strictly faster;
* memory-bound traces — nearly every access misses to DRAM, so the
  shared controller dominates; the fast engine saves only its share of
  the walk and must stay at least at parity within noise.

Measurement protocol: the two arms are *interleaved* (A/B/A/B over
several rounds) so slow machine drift — other tenants, thermal
throttling — hits both arms equally, and each arm is scored by its
minimum. A per-arm minimum over interleaved rounds is far more stable
than a single back-to-back comparison on a noisy box.
"""

from __future__ import annotations

import time

from repro.cpu.core import CoreConfig, TraceItem
from repro.cpu.system import CpuSystem
from repro.experiments.config import paper_system
from repro.reliability.fingerprint import (
    diff_fingerprints,
    result_fingerprint,
)
from repro.workloads.synthetic import SyntheticConfig, make_pattern

ROUNDS = 3
CORES = 2

# Parity headroom for the memory-bound arm: the shared controller is
# most of the run there, so only flag a regression past this ratio.
NOISE_HEADROOM = 1.15


def compute_heavy_traces(items_per_core: int = 30_000):
    """Hand-built traces that keep the dispatch loop hot: long compute
    stretches with a sparse sprinkle of memory operations (enough that
    the ROB/MSHR machinery stays exercised, not enough to let DRAM
    dominate the measurement)."""
    traces = []
    for core in range(CORES):
        trace = []
        for i in range(items_per_core):
            if i % 16 == 0:
                address = ((core * items_per_core + i) * 64) % (1 << 27)
                trace.append(TraceItem(
                    instructions=200, address=address,
                    is_store=(i % 5 == 0),
                ))
            else:
                trace.append(TraceItem(instructions=200, address=-1))
        traces.append(trace)
    return traces


def memory_bound_traces():
    workload = make_pattern("random", SyntheticConfig(
        accesses_per_core=4_000,
        store_fraction=0.2,
        instructions_per_access=8,
    ))
    return [list(t) for t in workload.traces(CORES)]


def run_engine(traces, engine: str):
    config = paper_system(
        cores=CORES, gap=True, core=CoreConfig(engine=engine)
    )
    system = CpuSystem(config)
    return system.run([list(t) for t in traces], guard=False)


def timed_arms(traces):
    """Interleave fast/reference runs; return per-arm minima plus one
    (fast, reference) result pair for the identity check."""
    minima = {"fast": float("inf"), "reference": float("inf")}
    results = {}
    for _ in range(ROUNDS):
        for engine in ("fast", "reference"):
            start = time.perf_counter()
            result = run_engine(traces, engine)
            elapsed = time.perf_counter() - start
            minima[engine] = min(minima[engine], elapsed)
            results[engine] = result
    return minima, results


def assert_arms_agree(results):
    problems = diff_fingerprints(
        result_fingerprint(results["reference"]),
        result_fingerprint(results["fast"]),
    )
    assert not problems, "\n".join(problems)


def record(benchmark, minima):
    benchmark.extra_info["fast_seconds"] = round(minima["fast"], 4)
    benchmark.extra_info["reference_seconds"] = round(
        minima["reference"], 4
    )
    benchmark.extra_info["speedup"] = round(
        minima["reference"] / minima["fast"], 3
    )


def test_fast_engine_wins_compute_heavy(run_once, benchmark):
    """Long pure-compute stretches are dispatched in batches rather
    than item by item: the event-skipping engine must win outright."""
    traces = compute_heavy_traces()
    minima, results = run_once(timed_arms, traces)
    assert_arms_agree(results)
    record(benchmark, minima)
    assert minima["fast"] < minima["reference"], minima


def test_fast_engine_parity_memory_bound(run_once, benchmark):
    """Memory-bound mix (8 instructions/access): nearly every access
    misses to DRAM, and the shared controller dominates the run, so the
    fast engine, whose inline walk saves only part of the rest, must
    stay within noise of the reference stepper."""
    traces = memory_bound_traces()
    minima, results = run_once(timed_arms, traces)
    assert_arms_agree(results)
    record(benchmark, minima)
    assert minima["fast"] <= minima["reference"] * NOISE_HEADROOM, minima
