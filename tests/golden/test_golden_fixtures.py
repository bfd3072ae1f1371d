"""Golden fingerprints of seeded mini-runs.

Three scenarios cover the scheduler's main regimes:

* a read-only sequential stream (page-hit pipelining, bank-group
  rotation, the fused wait-and-issue path);
* a mixed 50/50 read/write random stream under the closed-page policy
  (write-drain mode switches, policy precharges, starvation caps);
* a 2-core GAP BFS traversal (irregular dependent accesses, prefetcher
  interplay, cross-core request interleaving).

The fingerprints pin the *entire* event log and both stacks bit-for-bit,
so they lock down exactly the behaviour the packed-engine optimizations
(plan cache, candidate caches, incremental repair, event-sweep
accounting) must preserve. See docs/performance.md.
"""

from __future__ import annotations

from repro.experiments.config import ExperimentScale
from repro.experiments.runner import run_gap, run_synthetic

# Small but non-trivial: ~3k DRAM requests per synthetic scenario.
GOLDEN_SCALE = ExperimentScale(
    "golden",
    synthetic_accesses=1_500,
    graph_scale=9,
    graph_degree=6,
)


def test_sequential_read_only(golden):
    result = run_synthetic(
        "sequential", cores=2, scale=GOLDEN_SCALE, guard=False
    )
    fp = golden("synthetic-sequential-2c", result)
    assert fp["counts"]["dram_reads"] > 1_000


def test_random_mixed_read_write(golden):
    result = run_synthetic(
        "random",
        cores=2,
        store_fraction=0.5,
        page_policy="closed",
        scale=GOLDEN_SCALE,
        guard=False,
    )
    fp = golden("synthetic-random-rw-closed-2c", result)
    assert fp["counts"]["dram_writes"] > 0


def test_gap_bfs_two_cores(golden):
    result, _ = run_gap("bfs", cores=2, scale="ci", seed=42, guard=False)
    fp = golden("gap-bfs-2c-seed42", result)
    assert fp["counts"]["dram_reads"] > 1_000
