"""Ablation: FR-FCFS vs FCFS scheduling.

FR-FCFS's row-hit preference is the paper's configuration; strict FCFS
forgoes reordering and pays more precharge/activate on mixed traffic.
"""

from repro.dram import ControllerConfig, MemoryController, Request, RequestType
from repro.dram.timing import DDR4_2400

SPEC = DDR4_2400


def run_policy(policy: str):
    """Two interleaved row streams per bank: reordering wins."""
    mc = MemoryController(ControllerConfig(
        scheduling=policy, refresh="none",
    ))
    # Alternate between two rows of the same bank: FCFS ping-pongs
    # (conflict per request), FR-FCFS batches row hits.
    row_a, row_b = 0, 1 << 21
    for i in range(400):
        base = row_a if i % 2 else row_b
        address = base + (i // 2 % 64) * 64
        mc.enqueue(Request(RequestType.READ, address, arrival=i))
    mc.drain()
    mc.finalize()
    return mc


def test_frfcfs_beats_fcfs(run_once):
    frfcfs = run_once(run_policy, "fr-fcfs")
    fcfs = run_policy("fcfs")

    # FR-FCFS finishes the same work sooner with more row hits.
    assert frfcfs.now < fcfs.now
    assert frfcfs.stats.page_hit_rate > fcfs.stats.page_hit_rate
    assert frfcfs.stats.activates < fcfs.stats.activates


def test_fcfs_is_starvation_free_by_construction(run_once):
    mc = run_once(run_policy, "fcfs")
    finishes = [r.finish for r in mc.completed_requests]
    arrivals = [r.arrival for r in mc.completed_requests]
    # Strict order: completion order == arrival order.
    assert finishes == sorted(finishes)
    assert arrivals == sorted(arrivals)
