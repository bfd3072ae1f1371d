"""Ablation: energy stacks across access patterns (extension).

Sequential traffic amortizes row activations over whole pages; random
traffic pays an ACT+PRE per line. The energy-per-bit gap between the two
is the energy-side view of the paper's precharge/activate bandwidth
component.
"""

from repro.dram import ControllerConfig, MemoryController, Request, RequestType
from repro.dram.timing import DDR4_2400
from repro.stacks.energy import EnergyAccountant

SPEC = DDR4_2400


def run_pattern(stride: int, count: int = 1500):
    mc = MemoryController(ControllerConfig())
    for i in range(count):
        mc.enqueue(Request(RequestType.READ, i * stride, arrival=i * 6))
    mc.drain()
    mc.finalize()
    acct = EnergyAccountant(SPEC)
    return (
        acct.account(mc.log, mc.now),
        acct.energy_per_bit(mc.log, mc.now),
        acct.average_power(mc.log, mc.now),
    )


def test_energy_by_pattern(run_once):
    seq_stack, seq_pj, seq_power = run_once(run_pattern, 64)
    rand_stack, rand_pj, rand_power = run_pattern(1 << 21)

    # Random pays far more activate/precharge energy for the same data.
    assert (
        rand_stack["activate_precharge"]
        > 20 * seq_stack["activate_precharge"]
    )
    assert rand_pj > 1.5 * seq_pj

    # Refresh energy is workload-independent per unit time.
    seq_refresh_rate = seq_stack["refresh"] / seq_stack.total
    assert seq_refresh_rate >= 0

    # Background power matches the model constant.
    assert abs(seq_power["background"] - 90.0) < 1.0
