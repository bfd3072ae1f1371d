#!/usr/bin/env python3
"""Compare DRAM generations with bandwidth stacks.

The same saturating random workload against DDR4-2400, DDR4-3200 and a
DDR5-4800-like organization: faster grades raise the peak, and DDR5's
doubled bank groups convert bank-idle loss into achieved bandwidth for
row-missing traffic.
"""

from repro.dram import (
    ControllerConfig,
    MemoryController,
    Request,
    RequestType,
)
from repro.dram.timing import DDR4_2400, DDR4_3200, DDR5_4800
from repro.stacks.bandwidth import bandwidth_stack_from_log
from repro.stacks.latency import latency_stack_from_requests
from repro.viz.ascii_art import render_stack_table

SPECS = (DDR4_2400, DDR4_3200, DDR5_4800)


def run(spec):
    """A backlog of row-missing reads striped over all banks."""
    mc = MemoryController(ControllerConfig(
        spec=spec, address_scheme="interleaved",
    ))
    for i in range(2500):
        address = i * (1 << 18) + (i % 64) * 64
        mc.enqueue(Request(RequestType.READ, address, arrival=i))
    mc.drain()
    mc.finalize()
    bw = bandwidth_stack_from_log(mc.log, mc.now, spec, spec.name)
    lat = latency_stack_from_requests(
        mc.completed_requests, mc.log, spec, label=spec.name,
    )
    return bw, lat


def main() -> None:
    bw_stacks, lat_stacks = [], []
    for spec in SPECS:
        bw, lat = run(spec)
        bw_stacks.append(bw)
        lat_stacks.append(lat)

    print(render_stack_table(
        bw_stacks, title="Bandwidth stacks by DRAM generation (GB/s)"
    ))
    print()
    print(render_stack_table(
        lat_stacks, title="Latency stacks by DRAM generation (ns)"
    ))
    print()
    for bw in bw_stacks:
        achieved = bw["read"] + bw["write"]
        print(f"{bw.label:12s} achieved {achieved:6.2f} / "
              f"{bw.total:5.2f} GB/s ({achieved / bw.total:5.1%})")


if __name__ == "__main__":
    main()
