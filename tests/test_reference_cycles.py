"""The simulator's object graph is acyclic.

Dropping a finished run (its ``SimulationResult``, or a standalone
``MemoryController``) frees every object of it by reference counting,
where it is dropped. A cycle would keep the whole run alive until the
cyclic collector's next full pass, which in a grid of runs lands
several points later (docs/performance.md, "Memory").

Each case collects, disables the collector, runs, drops every
reference, and collects once more under ``gc.DEBUG_SAVEALL``: an object
of a ``repro`` class among the saved garbage was part of a cycle.
"""

from __future__ import annotations

import dataclasses
import gc
from collections import Counter

import pytest

from repro.cpu.system import CpuSystem
from repro.dram.commands import Request, RequestType
from repro.dram.controller import ControllerConfig, MemoryController
from repro.experiments.config import ExperimentScale, paper_system
from repro.experiments.runner import run_gap, run_qos, run_synthetic
from repro.experiments.sweep import SweepPoint, run_sweep
from repro.workloads.synthetic import SyntheticConfig, make_pattern

TINY = ExperimentScale(
    "cycles-tiny", synthetic_accesses=150, graph_scale=7, graph_degree=4
)
ENGINES = ("packed", "reference")

#: CpuSystem configurations, as paper_system keywords, plus the
#: refresh policy the controller is given.
SYSTEMS = {
    "open-frfcfs": ({}, None),
    "closed-same-bank": ({"page_policy": "closed"}, "same-bank"),
    "wrr": ({"scheduling": "wrr", "requesters": 2}, None),
    "bank-reg-budget": (
        {"scheduling": "bank-reg:period=200,budget=1", "requesters": 2},
        None,
    ),
    "hbm2": ({"device": "hbm2"}, None),
    "ddr5-4800": ({"device": "ddr5-4800"}, None),
}


def cyclic_garbage(run) -> Counter:
    """Classes of the ``repro`` objects that `run()` leaves in cycles.

    `run` must keep no reference to what it built once it returns.
    """
    gc.collect()
    enabled = gc.isenabled()
    flags = gc.get_debug()
    start = len(gc.garbage)
    gc.disable()
    try:
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return Counter(
            type(obj).__qualname__
            for obj in gc.garbage[start:]
            if type(obj).__module__.startswith("repro")
        )
    finally:
        del gc.garbage[start:]
        gc.set_debug(flags)
        if enabled:
            gc.enable()


def system_run(name: str, engine: str):
    options, refresh = SYSTEMS[name]
    memory = {"engine": engine}
    if refresh is not None:
        memory["refresh"] = refresh

    def run():
        config = paper_system(cores=2, gap=True, **options)
        config = dataclasses.replace(config, memory=dataclasses.replace(
            config.memory, **memory,
        ))
        traces = make_pattern("random", SyntheticConfig(
            accesses_per_core=150, store_fraction=0.3,
        )).traces(2)
        result = CpuSystem(config).run(traces)
        result.bandwidth_stack()
        result.latency_stack()

    return run


def controller_run(engine: str):
    def run():
        controller = MemoryController(ControllerConfig(
            page_policy="closed", refresh="same-bank", engine=engine,
        ))
        for i in range(60):
            kind = RequestType.WRITE if i % 3 == 0 else RequestType.READ
            controller.enqueue(Request(kind, i * 8256, arrival=2 * i))
        controller.drain()
        controller.finalize()

    return run


def experiment_run(name: str):
    def run():
        if name == "run_synthetic":
            result = run_synthetic(
                "random", cores=2, store_fraction=0.2, scale=TINY
            )
            result.bandwidth_stack()
            result.latency_stack()
        elif name == "run_gap":
            result, __ = run_gap("bfs", cores=2, scale=TINY)
            result.bandwidth_stack()
        elif name == "run_qos":
            result = run_qos(scheduling="wrr", scale=TINY)
            result.per_requester_bandwidth_stacks()
            result.per_requester_latency_stacks()
        else:
            sweep = run_sweep([
                SweepPoint(pattern="sequential"),
                SweepPoint(pattern="random", cores=2, store_fraction=0.3),
                SweepPoint(pattern="random", page_policy="closed"),
            ], scale=TINY)
            assert sweep.complete

    return run


CASES = {
    **{
        f"system-{name}-{engine}": system_run(name, engine)
        for name in SYSTEMS
        for engine in ENGINES
    },
    **{f"controller-{engine}": controller_run(engine) for engine in ENGINES},
    **{
        name: experiment_run(name)
        for name in ("run_synthetic", "run_gap", "run_qos", "run_sweep")
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_dropped_run_leaves_no_cycles(case):
    assert cyclic_garbage(CASES[case]) == Counter()
