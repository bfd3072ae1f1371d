"""The benchmark's workloads: point lists, point execution, digests.

A workload is a list of simulation points. Each point is built the way
:mod:`repro.experiments.runner` builds one, from public calls only:
``make_pattern``/``GapWorkload`` with the benchmark's seed, then
``paper_system``, ``CpuSystem(config).run(traces)`` and the stack
methods. Every point starts from a fresh ``CpuSystem``, so the modelled
caches start empty. Points run closed loop: each starts when the
previous one finishes.

With seed 42 every point but the GAP ones equals the figure point it
is taken from; every point's digest at seed 42 is pinned
(``fingerprints.json``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from repro.cpu.system import CpuSystem, SimulationResult
from repro.dram.packed import packed_fallback_reason
from repro.experiments import fig2, fig7, figqos, figstd
from repro.experiments.config import ExperimentScale, get_scale, paper_system
from repro.reliability.fingerprint import (
    combined_log_digest,
    fingerprint_digest,
)
from repro.stacks.components import Stack
from repro.workloads.gap import GAP_KERNELS, GapWorkload
from repro.workloads.synthetic import (
    StreamingAgentWorkload,
    SyntheticConfig,
    make_pattern,
)

#: devices-writes' second point per device: a sequential stream with
#: half of its accesses stores, so write drains dominate.
SEQ_WRITE_CORES = 4
SEQ_WRITE_FRACTION = 0.5

#: gap-kernels runs every kernel on these core counts.
GAP_CORE_COUNTS = (1, 4)

#: Each gap-kernels point draws its own graph, from seed × this + its
#: index, so no two seeds share a graph. A graph can take a fifth more
#: or less work than the next one; with one graph for every point, as
#: the figures use, that would move the whole workload at once instead
#: of averaging over its points.
GAP_GRAPHS_PER_SEED = 16

#: Event-log lists counted as ``stacks.bandwidth.log_events``.
LOG_LISTS = (
    "bursts", "pre_windows", "act_windows", "cas_windows",
    "refresh_windows", "drain_windows", "blocked",
)


@dataclass
class Built:
    """What one point produced: its result and the stacks it built."""

    result: SimulationResult
    trace_items: int
    bandwidth: Stack
    latency: Stack
    #: Per-requester (bandwidth, latency) stacks of QoS contention points.
    requesters: tuple[dict[int, Stack], dict[int, Stack]] | None = None


@dataclass(frozen=True)
class Point:
    """One simulation of a workload; ``run`` does all the timed work."""

    label: str
    run: Callable[[], Built]


def points(
    workload: str, seed: int, scale: str | ExperimentScale = "ci"
) -> list[Point]:
    """The point list of `workload`, generated from `seed`."""
    scale = get_scale(scale)
    if workload == "fig2-reads":
        return [
            _synthetic(f"{pattern[:3]} {cores}c", pattern, cores, seed, scale)
            for pattern in fig2.PATTERNS
            for cores in fig2.CORE_COUNTS
        ]
    if workload == "devices-writes":
        listed = []
        for label, device in figstd.STANDARDS:
            listed.append(_synthetic(
                f"{label} {figstd.PATTERN[:3]} {figstd.CORES}c "
                f"w{round(figstd.STORE_FRACTION * 100)}",
                figstd.PATTERN, figstd.CORES, seed, scale,
                store_fraction=figstd.STORE_FRACTION, device=device,
            ))
            listed.append(_synthetic(
                f"{label} seq {SEQ_WRITE_CORES}c "
                f"w{round(SEQ_WRITE_FRACTION * 100)}",
                "sequential", SEQ_WRITE_CORES, seed, scale,
                store_fraction=SEQ_WRITE_FRACTION, device=device,
            ))
        return listed
    if workload == "qos-arbiters":
        return [
            _qos("solo cpu", seed, scale, solo="cpu"),
            _qos("solo agent", seed, scale, solo="agent"),
        ] + [
            _qos(label, seed, scale, scheduling=scheduling)
            for label, scheduling in figqos.SCHEDULERS
        ]
    if workload == "gap-kernels":
        graph_seeds = itertools.count(seed * GAP_GRAPHS_PER_SEED)
        return [
            _gap(f"{kernel} {cores}c", kernel, cores, next(graph_seeds), scale)
            for kernel in GAP_KERNELS
            for cores in GAP_CORE_COUNTS
        ] + [
            # Fig. 7 runs a graph two scales larger for its time series.
            _gap(
                f"bfs {fig7.CORES}c series", "bfs", fig7.CORES,
                next(graph_seeds), scale,
                graph_scale=scale.graph_scale + 2, series=True,
            )
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _synthetic(
    label: str,
    pattern: str,
    cores: int,
    seed: int,
    scale: ExperimentScale,
    store_fraction: float = 0.0,
    device: str | None = None,
) -> Point:
    def run() -> Built:
        config = paper_system(cores=cores, gap=True, device=device)
        workload = make_pattern(pattern, SyntheticConfig(
            accesses_per_core=scale.synthetic_accesses,
            store_fraction=store_fraction,
            seed=seed,
        ))
        return _simulate(config, workload.traces(cores), label)

    return Point(label, run)


def _qos(
    label: str,
    seed: int,
    scale: ExperimentScale,
    scheduling: str = "fr-fcfs",
    solo: str | None = None,
) -> Point:
    """``run_qos``'s scenario with its defaults: 2 random CPU cores in
    requester domain 0 against one streaming agent in domain 1."""

    def run() -> Built:
        cpu = make_pattern("random", SyntheticConfig(
            accesses_per_core=scale.synthetic_accesses, seed=seed,
        ))
        agent = StreamingAgentWorkload(SyntheticConfig(
            accesses_per_core=scale.synthetic_accesses * 2,
            instructions_per_access=1,
            seed=seed,
        ))
        if solo == "cpu":
            traces, requesters = cpu.traces(2), (0, 0)
        elif solo == "agent":
            traces, requesters = agent.traces(1), (1,)
        else:
            traces, requesters = cpu.traces(2) + agent.traces(1), (0, 0, 1)
        config = paper_system(
            cores=len(traces), scheduling=scheduling, gap=True,
            requesters=requesters,
        )
        # Aggregate plus per-requester stacks, as `analyze --requesters`
        # prints them; the solo baselines have a single requester.
        return _simulate(config, traces, label, requesters=solo is None)

    return Point(label, run)


def _gap(
    label: str,
    kernel: str,
    cores: int,
    seed: int,
    scale: ExperimentScale,
    graph_scale: int | None = None,
    series: bool = False,
) -> Point:
    def run() -> Built:
        params = {}
        if kernel == "pr":
            params["iterations"] = scale.pr_iterations
        if kernel == "tc":
            params["max_edges"] = scale.tc_max_edges
        workload = GapWorkload(
            kernel,
            scale=graph_scale or scale.graph_scale,
            degree=scale.graph_degree,
            seed=seed,
            **params,
        )
        config = paper_system(cores=cores, page_policy="closed", gap=True)
        return _simulate(config, workload.traces(cores), label, series=series)

    return Point(label, run)


def _simulate(
    config, traces, label: str, requesters: bool = False, series: bool = False
) -> Built:
    result = CpuSystem(config).run(traces)
    built = Built(
        result,
        sum(len(trace) for trace in traces),
        result.bandwidth_stack(label),
        result.latency_stack(label, split_base=series),
    )
    if requesters:
        built.requesters = (
            result.per_requester_bandwidth_stacks(f"{label} "),
            result.per_requester_latency_stacks(f"{label} "),
        )
    if series:
        # Fig. 7's through-time views.
        bins = max(1000, result.total_cycles // fig7.TARGET_BINS)
        result.cycle_series(label, bin_cycles=bins)
        result.bandwidth_series(bins, label)
        result.latency_series(bins, label, split_base=True)
        result.cycle_stack(label)
    return built


def _channels(result: SimulationResult) -> list:
    """The memory controllers of a result, one per channel."""
    return list(getattr(result.memory, "channels", None) or [result.memory])


def check(built: Built) -> None:
    """Raise unless every bandwidth stack sums to the memory's peak.

    Per-requester rows must sum to the peak too: together they fold
    back into the aggregate stack.
    """
    result = built.result
    peak = result.spec.peak_bandwidth_gbps * len(_channels(result))
    built.bandwidth.check_total(peak)
    if built.requesters is not None:
        first, *rest = built.requesters[0].values()
        sum(rest, first).check_total(peak)


def digest(built: Built) -> str:
    """Digest of the stacks the point built, without re-accounting.

    Laid out as :func:`~repro.reliability.fingerprint.result_fingerprint`
    (or :func:`~repro.reliability.fingerprint.qos_fingerprint` for QoS
    contention points), so it equals theirs whenever the point built the
    same stacks.
    """
    result = built.result
    fp: dict = {
        "event_log": combined_log_digest(result.memory),
        "bandwidth": [list(row) for row in built.bandwidth.as_rows()],
        "latency": [list(row) for row in built.latency.as_rows()],
        "counts": {
            "total_cycles": result.total_cycles,
            "dram_reads": result.dram_reads,
            "dram_writes": result.dram_writes,
            "instructions": result.instructions,
        },
    }
    if built.requesters is not None:
        fp["base_digest"] = fingerprint_digest(fp)
        bandwidth, latency = built.requesters
        fp["requesters"] = {
            str(rid): {
                name: [list(row) for row in stacks[rid].as_rows()]
                for name, stacks in (
                    ("bandwidth", bandwidth), ("latency", latency)
                )
                if rid in stacks
            }
            for rid in sorted(set(bandwidth) | set(latency))
        }
    return fingerprint_digest(fp)


def counts(built: Built) -> dict[str, int]:
    """Exact counts behind the per-layer metrics, from the result."""
    result = built.result
    stats = result.memory.stats
    controllers = _channels(result)
    return {
        "trace_items": built.trace_items,
        "instructions": result.instructions,
        "reads": result.dram_reads,
        "requests": result.dram_reads + result.dram_writes,
        "row_hits": stats.row_hits,
        "row_misses": stats.row_misses,
        "log_events": sum(
            len(getattr(mc.log, name))
            for mc in controllers for name in LOG_LISTS
        ),
        "fallback_channels": sum(
            mc.config.engine == "packed"
            and packed_fallback_reason(mc) is not None
            for mc in controllers
        ),
    }
