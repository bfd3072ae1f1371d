"""Shared experiment execution: run a workload, return its stacks.

The runners take what the figures, the CLI and the examples vary and
always run the production engines. The reference oracles are reached
through ``ControllerConfig.engine`` and ``CoreConfig.engine`` on a
built configuration (``dataclasses.replace``); the QoS parity checks
build theirs with :func:`qos_scenario`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cpu.system import CpuSystem, SimulationResult, SystemConfig
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentScale, get_scale, paper_system
from repro.stacks.components import Stack, StackSeries
from repro.workloads.gap.suite import GapWorkload
from repro.workloads.synthetic import (
    StreamingAgentWorkload,
    SyntheticConfig,
    make_pattern,
)


@dataclass
class FigureResult:
    """The data behind one regenerated figure.

    Attributes:
        name: figure id, e.g. ``"fig2"``.
        bandwidth: labeled bandwidth stacks, in figure order.
        latency: labeled latency stacks, in figure order.
        series: optional through-time series (Fig. 7).
        extra: free-form per-figure payload (e.g. Fig. 9's error table).
    """

    name: str
    bandwidth: list[Stack] = field(default_factory=list)
    latency: list[Stack] = field(default_factory=list)
    series: dict[str, StackSeries] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def bandwidth_by_label(self, label: str) -> Stack:
        """Find a bandwidth stack by its label."""
        return _by_label(self.bandwidth, label)

    def latency_by_label(self, label: str) -> Stack:
        """Find a latency stack by its label."""
        return _by_label(self.latency, label)


def _by_label(stacks: list[Stack], label: str) -> Stack:
    for stack in stacks:
        if stack.label == label:
            return stack
    raise KeyError(
        f"no stack labeled {label!r}; have {[s.label for s in stacks]}"
    )


def run_synthetic(
    pattern: str,
    cores: int = 1,
    store_fraction: float = 0.0,
    page_policy: str = "open",
    address_scheme: str = "default",
    scale: str | ExperimentScale = "ci",
    guard=None,
    scheduling: str = "fr-fcfs",
    requesters: int | tuple[int, ...] | None = None,
    device: str | None = None,
) -> SimulationResult:
    """Run one synthetic configuration through the full pipeline.

    `guard` is forwarded to :meth:`CpuSystem.run`: None for the default
    watchdog + event-log audit, False for a bare run, or a configured
    :class:`~repro.reliability.guard.ReliabilityGuard` (e.g. with a
    wall-clock budget).

    `requesters` maps cores to requester domains as in
    :func:`~repro.experiments.config.paper_system`; pair it with a
    ``scheduling`` QoS policy (``"wrr:..."``/``"bank-reg:..."``) for
    multi-requester interference runs.

    `device` selects a memory device preset from the
    :data:`repro.devices.DEVICES` table (None = the paper's
    DDR4-2400); see :func:`~repro.experiments.config.paper_system`.
    """
    scale = get_scale(scale)
    # The scaled (GAP) hierarchy: with the paper's full 11 MB LLC, runs
    # of this length never reach write-back steady state (dirty lines
    # would need >180k distinct lines to start evicting). The smaller
    # hierarchy preserves the footprint >> LLC relationship the paper's
    # synthetic benchmarks have. Read-only behaviour is unaffected
    # (cold misses either way).
    config = paper_system(
        cores=cores,
        page_policy=page_policy,
        scheduling=scheduling,
        address_scheme=address_scheme,
        gap=True,
        requesters=requesters,
        device=device,
    )
    workload = make_pattern(pattern, SyntheticConfig(
        accesses_per_core=scale.synthetic_accesses,
        store_fraction=store_fraction,
    ))
    system = CpuSystem(config)
    return system.run(workload.traces(cores), guard=guard)


def qos_scenario(
    scheduling: str = "wrr",
    scale: str | ExperimentScale = "ci",
    solo: str | None = None,
) -> tuple[SystemConfig, list]:
    """The canonical QoS scenario: CPU cores vs a streaming agent.

    Returns the scenario's system configuration and one trace per
    core. Two CPU cores run the random pattern (loads only) in
    requester domain 0 while one extra core runs a
    :class:`StreamingAgentWorkload` (a GPU/DMA-style sequential stream
    of twice the per-core access count) in its own domain 1, on open
    pages. The `scheduling` policy arbitrates between the two domains;
    per-requester stacks of the run show who got the channel and who
    waited (docs/qos.md).

    `solo="cpu"` / `solo="agent"` keeps just that side of the scenario
    (same workload definitions, no contention) — the baseline for the
    slowdown/fairness metrics of the QoS figure.
    """
    if solo not in (None, "cpu", "agent"):
        raise ConfigurationError(
            f"qos_scenario(solo=...) must be None, 'cpu' or 'agent', "
            f"got {solo!r}"
        )
    scale = get_scale(scale)
    cpu_workload = make_pattern("random", SyntheticConfig(
        accesses_per_core=scale.synthetic_accesses,
    ))
    agent_workload = StreamingAgentWorkload(SyntheticConfig(
        accesses_per_core=scale.synthetic_accesses * 2,
        instructions_per_access=1,
    ))
    if solo == "cpu":
        requesters: tuple[int, ...] = (0, 0)
        traces = cpu_workload.traces(2)
    elif solo == "agent":
        requesters = (1,)
        traces = agent_workload.traces(1)
    else:
        requesters = (0, 0, 1)
        traces = cpu_workload.traces(2) + agent_workload.traces(1)
    config = paper_system(
        cores=len(traces),
        scheduling=scheduling,
        gap=True,
        requesters=requesters,
    )
    return config, traces


def run_qos(
    scheduling: str = "wrr",
    scale: str | ExperimentScale = "ci",
    guard=None,
    solo: str | None = None,
) -> SimulationResult:
    """Run the canonical QoS scenario of :func:`qos_scenario`.

    `guard` is forwarded as in `run_synthetic`.
    """
    config, traces = qos_scenario(scheduling, scale, solo)
    return CpuSystem(config).run(traces, guard=guard)


def run_gap(
    kernel: str,
    cores: int = 1,
    page_policy: str = "closed",
    address_scheme: str = "default",
    scale: str | ExperimentScale = "ci",
    write_queue_capacity: int = 32,
    graph=None,
    seed: int = 42,
    guard=None,
    scheduling: str = "fr-fcfs",
    device: str | None = None,
) -> tuple[SimulationResult, GapWorkload]:
    """Run one GAP kernel configuration; returns (result, workload).

    `guard` and `device` are forwarded as in `run_synthetic`;
    `write_queue_capacity` sizes the controller's write buffer (Fig. 8
    compares 32 and 128 entries).
    """
    scale = get_scale(scale)
    params = {}
    if kernel == "pr":
        params["iterations"] = scale.pr_iterations
    if kernel == "tc":
        params["max_edges"] = scale.tc_max_edges
    workload = GapWorkload(
        kernel,
        graph=graph,
        scale=scale.graph_scale,
        degree=scale.graph_degree,
        seed=seed,
        **params,
    )
    config = paper_system(
        cores=cores,
        page_policy=page_policy,
        scheduling=scheduling,
        address_scheme=address_scheme,
        write_queue_capacity=write_queue_capacity,
        gap=True,
        device=device,
    )
    system = CpuSystem(config)
    result = system.run(workload.traces(cores), guard=guard)
    return result, workload
