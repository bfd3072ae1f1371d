"""Experiment configuration: the paper's system and run scales.

:func:`paper_system` has no engine parameter. The reference oracles
live in ``ControllerConfig.engine`` and ``CoreConfig.engine``; the
differential tests set them on a built configuration with
``dataclasses.replace``, or pass a ``CoreConfig`` as ``core=``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.core import CoreConfig
from repro.cpu.hierarchy import HierarchyConfig
from repro.cpu.system import SystemConfig
from repro.dram.controller import ControllerConfig
from repro.dram.wqueue import WriteQueueConfig
from repro.errors import ConfigurationError, require_int
from repro.workloads.gap.suite import gap_hierarchy


@dataclass(frozen=True)
class ExperimentScale:
    """Run sizes for the experiments.

    ``ci`` keeps every figure regenerable in seconds for the benchmark
    suite; ``paper`` runs longer for smoother components.
    """

    name: str
    synthetic_accesses: int = 5_000
    graph_scale: int = 11
    graph_degree: int = 8
    pr_iterations: int = 1
    tc_max_edges: int = 3_000
    bin_cycles: int = 15_000

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("ExperimentScale.name must be non-empty")
        positive = (
            "synthetic_accesses",
            "graph_scale",
            "graph_degree",
            "pr_iterations",
            "tc_max_edges",
            "bin_cycles",
        )
        for field_name in positive:
            value = getattr(self, field_name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigurationError(
                    f"ExperimentScale.{field_name} must be an int, "
                    f"got {value!r}"
                )
            if value < 1:
                raise ConfigurationError(
                    f"ExperimentScale.{field_name} must be >= 1, "
                    f"got {value}"
                )
        if self.graph_scale > 24:
            raise ConfigurationError(
                f"ExperimentScale.graph_scale {self.graph_scale} would "
                f"build a >16M-vertex graph; the paper tops out at 24"
            )


SCALES = {
    "ci": ExperimentScale("ci"),
    "paper": ExperimentScale(
        "paper",
        synthetic_accesses=25_000,
        graph_scale=14,
        graph_degree=10,
        pr_iterations=2,
        tc_max_edges=12_000,
        bin_cycles=60_000,
    ),
}


def get_scale(scale: str | ExperimentScale) -> ExperimentScale:
    """Resolve a scale by name or pass one through."""
    if isinstance(scale, ExperimentScale):
        return scale
    if scale not in SCALES:
        raise ConfigurationError(
            f"unknown scale {scale!r}; expected one of {sorted(SCALES)}"
        )
    return SCALES[scale]


def paper_system(
    cores: int = 1,
    page_policy: str = "open",
    address_scheme: str = "default",
    write_queue_capacity: int = 32,
    gap: bool = False,
    hierarchy: HierarchyConfig | None = None,
    core: CoreConfig | None = None,
    scheduling: str = "fr-fcfs",
    requesters: int | tuple[int, ...] | None = None,
    device: str | None = None,
) -> SystemConfig:
    """The paper's setup: DDR4-2400, FR-FCFS, Skylake-like cores.

    `gap=True` selects the proportionally scaled cache hierarchy used
    with the scaled-down graphs (see :func:`gap_hierarchy`).

    `page_policy` and `scheduling` accept the names in
    :data:`repro.dram.components.PAGE_POLICIES` /
    :data:`repro.dram.components.SCHEDULERS`; scheduling strings may
    carry parameters (``"wrr:2,1"``,
    ``"bank-reg:period=1000,budget=4"``).

    `requesters` selects the multi-requester QoS model (docs/qos.md):
    a tuple gives each core its requester domain explicitly; an int N
    spreads the cores round-robin over N domains (core i -> i % N);
    ``None`` keeps the single-requester behaviour.

    `device` swaps the DDR4-2400 timings for a preset from the
    :data:`repro.devices.DEVICES` table (``"ddr5-4800"``,
    ``"lpddr5-6400"``, ``"hbm2:pseudo_channels=8"``, ... — see
    docs/devices.md); ``None`` keeps the paper's DDR4-2400.

    Every knob is validated eagerly here (naming the bad field) so a
    sweep over many points fails at construction, not mid-run.
    """
    if not isinstance(cores, int) or isinstance(cores, bool) or cores < 1:
        raise ConfigurationError(
            f"paper_system(cores=...) must be a positive int, got {cores!r}"
        )
    require_int(
        "paper_system", "write_queue_capacity", write_queue_capacity, 1
    )
    if isinstance(requesters, bool):
        raise ConfigurationError(
            f"paper_system(requesters=...) must be an int, a tuple of "
            f"ints or None, got {requesters!r}"
        )
    if isinstance(requesters, int):
        if requesters < 1:
            raise ConfigurationError(
                f"paper_system(requesters=...) must be >= 1, "
                f"got {requesters!r}"
            )
        requesters = tuple(i % requesters for i in range(cores))
    elif requesters is not None:
        requesters = tuple(requesters)
    if hierarchy is None:
        hierarchy = gap_hierarchy() if gap else HierarchyConfig()
    memory = ControllerConfig(
        page_policy=page_policy,
        scheduling=scheduling,
        address_scheme=address_scheme,
        write_queue=WriteQueueConfig(capacity=write_queue_capacity),
        device=device,
    )
    return SystemConfig(
        cores=cores,
        core=core if core is not None else CoreConfig(),
        hierarchy=hierarchy,
        memory=memory,
        requesters=requesters,
    )
