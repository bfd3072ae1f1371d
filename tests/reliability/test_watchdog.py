"""Tests for the forward-progress watchdog."""

import random

import pytest

from repro.dram import (
    ControllerConfig,
    MemoryController,
    Request,
    RequestType,
)
from repro.dram.controller import ENGINES
from repro.errors import ConfigurationError, SimulationStalledError
from repro.reliability.faults import force_stall
from repro.reliability.watchdog import (
    DEFAULT_STALL_THRESHOLD,
    ForwardProgressWatchdog,
    StallDiagnostic,
)


class FakeController:
    """Duck-typed stand-in exposing exactly what observe() reads."""

    def __init__(self):
        self.now = 0
        self.queued_requests = 0
        self.last_command_cycle = -1

    def stall_snapshot(self):
        return {
            "cycle": self.now,
            "last_command_cycle": self.last_command_cycle,
            "queued_reads": self.queued_requests,
            "queued_writes": 0,
        }


class TestUnit:
    def test_quiet_when_queue_empty(self):
        dog = ForwardProgressWatchdog(threshold_cycles=10)
        fake = FakeController()
        for now in (0, 100, 10_000):
            fake.now = now
            dog.observe(fake)
        assert dog.stalls_detected == 0

    def test_fires_past_threshold_with_work_queued(self):
        dog = ForwardProgressWatchdog(threshold_cycles=100)
        fake = FakeController()
        fake.queued_requests = 3
        fake.now = 100
        dog.observe(fake)  # exactly at threshold: still fine
        fake.now = 101
        with pytest.raises(SimulationStalledError) as info:
            dog.observe(fake)
        assert dog.stalls_detected == 1
        diag = info.value.diagnostic
        assert isinstance(diag, StallDiagnostic)
        assert diag.cycle == 101
        assert diag.queued_reads == 3

    def test_command_issue_resets_silence(self):
        dog = ForwardProgressWatchdog(threshold_cycles=100)
        fake = FakeController()
        fake.queued_requests = 1
        fake.now = 90
        dog.observe(fake)
        fake.last_command_cycle = 90  # progress happened
        fake.now = 180
        dog.observe(fake)  # 90 cycles of silence: fine
        fake.now = 191
        with pytest.raises(SimulationStalledError):
            dog.observe(fake)

    def test_empty_queue_moves_watermark(self):
        dog = ForwardProgressWatchdog(threshold_cycles=100)
        fake = FakeController()
        fake.now = 1_000
        dog.observe(fake)  # idle: watermark follows time
        fake.queued_requests = 1
        fake.now = 1_050
        dog.observe(fake)  # only 50 cycles with work queued
        assert dog.stalls_detected == 0

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ConfigurationError, match="threshold_cycles"):
            ForwardProgressWatchdog(threshold_cycles=0)

    def test_default_threshold(self):
        assert ForwardProgressWatchdog().threshold_cycles \
            == DEFAULT_STALL_THRESHOLD


class TestIntegration:
    def test_forced_stall_detected_with_diagnostic(self):
        mc = MemoryController(ControllerConfig())
        mc.attach_watchdog(ForwardProgressWatchdog(threshold_cycles=2_000))
        force_stall(mc)
        for i in range(8):
            mc.enqueue(Request(RequestType.READ, i * 64, arrival=i))
        with pytest.raises(SimulationStalledError) as info:
            mc.drain()
        diag = info.value.diagnostic
        assert diag.queued_reads == 8
        assert diag.queue_head, "queue head should list pending requests"
        assert diag.banks, "per-bank state should be captured"
        # Every candidate the scheduler considered is pushed to the far
        # future by the fault, so each should report an earliest issue.
        assert diag.candidates
        for cand in diag.candidates:
            assert cand["earliest_issue"] > diag.cycle
        # The rendering is part of the error message.
        assert "read(s)" in str(info.value)

    def test_healthy_run_never_fires(self):
        mc = MemoryController(ControllerConfig())
        mc.attach_watchdog(ForwardProgressWatchdog(threshold_cycles=2_000))
        for i in range(64):
            mc.enqueue(Request(RequestType.READ, i * 64, arrival=i * 4))
        mc.drain()
        mc.finalize()
        assert mc.watchdog.stalls_detected == 0

    def test_memory_system_attach(self):
        from repro.dram.system import MemorySystem, MemorySystemConfig

        system = MemorySystem(MemorySystemConfig(channels=2))
        dogs = system.attach_watchdogs(threshold_cycles=5_000)
        assert len(dogs) == 2
        assert all(
            mc.watchdog is dog
            for mc, dog in zip(system.controllers, dogs)
        )
        assert all(dog.threshold_cycles == 5_000 for dog in dogs)

    def test_memory_system_attach_default_threshold(self):
        from repro.dram.system import MemorySystem, MemorySystemConfig

        system = MemorySystem(MemorySystemConfig(channels=2))
        dogs = system.attach_watchdogs()
        assert all(
            dog.threshold_cycles == DEFAULT_STALL_THRESHOLD for dog in dogs
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_attach_watchdogs_counts_only_its_own_channel(self, engine):
        from repro.dram.system import MemorySystem, MemorySystemConfig

        system = MemorySystem(MemorySystemConfig(
            ControllerConfig(engine=engine), channels=2,
        ))
        dogs = system.attach_watchdogs(threshold_cycles=2_000)
        force_stall(system.controllers[1])
        for i in range(16):  # lines alternate between the channels
            system.enqueue(Request(RequestType.READ, i * 64, arrival=i))
        with pytest.raises(SimulationStalledError):
            system.drain()
        assert [dog.stalls_detected for dog in dogs] == [0, 1]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_one_watchdog_guards_every_channel(self, engine):
        from repro.dram.system import MemorySystem, MemorySystemConfig

        system = MemorySystem(MemorySystemConfig(
            ControllerConfig(engine=engine), channels=2,
        ))
        dog = ForwardProgressWatchdog(threshold_cycles=2_000)
        system.attach_watchdog(dog)
        assert system.watchdog is dog
        assert all(mc.watchdog is dog for mc in system.controllers)
        force_stall(system.controllers[1])
        for i in range(16):
            system.enqueue(Request(RequestType.READ, i * 64, arrival=i))
        with pytest.raises(SimulationStalledError) as info:
            system.drain()
        assert dog.stalls_detected == 1
        assert info.value.diagnostic.queued_reads == 8

    @pytest.mark.parametrize("threshold", [0, -5])
    def test_memory_system_rejects_nonpositive_threshold(self, threshold):
        # 0 is a threshold like -5, not a request for the default.
        from repro.dram.system import MemorySystem, MemorySystemConfig

        system = MemorySystem(MemorySystemConfig(channels=2))
        with pytest.raises(ConfigurationError, match="threshold_cycles"):
            system.attach_watchdogs(threshold_cycles=threshold)


class TestControllerEngines:
    """Both controller engines call the watchdog every 32 scheduling
    steps, and count the same steps: the packed engine folds a wait and
    the issue that ends it into one pass of its loop, but counts that
    pass as the two steps the reference engine takes. So even a watchdog
    whose threshold is shorter than one wait samples the same cycles,
    whatever the gaps between arrivals."""

    @pytest.mark.parametrize("attach", ["before-run", "after-run"])
    def test_threshold_one_stalls_alike(self, attach):
        outcomes = []
        for engine in ENGINES:
            mc = MemoryController(ControllerConfig(engine=engine))
            rng = random.Random(7)
            for i in range(400):
                mc.enqueue(Request(
                    RequestType.READ if i % 4 else RequestType.WRITE,
                    rng.randrange(1 << 26) * 64, arrival=i,
                ))
            dog = ForwardProgressWatchdog(threshold_cycles=1)
            if attach == "after-run":
                mc.run_until(150)
            mc.attach_watchdog(dog)
            with pytest.raises(SimulationStalledError) as info:
                mc.run_until(100_000)
            diag = info.value.diagnostic
            assert dog.stalls_detected == 1
            outcomes.append((
                diag.cycle, diag.last_command_cycle,
                diag.queued_reads, diag.queued_writes,
            ))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][2] + outcomes[0][3] > 0

    @pytest.mark.parametrize("threshold", [1, 2, 5, 20])
    @pytest.mark.parametrize(
        "count,spacing", [(48, 3), (16, 2), (200, 5), (400, 1), (100, 10)]
    )
    def test_spaced_arrivals_stall_alike(self, count, spacing, threshold):
        """Requests `spacing` cycles apart: both engines raise at the
        same cycle with the same last command and queue counts, or
        neither raises."""
        outcomes = []
        for engine in ENGINES:
            mc = MemoryController(ControllerConfig(engine=engine))
            rng = random.Random(7)
            for i in range(count):
                mc.enqueue(Request(
                    RequestType.READ if i % 4 else RequestType.WRITE,
                    rng.randrange(1 << 26) * 64, arrival=i * spacing,
                ))
            mc.attach_watchdog(
                ForwardProgressWatchdog(threshold_cycles=threshold)
            )
            try:
                mc.run_until(100_000)
            except SimulationStalledError as err:
                diag = err.diagnostic
                outcomes.append((
                    diag.cycle, diag.last_command_cycle,
                    diag.queued_reads, diag.queued_writes,
                ))
            else:
                outcomes.append(None)
        assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("core_engine,engine", [
    ("fast", "packed"),
    ("reference", "packed"),
    ("reference", "reference"),
])
class TestCoreEngines:
    """The guardrails must behave identically under the core steppers
    *and* the controller engines: the fast core engine changes how time
    advances and the packed controller engine changes how queue state is
    stored, but neither changes what the watchdog observes (commands
    issued, queue depth, controller cycles)."""

    def test_healthy_full_run_never_fires(self, core_engine, engine):
        from repro.experiments.runner import run_synthetic
        from repro.reliability.guard import ReliabilityGuard

        guard = ReliabilityGuard.default()
        result = run_synthetic(
            "random", cores=2, scale="ci", guard=guard,
            core_engine=core_engine, engine=engine,
        )
        assert result.total_cycles > 0
        assert guard.watchdog.stalls_detected == 0

    def test_forced_stall_fires_through_cpu_system(
        self, core_engine, engine
    ):
        from repro.cpu.core import CoreConfig
        from repro.cpu.system import CpuSystem
        from repro.experiments.config import paper_system
        from repro.workloads.synthetic import (
            SyntheticConfig,
            make_pattern,
        )

        config = paper_system(
            cores=1, gap=True, core=CoreConfig(engine=core_engine),
            engine=engine,
        )
        system = CpuSystem(config)
        system.memory.attach_watchdog(
            ForwardProgressWatchdog(threshold_cycles=2_000)
        )
        force_stall(system.memory)
        workload = make_pattern("random", SyntheticConfig(
            accesses_per_core=500,
        ))
        with pytest.raises(SimulationStalledError) as info:
            system.run(workload.traces(1), guard=False)
        assert info.value.diagnostic.queued_reads > 0
