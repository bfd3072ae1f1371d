"""Tests for checkpoint/resume.

The load-bearing property is bit-identical resumption: a run killed
mid-way and resumed from its latest checkpoint must produce exactly the
stacks of the uninterrupted run.
"""

import os

import pytest

from repro.errors import CheckpointError, SimulationTimeoutError
from repro.experiments.runner import resume_run, run_gap, run_synthetic
from repro.reliability.auditor import InvariantAuditor
from repro.reliability.checkpoint import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointManager,
    ReplayableTrace,
    latest_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.reliability.guard import ReliabilityGuard
from repro.reliability.watchdog import ForwardProgressWatchdog


def checkpointing_guard(directory, interval_cycles=20_000):
    return ReliabilityGuard(
        watchdog=ForwardProgressWatchdog(),
        auditor=InvariantAuditor(mode="warn"),
        checkpoints=CheckpointManager(
            str(directory), interval_cycles=interval_cycles
        ),
    )


class KillAt(ReliabilityGuard):
    """Guard that simulates a hard kill at a fixed simulated cycle."""

    def __init__(self, checkpoints, kill_cycle):
        super().__init__(
            watchdog=ForwardProgressWatchdog(),
            auditor=InvariantAuditor(mode="warn"),
            checkpoints=checkpoints,
        )
        self.kill_cycle = kill_cycle

    def tick(self, system):
        super().tick(system)
        if system.memory.now >= self.kill_cycle:
            raise SimulationTimeoutError(
                f"test kill at cycle {system.memory.now}"
            )


def assert_identical_stacks(a, b):
    bw_a, bw_b = a.bandwidth_stack("bw"), b.bandwidth_stack("bw")
    lat_a, lat_b = a.latency_stack("lat"), b.latency_stack("lat")
    assert a.total_cycles == b.total_cycles
    for name in bw_a.components:
        assert bw_a[name] == bw_b[name], f"bandwidth {name} diverged"
    for name in lat_a.components:
        assert lat_a[name] == lat_b[name], f"latency {name} diverged"


@pytest.mark.parametrize("core_engine,engine", [
    ("fast", "packed"),
    ("reference", "packed"),
    ("reference", "reference"),
])
class TestRoundTrip:
    """Round trips must be bit-identical under the core steppers *and*
    the controller engines: checkpoints snapshot the trace position,
    in-flight core state and the flushed controller object state (the
    packed engine writes its arrays back before pickling), and any
    engine must restore into exactly the same observable state — a
    checkpoint does not record which engine wrote it."""

    def test_resume_is_bit_identical(self, tmp_path, core_engine, engine):
        reference = run_synthetic(
            "random", cores=2, store_fraction=0.2, scale="ci",
            core_engine=core_engine, engine=engine,
        )
        guard = checkpointing_guard(tmp_path)
        run_synthetic(
            "random", cores=2, store_fraction=0.2, scale="ci",
            guard=guard, core_engine=core_engine, engine=engine,
        )
        assert guard.checkpoints.checkpoints_written >= 1
        resumed = resume_run(guard.checkpoints.latest)
        assert_identical_stacks(reference, resumed)

    def test_killed_run_resumes_identically(
        self, tmp_path, core_engine, engine
    ):
        reference = run_synthetic(
            "sequential", cores=2, scale="ci", core_engine=core_engine,
            engine=engine,
        )
        manager = CheckpointManager(
            str(tmp_path),
            interval_cycles=max(2_000, reference.total_cycles // 6),
        )
        guard = KillAt(manager, kill_cycle=reference.total_cycles // 2)
        with pytest.raises(SimulationTimeoutError):
            run_synthetic(
                "sequential", cores=2, scale="ci", guard=guard,
                core_engine=core_engine, engine=engine,
            )
        assert manager.latest is not None
        resumed = resume_run(manager.latest)
        assert_identical_stacks(reference, resumed)

    @pytest.mark.slow
    def test_killed_gap_run_resumes_identically(
        self, tmp_path, core_engine, engine
    ):
        reference, _ = run_gap(
            "bfs", cores=2, scale="ci", seed=7, core_engine=core_engine,
            engine=engine,
        )
        manager = CheckpointManager(
            str(tmp_path),
            interval_cycles=max(2_000, reference.total_cycles // 8),
        )
        guard = KillAt(manager, kill_cycle=reference.total_cycles // 2)
        with pytest.raises(SimulationTimeoutError):
            run_gap(
                "bfs", cores=2, scale="ci", seed=7, guard=guard,
                core_engine=core_engine, engine=engine,
            )
        assert manager.latest is not None
        resumed = resume_run(manager.latest)
        assert_identical_stacks(reference, resumed)


class TestFileFormat:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(str(tmp_path / "nope.repro"))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.repro"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="not a repro checkpoint"):
            load_checkpoint(str(path))

    def test_truncated(self, tmp_path):
        path = tmp_path / "short.repro"
        path.write_bytes(b"RE")
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(str(path))

    def test_unsupported_version(self, tmp_path):
        # v2 logs kept requesters in separate lists; 99 is from the future.
        for version in (2, 99):
            path = tmp_path / f"v{version}.repro"
            path.write_bytes(
                CHECKPOINT_MAGIC + version.to_bytes(2, "big") + b"x"
            )
            with pytest.raises(CheckpointError, match=f"v{version}"):
                load_checkpoint(str(path))

    def test_corrupt_payload(self, tmp_path):
        path = tmp_path / "garbage.repro"
        path.write_bytes(CHECKPOINT_MAGIC + CHECKPOINT_VERSION.to_bytes(2, "big") + b"junk")
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(str(path))

    def test_unpicklable_system_reports_cleanly(self, tmp_path):
        class Unpicklable:
            memory = type("M", (), {"now": 0})()

            def __reduce__(self):
                raise TypeError("cannot pickle a generator")

        with pytest.raises(CheckpointError, match="cannot serialize"):
            save_checkpoint(Unpicklable(), str(tmp_path / "x.repro"))


class TestManager:
    def test_rotation_keeps_newest(self, tmp_path):
        guard = checkpointing_guard(tmp_path, interval_cycles=10_000)
        guard.checkpoints.keep = 2
        run_synthetic("random", cores=2, scale="ci", guard=guard)
        assert guard.checkpoints.checkpoints_written > 2
        on_disk = [
            n for n in os.listdir(tmp_path) if n.endswith(".repro")
        ]
        assert len(on_disk) == 2
        assert latest_checkpoint(str(tmp_path)) == guard.checkpoints.latest

    def test_latest_ignores_foreign_files(self, tmp_path):
        (tmp_path / "notes.txt").write_text("hi")
        (tmp_path / "ckpt_bogus.repro").write_text("hi")
        assert latest_checkpoint(str(tmp_path)) is None
        (tmp_path / "ckpt_500.repro").write_bytes(b"x")
        (tmp_path / "ckpt_1200.repro").write_bytes(b"x")
        assert latest_checkpoint(str(tmp_path)).endswith("ckpt_1200.repro")

    def test_rejects_bad_intervals(self, tmp_path):
        with pytest.raises(CheckpointError):
            CheckpointManager(str(tmp_path), interval_cycles=0)
        with pytest.raises(CheckpointError):
            CheckpointManager(str(tmp_path), keep=0)


class TestReplayableTrace:
    def test_tracks_position(self):
        trace = ReplayableTrace(range(5))
        assert len(trace) == 5
        assert next(trace) == 0
        assert next(trace) == 1
        assert trace.position == 2
        assert list(trace) == [2, 3, 4]
        with pytest.raises(StopIteration):
            next(trace)
