"""Tests for the spawn-based worker pool and pooled orchestration.

These spawn real worker processes (a second or so each), so batches
are kept small and probe jobs do the misbehaving — no simulator runs.
"""

import time

import pytest

from repro.core.events import EventBus
from repro.errors import (
    ConfigurationError,
    SimulationTimeoutError,
    WorkerCrashError,
)
from repro.service import ExecutionService, Job, JobFailed, WorkerPool


class TestPoolValidation:
    def test_rejects_bad_worker_count(self):
        with pytest.raises(ConfigurationError):
            WorkerPool(0)

    def test_dispatch_returns_none_when_saturated(self):
        with WorkerPool(1) as pool:
            assert pool.dispatch(0, Job("probe", {"sleep_s": 5.0})) == 0
            assert pool.dispatch(1, Job("probe", {"value": 1})) is None
            assert pool.idle_workers == 0 and pool.in_flight == 1


class TestParallelExecution:
    def test_batch_completes_with_aligned_payloads(self):
        jobs = [Job("probe", {"value": i}) for i in range(4)]
        result = ExecutionService(workers=2).run(jobs)
        assert result.complete
        assert result.executed == 4 and result.cache_hits == 0
        assert [p["value"] for p in result.payloads] == [0, 1, 2, 3]

    def test_on_result_called_once_per_job(self):
        seen = []
        jobs = [Job("probe", {"value": i}) for i in range(3)]
        ExecutionService(workers=2).run(
            jobs, on_result=lambda i, j, p, c: seen.append((i, c))
        )
        assert sorted(seen) == [(0, False), (1, False), (2, False)]


class TestCrashIsolation:
    def test_crash_then_retry_succeeds(self, tmp_path):
        bus = EventBus()
        failures = []
        bus.subscribe(JobFailed, failures.append)
        job = Job(
            "probe",
            {"crash_times": 1, "marker_dir": str(tmp_path), "value": 7},
        )
        service = ExecutionService(workers=2, retries=1, bus=bus)
        result = service.run([job])
        assert result.complete
        assert result.payloads[0] == {"value": 7, "attempt": 2}
        assert [f.final for f in failures] == [False]
        assert failures[0].error_type == "WorkerCrashError"

    def test_persistent_crash_exhausts_retries(self, tmp_path):
        healthy = Job("probe", {"value": 1})
        doomed = Job(
            "probe", {"crash_times": 99, "marker_dir": str(tmp_path)}
        )
        service = ExecutionService(workers=2, retries=1)
        result = service.run([doomed, healthy])
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.index == 0 and failure.attempts == 2
        assert isinstance(failure.error, WorkerCrashError)
        # Crash isolation: the other job on the pool still completed.
        assert result.payloads[1] == {"value": 1, "attempt": 1}


class TestHardKillCleanup:
    def test_hard_kill_leaves_no_orphans_or_stray_files(self, tmp_path):
        """After a batch whose workers were hard-killed (timeout) and
        crashed (os._exit), shutdown leaves no live child processes and
        the cache directory holds only committed entries — no temp
        shards from interrupted writes."""
        import multiprocessing

        from repro.service import ResultCache

        cache_root = tmp_path / "cache"
        jobs = [
            Job("probe", {"sleep_s": 60.0}, timeout_s=0.3, label="hang"),
            Job(
                "probe",
                {"crash_times": 99, "marker_dir": str(tmp_path / "m")},
                label="crash",
            ),
            Job("probe", {"value": 1}, label="ok"),
        ]
        service = ExecutionService(
            workers=2, cache=ResultCache(cache_root)
        )
        result = service.run(jobs)
        assert len(result.failures) == 2
        assert result.payloads[2] == {"value": 1, "attempt": 1}
        # No orphaned worker processes survive the pool shutdown.
        deadline = time.monotonic() + 10.0
        while multiprocessing.active_children():
            assert time.monotonic() < deadline, (
                f"orphans: {multiprocessing.active_children()}"
            )
            time.sleep(0.1)
        # No stray temp files anywhere under the cache root (probe
        # results are uncacheable, so the cache holds nothing at all).
        strays = (
            [p for p in cache_root.rglob("*") if p.is_file()]
            if cache_root.exists() else []
        )
        assert strays == []

    def test_failed_pool_start_cleans_up_partial_spawn(
        self, monkeypatch
    ):
        """A pool whose Nth worker fails to spawn kills the N-1 it
        already started instead of leaking them."""
        import multiprocessing

        from repro.errors import WorkerSpawnError

        original = WorkerPool._spawn_worker
        calls = []

        def flaky(self):
            calls.append(1)
            if len(calls) >= 2:
                raise WorkerSpawnError("injected spawn failure")
            return original(self)

        monkeypatch.setattr(WorkerPool, "_spawn_worker", flaky)
        pool = WorkerPool(2)
        with pytest.raises(WorkerSpawnError):
            pool.start()
        deadline = time.monotonic() + 10.0
        while multiprocessing.active_children():
            assert time.monotonic() < deadline
            time.sleep(0.1)


class TestHardTimeout:
    def test_runaway_job_is_killed(self):
        # The probe ignores cooperative guards entirely, so only the
        # pool's hard deadline (timeout * 1.25 + grace) can stop it.
        job = Job("probe", {"sleep_s": 60.0}, timeout_s=0.5)
        start = time.monotonic()
        result = ExecutionService(workers=2).run(
            [job, Job("probe", {"value": 2})]
        )
        elapsed = time.monotonic() - start
        assert elapsed < 30.0  # killed, not waited out
        assert len(result.failures) == 1
        assert isinstance(result.failures[0].error, SimulationTimeoutError)
        assert result.payloads[1] == {"value": 2, "attempt": 1}
