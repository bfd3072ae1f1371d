"""Tests for the spawn-based worker pool and pooled orchestration.

These spawn real worker processes (a second or so each), so batches
are kept small and probe jobs do the misbehaving — no simulator runs.
"""

import time

import pytest

from repro.errors import (
    ConfigurationError,
    SimulationTimeoutError,
    WorkerCrashError,
)
from repro.service import (
    ExecutionService,
    Job,
    JobFailure,
    JobFinished,
    WorkerPool,
)


class TestPoolValidation:
    @pytest.mark.parametrize("workers", [0, -1, True, 2.0, "2"])
    def test_rejects_bad_worker_count(self, workers):
        with pytest.raises(ConfigurationError, match="workers"):
            WorkerPool(workers)

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

    def test_on_event_called_once_per_job(self):
        seen = []

        def on_event(event):
            if isinstance(event, JobFinished):
                seen.append((event.index, event.cached))

        jobs = [Job("probe", {"value": i}) for i in range(3)]
        ExecutionService(workers=2).run(jobs, on_event=on_event)
        assert sorted(seen) == [(0, False), (1, False), (2, False)]


class TestCrashIsolation:
    def test_crash_fails_only_its_job(self):
        failures = []

        def on_event(event):
            if isinstance(event, JobFailure):
                failures.append(event)

        doomed = Job("probe", {"crash": True}, label="doomed")
        healthy = [Job("probe", {"value": i}) for i in range(3)]
        service = ExecutionService(workers=2)
        result = service.run([doomed, *healthy], on_event=on_event)
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.index == 0
        assert isinstance(failure.error, WorkerCrashError)
        assert failures == result.failures
        # Crash isolation: the other jobs still completed on the pool,
        # which replaced the dead worker.
        assert result.payloads[1:] == [{"value": i} for i in range(3)]


class TestHardKillCleanup:
    def test_hard_kill_leaves_no_orphans_or_stray_files(self, tmp_path):
        """After a batch whose workers were hard-killed (timeout) and
        crashed (os._exit), shutdown leaves no live child processes and
        the cache directory holds only the one committed entry — no
        temp shards from interrupted writes."""
        import multiprocessing

        from repro.service import ResultCache

        cache_root = tmp_path / "cache"
        jobs = [
            Job("probe", {"sleep_s": 60.0}, timeout_s=0.3, label="hang"),
            Job("probe", {"crash": True}, label="crash"),
            Job("probe", {"value": 1}, label="ok"),
        ]
        service = ExecutionService(
            workers=2, cache=ResultCache(cache_root)
        )
        result = service.run(jobs)
        assert len(result.failures) == 2
        assert result.payloads[2] == {"value": 1}
        # No orphaned worker processes survive the pool shutdown.
        deadline = time.monotonic() + 10.0
        while multiprocessing.active_children():
            assert time.monotonic() < deadline, (
                f"orphans: {multiprocessing.active_children()}"
            )
            time.sleep(0.1)
        # Only the healthy job's entry is under the cache root: no stray
        # temp files, no entries for the failed jobs.
        files = [p for p in cache_root.rglob("*") if p.is_file()]
        assert [p.name for p in files] == [f"{jobs[2].digest()}.json"]

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
        assert result.payloads[1] == {"value": 2}
