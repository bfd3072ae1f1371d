"""Tests for the execution service's inline orchestration.

Inline mode (``workers=1``) exercises the cache, failure, and event
semantics without spawning processes; the pool-specific paths (crash
isolation, hard timeouts, real parallelism) live in ``test_pool.py``.
"""

import os

import pytest

from repro.errors import (
    ConfigurationError,
    SimulationTimeoutError,
    WorkerCrashError,
)
from repro.experiments.config import ExperimentScale
from repro.service import (
    ExecutionService,
    Job,
    JobFailure,
    JobFinished,
    JobStarted,
    ResultCache,
)

TINY = ExperimentScale("tiny", synthetic_accesses=800)


def tiny_job(pattern="sequential", **config):
    return Job(
        "synthetic", {"pattern": pattern, **config}, scale=TINY,
        label=pattern,
    )


class TestCaching:
    def test_miss_then_hit_returns_identical_payload(self, tmp_path):
        service = ExecutionService(cache=ResultCache(tmp_path))
        job = tiny_job()
        cold = service.run([job])
        assert cold.complete and cold.executed == 1
        assert cold.cache_hits == 0
        warm = service.run([job])
        assert warm.cache_hits == 1 and warm.executed == 0
        assert warm.payloads == cold.payloads  # bit-identical
        assert warm.hit_rate == 1.0

    def test_config_change_invalidates(self, tmp_path):
        service = ExecutionService(cache=ResultCache(tmp_path))
        service.run([tiny_job(cores=1)])
        again = service.run([tiny_job(cores=2)])
        assert again.cache_hits == 0 and again.executed == 1

    def test_cache_accepts_plain_path(self, tmp_path):
        service = ExecutionService(cache=str(tmp_path / "c"))
        service.run([tiny_job()])
        assert service.run([tiny_job()]).cache_hits == 1

    def test_cache_accepts_bytes_path(self, tmp_path):
        service = ExecutionService(cache=os.fsencode(tmp_path / "c"))
        assert isinstance(service.cache, ResultCache)
        service.run([Job("probe", {"value": 2})])
        assert service.run([Job("probe", {"value": 2})]).cache_hits == 1

    def test_probe_results_cached_like_any_payload(self, tmp_path):
        """A probe's payload depends only on its config, so it is
        cached like every other kind's."""
        service = ExecutionService(cache=ResultCache(tmp_path))
        job = Job("probe", {"value": 1})
        service.run([job])
        warm = service.run([job])
        assert warm.cache_hits == 1 and warm.payloads == [{"value": 1}]

    def test_on_event_reports_cached_flag(self, tmp_path):
        service = ExecutionService(cache=ResultCache(tmp_path))
        seen = []

        def on_event(event):
            if isinstance(event, JobFinished):
                seen.append(event.cached)

        job = tiny_job()
        service.run([job], on_event=on_event)
        service.run([job], on_event=on_event)
        assert seen == [False, True]


class TestEvents:
    def test_lifecycle_topics_in_order(self):
        log = []
        job = Job("probe", {"value": 3}, label="p")
        ExecutionService().run([job], on_event=log.append)
        assert [type(e) for e in log] == [JobStarted, JobFinished]
        assert log[0].label == "p" and log[0].worker == -1
        assert log[0].index == log[1].index == 0
        assert log[0].digest == log[1].digest == job.digest()
        assert log[1].cached is False
        assert log[1].payload == {"value": 3}

    def test_cache_hit_publishes_only_finished(self, tmp_path):
        log = []
        service = ExecutionService(cache=ResultCache(tmp_path))
        service.run([tiny_job()])
        service.run([tiny_job()], on_event=log.append)
        assert [type(e) for e in log] == [JobFinished]
        assert log[0].cached is True

    def test_failure_publishes_started_then_failed(self):
        log = []
        result = ExecutionService().run(
            [Job("probe", {"fail": True}, label="p")], on_event=log.append
        )
        assert not result.complete
        assert [type(e) for e in log] == [JobStarted, JobFailure]
        # The failure record is the one the batch result holds.
        assert log[1] is result.failures[0]
        assert isinstance(log[1].error, SimulationTimeoutError)

    @pytest.mark.parametrize("workers", [
        pytest.param(1, id="inline"),
        pytest.param(2, id="pooled", marks=pytest.mark.slow),
    ])
    def test_finished_payload_is_the_batch_payload(self, workers):
        finished = {}

        def on_event(event):
            if isinstance(event, JobFinished):
                finished[event.index] = event.payload

        jobs = [Job("probe", {"value": i}) for i in range(3)]
        result = ExecutionService(workers=workers).run(
            jobs, on_event=on_event
        )
        assert result.complete
        assert [finished[i] for i in range(3)] == result.payloads


class TestFailures:
    def test_failure_recorded_with_error(self):
        result = ExecutionService().run([Job("probe", {"fail": True})])
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.index == 0
        assert isinstance(failure.error, SimulationTimeoutError)
        assert str(failure).endswith(
            "SimulationTimeoutError: probe scripted failure"
        )

    def test_failure_does_not_abort_batch(self):
        service = ExecutionService()
        result = service.run([
            Job("probe", {"fail": True}),
            Job("probe", {"value": 5}),
        ])
        assert len(result.failures) == 1
        assert result.payloads[1]["value"] == 5

    def test_inline_crash_probe_maps_to_worker_crash_error(self):
        result = ExecutionService().run([Job("probe", {"crash": True})])
        assert isinstance(result.failures[0].error, WorkerCrashError)


class TestValidation:
    @pytest.mark.parametrize("workers", [0, -1, True, 2.0, "2"])
    def test_rejects_bad_worker_count(self, workers):
        with pytest.raises(ConfigurationError, match="workers"):
            ExecutionService(workers=workers)

    @pytest.mark.parametrize("cache", [
        123, True, object(), [],
    ], ids=["int", "bool", "object", "list"])
    def test_rejects_bad_cache_before_any_job(self, cache):
        """The service checks its cache where it enters, so no batch
        can fail later on a cache it cannot use."""
        with pytest.raises(ConfigurationError, match="cache"):
            ExecutionService(cache=cache)

    def test_unknown_job_kind_fails_the_job(self):
        result = ExecutionService().run([Job("warp-drive", {})])
        assert not result.complete
        assert isinstance(result.failures[0].error, ConfigurationError)

    def test_bad_synthetic_config_key_fails_eagerly(self):
        result = ExecutionService().run([
            Job("synthetic", {"pattern": "sequential", key: 1}, scale=TINY)
            for key in ("bogus", "label")
        ])
        assert len(result.failures) == 2
        for failure in result.failures:
            assert isinstance(failure.error, ConfigurationError)

    def test_empty_batch(self):
        result = ExecutionService().run([])
        assert result.complete and len(result) == 0


class TestTimeout:
    def test_service_default_applied_to_jobs(self):
        # The budget is the job's own: a tiny cooperative one on a real
        # simulation must produce a SimulationTimeoutError (the guard
        # fires mid-run).
        job = Job(
            "synthetic", {"pattern": "sequential"}, scale=TINY,
            timeout_s=1e-9,
        )
        result = ExecutionService().run([job])
        assert not result.complete
        assert isinstance(result.failures[0].error, SimulationTimeoutError)
