"""Tests for the execution service's inline orchestration.

Inline mode (``workers=1``) exercises the cache, retry, and event
semantics without spawning processes; the pool-specific paths (crash
isolation, hard timeouts, real parallelism) live in ``test_pool.py``.
"""

import pytest

from repro.core.events import EventBus
from repro.errors import (
    ConfigurationError,
    SimulationTimeoutError,
    WorkerCrashError,
)
from repro.experiments.config import ExperimentScale
from repro.service import (
    ExecutionService,
    Job,
    JobFailed,
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

    def test_probe_results_never_cached(self, tmp_path):
        service = ExecutionService(cache=ResultCache(tmp_path))
        job = Job("probe", {"value": 1})
        service.run([job])
        assert service.run([job]).cache_hits == 0

    def test_on_result_reports_cached_flag(self, tmp_path):
        service = ExecutionService(cache=ResultCache(tmp_path))
        seen = []
        job = tiny_job()
        service.run([job], on_result=lambda i, j, p, c: seen.append(c))
        service.run([job], on_result=lambda i, j, p, c: seen.append(c))
        assert seen == [False, True]


class TestEvents:
    def test_lifecycle_topics_in_order(self):
        bus = EventBus()
        log = []
        for topic in (JobStarted, JobFinished, JobFailed):
            bus.subscribe(topic, log.append)
        service = ExecutionService(bus=bus)
        service.run([Job("probe", {"value": 3}, label="p")])
        assert [type(e).__name__ for e in log] == [
            "JobStarted", "JobFinished",
        ]
        assert log[0].label == "p" and log[0].worker == -1
        assert log[1].cached is False and log[1].attempts == 1

    def test_cache_hit_publishes_only_finished(self, tmp_path):
        bus = EventBus()
        log = []
        for topic in (JobStarted, JobFinished, JobFailed):
            bus.subscribe(topic, log.append)
        service = ExecutionService(bus=bus, cache=ResultCache(tmp_path))
        service.run([tiny_job()])
        log.clear()
        service.run([tiny_job()])
        assert [type(e).__name__ for e in log] == ["JobFinished"]
        assert log[0].cached is True

    def test_retry_publishes_nonfinal_then_final_failures(self, tmp_path):
        bus = EventBus()
        log = []
        for topic in (JobStarted, JobFailed):
            bus.subscribe(topic, log.append)
        service = ExecutionService(bus=bus, retries=1)
        job = Job(
            "probe",
            {"fail_times": 99, "marker_dir": str(tmp_path)},
        )
        result = service.run([job])
        assert not result.complete
        # The failed attempt is re-queued at once: no wait between it
        # and the retry's JobStarted.
        assert [
            (type(e).__name__, getattr(e, "final", None)) for e in log
        ] == [
            ("JobStarted", None), ("JobFailed", False),
            ("JobStarted", None), ("JobFailed", True),
        ]


class TestRetries:
    def test_fail_then_succeed(self, tmp_path):
        service = ExecutionService(retries=2)
        job = Job(
            "probe",
            {"fail_times": 2, "marker_dir": str(tmp_path), "value": 9},
        )
        result = service.run([job])
        assert result.complete
        assert result.payloads[0] == {"value": 9, "attempt": 3}

    def test_hang_then_succeed(self, tmp_path):
        service = ExecutionService(retries=1)
        job = Job(
            "probe",
            {"hang_times": 1, "sleep_s": 0.01,
             "marker_dir": str(tmp_path), "value": 4},
        )
        result = service.run([job])
        assert result.complete
        assert result.payloads[0] == {"value": 4, "attempt": 2}

    def test_exhausted_retries_recorded_with_error(self, tmp_path):
        service = ExecutionService(retries=1)
        result = service.run([
            Job("probe", {"fail_times": 99, "marker_dir": str(tmp_path)}),
        ])
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.attempts == 2
        assert isinstance(failure.error, SimulationTimeoutError)

    def test_failure_does_not_abort_batch(self, tmp_path):
        service = ExecutionService()
        result = service.run([
            Job("probe", {"fail_times": 99,
                          "marker_dir": str(tmp_path)}),
            Job("probe", {"value": 5}),
        ])
        assert len(result.failures) == 1
        assert result.payloads[1]["value"] == 5

    def test_inline_crash_probe_maps_to_worker_crash_error(self):
        result = ExecutionService().run([Job("probe", {"crash_times": 9})])
        assert isinstance(result.failures[0].error, WorkerCrashError)


class TestValidation:
    def test_rejects_bad_worker_count(self):
        with pytest.raises(ConfigurationError):
            ExecutionService(workers=0)

    def test_rejects_negative_retries(self):
        with pytest.raises(ConfigurationError):
            ExecutionService(retries=-1)

    @pytest.mark.parametrize("timeout_s", [0, -2.0, float("nan")])
    def test_bad_service_timeout_fails_before_any_job(self, timeout_s):
        """The service default reaches each job through
        ``dataclasses.replace``, which re-runs the job's own check."""
        started = []
        service = ExecutionService(timeout_s=timeout_s)
        service.bus.subscribe(JobStarted, started.append)
        with pytest.raises(ConfigurationError, match="timeout_s"):
            service.run([Job("probe", {"value": 1})])
        assert started == []

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
    def test_service_default_applied_to_jobs(self, tmp_path):
        # A tiny cooperative budget on a real simulation must produce a
        # SimulationTimeoutError (the guard fires mid-run).
        service = ExecutionService(timeout_s=1e-9)
        result = service.run([tiny_job()])
        assert not result.complete
        assert isinstance(result.failures[0].error, SimulationTimeoutError)

    def test_job_timeout_overrides_service_default(self):
        service = ExecutionService(timeout_s=1e-9)
        job = Job(
            "synthetic", {"pattern": "sequential"}, scale=TINY,
            timeout_s=300.0,
        )
        assert service.run([job]).complete
