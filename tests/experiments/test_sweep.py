"""Tests for the parameter-sweep harness."""

import dataclasses

import pytest

from repro.experiments.config import ExperimentScale
from repro.experiments.sweep import SweepPoint, grid, run_sweep

TINY = ExperimentScale("tiny", synthetic_accesses=800)


class TestGrid:
    def test_cartesian_product(self):
        points = grid(
            patterns=("sequential", "random"),
            cores=(1, 2),
            page_policies=("open", "closed"),
        )
        assert len(points) == 8

    def test_point_labels_unique(self):
        points = grid(patterns=("sequential", "random"), cores=(1, 2))
        labels = {point.label for point in points}
        assert len(labels) == len(points)


class TestRunSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        points = grid(
            patterns=("sequential", "random"),
            page_policies=("open", "closed"),
        )
        return run_sweep(points, scale=TINY)

    def test_all_points_ran(self, sweep):
        assert len(sweep) == 4

    def test_metrics_plausible(self, sweep):
        for record in sweep.records:
            assert 0 < record.achieved_gbps < 19.2
            assert record.avg_latency_ns > 40
            assert 0 <= record.page_hit_rate <= 1

    def test_best_selection(self, sweep):
        best = sweep.best_bandwidth()
        assert best.achieved_gbps == max(
            r.achieved_gbps for r in sweep.records
        )

    def test_filter(self, sweep):
        sequential = sweep.filter(pattern="sequential")
        assert len(sequential) == 2
        assert all(
            r.point.pattern == "sequential" for r in sequential.records
        )

    def test_reproduces_fig4_direction(self, sweep):
        # The sweep should recover Fig. 4's headline: sequential prefers
        # open, random prefers closed.
        seq = sweep.filter(pattern="sequential")
        ran = sweep.filter(pattern="random")
        seq_open = seq.filter(page_policy="open").records[0]
        seq_closed = seq.filter(page_policy="closed").records[0]
        ran_open = ran.filter(page_policy="open").records[0]
        ran_closed = ran.filter(page_policy="closed").records[0]
        assert seq_open.achieved_gbps > seq_closed.achieved_gbps
        assert ran_closed.achieved_gbps > ran_open.achieved_gbps

    def test_csv_export(self, sweep):
        import csv
        import io

        rows = list(csv.reader(io.StringIO(sweep.to_csv())))
        assert rows[0][0] == "pattern"
        assert len(rows) == 5

    def test_progress_callback(self):
        seen = []
        run_sweep(
            [SweepPoint()], scale=TINY, progress=lambda r: seen.append(r)
        )
        assert len(seen) == 1


class TestRobustness:
    """Per-point timeout, immediate retries and partial results.

    Points run through the execution service's inline mode, whose
    synthetic executor calls ``repro.experiments.runner.run_synthetic``;
    the tests patch it there.
    """

    def test_failing_point_recorded_not_fatal(self, monkeypatch):
        from repro.errors import SimulationStalledError
        from repro.experiments import runner

        real = runner.run_synthetic

        def flaky(pattern, **kwargs):
            if pattern == "random":
                raise SimulationStalledError("injected stall")
            return real(pattern, **kwargs)

        monkeypatch.setattr(runner, "run_synthetic", flaky)
        points = grid(patterns=("sequential", "random"))
        result = run_sweep(points, scale=TINY)
        assert not result.complete
        assert len(result.records) == 1
        assert result.records[0].point.pattern == "sequential"
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.point.pattern == "random"
        assert isinstance(failure.error, SimulationStalledError)
        assert failure.attempts == 1
        assert "SimulationStalledError" in str(failure)

    def test_retry_then_success(self, monkeypatch):
        from repro.errors import SimulationTimeoutError
        from repro.experiments import runner

        real = runner.run_synthetic
        calls = {"n": 0}

        def flaky(pattern, **kwargs):
            calls["n"] += 1
            if calls["n"] < 3:
                raise SimulationTimeoutError("injected timeout")
            return real(pattern, **kwargs)

        monkeypatch.setattr(runner, "run_synthetic", flaky)
        result = run_sweep([SweepPoint()], scale=TINY, retries=2)
        assert result.complete
        assert calls["n"] == 3

    def test_retries_exhausted(self, monkeypatch):
        from repro.errors import SimulationTimeoutError
        from repro.experiments import runner

        def always_fails(pattern, **kwargs):
            raise SimulationTimeoutError("injected timeout")

        monkeypatch.setattr(runner, "run_synthetic", always_fails)
        result = run_sweep([SweepPoint()], scale=TINY, retries=2)
        assert len(result.failures) == 1
        assert result.failures[0].attempts == 3

    def test_timeout_builds_deadline_guard(self, monkeypatch):
        from repro.errors import WorkerCrashError
        from repro.experiments import runner

        seen = {}

        def capture(pattern, **kwargs):
            seen["guard"] = kwargs["guard"]
            return None

        monkeypatch.setattr(runner, "run_synthetic", capture)
        result = run_sweep([SweepPoint()], scale=TINY, timeout_s=30.0)
        # The stub returns None; the executor then touching the result
        # proves run_synthetic actually received the guard first.
        assert isinstance(result.failures[0].error, WorkerCrashError)
        assert seen["guard"].wall_timeout_s == 30.0
        assert seen["guard"].watchdog is not None

    @pytest.mark.parametrize("jobs", [0, -4])
    def test_nonpositive_jobs_rejected(self, jobs):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="workers"):
            run_sweep([SweepPoint()], scale=TINY, jobs=jobs)

