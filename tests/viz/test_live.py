"""Tests for the live batch-progress meter (an ``on_event`` callback)."""

from repro.errors import SimulationTimeoutError
from repro.service import Job
from repro.service.events import JobFailure, JobFinished, JobStarted
from repro.viz.live import BatchProgressMeter


def started(label, worker=0):
    return JobStarted(
        index=0, digest="d" * 64, label=label, worker=worker,
    )


def finished(label, cached=False):
    return JobFinished(
        index=0, digest="d" * 64, label=label, elapsed_s=0.1,
        cached=cached, payload={},
    )


def failed(label):
    return JobFailure(
        job=Job("probe", {}, label=label), index=0,
        error=SimulationTimeoutError("boom"),
    )


class TestBatchProgressMeter:
    def test_scoreboard_counts(self):
        meter = BatchProgressMeter(total=3)
        meter(started("a"))
        meter(finished("a"))
        meter(finished("b", cached=True))  # cache hits skip Started
        meter(started("c"))
        meter(failed("c"))
        assert meter.done == 3
        assert meter.finished == 2
        assert meter.cached == 1
        assert meter.failed == 1
        assert meter.in_flight == {}

    def test_status_line(self):
        meter = BatchProgressMeter(total=4)
        meter(finished("a", cached=True))
        meter(started("b"))
        line = meter.status_line()
        assert "1/4 done" in line
        assert "1 cached" in line
        assert "running: b" in line

    def test_status_line_truncates_running_list(self):
        meter = BatchProgressMeter()
        for name in "abcdef":
            meter(started(name))
        line = meter.status_line()
        assert "..." in line and "f" not in line.split("running:")[1]

    def test_live_against_execution_service(self):
        from repro.service import ExecutionService

        meter = BatchProgressMeter(total=2)
        ExecutionService().run([
            Job("probe", {"value": 1}, label="ok"),
            Job("probe", {"fail": True}, label="bad"),
        ], on_event=meter)
        assert meter.done == 2
        assert meter.finished == 1 and meter.failed == 1
        assert meter.status_line().startswith("2/2 done")
