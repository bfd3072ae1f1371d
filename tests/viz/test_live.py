"""Tests for the live batch-progress meter (an event-bus subscriber)."""

from repro.core.events import EventBus
from repro.service.events import JobFailed, JobFinished, JobStarted
from repro.viz.live import BatchProgressMeter


def started(label, attempt=1, worker=0):
    return JobStarted(
        index=0, digest="d" * 64, label=label, attempt=attempt,
        worker=worker,
    )


def finished(label, cached=False):
    return JobFinished(
        index=0, digest="d" * 64, label=label, elapsed_s=0.1,
        attempts=1, cached=cached,
    )


def failed(label, final=True):
    return JobFailed(
        index=0, digest="d" * 64, label=label,
        error_type="SimulationTimeoutError", message="boom",
        attempt=1, final=final,
    )


class TestBatchProgressMeter:
    def test_scoreboard_counts(self):
        bus = EventBus()
        meter = BatchProgressMeter(total=3).attach(bus)
        bus.publish(started("a"))
        bus.publish(finished("a"))
        bus.publish(finished("b", cached=True))  # cache hits skip Started
        bus.publish(started("c"))
        bus.publish(failed("c"))
        assert meter.done == 3
        assert meter.finished == 2
        assert meter.cached == 1
        assert meter.failed == 1
        assert meter.in_flight == {}

    def test_retries_counted_and_nonfinal_failures_ignored(self):
        bus = EventBus()
        meter = BatchProgressMeter(total=1).attach(bus)
        bus.publish(started("a", attempt=1))
        bus.publish(failed("a", final=False))
        bus.publish(started("a", attempt=2))
        bus.publish(finished("a"))
        assert meter.retries == 1
        assert meter.failed == 0
        assert meter.done == 1

    def test_status_line(self):
        bus = EventBus()
        meter = BatchProgressMeter(total=4).attach(bus)
        bus.publish(finished("a", cached=True))
        bus.publish(started("b"))
        line = meter.status_line()
        assert "1/4 done" in line
        assert "1 cached" in line
        assert "running: b" in line

    def test_status_line_truncates_running_list(self):
        meter = BatchProgressMeter()
        for name in "abcdef":
            meter.on_started(started(name))
        line = meter.status_line()
        assert "..." in line and "f" not in line.split("running:")[1]

    def test_detach_stops_counting(self):
        bus = EventBus()
        meter = BatchProgressMeter().attach(bus)
        bus.publish(finished("a"))
        meter.detach(bus)
        bus.publish(finished("b"))
        assert meter.finished == 1

    def test_live_against_execution_service(self, tmp_path):
        from repro.service import ExecutionService, Job

        service = ExecutionService()
        meter = BatchProgressMeter(total=2).attach(service.bus)
        service.run([
            Job("probe", {"value": 1}, label="ok"),
            Job("probe", {"fail_times": 99,
                          "marker_dir": str(tmp_path)}, label="bad"),
        ])
        assert meter.done == 2
        assert meter.finished == 1 and meter.failed == 1
        assert meter.status_line().startswith("2/2 done")
