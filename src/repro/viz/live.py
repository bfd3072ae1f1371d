"""Live batch progress over the execution service's event bus.

:class:`BatchProgressMeter` subscribes to the execution service's
``JobStarted`` / ``JobFinished`` / ``JobFailed`` topics
(:mod:`repro.service.events`) and keeps a rolling batch scoreboard plus
a one-line status renderer, which the ``dram-stacks batch`` CLI
reprints as points complete.

Usage::

    meter = BatchProgressMeter(total=len(jobs))
    meter.attach(service.bus)
    ... run the batch ...
    meter.detach(service.bus)
    print(meter.status_line())
"""

from __future__ import annotations

from repro.core.events import EventBus


class BatchProgressMeter:
    """Batch scoreboard over the execution-service event topics.

    Subscribes to :class:`~repro.service.events.JobStarted` /
    :class:`~repro.service.events.JobFinished` /
    :class:`~repro.service.events.JobFailed` and tracks how a batch is
    going: completed/failed/cached counts, retries observed, and which
    labels are in flight right now.

    Args:
        total: expected number of jobs (used by :meth:`status_line`;
            0 renders counts without a denominator).

    It is a plain subscriber: :meth:`attach` / :meth:`detach` wire it to
    any :class:`~repro.core.events.EventBus` (normally
    ``ExecutionService(...).bus``).
    """

    def __init__(self, total: int = 0) -> None:
        self.total = total
        self.finished = 0
        self.failed = 0
        self.cached = 0
        self.retries = 0
        #: Labels currently executing (insertion-ordered).
        self.in_flight: dict[str, int] = {}

    def attach(self, bus: EventBus) -> "BatchProgressMeter":
        """Subscribe this meter's handlers to `bus`; returns self."""
        from repro.service.events import JobFailed, JobFinished, JobStarted

        bus.subscribe(JobStarted, self.on_started)
        bus.subscribe(JobFinished, self.on_finished)
        bus.subscribe(JobFailed, self.on_failed)
        return self

    def detach(self, bus: EventBus) -> None:
        """Remove this meter's handlers from `bus` (idempotent)."""
        from repro.service.events import JobFailed, JobFinished, JobStarted

        bus.unsubscribe(JobStarted, self.on_started)
        bus.unsubscribe(JobFinished, self.on_finished)
        bus.unsubscribe(JobFailed, self.on_failed)

    # ------------------------------------------------------------------
    # Bus handlers
    # ------------------------------------------------------------------
    def on_started(self, event) -> None:
        """Handle one JobStarted (attempts > 1 count as retries)."""
        self.in_flight[event.label] = event.attempt
        if event.attempt > 1:
            self.retries += 1

    def on_finished(self, event) -> None:
        """Handle one JobFinished."""
        self.in_flight.pop(event.label, None)
        self.finished += 1
        if event.cached:
            self.cached += 1

    def on_failed(self, event) -> None:
        """Handle one JobFailed (only terminal failures count)."""
        if event.final:
            self.in_flight.pop(event.label, None)
            self.failed += 1

    # ------------------------------------------------------------------
    @property
    def done(self) -> int:
        """Jobs with a terminal outcome (finished or failed)."""
        return self.finished + self.failed

    def status_line(self) -> str:
        """One-line scoreboard, e.g. ``12/16 done (3 cached, 1 failed)``.

        In-flight labels are appended while anything is running.
        """
        total = f"/{self.total}" if self.total else ""
        parts = []
        if self.cached:
            parts.append(f"{self.cached} cached")
        if self.retries:
            parts.append(f"{self.retries} retried")
        if self.failed:
            parts.append(f"{self.failed} failed")
        line = f"{self.done}{total} done"
        if parts:
            line += f" ({', '.join(parts)})"
        if self.in_flight:
            running = ", ".join(list(self.in_flight)[:4])
            if len(self.in_flight) > 4:
                running += ", ..."
            line += f" | running: {running}"
        return line
