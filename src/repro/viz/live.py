"""Live batch progress from the execution service's ``on_event`` records.

:class:`BatchProgressMeter` is an ``on_event`` callback: it counts the
``JobStarted`` / ``JobFinished`` / ``JobFailure`` records
(:mod:`repro.service.events`) of a batch and keeps a rolling scoreboard
plus a one-line status renderer, which the ``dram-stacks batch`` CLI
reprints as points complete.

Usage::

    meter = BatchProgressMeter(total=len(jobs))
    service.run(jobs, on_event=meter)
    print(meter.status_line())
"""

from __future__ import annotations


class BatchProgressMeter:
    """Batch scoreboard over the execution service's job records.

    Called with each :class:`~repro.service.events.JobStarted`,
    :class:`~repro.service.events.JobFinished` and
    :class:`~repro.service.events.JobFailure`, it tracks how a batch is
    going: completed/failed/cached counts and which labels are in
    flight right now.

    Args:
        total: expected number of jobs (used by :meth:`status_line`;
            0 renders counts without a denominator).
    """

    def __init__(self, total: int = 0) -> None:
        self.total = total
        self.finished = 0
        self.failed = 0
        self.cached = 0
        #: Labels currently executing, each with its worker id
        #: (insertion-ordered).
        self.in_flight: dict[str, int] = {}

    def __call__(self, event) -> None:
        """Count one record of a batch."""
        # Imported here so that importing this module never loads the
        # service (or multiprocessing).
        from repro.service.events import JobFinished, JobStarted

        if isinstance(event, JobStarted):
            self.in_flight[event.label] = event.worker
        elif isinstance(event, JobFinished):
            self.in_flight.pop(event.label, None)
            self.finished += 1
            if event.cached:
                self.cached += 1
        else:  # a JobFailure
            self.in_flight.pop(event.job.display_label, None)
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
