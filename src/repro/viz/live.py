"""Live metering over event buses: DRAM utilization and batch progress.

Where the stack accountants post-process the complete
:class:`~repro.dram.components.accounting.EventLog` after a run, the
:class:`LiveUtilizationMeter` subscribes to the *online* event stream
(:mod:`repro.core.events`) and maintains coarse utilization counters
while the simulation is still running — e.g. to drive a progress
readout or an in-flight dashboard without waiting for the run to end.

:class:`BatchProgressMeter` plays the same role for the parallel
execution service (:mod:`repro.service`): it subscribes to the
``JobStarted`` / ``JobFinished`` / ``JobFailed`` topics and keeps a
rolling batch scoreboard plus a one-line status renderer, which the
``dram-stacks batch`` CLI reprints as points complete.

Usage::

    meter = LiveUtilizationMeter(interval=10_000)
    meter.attach(controller.events)       # or system.events
    ... run ...
    meter.detach(controller.events)
    for sample in meter.samples:
        print(sample.cycle, sample.data_commands, sample.refreshes)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.events import CommandIssued, EventBus, RefreshStarted
from repro.errors import ConfigurationError

#: CommandIssued.command values that move data on the bus.
_DATA_COMMANDS = frozenset(("READ", "WRITE"))


@dataclass(frozen=True)
class UtilizationSample:
    """Counters accumulated over one sampling interval.

    ``cycle`` is the interval's right edge (the cycle of the first
    command at or past it); counts cover everything since the previous
    sample.
    """

    cycle: int
    commands: int
    data_commands: int
    activates: int
    precharges: int
    refreshes: int


class LiveUtilizationMeter:
    """Rolls the command stream up into per-interval utilization samples.

    Args:
        interval: sampling interval in memory-controller cycles; a
            sample is emitted when a command arrives at or past the
            current interval's end.

    The meter is a plain event-bus subscriber: :meth:`attach` wires its
    handlers, :meth:`detach` removes them (idempotent). One meter can
    observe a multi-channel system by attaching to the system bus, in
    which case samples aggregate all channels.
    """

    def __init__(self, interval: int = 10_000) -> None:
        if interval < 1:
            raise ConfigurationError(
                f"meter interval must be >= 1 cycle, got {interval}"
            )
        self.interval = interval
        #: Completed interval samples, oldest first.
        self.samples: list[UtilizationSample] = []
        self._window_end = interval
        self._commands = 0
        self._data = 0
        self._acts = 0
        self._pres = 0
        self._refreshes = 0
        self.total_commands = 0

    # ------------------------------------------------------------------
    def attach(self, bus: EventBus) -> "LiveUtilizationMeter":
        """Subscribe this meter's handlers to `bus`; returns self."""
        bus.subscribe(CommandIssued, self.on_command)
        bus.subscribe(RefreshStarted, self.on_refresh)
        return self

    def detach(self, bus: EventBus) -> None:
        """Remove this meter's handlers from `bus` (idempotent)."""
        bus.unsubscribe(CommandIssued, self.on_command)
        bus.unsubscribe(RefreshStarted, self.on_refresh)

    # ------------------------------------------------------------------
    # Bus handlers
    # ------------------------------------------------------------------
    def on_command(self, event: CommandIssued) -> None:
        """Handle one :class:`CommandIssued`."""
        if event.cycle >= self._window_end:
            self._emit(event.cycle)
        self.total_commands += 1
        self._commands += 1
        command = event.command
        if command in _DATA_COMMANDS:
            self._data += 1
        elif command == "ACTIVATE":
            self._acts += 1
        elif command == "PRECHARGE":
            self._pres += 1

    def on_refresh(self, event: RefreshStarted) -> None:
        """Handle one :class:`RefreshStarted`."""
        if event.start >= self._window_end:
            self._emit(event.start)
        self._refreshes += 1

    # ------------------------------------------------------------------
    def finish(self, cycle: int) -> None:
        """Flush the in-progress interval (call once at end of run)."""
        if self._commands or self._refreshes:
            self._emit(max(cycle, self._window_end))

    def _emit(self, cycle: int) -> None:
        self.samples.append(UtilizationSample(
            cycle=self._window_end,
            commands=self._commands,
            data_commands=self._data,
            activates=self._acts,
            precharges=self._pres,
            refreshes=self._refreshes,
        ))
        self._commands = self._data = 0
        self._acts = self._pres = self._refreshes = 0
        # Jump to the window containing `cycle` (idle stretches emit no
        # empty samples).
        interval = self.interval
        windows = (cycle - self._window_end) // interval + 1
        self._window_end += windows * interval

    @property
    def busy_fraction_last(self) -> float:
        """Data-command share of all commands in the newest sample."""
        if not self.samples:
            return 0.0
        sample = self.samples[-1]
        return sample.data_commands / sample.commands if sample.commands else 0.0


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

    Like the utilization meter, it is a plain subscriber:
    :meth:`attach` / :meth:`detach` wire it to any
    :class:`~repro.core.events.EventBus` (normally
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
