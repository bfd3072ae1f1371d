"""One object bundling the run-time guardrails.

A :class:`ReliabilityGuard` is attached to a
:class:`~repro.cpu.system.CpuSystem` for the duration of one run. The
system's main loop calls :meth:`tick` once per scheduling iteration; the
guard amortizes its own work so the healthy-path cost is an integer
compare:

* forward-progress watchdog: attached directly to the memory controller
  (checked inside the controller's own scheduling step);
* wall-clock budget: checked every ``_TICKS_PER_CLOCK_CHECK`` ticks,
  raising :class:`~repro.errors.SimulationTimeoutError` cooperatively;
* invariant auditor: incremental event-log audit every
  ``audit_interval_cycles`` simulated cycles, plus (with
  ``final_audit=True``) a full bandwidth/latency exactness audit when
  the run finishes;
* checkpoints: written every ``checkpoint.interval_cycles`` simulated
  cycles when a :class:`~repro.reliability.checkpoint.CheckpointManager`
  is configured.
"""

from __future__ import annotations

import time

from repro.errors import ConfigurationError, SimulationTimeoutError
from repro.reliability.auditor import InvariantAuditor
from repro.reliability.checkpoint import CheckpointManager
from repro.reliability.watchdog import ForwardProgressWatchdog

#: Loop iterations between wall-clock reads (time.monotonic is cheap but
#: not free; the loop runs millions of iterations).
_TICKS_PER_CLOCK_CHECK = 256


def check_timeout(value, owner: str):
    """`value` if it is None or a number of seconds > 0; else raise.

    A zero or negative budget would time out every run, and a NaN one
    would be silently ignored (every comparison with NaN is False), so
    both raise :class:`~repro.errors.ConfigurationError` here, where
    the value enters: :class:`ReliabilityGuard` and
    :class:`repro.service.job.Job`.
    """
    if value is None:
        return None
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not value > 0
    ):
        raise ConfigurationError(
            f"{owner} must be None or a number of seconds > 0, "
            f"got {value!r}"
        )
    return value


class ReliabilityGuard:
    """Watchdog + auditor + checkpointing + wall-clock budget for one run.

    Args:
        watchdog: forward-progress watchdog, or None to disable.
        auditor: invariant auditor, or None to disable auditing.
        checkpoints: checkpoint manager, or None to disable checkpoints.
        wall_timeout_s: wall-clock budget for the run, or None.
        audit_interval_cycles: simulated cycles between incremental
            event-log audits.
        final_audit: rebuild the bandwidth and latency stacks at end of
            run purely to check exactness. Off by default: the auditor
            travels on the :class:`SimulationResult` into every
            accountant, so exactness is already audited whenever a
            stack is actually built — the finish-time rebuild would
            double that accounting work for runs that consume their
            stacks. Turn on for runs whose results are never otherwise
            accounted (e.g. pure soak tests).
    """

    def __init__(
        self,
        watchdog: ForwardProgressWatchdog | None = None,
        auditor: InvariantAuditor | None = None,
        checkpoints: CheckpointManager | None = None,
        wall_timeout_s: float | None = None,
        audit_interval_cycles: int = 250_000,
        final_audit: bool = False,
    ) -> None:
        self.watchdog = watchdog
        self.auditor = auditor
        self.checkpoints = checkpoints
        self.wall_timeout_s = check_timeout(
            wall_timeout_s, "ReliabilityGuard(wall_timeout_s=...)"
        )
        self.audit_interval_cycles = max(1, audit_interval_cycles)
        self.final_audit = final_audit
        self._deadline: float | None = None
        self._tick_count = 0
        self._last_audit_cycle = 0
        #: Per-channel audit cursors: channel key -> event-list cursors.
        self._audit_cursors: dict[str, dict[str, int]] = {}

    @classmethod
    def default(cls) -> "ReliabilityGuard":
        """The guard every full-system run gets unless told otherwise:
        watchdog on, auditor in ``warn`` mode, no checkpoints."""
        return cls(
            watchdog=ForwardProgressWatchdog(),
            auditor=InvariantAuditor(mode="warn"),
        )

    # ------------------------------------------------------------------
    def attach(self, system) -> None:
        """Arm the guard for a (possibly resumed) run of `system`."""
        if self.watchdog is not None:
            system.memory.attach_watchdog(self.watchdog)
        if self.wall_timeout_s is not None:
            self._deadline = time.monotonic() + self.wall_timeout_s
        self._tick_count = 0
        self._last_audit_cycle = system.memory.now
        self._audit_cursors = {}

    def tick(self, system) -> None:
        """One main-loop heartbeat; cheap unless an interval elapsed."""
        self._tick_count += 1
        if self.checkpoints is not None:
            self.checkpoints.maybe_checkpoint(system)
        if self._tick_count % _TICKS_PER_CLOCK_CHECK:
            return
        if (
            self._deadline is not None
            and time.monotonic() > self._deadline
        ):
            raise SimulationTimeoutError(
                f"run exceeded its wall-clock budget of "
                f"{self.wall_timeout_s:.3f}s at cycle {system.memory.now}"
            )
        cycle = system.memory.now
        if (
            self.auditor is not None
            and cycle - self._last_audit_cycle >= self.audit_interval_cycles
        ):
            self._last_audit_cycle = cycle
            self._audit_logs(system.memory)

    def _audit_logs(self, memory) -> None:
        """Incremental log audit, per channel for composite memories."""
        for key, log in _channel_logs(memory):
            self.auditor.audit_log_increment(
                log, self._audit_cursors.setdefault(key, {})
            )

    def finish(self, system, total_cycles: int) -> None:
        """End-of-run audit: drain the incremental log audit, and (when
        ``final_audit`` is set) check the exact stack invariants."""
        if self.auditor is None:
            return
        self._audit_logs(system.memory)
        if not self.final_audit:
            return
        from repro.stacks.latency import refresh_windows_for_latency

        base_cycles = (
            system.config.core.noc_request_cycles
            + system.config.core.noc_response_cycles
        )
        channels = getattr(system.memory, "channels", None) or [system.memory]
        for mc in channels:
            self.auditor.audit_bandwidth(
                mc.spec,
                mc.log,
                total_cycles,
                bin_cycles=self.audit_interval_cycles,
            )
            self.auditor.audit_latency(
                mc.spec,
                mc.completed_requests,
                refresh_windows_for_latency(mc.log),
                mc.log.drain_windows,
                base_controller_cycles=base_cycles,
            )


def _channel_logs(memory) -> list:
    """(cursor key, event log) per channel; one entry for a single
    controller, so single-channel cursor keys stay unchanged."""
    channels = getattr(memory, "channels", None)
    if channels is None:
        return [("", memory.log)]
    return [(f"ch{i}", ch.log) for i, ch in enumerate(channels)]
