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
  ``_AUDIT_INTERVAL_CYCLES`` simulated cycles and once more when the
  run finishes; a malformed event raises
  :class:`~repro.errors.AccountingError`. Exactness itself is checked by
  the accountants whenever a stack is built, guard or no guard.
"""

from __future__ import annotations

import time

from repro.errors import ConfigurationError, SimulationTimeoutError
from repro.reliability.auditor import InvariantAuditor
from repro.reliability.watchdog import ForwardProgressWatchdog

#: Loop iterations between wall-clock reads (time.monotonic is cheap but
#: not free; the loop runs millions of iterations).
_TICKS_PER_CLOCK_CHECK = 256

#: Simulated cycles between incremental event-log audits.
_AUDIT_INTERVAL_CYCLES = 250_000


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
    """Watchdog + auditor + wall-clock budget for one run.

    The event-log audit always runs; only the watchdog and the budget
    are optional.

    Args:
        watchdog: forward-progress watchdog, or None to disable.
        wall_timeout_s: wall-clock budget for the run, or None.
    """

    def __init__(
        self,
        watchdog: ForwardProgressWatchdog | None = None,
        wall_timeout_s: float | None = None,
    ) -> None:
        self.watchdog = watchdog
        self.auditor = InvariantAuditor()
        self.wall_timeout_s = check_timeout(
            wall_timeout_s, "ReliabilityGuard(wall_timeout_s=...)"
        )
        self._deadline: float | None = None
        self._tick_count = 0
        self._last_audit_cycle = 0
        #: Per-channel audit cursors: channel key -> event-list cursors.
        self._audit_cursors: dict[str, dict[str, int]] = {}

    @classmethod
    def default(cls) -> "ReliabilityGuard":
        """The guard every full-system run gets unless told otherwise:
        watchdog on, no deadline."""
        return cls(watchdog=ForwardProgressWatchdog())

    # ------------------------------------------------------------------
    def attach(self, system) -> None:
        """Arm the guard for a run of `system`."""
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
        if cycle - self._last_audit_cycle >= _AUDIT_INTERVAL_CYCLES:
            self._last_audit_cycle = cycle
            self._audit_logs(system.memory)

    def _audit_logs(self, memory) -> None:
        """Incremental log audit, per channel for composite memories."""
        for key, log in _channel_logs(memory):
            self.auditor.audit_log_increment(
                log, self._audit_cursors.setdefault(key, {})
            )

    def finish(self, system) -> None:
        """End-of-run audit: drain the incremental log audit."""
        self._audit_logs(system.memory)


def _channel_logs(memory) -> list:
    """(cursor key, event log) per channel; one entry for a single
    controller, so single-channel cursor keys stay unchanged."""
    channels = getattr(memory, "channels", None)
    if channels is None:
        return [("", memory.log)]
    return [(f"ch{i}", ch.log) for i, ch in enumerate(channels)]
