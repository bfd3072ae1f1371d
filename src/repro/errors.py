"""Exception hierarchy for the repro package.

All exceptions raised by this library derive from :class:`ReproError`, so
callers can catch one base class. Subclasses indicate which subsystem
detected the problem. :func:`require_int` and :func:`require_finite`
are the shared checks for the numeric fields of the config dataclasses,
and :func:`require_choice` for the names that select from a fixed table.
"""

from __future__ import annotations

import math


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """A simulation or component configuration is invalid or inconsistent."""


class TimingViolationError(ReproError):
    """A DRAM command was issued before its timing constraints were met.

    This is raised by the timing checkers in strict mode; it always
    indicates a bug in the scheduler or controller, never a user error.
    """


class ProtocolError(ReproError):
    """A DRAM command was illegal for the current bank/rank state.

    For example: a READ to a bank with no open row, or an ACTIVATE to a
    bank that already has an open row.
    """


class AccountingError(ReproError):
    """Stack accounting produced an inconsistent result.

    Raised when components would not sum to the total (double counting or
    lost cycles), which the accounting mechanism is designed to prevent.
    """


class TraceFormatError(ReproError):
    """A stored command trace could not be parsed.

    Attributes:
        line_number: 1-based line of the offending record, when known.
        line: the offending line itself, truncated for display.
    """

    def __init__(
        self,
        message: str,
        line_number: int | None = None,
        line: str | None = None,
    ) -> None:
        if line is not None and len(line) > 80:
            line = line[:77] + "..."
        if line_number is not None:
            message = f"line {line_number}: {message}"
        if line is not None:
            message = f"{message} [{line!r}]"
        super().__init__(message)
        self.line_number = line_number
        self.line = line


class WorkloadError(ReproError):
    """A workload was asked to do something it cannot.

    For example: a graph kernel invoked on an empty graph, or a synthetic
    pattern with an impossible parameter combination.
    """


class SimulationStalledError(ReproError):
    """The forward-progress watchdog detected a livelock or deadlock.

    Raised when request queues are non-empty but no DRAM command has been
    issued for longer than the watchdog threshold. Carries a structured
    :attr:`diagnostic` snapshot (see
    :class:`repro.reliability.watchdog.StallDiagnostic`) describing queue
    contents, per-bank state and the constraint blocking each scheduling
    candidate.
    """

    def __init__(self, message: str, diagnostic=None) -> None:
        super().__init__(message)
        self.diagnostic = diagnostic


class SimulationTimeoutError(ReproError):
    """A run exceeded its configured wall-clock budget.

    Raised cooperatively by the reliability guard's periodic tick, so the
    simulation stops at a consistent point instead of being killed.
    """


class WorkerCrashError(ReproError):
    """A parallel-service worker died without delivering its result.

    Raised on the submitting side when a worker process exits abnormally
    (segfault, ``os._exit``, OOM kill) mid-job, and used to wrap
    non-Repro exceptions escaping a job executor. The pool isolates the
    crash: the job fails, the rest of the batch proceeds on a
    respawned worker, and rerunning the batch reruns the failed job.
    """


class WorkerSpawnError(WorkerCrashError):
    """A pool worker process could not be started at all.

    Distinct from a mid-job crash: no job was lost, the pool simply
    failed to bring a worker up (spawn resource exhaustion, a broken
    interpreter). The execution service does not fall back: the error
    ends the batch, whose result cache (if any) already holds every
    job that finished before it, so a rerun with the same cache
    recomputes only the rest. Shares the :class:`WorkerCrashError`
    exit code (12).
    """


#: Process exit codes for each error family, used by the CLI. Codes 0-2
#: are reserved (success, generic failure, argparse usage errors).
EXIT_CODES: dict[type, int] = {
    ConfigurationError: 3,
    TraceFormatError: 4,
    TimingViolationError: 5,
    ProtocolError: 6,
    AccountingError: 7,
    WorkloadError: 8,
    SimulationStalledError: 9,
    SimulationTimeoutError: 10,
    WorkerCrashError: 12,
    # 11, 13 and 14 are retired and stay unassigned, so a script that
    # branched on any of them never misreads a newer error.
}


def exit_code_for(error: ReproError) -> int:
    """Process exit code for an error (most-derived class wins)."""
    for cls in type(error).__mro__:
        if cls in EXIT_CODES:
            return EXIT_CODES[cls]
    return 1


def require_int(owner: str, name: str, value, minimum: int) -> None:
    """Raise :class:`ConfigurationError` unless `value` is an int (not a
    bool) of at least `minimum`; the message names `owner` and `name`."""
    if not isinstance(value, int) or isinstance(value, bool) or (
        value < minimum
    ):
        raise ConfigurationError(
            f"{owner}({name}=...) must be an int >= {minimum}, "
            f"got {value!r}"
        )


def require_choice(kind: str, name, table: dict):
    """Return ``table[name]``; raise :class:`ConfigurationError` naming
    the `kind`, the value and the sorted choices when `name` is not a
    key of `table` (an unhashable `name` is not one either)."""
    try:
        return table[name]
    except (KeyError, TypeError):
        raise ConfigurationError(
            f"unknown {kind} {name!r}; expected one of {sorted(table)}"
        ) from None


def require_finite(owner: str, name: str, value, minimum: float) -> None:
    """Raise :class:`ConfigurationError` unless `value` is a finite int
    or float (not a bool) of at least `minimum`."""
    if (
        not isinstance(value, (int, float))
        or isinstance(value, bool)
        or not math.isfinite(value)
        or value < minimum
    ):
        raise ConfigurationError(
            f"{owner}({name}=...) must be a finite number >= {minimum}, "
            f"got {value!r}"
        )
