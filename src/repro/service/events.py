"""Batch-progress event topics for the execution service.

The service publishes these on a :class:`repro.core.events.EventBus`,
the only topics that bus carries, so progress consumers subscribe to
typed topics instead of polling service internals. Built-in subscribers:
:class:`repro.viz.live.BatchProgressMeter` (rolling counters + status
line) and the CLI ``batch`` subcommand's per-job printer.

Lifecycle per job: one :class:`JobStarted` per *attempt*, then exactly
one of :class:`JobFinished` (success — possibly served from cache, see
``cached``) or :class:`JobFailed`. A retried job therefore emits
``JobStarted``/``JobFailed(final=False)`` pairs before its terminal
event; ``JobFailed(final=True)`` means the job's retries are spent
and it will appear in the batch's failure list.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "JobStarted",
    "JobFinished",
    "JobFailed",
]


@dataclass(frozen=True, slots=True)
class JobStarted:
    """One attempt at a job began executing (never fired for cache hits).

    ``worker`` is the pool worker id, or -1 for inline execution.
    """

    index: int
    digest: str
    label: str
    attempt: int
    worker: int


@dataclass(frozen=True, slots=True)
class JobFinished:
    """A job produced its payload.

    ``cached`` is True when the payload came from the result cache (in
    which case ``elapsed_s`` is the lookup time, not a simulation time,
    and no :class:`JobStarted` was published).
    """

    index: int
    digest: str
    label: str
    elapsed_s: float
    attempts: int
    cached: bool


@dataclass(frozen=True, slots=True)
class JobFailed:
    """One attempt at a job failed.

    ``final`` distinguishes an attempt that will be retried
    (``False``) from the terminal failure after the job's last retry
    (``True``). ``error_type`` is the :class:`~repro.errors.ReproError`
    subclass name (``"WorkerCrashError"`` for hard worker deaths).
    """

    index: int
    digest: str
    label: str
    error_type: str
    message: str
    attempt: int
    final: bool
