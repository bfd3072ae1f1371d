"""What :meth:`ExecutionService.run`'s ``on_event`` callback receives.

The callback is the one way to watch a batch. It is called in
completion order, before ``run`` returns. Per job it gets one
:class:`JobStarted` when the job begins executing (none for a cache
hit), then exactly one of :class:`JobFinished` (success, possibly
served from the cache, see ``cached``) or :class:`JobFailure`, the
same record that lands in ``BatchResult.failures``.
:class:`repro.viz.live.BatchProgressMeter` is such a callback, and
:func:`repro.experiments.sweep.run_sweep` forwards the events to its
own ``on_event``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.service.job import Job

__all__ = [
    "JobStarted",
    "JobFinished",
    "JobFailure",
]


@dataclass(frozen=True, slots=True)
class JobStarted:
    """A job began executing (never fired for cache hits).

    ``worker`` is the pool worker id, or -1 for inline execution.
    """

    index: int
    digest: str
    label: str
    worker: int


@dataclass(frozen=True, slots=True)
class JobFinished:
    """A job produced its payload.

    ``cached`` is True when the payload came from the result cache (in
    which case ``elapsed_s`` is the lookup time, not a simulation time,
    and no :class:`JobStarted` was sent). ``payload`` is the object
    that lands in ``BatchResult.payloads``.
    """

    index: int
    digest: str
    label: str
    elapsed_s: float
    cached: bool
    payload: dict


@dataclass
class JobFailure:
    """A job that failed, with the typed error it failed with."""

    job: Job
    index: int
    error: ReproError

    def __str__(self) -> str:
        return (
            f"{self.job.display_label}: {type(self.error).__name__}: "
            f"{self.error}"
        )
