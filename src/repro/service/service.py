"""The execution service: cache-aware, retrying batch orchestration.

:class:`ExecutionService` ties the subsystem together: it takes a list
of :class:`~repro.service.job.Job` descriptions and produces one
payload (or terminal failure) per job, consulting the result cache
before doing any work, fanning execution out over a
:class:`~repro.service.pool.WorkerPool` (or running inline for
``workers=1``), re-queueing failed attempts at once while retries
remain, and publishing :mod:`repro.service.events` topics on an
:class:`~repro.core.events.EventBus` for progress consumers.

Determinism: jobs are independent and each runs in a fresh, seeded
simulator, so payloads — including every per-point
``result_fingerprint`` digest — do not depend on worker count,
completion order, or whether they came from the cache. The parallel
sweep tests pin exactly this (serial vs 4-worker fingerprint
equality).

Robustness (see ``docs/chaos.md`` for the full story):

* **Crash-safe resume** — pass ``journal=`` to :meth:`run` and every
  terminal outcome is WAL'd (:mod:`repro.service.journal`); a batch
  killed mid-run resumes recomputing only the unfinished jobs.
* **Fail fast** — a job that keeps failing ends as a
  :class:`JobFailure` with its typed error while the rest of the batch
  completes; a worker that cannot be spawned at all raises
  :class:`~repro.errors.WorkerSpawnError` (exit code 12) out of
  :meth:`ExecutionService.run`, with every job finished before it
  already journaled. Cache IO errors never fail a job: each one is
  counted and that lookup or write is skipped.

Inline mode (``workers=1``) executes in-process: no spawn cost, full
monkeypatch-ability, cooperative timeouts only — crash isolation
requires a real pool.
"""

from __future__ import annotations

import dataclasses
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

import repro.errors as errors_mod
from repro.core.events import EventBus
from repro.errors import (
    ConfigurationError,
    ReproError,
    SimulationTimeoutError,
    WorkerCrashError,
)
from repro.service.cache import ResultCache
from repro.service.events import JobFailed, JobFinished, JobStarted
from repro.service.executors import execute_job
from repro.service.job import Job
from repro.service.journal import BatchJournal
from repro.service.pool import WorkerPool

#: ``on_result`` callback: (index, job, payload, cached) — called in
#: completion order, before the batch returns.
ResultCallback = Callable[[int, Job, dict, bool], None]


@dataclass
class JobFailure:
    """A job that kept failing after all of its retries."""

    job: Job
    index: int
    error: ReproError
    attempts: int

    def __str__(self) -> str:
        return (
            f"{self.job.display_label}: {type(self.error).__name__} "
            f"after {self.attempts} attempt(s): {self.error}"
        )


@dataclass
class BatchResult:
    """Everything a batch produced, aligned with the submitted jobs."""

    jobs: list[Job]
    #: One payload per job (None where the job terminally failed).
    payloads: list[dict | None] = field(default_factory=list)
    failures: list[JobFailure] = field(default_factory=list)
    cache_hits: int = 0
    #: Jobs replayed from a resumed batch journal (not recomputed).
    journal_hits: int = 0
    executed: int = 0
    elapsed_s: float = 0.0

    @property
    def complete(self) -> bool:
        """True when every job produced a payload."""
        return not self.failures

    @property
    def hit_rate(self) -> float:
        """Cache hits per completed job (0.0 for an empty batch)."""
        done = self.cache_hits + self.executed
        return self.cache_hits / done if done else 0.0

    def __len__(self) -> int:
        return len(self.jobs)


def _rebuild_error(error_type: str, message: str) -> ReproError:
    """Map a worker-side error back onto the ReproError hierarchy."""
    cls = getattr(errors_mod, error_type, None)
    if isinstance(cls, type) and issubclass(cls, ReproError):
        return cls(message)
    return WorkerCrashError(f"{error_type}: {message}")


class ExecutionService:
    """Runs job batches with caching, parallelism, and retries.

    Args:
        workers: worker processes (a positive int); 1 executes inline
            (no subprocess).
        cache: a :class:`ResultCache`, a directory path for one, or
            None to disable caching.
        bus: event bus for :mod:`repro.service.events` topics; a
            private bus is created when omitted (so ``service.bus`` is
            always subscribable).
        timeout_s: default per-job wall-clock budget; a job's own
            ``timeout_s`` takes precedence.
        retries: extra attempts per failing job, each re-queued at
            once.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: ResultCache | str | None = None,
        bus: EventBus | None = None,
        timeout_s: float | None = None,
        retries: int = 0,
    ) -> None:
        if not isinstance(workers, int) or workers < 1:
            raise ConfigurationError(
                f"ExecutionService(workers=...) must be a positive int, "
                f"got {workers!r}"
            )
        if retries < 0:
            raise ConfigurationError(
                f"ExecutionService(retries=...) must be >= 0, "
                f"got {retries!r}"
            )
        self.workers = workers
        if isinstance(cache, (str, bytes)) or hasattr(cache, "__fspath__"):
            cache = ResultCache(cache)
        self.cache = cache
        self.bus = bus if bus is not None else EventBus()
        self.timeout_s = timeout_s
        self.retries = retries
        self._journal: BatchJournal | None = None

    # ------------------------------------------------------------------
    def run(
        self,
        jobs: Sequence[Job],
        on_result: ResultCallback | None = None,
        journal: BatchJournal | str | os.PathLike | None = None,
    ) -> BatchResult:
        """Execute `jobs`; returns payloads aligned with the input order.

        Failing jobs never abort the batch: after their retries they
        are recorded in ``result.failures`` and everything else still
        completes. A worker that cannot be spawned raises
        :class:`~repro.errors.WorkerSpawnError`; with a journal, every
        job finished before it is already recorded there.

        Args:
            journal: a :class:`~repro.service.journal.BatchJournal`, or
                a path for one (opened with ``resume=True``, so an
                existing journal's finished jobs are replayed instead
                of recomputed). Every terminal outcome is appended as
                it happens, making the batch crash-resumable.
        """
        jobs = list(jobs)
        own_journal = False
        if journal is not None and not isinstance(journal, BatchJournal):
            journal = BatchJournal(journal, resume=True)
            own_journal = True
        started = time.perf_counter()
        result = BatchResult(jobs=jobs, payloads=[None] * len(jobs))
        self._journal = journal
        try:
            pending = self._replay_journal(jobs, result, on_result)
            if pending:
                if self.workers == 1:
                    self._run_inline(pending, result, on_result)
                else:
                    self._run_pooled(pending, result, on_result)
        finally:
            self._journal = None
            if own_journal:
                journal.close()
        result.elapsed_s = time.perf_counter() - started
        return result

    # ------------------------------------------------------------------
    # Shared pieces
    # ------------------------------------------------------------------
    def _replay_journal(
        self,
        jobs: list[Job],
        result: BatchResult,
        on_result: ResultCallback | None,
    ) -> list[tuple[int, Job, str]]:
        """Serve journaled jobs; returns the still-pending work items.

        Each item is ``(index, effective_job, digest)`` — the job with
        the service default timeout applied and its content digest,
        computed exactly once per batch.
        """
        pending: list[tuple[int, Job, str]] = []
        completed = (
            self._journal.completed if self._journal is not None else {}
        )
        for index, job in enumerate(jobs):
            job = self._effective(job)
            digest = job.digest()
            replay = completed.get(digest)
            if replay is None:
                pending.append((index, job, digest))
                continue
            payload, _cacheable = replay
            result.payloads[index] = payload
            result.journal_hits += 1
            self.bus.publish(JobFinished(
                index=index,
                digest=digest,
                label=job.display_label,
                elapsed_s=0.0,
                attempts=0,
                cached=True,
            ))
            if on_result is not None:
                on_result(index, job, payload, True)
        return pending

    def _effective(self, job: Job) -> Job:
        """Apply the service-level default timeout to a job."""
        if job.timeout_s is None and self.timeout_s is not None:
            return dataclasses.replace(job, timeout_s=self.timeout_s)
        return job

    def _try_cache(
        self,
        index: int,
        job: Job,
        digest: str,
        result: BatchResult,
        on_result: ResultCallback | None,
    ) -> bool:
        """Serve job `index` from the cache if possible."""
        if self.cache is None:
            return False
        lookup_start = time.perf_counter()
        payload = self.cache.get(digest)
        if payload is None:
            return False
        result.payloads[index] = payload
        result.cache_hits += 1
        if self._journal is not None:
            self._journal.record_done(
                digest, job.display_label, payload, True
            )
        self.bus.publish(JobFinished(
            index=index,
            digest=digest,
            label=job.display_label,
            elapsed_s=time.perf_counter() - lookup_start,
            attempts=0,
            cached=True,
        ))
        if on_result is not None:
            on_result(index, job, payload, True)
        return True

    def _finish(
        self,
        index: int,
        job: Job,
        digest: str,
        payload: dict,
        cacheable: bool,
        attempts: int,
        elapsed_s: float,
        result: BatchResult,
        on_result: ResultCallback | None,
    ) -> None:
        if self.cache is not None and cacheable:
            self.cache.put(job, payload)
        result.payloads[index] = payload
        result.executed += 1
        if self._journal is not None:
            self._journal.record_done(
                digest, job.display_label, payload, cacheable
            )
        self.bus.publish(JobFinished(
            index=index,
            digest=digest,
            label=job.display_label,
            elapsed_s=elapsed_s,
            attempts=attempts,
            cached=False,
        ))
        if on_result is not None:
            on_result(index, job, payload, False)

    def _fail_attempt(
        self,
        index: int,
        job: Job,
        digest: str,
        error: ReproError,
        attempt: int,
        result: BatchResult,
    ) -> bool:
        """Publish a failed attempt; returns True when the job retries.

        A job past its last retry is recorded as a terminal failure
        (and journaled).
        """
        retry = attempt <= self.retries
        self.bus.publish(JobFailed(
            index=index,
            digest=digest,
            label=job.display_label,
            error_type=type(error).__name__,
            message=str(error),
            attempt=attempt,
            final=not retry,
        ))
        if not retry:
            result.failures.append(JobFailure(
                job=job, index=index, error=error, attempts=attempt
            ))
            if self._journal is not None:
                self._journal.record_failed(
                    digest, job.display_label,
                    type(error).__name__, str(error), attempt,
                )
        return retry

    # ------------------------------------------------------------------
    # Inline execution (workers=1)
    # ------------------------------------------------------------------
    def _run_inline(
        self,
        items: list[tuple[int, Job, str]],
        result: BatchResult,
        on_result: ResultCallback | None,
    ) -> None:
        for index, job, digest in items:
            if self._try_cache(index, job, digest, result, on_result):
                continue
            attempt = 0
            while True:
                attempt += 1
                self.bus.publish(JobStarted(
                    index=index,
                    digest=digest,
                    label=job.display_label,
                    attempt=attempt,
                    worker=-1,
                ))
                attempt_start = time.perf_counter()
                try:
                    payload, cacheable = execute_job(job)
                except ReproError as error:
                    if self._fail_attempt(
                        index, job, digest, error, attempt, result
                    ):
                        continue
                    break
                self._finish(
                    index, job, digest, payload, cacheable, attempt,
                    time.perf_counter() - attempt_start, result, on_result,
                )
                break

    # ------------------------------------------------------------------
    # Pooled execution
    # ------------------------------------------------------------------
    def _run_pooled(
        self,
        items: list[tuple[int, Job, str]],
        result: BatchResult,
        on_result: ResultCallback | None,
    ) -> None:
        """Pooled execution; a spawn failure propagates out of the pool."""
        jobs_by_index = {index: job for index, job, _ in items}
        digests = {index: digest for index, _, digest in items}
        # Cache hits are resolved before the pool exists, so a fully
        # warm batch never pays worker-spawn cost at all. Each job is
        # looked up exactly once.
        pending: deque[tuple[int, int]] = deque(
            (index, 1)
            for index, job, digest in items
            if not self._try_cache(index, job, digest, result, on_result)
        )
        if not pending:
            return
        #: task_id -> (index, attempt, start_perf)
        in_flight: dict[int, tuple[int, int, float]] = {}
        next_task_id = 0
        with WorkerPool(self.workers) as pool:
            while pending or in_flight:
                # Dispatch while workers are idle: first attempts in
                # index order, then retries in the order they failed.
                while pending and pool.idle_workers:
                    index, attempt = pending.popleft()
                    job = jobs_by_index[index]
                    worker_id = pool.dispatch(
                        next_task_id, job, job.timeout_s
                    )
                    in_flight[next_task_id] = (
                        index, attempt, time.perf_counter()
                    )
                    self.bus.publish(JobStarted(
                        index=index,
                        digest=digests[index],
                        label=job.display_label,
                        attempt=attempt,
                        worker=worker_id,
                    ))
                    next_task_id += 1
                for event in pool.poll(0.05 if pending else 0.2):
                    info = in_flight.pop(event.job_id, None)
                    if info is None:
                        continue  # stale event for a resolved task
                    index, attempt, start_perf = info
                    job, digest = jobs_by_index[index], digests[index]
                    if event.kind == "ok":
                        self._finish(
                            index, job, digest,
                            event.body["payload"],
                            event.body.get("cacheable", True),
                            attempt,
                            time.perf_counter() - start_perf,
                            result, on_result,
                        )
                        continue
                    if event.kind == "error":
                        error = _rebuild_error(
                            event.body.get("type", "ReproError"),
                            event.body.get("message", ""),
                        )
                    elif event.kind == "timeout":
                        error = SimulationTimeoutError(
                            f"job exceeded its {job.timeout_s}s budget; "
                            f"worker killed"
                        )
                    else:  # crashed
                        error = WorkerCrashError(
                            f"worker died mid-job (exit code "
                            f"{event.body.get('exitcode')!r})"
                        )
                    if self._fail_attempt(
                        index, job, digest, error, attempt, result
                    ):
                        pending.append((index, attempt + 1))
