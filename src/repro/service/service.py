"""The execution service: cache-aware batch orchestration.

:class:`ExecutionService` ties the subsystem together: it takes a list
of :class:`~repro.service.job.Job` descriptions and produces one
payload (or failure) per job, consulting the result cache before doing
any work, fanning execution out over a
:class:`~repro.service.pool.WorkerPool` (or running inline for
``workers=1``), and passing each :mod:`repro.service.events` record to
the caller's ``on_event`` callback as it happens.

Determinism: jobs are independent and each runs in a fresh, seeded
simulator, so payloads — including every per-point
``result_fingerprint`` digest — do not depend on worker count,
completion order, or whether they came from the cache. The parallel
sweep tests pin exactly this (serial vs 4-worker fingerprint
equality).

Robustness (see ``docs/chaos.md`` for the full story):

* **Resume by rerun** — every finished job is written to the result
  cache as it completes, so a batch that was killed, hit a refused
  worker spawn, or ended with failures is rerun with the same
  ``cache=``: only the jobs not already cached recompute.
* **Fail fast** — a job that fails ends as a :class:`JobFailure` with
  its typed error while the rest of the batch completes; a worker that
  cannot be spawned at all raises
  :class:`~repro.errors.WorkerSpawnError` (exit code 12) out of
  :meth:`ExecutionService.run`. Cache IO errors never fail a job: each
  one is counted and that lookup or write is skipped.

Each job carries its own wall-clock budget (``Job.timeout_s``); the
service adds none. Its two parameters are checked where they enter:
``workers`` must be an int >= 1 and ``cache`` a
:class:`~repro.service.cache.ResultCache`, a directory path or None.

Inline mode (``workers=1``) executes in-process: no spawn cost, full
monkeypatch-ability, cooperative timeouts only — crash isolation
requires a real pool.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

import repro.errors as errors_mod
from repro.errors import (
    ConfigurationError,
    ReproError,
    SimulationTimeoutError,
    WorkerCrashError,
    require_int,
)
from repro.service.cache import ResultCache
from repro.service.events import JobFailure, JobFinished, JobStarted
from repro.service.executors import execute_job
from repro.service.job import Job
from repro.service.pool import WorkerPool

#: ``on_event`` callback of :meth:`ExecutionService.run`.
OnEvent = Callable[[JobStarted | JobFinished | JobFailure], None]


def _ignore(event) -> None:
    """The ``on_event`` of a batch nobody watches."""


@dataclass
class BatchResult:
    """Everything a batch produced, aligned with the submitted jobs."""

    jobs: list[Job]
    #: One payload per job (None where the job failed).
    payloads: list[dict | None] = field(default_factory=list)
    failures: list[JobFailure] = field(default_factory=list)
    cache_hits: int = 0
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
    """Runs job batches with caching and parallelism.

    Args:
        workers: worker processes (an int >= 1); 1 executes inline
            (no subprocess).
        cache: a :class:`ResultCache`, a directory path for one (str,
            bytes or path-like), or None to disable caching. Anything
            else raises :class:`~repro.errors.ConfigurationError`.
            Rerunning a batch with the same cache recomputes only the
            jobs it does not hold.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: ResultCache | str | bytes | os.PathLike | None = None,
    ) -> None:
        require_int("ExecutionService", "workers", workers, 1)
        self.workers = workers
        if isinstance(cache, (str, bytes, os.PathLike)):
            cache = ResultCache(os.fsdecode(cache))
        elif cache is not None and not isinstance(cache, ResultCache):
            raise ConfigurationError(
                f"ExecutionService(cache=...) must be a ResultCache, a "
                f"directory path or None, got {cache!r}"
            )
        self.cache = cache

    # ------------------------------------------------------------------
    def run(
        self,
        jobs: Sequence[Job],
        on_event: OnEvent | None = None,
    ) -> BatchResult:
        """Execute `jobs`; returns payloads aligned with the input order.

        `on_event`, if given, receives the :mod:`repro.service.events`
        records in completion order, before this returns. Failing jobs
        never abort the batch: they are recorded in ``result.failures``
        and everything else still completes. A worker that cannot be
        spawned raises :class:`~repro.errors.WorkerSpawnError`; with a
        cache, every job finished before it is already stored there.
        """
        jobs = list(jobs)
        emit = on_event if on_event is not None else _ignore
        started = time.perf_counter()
        result = BatchResult(jobs=jobs, payloads=[None] * len(jobs))
        # Each item is (index, job, digest), the digest computed once.
        items = [(index, job, job.digest()) for index, job in enumerate(jobs)]
        if self.workers == 1:
            self._run_inline(items, result, emit)
        else:
            self._run_pooled(items, result, emit)
        result.elapsed_s = time.perf_counter() - started
        return result

    # ------------------------------------------------------------------
    # Shared pieces
    # ------------------------------------------------------------------
    def _try_cache(
        self,
        index: int,
        job: Job,
        digest: str,
        result: BatchResult,
        emit: OnEvent,
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
        emit(JobFinished(
            index=index,
            digest=digest,
            label=job.display_label,
            elapsed_s=time.perf_counter() - lookup_start,
            cached=True,
            payload=payload,
        ))
        return True

    def _finish(
        self,
        index: int,
        job: Job,
        digest: str,
        payload: dict,
        elapsed_s: float,
        result: BatchResult,
        emit: OnEvent,
    ) -> None:
        if self.cache is not None:
            self.cache.put(job, payload)
        result.payloads[index] = payload
        result.executed += 1
        emit(JobFinished(
            index=index,
            digest=digest,
            label=job.display_label,
            elapsed_s=elapsed_s,
            cached=False,
            payload=payload,
        ))

    @staticmethod
    def _fail(
        index: int,
        job: Job,
        error: ReproError,
        result: BatchResult,
        emit: OnEvent,
    ) -> None:
        """Record and report one failed job."""
        failure = JobFailure(job=job, index=index, error=error)
        result.failures.append(failure)
        emit(failure)

    # ------------------------------------------------------------------
    # Inline execution (workers=1)
    # ------------------------------------------------------------------
    def _run_inline(
        self,
        items: list[tuple[int, Job, str]],
        result: BatchResult,
        emit: OnEvent,
    ) -> None:
        for index, job, digest in items:
            if self._try_cache(index, job, digest, result, emit):
                continue
            emit(JobStarted(
                index=index,
                digest=digest,
                label=job.display_label,
                worker=-1,
            ))
            start = time.perf_counter()
            try:
                payload = execute_job(job)
            except ReproError as error:
                self._fail(index, job, error, result, emit)
                continue
            self._finish(
                index, job, digest, payload,
                time.perf_counter() - start, result, emit,
            )

    # ------------------------------------------------------------------
    # Pooled execution
    # ------------------------------------------------------------------
    def _run_pooled(
        self,
        items: list[tuple[int, Job, str]],
        result: BatchResult,
        emit: OnEvent,
    ) -> None:
        """Pooled execution; a spawn failure propagates out of the pool."""
        # Cache hits are resolved before the pool exists, so a fully
        # warm batch never pays worker-spawn cost at all. Each job is
        # looked up exactly once.
        pending = deque(
            item for item in items
            if not self._try_cache(*item, result, emit)
        )
        if not pending:
            return
        #: task_id -> (index, job, digest, start_perf)
        in_flight: dict[int, tuple[int, Job, str, float]] = {}
        next_task_id = 0
        with WorkerPool(self.workers) as pool:
            while pending or in_flight:
                # Dispatch in index order while workers are idle.
                while pending and pool.idle_workers:
                    index, job, digest = pending.popleft()
                    worker_id = pool.dispatch(
                        next_task_id, job, job.timeout_s
                    )
                    in_flight[next_task_id] = (
                        index, job, digest, time.perf_counter()
                    )
                    emit(JobStarted(
                        index=index,
                        digest=digest,
                        label=job.display_label,
                        worker=worker_id,
                    ))
                    next_task_id += 1
                for event in pool.poll(0.05 if pending else 0.2):
                    info = in_flight.pop(event.job_id, None)
                    if info is None:
                        continue  # stale event for a resolved task
                    index, job, digest, start_perf = info
                    if event.kind == "ok":
                        self._finish(
                            index, job, digest, event.body["payload"],
                            time.perf_counter() - start_perf,
                            result, emit,
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
                    self._fail(index, job, error, result, emit)
