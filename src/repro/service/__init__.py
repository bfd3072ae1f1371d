"""Parallel work-execution service.

The batch backbone of the repo: deterministic, content-addressed jobs
(:mod:`~repro.service.job`), a crash-isolating multiprocess worker pool
(:mod:`~repro.service.pool`), a fingerprint-keyed on-disk result cache
(:mod:`~repro.service.cache`), and the orchestrating
:class:`~repro.service.service.ExecutionService` that the sweep
harness, ``scripts/run_all_figures.py`` and the ``dram-stacks batch``
CLI all run on, at every worker count. Progress is published as typed
topics (:mod:`~repro.service.events`) on a
:class:`repro.core.events.EventBus`.

See ``docs/service.md`` for the job model, cache layout, and the
determinism argument.

Quickstart::

    from repro.service import ExecutionService, Job, ResultCache

    jobs = [
        Job("synthetic", {"pattern": p, "cores": c}, scale="ci",
            label=f"{p}-{c}c")
        for p in ("sequential", "random") for c in (1, 2)
    ]
    service = ExecutionService(
        workers=4, cache=ResultCache("results/.cache")
    )
    batch = service.run(jobs)
    for job, payload in zip(batch.jobs, batch.payloads):
        print(job.label, payload["metrics"]["achieved_gbps"])
"""

from repro.service.cache import DEFAULT_CACHE_DIR, CacheStats, ResultCache
from repro.service.events import JobFailed, JobFinished, JobStarted
from repro.service.executors import (
    EXECUTORS,
    execute_job,
    stack_from_payload,
    stack_to_payload,
)
from repro.service.job import JOB_FORMAT, Job
from repro.service.journal import JOURNAL_FORMAT, BatchJournal
from repro.service.pool import PoolEvent, WorkerPool, default_worker_count
from repro.service.service import BatchResult, ExecutionService, JobFailure

__all__ = [
    "BatchJournal",
    "BatchResult",
    "CacheStats",
    "DEFAULT_CACHE_DIR",
    "EXECUTORS",
    "ExecutionService",
    "JOB_FORMAT",
    "JOURNAL_FORMAT",
    "Job",
    "JobFailed",
    "JobFailure",
    "JobFinished",
    "JobStarted",
    "PoolEvent",
    "ResultCache",
    "WorkerPool",
    "default_worker_count",
    "execute_job",
    "stack_from_payload",
    "stack_to_payload",
]
