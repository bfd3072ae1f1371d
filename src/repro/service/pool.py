"""Multiprocess worker pool with crash isolation and hard timeouts.

A :class:`WorkerPool` owns N persistent **spawn**-started worker
processes (`spawn` keeps workers free of inherited simulator state, so
a job's result cannot depend on what the parent ran before — fork would
silently break the determinism contract). Each worker has a private
task queue; results come back on one shared queue. The parent never
blocks on a worker: :meth:`dispatch` hands one job to one idle worker,
:meth:`poll` reaps whatever has happened since — results, worker
deaths, blown deadlines — as plain :class:`PoolEvent` records.

Failure semantics (the crash-isolation contract):

* a worker that **errors** ships the error back and stays alive;
* a worker that **dies** mid-job (``os._exit``, segfault, OOM kill)
  fails *its* job with a ``crashed`` event and is replaced by a fresh
  worker — the batch never loses more than the one job;
* a job past its **hard deadline** gets its worker terminated
  (``timeout`` event) and replaced. The deadline leaves headroom over
  the job's cooperative guard timeout (:data:`HARD_KILL_FACTOR`), so a
  well-behaved simulation fails softly via
  :class:`~repro.errors.SimulationTimeoutError` first and the kill only
  catches code that stopped reaching guard ticks at all.

The pool executes each dispatched job exactly once; a failed job is
rerun only by rerunning its batch
(:class:`repro.service.service.ExecutionService`).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field

from repro.errors import WorkerSpawnError, require_int
from repro.service.job import Job
from repro.service.worker import SHUTDOWN, worker_main

#: Hard-kill deadline as a multiple of the job's cooperative timeout,
#: plus a fixed grace so tiny timeouts are not all-kill.
HARD_KILL_FACTOR = 1.25
HARD_KILL_GRACE_S = 0.25


@dataclass(frozen=True)
class PoolEvent:
    """One thing that happened in the pool, observed by :meth:`poll`.

    ``kind`` is ``"ok"`` (``body`` has ``payload``),
    ``"error"`` (``body`` has ``type``/``message``/``traceback``),
    ``"crashed"`` (``body`` has ``exitcode``) or ``"timeout"``.
    """

    kind: str
    job_id: int
    worker_id: int
    body: dict = field(default_factory=dict)


class _Worker:
    """Parent-side handle: one process plus its private task queue."""

    def __init__(self, ctx, worker_id: int, result_queue) -> None:
        self.id = worker_id
        self.task_queue = ctx.Queue()
        self.process = ctx.Process(
            target=worker_main,
            args=(worker_id, self.task_queue, result_queue),
            daemon=True,
            name=f"repro-worker-{worker_id}",
        )

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=2.0)
        self.task_queue.cancel_join_thread()
        self.task_queue.close()


class WorkerPool:
    """Fixed-size pool of spawn-based workers executing one job each.

    Usable as a context manager; workers start lazily on the first
    :meth:`dispatch`, so constructing a pool is free.
    """

    def __init__(self, workers: int) -> None:
        require_int("WorkerPool", "workers", workers, 1)
        self.size = workers
        self._ctx = multiprocessing.get_context("spawn")
        self._result_queue = None
        self._workers: dict[int, _Worker] = {}
        self._idle: list[int] = []
        #: worker_id -> (job_id, hard deadline in time.monotonic() terms)
        self._in_flight: dict[int, tuple[int, float | None]] = {}
        self._next_worker_id = 0
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "WorkerPool":
        """Spawn the workers (idempotent)."""
        if self._started:
            return self
        self._result_queue = self._ctx.Queue()
        try:
            for _ in range(self.size):
                self._spawn_worker()
        except WorkerSpawnError:
            # Partial start: tear down whatever did come up so a failed
            # pool never leaks processes or queues.
            self.shutdown()
            raise
        self._started = True
        return self

    def _spawn_worker(self) -> int:
        worker = _Worker(
            self._ctx, self._next_worker_id, self._result_queue
        )
        self._next_worker_id += 1
        # spawn re-imports repro in a fresh interpreter; make sure the
        # package is importable even when the parent got it from a bare
        # PYTHONPATH-less sys.path entry (e.g. an IDE test runner).
        import repro

        package_root = os.path.dirname(os.path.dirname(repro.__file__))
        previous = os.environ.get("PYTHONPATH")
        parts = [package_root] + ([previous] if previous else [])
        os.environ["PYTHONPATH"] = os.pathsep.join(parts)
        try:
            worker.process.start()
        except OSError as error:
            worker.task_queue.cancel_join_thread()
            worker.task_queue.close()
            raise WorkerSpawnError(
                f"could not start worker process "
                f"{worker.id}: {error}"
            ) from error
        finally:
            if previous is None:
                os.environ.pop("PYTHONPATH", None)
            else:
                os.environ["PYTHONPATH"] = previous
        self._workers[worker.id] = worker
        self._idle.append(worker.id)
        return worker.id

    def shutdown(self) -> None:
        """Stop every worker; in-flight jobs are abandoned."""
        for worker in self._workers.values():
            if worker.process.is_alive():
                try:
                    worker.task_queue.put(SHUTDOWN)
                except (OSError, ValueError):
                    pass
        deadline = time.monotonic() + 3.0
        for worker in self._workers.values():
            worker.process.join(
                timeout=max(0.1, deadline - time.monotonic())
            )
            worker.kill()
        self._workers.clear()
        self._idle.clear()
        self._in_flight.clear()
        if self._result_queue is not None:
            self._result_queue.cancel_join_thread()
            self._result_queue.close()
            self._result_queue = None
        self._started = False

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Dispatch / reap
    # ------------------------------------------------------------------
    @property
    def idle_workers(self) -> int:
        """Workers currently available for :meth:`dispatch`."""
        return len(self._idle)

    @property
    def in_flight(self) -> int:
        """Jobs currently executing."""
        return len(self._in_flight)

    def dispatch(
        self, job_id: int, job: Job, timeout_s: float | None = None
    ) -> int | None:
        """Hand `job` to an idle worker.

        Returns the worker id it went to, or None when no worker is
        idle (the caller should :meth:`poll` and retry).
        """
        if not self._started:
            self.start()
        if not self._idle:
            return None
        worker_id = self._idle.pop(0)
        worker = self._workers[worker_id]
        deadline = None
        if timeout_s is not None:
            deadline = (
                time.monotonic()
                + timeout_s * HARD_KILL_FACTOR
                + HARD_KILL_GRACE_S
            )
        self._in_flight[worker_id] = (job_id, deadline)
        worker.task_queue.put((job_id, job.to_dict()))
        return worker_id

    def poll(self, block_s: float = 0.05) -> list[PoolEvent]:
        """Reap everything that has happened; blocks up to `block_s`.

        Returns results first (so a job finishing in the same instant
        its deadline expires counts as finished), then crashes and
        timeouts detected on the in-flight workers.
        """
        events: list[PoolEvent] = []
        if not self._started:
            return events
        events.extend(self._drain_results(block_s))
        now = time.monotonic()
        for worker_id, (job_id, deadline) in list(self._in_flight.items()):
            if self._in_flight.get(worker_id, (None,))[0] != job_id:
                continue  # resolved by a drain earlier in this loop
            worker = self._workers[worker_id]
            if not worker.process.is_alive():
                # Grace drain: the worker may have flushed its result in
                # the instant before exiting.
                events.extend(self._drain_results(0.05))
                if self._in_flight.get(worker_id, (None,))[0] != job_id:
                    # Result made it out after all — but the worker is
                    # gone, so replace it rather than leave a dead
                    # process on the idle list.
                    self._replace_worker(worker_id)
                    continue
                del self._in_flight[worker_id]
                self._replace_worker(worker_id)
                events.append(PoolEvent(
                    "crashed", job_id, worker_id,
                    {"exitcode": worker.process.exitcode},
                ))
            elif deadline is not None and now >= deadline:
                del self._in_flight[worker_id]
                self._replace_worker(worker_id)
                events.append(PoolEvent("timeout", job_id, worker_id))
        return events

    def _drain_results(self, block_s: float) -> list[PoolEvent]:
        import queue as queue_mod

        events: list[PoolEvent] = []
        block = block_s
        while True:
            try:
                if block > 0:
                    item = self._result_queue.get(timeout=block)
                else:
                    item = self._result_queue.get_nowait()
            except queue_mod.Empty:
                break
            block = 0  # only the first get() blocks
            worker_id, job_id, status, body = item
            flight = self._in_flight.get(worker_id)
            if flight is not None and flight[0] == job_id:
                del self._in_flight[worker_id]
                self._idle.append(worker_id)
            events.append(PoolEvent(status, job_id, worker_id, body))
        return events

    def _replace_worker(self, worker_id: int) -> None:
        worker = self._workers.pop(worker_id)
        worker.kill()
        if worker_id in self._idle:
            self._idle.remove(worker_id)
        self._spawn_worker()


__all__ = [
    "WorkerPool",
    "PoolEvent",
    "HARD_KILL_FACTOR",
    "HARD_KILL_GRACE_S",
]
