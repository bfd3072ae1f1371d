"""Worker-process entry point for the multiprocess pool.

This module is the spawn target: each pool worker imports it in a
fresh interpreter, then loops pulling ``(job_id, job_dict)`` tasks from
its task queue, executing them via
:func:`repro.service.executors.execute_job`, and pushing
``(worker_id, job_id, status, body)`` tuples onto the shared result
queue. It deliberately contains no pool logic — the parent process owns
dispatch, deadlines and respawns (:mod:`repro.service.pool`).

Error contract: executor failures are caught and shipped back as
``("error", {"type": ..., "message": ..., "traceback": ...})`` so the
parent can map them onto the :class:`~repro.errors.ReproError`
hierarchy; only a hard death (``os._exit``, segfault, kill) leaves the
parent without a result, which it detects as a crash via the process's
exit code.

A worker exits as soon as its parent process dies (a batch killed
mid-run sends no shutdown sentinel), idle or in the middle of a job, so
a killed batch leaves no worker behind.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import traceback

#: True inside a pool worker process; lets test instruments (the probe
#: executor) distinguish "safe to hard-exit" from inline execution.
IN_WORKER = False

#: Sentinel task telling a worker to exit its loop cleanly.
SHUTDOWN = None


def _exit_with(parent) -> None:
    """Block until `parent` dies, then end this process at once.

    Nobody reads results any more, so nothing is flushed: ``os._exit``
    skips the result queue's feeder thread and any job still running.
    """
    parent.join()
    os._exit(1)


def worker_main(worker_id: int, task_queue, result_queue) -> None:
    """Run the worker loop until a shutdown sentinel arrives or the
    parent process dies.

    Imports of the simulator happen lazily inside
    :func:`~repro.service.executors.execute_job`, so the loop itself
    starts fast and a broken import surfaces as a per-job error rather
    than a silent worker death.
    """
    global IN_WORKER
    IN_WORKER = True
    parent = multiprocessing.parent_process()
    if parent is not None:
        threading.Thread(
            target=_exit_with, args=(parent,), daemon=True,
            name="repro-parent-watch",
        ).start()
    while True:
        task = task_queue.get()
        if task is SHUTDOWN:
            return
        job_id, job_dict = task
        try:
            from repro.service.executors import execute_job
            from repro.service.job import Job

            payload = execute_job(Job.from_dict(job_dict))
            result_queue.put((worker_id, job_id, "ok", {"payload": payload}))
        except BaseException as error:  # noqa: BLE001 — ship, don't die
            result_queue.put((worker_id, job_id, "error", {
                "type": type(error).__name__,
                "message": str(error),
                "traceback": traceback.format_exc(limit=20),
            }))
            if isinstance(error, (KeyboardInterrupt, SystemExit)):
                return
