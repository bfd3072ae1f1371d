"""Job executors: how each job kind actually runs.

An executor maps a :class:`~repro.service.job.Job` to a
JSON-serializable *payload* — the thing the result cache stores and a
cache hit returns verbatim. :data:`EXECUTORS` maps each job kind to its
executor class; the pool, the cache, the sweep harness and the
``batch`` CLI all run a job through :func:`execute_job`.

Payload schema for simulation kinds (``synthetic`` / ``gap``)::

    {
      "fingerprint": {... result_fingerprint dict, incl. "digest" ...},
      "metrics": {"achieved_gbps": ..., "avg_latency_ns": ...,
                  "page_hit_rate": ...},
      "bandwidth": {"components": [[name, value], ...],
                    "unit": "GB/s", "label": ...},
      "latency":   {"components": [...], "unit": "ns", "label": ...},
      "counts": {"total_cycles": ..., ...},
    }

Stack components are carried at full float precision (JSON ``repr``
round-trip), so a payload rebuilt from cache is bit-identical to one
computed fresh — the determinism contract the parallel sweep relies on.
"""

from __future__ import annotations

import io
import os
import sys
import time
from contextlib import redirect_stdout
from typing import Any

from repro.errors import (
    ConfigurationError,
    ReproError,
    SimulationTimeoutError,
    WorkerCrashError,
    require_choice,
)
from repro.service.job import Job
from repro.stacks.components import Stack


def stack_to_payload(stack: Stack) -> dict:
    """A Stack as plain JSON data (inverse of :func:`stack_from_payload`)."""
    return {
        "components": [[name, value] for name, value in stack.as_rows()],
        "unit": stack.unit,
        "label": stack.label,
    }


def stack_from_payload(body: dict) -> Stack:
    """Rebuild a Stack from its payload form, preserving order."""
    return Stack(
        {name: value for name, value in body["components"]},
        unit=body.get("unit", ""),
        label=body.get("label", ""),
    )


def _job_guard(job: Job):
    """The reliability guard a simulation job runs under.

    Jobs get the default guard (watchdog and event-log audit), plus a
    cooperative wall-clock budget, raising ``SimulationTimeoutError``,
    when the job carries one. The worker pool's hard kill (see
    :mod:`repro.service.pool`) is the backstop for code that never
    reaches a guard tick.
    """
    if job.timeout_s is None:
        return None  # run_synthetic/run_gap apply the default guard
    from repro.reliability.guard import ReliabilityGuard

    guard = ReliabilityGuard.default()
    guard.wall_timeout_s = job.timeout_s
    return guard


def _simulation_payload(result, label: str) -> dict:
    from repro.reliability.fingerprint import result_fingerprint

    bandwidth = result.bandwidth_stack(label)
    latency = result.latency_stack(label)
    return {
        "fingerprint": result_fingerprint(result),
        "metrics": {
            "achieved_gbps": bandwidth["read"] + bandwidth["write"],
            "avg_latency_ns": latency.total,
            "page_hit_rate": result.memory.stats.page_hit_rate,
        },
        "bandwidth": stack_to_payload(bandwidth),
        "latency": stack_to_payload(latency),
        "counts": {
            "total_cycles": result.total_cycles,
            "dram_reads": result.dram_reads,
            "dram_writes": result.dram_writes,
            "instructions": result.instructions,
        },
    }


class SyntheticExecutor:
    """Run one synthetic pattern through the full pipeline.

    ``job.config`` keys are :func:`repro.experiments.runner.run_synthetic`
    keyword arguments: ``pattern`` (required), ``cores``,
    ``store_fraction``, ``page_policy``, ``address_scheme``,
    ``scheduling`` (may carry params, e.g. ``"wrr:2,1"``),
    ``requesters``, ``write_queue_capacity``, ``device`` (a
    :data:`repro.devices.DEVICES` selector, e.g. ``"ddr5-4800"``),
    ``engine`` (a :data:`repro.dram.controller.ENGINES` name, e.g.
    ``"reference"``; omit for the default so cache keys stay warm).
    """

    cacheable = True

    def execute(self, job: Job) -> dict:
        from repro.experiments.runner import run_synthetic

        config = dict(job.config)
        if "pattern" not in config:
            raise ConfigurationError(
                "synthetic job config requires a 'pattern' key"
            )
        try:
            result = run_synthetic(
                scale=job.resolved_scale() or "ci",
                guard=_job_guard(job),
                **config,
            )
        except TypeError as error:
            raise ConfigurationError(
                f"bad synthetic job config {sorted(config)}: {error}"
            ) from error
        return _simulation_payload(result, job.label)


class QosExecutor:
    """Run one multi-requester QoS scenario (CPU cores vs streaming
    agent).

    ``job.config`` keys are :func:`repro.experiments.runner.run_qos`
    keyword arguments: ``scheduling`` (e.g. ``"wrr:2,1"``,
    ``"bank-reg:period=1000,budget=4"``), ``pattern``, ``cpu_cores``,
    ``page_policy``, ``agent_accesses_factor``. On top of the standard
    simulation payload the result carries per-requester stacks, the QoS
    fingerprint (with per-requester digests) and the read-bandwidth
    fairness ratio — so a scheduler-weight sweep through the result
    cache replays full QoS data on a hit.
    """

    cacheable = True

    def execute(self, job: Job) -> dict:
        from repro.experiments.runner import run_qos
        from repro.reliability.fingerprint import qos_fingerprint

        config = dict(job.config)
        try:
            result = run_qos(
                scale=job.resolved_scale() or "ci",
                guard=_job_guard(job),
                **config,
            )
        except TypeError as error:
            raise ConfigurationError(
                f"bad qos job config {sorted(config)}: {error}"
            ) from error
        payload = _simulation_payload(result, job.label)
        payload["fingerprint"] = qos_fingerprint(result)
        bandwidth = result.per_requester_bandwidth_stacks(job.label)
        latency = result.per_requester_latency_stacks(job.label)
        payload["requesters"] = {
            str(requester): {
                "bandwidth": stack_to_payload(stack),
                "latency": (
                    stack_to_payload(latency[requester])
                    if requester in latency else None
                ),
            }
            for requester, stack in bandwidth.items()
        }
        # Latency balance: min/max of per-requester average read
        # latency. (Full-run average bandwidth is workload-fixed in a
        # closed-loop run, so it cannot measure scheduler fairness.)
        waits = [stack.total for stack in latency.values()]
        payload["metrics"]["latency_balance"] = (
            min(waits) / max(waits) if len(waits) > 1 and max(waits) > 0
            else 1.0
        )
        return payload


class GapExecutor:
    """Run one GAP kernel configuration.

    ``job.config`` keys are :func:`repro.experiments.runner.run_gap`
    keyword arguments: ``kernel`` (required), ``cores``, ``page_policy``,
    ``address_scheme``, ``write_queue_capacity``. ``job.seed`` seeds the
    synthetic graph.
    """

    cacheable = True

    def execute(self, job: Job) -> dict:
        from repro.experiments.runner import run_gap

        config = dict(job.config)
        if "kernel" not in config:
            raise ConfigurationError("gap job config requires a 'kernel' key")
        try:
            result, workload = run_gap(
                scale=job.resolved_scale() or "ci",
                seed=job.seed,
                guard=_job_guard(job),
                **config,
            )
        except TypeError as error:
            raise ConfigurationError(
                f"bad gap job config {sorted(config)}: {error}"
            ) from error
        payload = _simulation_payload(result, job.label)
        payload["workload"] = workload.describe()
        return payload


class FigureExecutor:
    """Regenerate one paper figure (``repro.experiments.figN.main``).

    ``job.config``: ``name`` (``"fig2"``..``"fig9"``) and ``output_dir``.
    The payload carries the figure's printed tables; the SVG files are
    written into ``output_dir`` as a side effect of the *cold* run, so a
    cache hit replays the text but assumes the SVGs from the original
    run are still on disk (see ``docs/service.md``).
    """

    cacheable = True

    def execute(self, job: Job) -> dict:
        import importlib

        config = dict(job.config)
        name = config.get("name")
        if not name:
            raise ConfigurationError("figure job config requires 'name'")
        output_dir = config.get("output_dir", "results")
        try:
            module = importlib.import_module(f"repro.experiments.{name}")
        except ImportError as error:
            raise ConfigurationError(
                f"unknown figure {name!r}: {error}"
            ) from error
        scale = job.resolved_scale()
        start = time.perf_counter()
        buffer = io.StringIO()
        try:
            with redirect_stdout(buffer):
                module.main(
                    scale=scale if scale is not None else "ci",
                    output_dir=output_dir,
                )
        except BaseException:
            # Keep what the figure printed before it died.
            sys.stdout.write(buffer.getvalue())
            raise
        return {
            "name": name,
            "text": buffer.getvalue(),
            "elapsed_s": time.perf_counter() - start,
        }


class ProbeExecutor:
    """Test/diagnostic instrument: a job with scripted (mis)behaviour.

    Exercises every failure path of the pool and service without
    touching the simulator — it is the service's one fault injector.
    ``job.config`` keys:

    * ``sleep_s`` — busy-wait this long before returning or failing
      (drives the hard-kill timeout path; deliberately ignores guards).
    * ``marker_dir`` — directory used to count attempts across retries
      and processes (one token file is created per attempt, before any
      scripted fault, so a killed attempt still counts).
    * ``hang_times`` — on the first N attempts, busy-wait ``sleep_s``
      and then raise :class:`SimulationTimeoutError`, as a cooperative
      guard would; later attempts skip the wait. In a pool, a
      ``sleep_s`` past the job's hard-kill deadline gets the worker
      killed mid-wait instead.
    * ``fail_times`` — raise :class:`SimulationTimeoutError` on the
      first N attempts (requires ``marker_dir`` to ever succeed).
    * ``crash_times`` — die via ``os._exit`` on the first N attempts
      when running inside a worker process (crash isolation path); in
      inline mode it raises :class:`WorkerCrashError` instead.
    * ``value`` — payload content to return on success.

    Probe results are never cached (``cacheable = False``).
    """

    cacheable = False

    def execute(self, job: Job) -> dict:
        config = dict(job.config)
        attempt = 1
        marker_dir = config.get("marker_dir")
        if marker_dir:
            os.makedirs(marker_dir, exist_ok=True)
            stem = f"probe-{job.digest()[:16]}"
            attempt = len(
                [n for n in os.listdir(marker_dir) if n.startswith(stem)]
            ) + 1
            with open(
                os.path.join(marker_dir, f"{stem}-{attempt:03d}.token"),
                "w",
            ):
                pass
        hang_times = int(config.get("hang_times", 0))
        sleep_s = float(config.get("sleep_s", 0.0))
        if sleep_s and (not hang_times or attempt <= hang_times):
            deadline = time.monotonic() + sleep_s
            while time.monotonic() < deadline:
                time.sleep(min(0.05, sleep_s))
        if attempt <= hang_times:
            raise SimulationTimeoutError(
                f"probe scripted hang of {sleep_s}s (attempt {attempt})"
            )
        if attempt <= int(config.get("crash_times", 0)):
            self._crash()
        if attempt <= int(config.get("fail_times", 0)):
            raise SimulationTimeoutError(
                f"probe scripted failure (attempt {attempt})"
            )
        return {"value": config.get("value"), "attempt": attempt}

    @staticmethod
    def _crash() -> None:
        from repro.service import worker

        if worker.IN_WORKER:
            os._exit(13)  # simulate a hard worker death
        raise WorkerCrashError("probe scripted crash (inline mode)")


#: Job kind -> executor class.
EXECUTORS = {
    "synthetic": SyntheticExecutor,
    "qos": QosExecutor,
    "gap": GapExecutor,
    "figure": FigureExecutor,
    "probe": ProbeExecutor,
}


def execute_job(job: Job) -> tuple[dict, bool]:
    """Run `job` with the executor of its kind.

    Returns ``(payload, cacheable)``. Raises :class:`ReproError`
    subclasses for anything that goes wrong; non-Repro exceptions from
    executors are wrapped in :class:`WorkerCrashError` so callers only
    ever see the library's error hierarchy.
    """
    executor = require_choice("job executor", job.kind, EXECUTORS)()
    try:
        payload = executor.execute(job)
    except ReproError:
        raise
    except Exception as error:
        raise WorkerCrashError(
            f"{job.kind} executor raised "
            f"{type(error).__name__}: {error}"
        ) from error
    return payload, bool(getattr(executor, "cacheable", True))
