"""Parameter sweeps over the synthetic configuration space.

A small grid harness over the knobs the paper varies — pattern, cores,
store fraction, page policy, bank indexing — plus the scheduling
policy, requester domains and memory device, producing one record per
point with its headline metrics and stacks. Every point runs the
production engines; the engine is not an axis. Useful for regenerating
any figure-like slice, and for CSV/JSONL export into external tooling.

Every grid point is an independent, deterministic job, and
:func:`run_sweep` always executes through the execution service
(:mod:`repro.service`): ``jobs=1`` runs the points inline, in-process;
``jobs=N`` fans them out over N spawn workers; ``cache=...`` adds
fingerprint-keyed result reuse. Per-point ``fingerprint`` digests are
identical either way. A killed or failed sweep is resumed by rerunning
it with the same cache: only the points not already cached recompute.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass, field
from typing import IO, Iterable

from repro.errors import ReproError
from repro.experiments.config import ExperimentScale
from repro.stacks.components import Stack


@dataclass(frozen=True)
class SweepPoint:
    """One configuration in the grid."""

    pattern: str = "sequential"
    cores: int = 1
    store_fraction: float = 0.0
    page_policy: str = "open"
    address_scheme: str = "default"
    #: Scheduling spec (may carry params, e.g. ``"wrr:2,1"``).
    scheduling: str = "fr-fcfs"
    #: Requester domains the cores are spread over (1 = single domain).
    requesters: int = 1
    #: Memory device selector (see :data:`repro.devices.DEVICES`).
    device: str = "ddr4-2400"

    @property
    def label(self) -> str:
        """Short human-readable point descriptor."""
        label = (
            f"{self.pattern[:3]} {self.cores}c "
            f"w{int(self.store_fraction * 100)} "
            f"{self.page_policy}/{self.address_scheme[:3]}"
        )
        if self.scheduling != "fr-fcfs":
            label += f" {self.scheduling}"
        if self.requesters != 1:
            label += f" q{self.requesters}"
        if self.device != "ddr4-2400":
            label += f" {self.device}"
        return label


@dataclass
class SweepRecord:
    """Result of one sweep point.

    ``fingerprint`` is the point's ``result_fingerprint`` digest — the
    content hash of the full event timeline and stacks — identical
    whether the point ran inline, on a worker pool, or came out of
    the result cache. ``cached`` marks records served from the cache.
    """

    point: SweepPoint
    achieved_gbps: float
    avg_latency_ns: float
    page_hit_rate: float
    bandwidth: Stack
    latency: Stack
    fingerprint: str = ""
    cached: bool = False

    def to_json_dict(self) -> dict:
        """The record as one JSONL-able dict (full float precision)."""
        return {
            "kind": "record",
            "point": dataclasses.asdict(self.point),
            "achieved_gbps": self.achieved_gbps,
            "avg_latency_ns": self.avg_latency_ns,
            "page_hit_rate": self.page_hit_rate,
            "bandwidth": dict(self.bandwidth.as_rows()),
            "latency": dict(self.latency.as_rows()),
            "fingerprint": self.fingerprint,
            "cached": self.cached,
        }


@dataclass
class SweepFailure:
    """A sweep point that failed, with the typed error it failed with."""

    point: SweepPoint
    error: ReproError

    def __str__(self) -> str:
        return (
            f"{self.point.label}: {type(self.error).__name__}: "
            f"{self.error}"
        )

    def to_json_dict(self) -> dict:
        """The failure as one JSONL-able dict."""
        return {
            "kind": "failure",
            "point": dataclasses.asdict(self.point),
            "error_type": type(self.error).__name__,
            "message": str(self.error),
        }


@dataclass
class SweepResult:
    """All records of a sweep, with selection and export helpers.

    A sweep with failing points still returns: `records` holds every
    point that succeeded, `failures` the rest. Check `complete` before
    treating the grid as fully covered.
    """

    records: list[SweepRecord] = field(default_factory=list)
    failures: list[SweepFailure] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def complete(self) -> bool:
        """True when every requested point produced a record."""
        return not self.failures

    def best_bandwidth(self) -> SweepRecord:
        """Record with the highest achieved bandwidth."""
        return max(self.records, key=lambda r: r.achieved_gbps)

    def best_latency(self) -> SweepRecord:
        """Record with the lowest average latency."""
        return min(self.records, key=lambda r: r.avg_latency_ns)

    def filter(self, **criteria) -> "SweepResult":
        """Records whose point matches every keyword (e.g. cores=2)."""
        kept = [
            record for record in self.records
            if all(
                getattr(record.point, key) == value
                for key, value in criteria.items()
            )
        ]
        return SweepResult(kept)

    def to_csv(self) -> str:
        """The sweep as a CSV table."""
        lines = [
            "pattern,cores,store_fraction,page_policy,address_scheme,"
            "scheduling,requesters,device,"
            "achieved_gbps,avg_latency_ns,page_hit_rate"
        ]
        for record in self.records:
            p = record.point
            lines.append(
                f"{p.pattern},{p.cores},{p.store_fraction},"
                f"{p.page_policy},{p.address_scheme},"
                f"{p.scheduling},{p.requesters},{p.device},"
                f"{record.achieved_gbps:.4f},{record.avg_latency_ns:.2f},"
                f"{record.page_hit_rate:.4f}"
            )
        return "\n".join(lines) + "\n"

    def to_jsonl(self) -> str:
        """The sweep as JSON Lines: one record or failure per line.

        Unlike :meth:`to_csv` this carries the full stacks, the result
        fingerprints, and the failures, at full float precision. The
        same line format is what :func:`run_sweep` streams to
        ``jsonl_path`` as points complete, so a partial file from an
        interrupted run parses the same way a complete export does.
        """
        lines = [
            json.dumps(record.to_json_dict(), sort_keys=True)
            for record in self.records
        ]
        lines.extend(
            json.dumps(failure.to_json_dict(), sort_keys=True)
            for failure in self.failures
        )
        return "\n".join(lines) + ("\n" if lines else "")


def grid(
    patterns: Iterable[str] = ("sequential", "random"),
    cores: Iterable[int] = (1,),
    store_fractions: Iterable[float] = (0.0,),
    page_policies: Iterable[str] = ("open",),
    address_schemes: Iterable[str] = ("default",),
    schedulings: Iterable[str] = ("fr-fcfs",),
    requesters: Iterable[int] = (1,),
    devices: Iterable[str] = ("ddr4-2400",),
) -> list[SweepPoint]:
    """Cartesian product of the given axes."""
    return [
        SweepPoint(*combo)
        for combo in itertools.product(
            patterns, cores, store_fractions, page_policies,
            address_schemes, schedulings, requesters, devices,
        )
    ]


def run_sweep(
    points: list[SweepPoint],
    scale: str | ExperimentScale = "ci",
    timeout_s: float | None = None,
    jobs: int = 1,
    cache=None,
    jsonl_path: str | None = None,
    on_event=None,
) -> SweepResult:
    """Run every point on the execution service.

    Args:
        timeout_s: wall-clock budget per point (None, or seconds > 0).
            A point that exceeds it fails with
            :class:`~repro.errors.SimulationTimeoutError`.
        jobs: worker processes, passed to
            :class:`~repro.service.service.ExecutionService` unchanged.
            1 (default) runs inline, in-process; N>1 fans the grid out
            over a spawn-based worker pool. The per-point
            ``fingerprint`` digests are identical either way.
        cache: a :class:`~repro.service.cache.ResultCache`, a cache
            directory path, or None. With a cache, unchanged points are
            served from disk (``record.cached`` is True) and only
            changed configurations recompute. Every finished point is
            stored as it completes, so rerunning a killed or failed
            sweep with the same cache recomputes only the rest, with
            identical fingerprints.
        jsonl_path: stream one JSON line per completed point (and per
            failure) to this file as the sweep runs — an interrupt
            loses at most the in-flight points, never the finished
            ones.
        on_event: called with each ``JobStarted`` / ``JobFinished`` /
            ``JobFailure`` record of the batch (see
            :mod:`repro.service.events`; ``index`` is the point's index
            in `points`), in completion order, after the sweep has
            recorded the point and written its `jsonl_path` line.

    Failing points never abort the sweep: they are recorded in
    ``result.failures`` and the sweep moves on, so a mostly-healthy
    grid still reports its healthy part. A worker that cannot be
    spawned raises :class:`~repro.errors.WorkerSpawnError`.

    To profile a whole sweep, run it under ``python -m cProfile``;
    ``dram-stacks analyze --profile`` profiles a single point.
    """
    # Imported here so that importing the experiments package never
    # loads the service (or multiprocessing).
    from repro.service.events import JobFailure, JobFinished
    from repro.service.service import ExecutionService

    job_list = [point_job(point, scale, timeout_s) for point in points]
    service = ExecutionService(workers=jobs, cache=cache)
    result = SweepResult()
    by_index: dict[int, SweepRecord] = {}
    with _jsonl_writer(jsonl_path) as emit_line:

        def record(event) -> None:
            if isinstance(event, JobFinished):
                entry = _record_from_payload(
                    points[event.index], event.payload, event.cached
                )
                by_index[event.index] = entry
                emit_line(entry.to_json_dict())
            elif isinstance(event, JobFailure):
                failure = SweepFailure(
                    point=points[event.index], error=event.error
                )
                result.failures.append(failure)
                emit_line(failure.to_json_dict())
            if on_event is not None:
                on_event(event)

        service.run(job_list, on_event=record)
    result.records = [by_index[index] for index in sorted(by_index)]
    return result


def point_job(
    point: SweepPoint,
    scale: str | ExperimentScale = "ci",
    timeout_s: float | None = None,
):
    """The :class:`~repro.service.job.Job` equivalent of one grid point.

    The job's content digest keys the result cache, so two sweeps
    containing the same point at the same scale share cached results.
    """
    from repro.service.job import Job

    config = {
        "pattern": point.pattern,
        "cores": point.cores,
        "store_fraction": point.store_fraction,
        "page_policy": point.page_policy,
        "address_scheme": point.address_scheme,
    }
    # Non-default axes only: default points keep their historical
    # content digest, so pre-existing caches stay warm.
    if point.scheduling != "fr-fcfs":
        config["scheduling"] = point.scheduling
    if point.requesters != 1:
        config["requesters"] = point.requesters
    if point.device != "ddr4-2400":
        config["device"] = point.device
    return Job(
        kind="synthetic",
        config=config,
        scale=scale,
        label=point.label,
        timeout_s=timeout_s,
    )


def _record_from_payload(
    point: SweepPoint, payload: dict, cached: bool
) -> SweepRecord:
    """Rebuild a SweepRecord from an execution-service payload.

    Stack floats round-trip through the payload JSON exactly, so a
    rebuilt record is bit-identical to one computed in-process.
    """
    from repro.service.executors import stack_from_payload

    metrics = payload["metrics"]
    return SweepRecord(
        point=point,
        achieved_gbps=metrics["achieved_gbps"],
        avg_latency_ns=metrics["avg_latency_ns"],
        page_hit_rate=metrics["page_hit_rate"],
        bandwidth=stack_from_payload(payload["bandwidth"]),
        latency=stack_from_payload(payload["latency"]),
        fingerprint=payload["fingerprint"]["digest"],
        cached=cached,
    )


class _jsonl_writer:
    """Context manager yielding a line emitter (no-op without a path).

    Lines are flushed as written, so a killed sweep leaves a valid,
    parseable prefix of the full export.
    """

    def __init__(self, path: str | None) -> None:
        self._path = path
        self._handle: IO[str] | None = None

    def __enter__(self):
        if self._path is None:
            return lambda body: None
        self._handle = open(self._path, "w", encoding="utf-8")

        def emit(body: dict) -> None:
            assert self._handle is not None
            self._handle.write(json.dumps(body, sort_keys=True) + "\n")
            self._handle.flush()

        return emit

    def __exit__(self, *exc_info) -> None:
        if self._handle is not None:
            self._handle.close()
