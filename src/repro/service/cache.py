"""Content-addressed on-disk result cache.

Results live under one root (``results/.cache/`` by convention) as
``<digest[:2]>/<digest>.json`` — the digest being the job's canonical
content hash (:meth:`repro.service.job.Job.digest`), so the cache needs
no separate index and never returns a result for a configuration other
than the one that produced it. Re-running a sweep or figure batch
recomputes only the points whose configuration changed; everything else
is a hit, and a hit returns the *bit-identical* payload of the original
run (stack floats round-trip through JSON ``repr`` exactly).

Entry format (one JSON file per result)::

    {
      "format": 2,            # JOB_FORMAT at write time
      "digest": "<job digest>",
      "job": {... Job.to_dict() for humans/debugging ...},
      "created_unix": 1722945600.0,
      "payload": {... executor payload ...}
    }

The cache is the one record of finished work: every job is stored as
it completes, so a killed or failed batch is resumed by rerunning it
against the same cache. Entries are never evicted; a cache is deleted
by hand.

Robustness — the explicit error policy: **``get`` and ``put`` never
raise**. Writes are atomic and durable (temp file, ``fsync``, then
``os.replace``); unreadable or mismatched entries, and entries whose
payload is not a dict, count as misses and are deleted (an
``invalid-entry`` self-heal); an IO error on either side is counted in
:class:`CacheStats` and absorbed one call at a time — that lookup is a
miss, that write is skipped — so a full or failing disk costs reuse,
never results: every miss simply recomputes. Nothing here locks —
concurrent writers of the same digest race benignly because they write
identical content.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.service.job import JOB_FORMAT, Job

#: Conventional cache root, relative to the working directory.
DEFAULT_CACHE_DIR = os.path.join("results", ".cache")


@dataclass
class CacheStats:
    """Hit/miss/write/error counters for one :class:`ResultCache`."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    invalid: int = 0  # corrupt/mismatched entries self-healed (deleted)
    read_errors: int = 0   # OSError reading an entry (treated as miss)
    write_errors: int = 0  # OSError writing an entry (incl. disk-full)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup (0.0 before the first lookup)."""
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class ResultCache:
    """Fingerprint-keyed payload store on the local filesystem.

    Args:
        root: cache directory (created lazily on first write).
    """

    root: str | Path = DEFAULT_CACHE_DIR
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    # ------------------------------------------------------------------
    def path_for(self, digest: str) -> Path:
        """Where the entry for `digest` lives (whether or not it exists)."""
        return self.root / digest[:2] / f"{digest}.json"

    def get(self, digest: str) -> dict | None:
        """The cached payload for `digest`, or None on a miss.

        Never raises. Corrupt files (bad JSON or bytes that are not
        UTF-8), foreign formats, digest mismatches and payloads that
        are not a dict are treated as misses and removed so they cannot
        mask themselves as hits forever; an IO error is counted
        (``stats.read_errors``) and the lookup is a miss.
        """
        path = self.path_for(digest)
        try:
            entry = self._read_entry(path, digest)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except ValueError:  # JSONDecodeError and UnicodeDecodeError
            self._heal(path)
            return None
        except OSError:
            self.stats.read_errors += 1
            self.stats.misses += 1
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("format") != JOB_FORMAT
            or entry.get("digest") != digest
            or not isinstance(entry.get("payload"), dict)
        ):
            self._heal(path)
            return None
        self.stats.hits += 1
        return entry["payload"]

    def put(self, job: Job, payload: dict) -> Path | None:
        """Store `payload` under `job.digest()`; returns the entry path.

        Never raises. When the write fails (counted in
        ``stats.write_errors``) it returns None and the batch carries on
        uncached.
        """
        digest = job.digest()
        path = self.path_for(digest)
        body = json.dumps({
            "format": JOB_FORMAT,
            "digest": digest,
            "job": job.to_dict(),
            "created_unix": time.time(),
            "payload": payload,
        }, sort_keys=True)
        try:
            self._write_entry(path, digest, body)
        except OSError:
            self.stats.write_errors += 1
            return None
        self.stats.writes += 1
        return path

    # ------------------------------------------------------------------
    # IO seams (overridden by the tests' fault-injecting cache)
    # ------------------------------------------------------------------
    def _read_entry(self, path: Path, digest: str) -> dict:
        """Read and parse one entry file (raises OSError/ValueError)."""
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)

    def _write_entry(self, path: Path, digest: str, body: str) -> None:
        """Atomically and durably write one entry file (raises OSError).

        The temporary file is flushed and fsync'd before it replaces
        the entry, so an entry that exists after a crash is complete.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(body)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    def _heal(self, path: Path) -> None:
        """Drop a corrupt entry: count it and treat it as a miss."""
        try:
            path.unlink(missing_ok=True)
        except OSError:
            pass
        self.stats.invalid += 1
        self.stats.misses += 1
