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
      "format": 1,            # JOB_FORMAT at write time
      "digest": "<job digest>",
      "job": {... Job.to_dict() for humans/debugging ...},
      "created_unix": 1722945600.0,
      "payload": {... executor payload ...}
    }

Robustness — the explicit error policy: **``get`` and ``put`` never
raise**. Writes are atomic (temp file + ``os.replace``); unreadable or
mismatched entries count as misses and are deleted (an
``invalid-entry`` self-heal); an IO error on either side is counted in
:class:`CacheStats` and absorbed one call at a time — that lookup is a
miss, that write is skipped — so a full or failing disk costs reuse,
never results: every miss simply recomputes. :meth:`ResultCache.evict`
prunes by entry count and/or age (oldest write time first). Nothing
here locks — concurrent writers of the same digest race benignly
because they write identical content.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigurationError
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
        max_entries: soft cap enforced by :meth:`evict`; ``None`` means
            unbounded. :meth:`put` auto-evicts past ``2 * max_entries``
            so long-running batches cannot grow the directory without
            bound between explicit evictions.
    """

    root: str | Path = DEFAULT_CACHE_DIR
    max_entries: int | None = None
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        if self.max_entries is not None and self.max_entries < 1:
            raise ConfigurationError(
                f"ResultCache.max_entries must be >= 1 or None, "
                f"got {self.max_entries!r}"
            )

    # ------------------------------------------------------------------
    def path_for(self, digest: str) -> Path:
        """Where the entry for `digest` lives (whether or not it exists)."""
        return self.root / digest[:2] / f"{digest}.json"

    def get(self, digest: str) -> dict | None:
        """The cached payload for `digest`, or None on a miss.

        Never raises. Corrupt files, foreign formats, and digest
        mismatches are treated as misses and removed so they cannot
        mask themselves as hits forever; an IO error is counted
        (``stats.read_errors``) and the lookup is a miss.
        """
        path = self.path_for(digest)
        try:
            entry = self._read_entry(path, digest)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except json.JSONDecodeError:
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
            or "payload" not in entry
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
        if self.max_entries is not None:
            # Opportunistic pruning: only scan the directory once the
            # cap could plausibly be doubled, to keep put() O(1)-ish.
            if self.stats.writes % self.max_entries == 0:
                self.evict()
        return path

    # ------------------------------------------------------------------
    # IO seams (overridden by the tests' fault-injecting cache)
    # ------------------------------------------------------------------
    def _read_entry(self, path: Path, digest: str) -> dict:
        """Read and parse one entry file (raises OSError/JSON errors)."""
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)

    def _write_entry(self, path: Path, digest: str, body: str) -> None:
        """Atomically write one entry file (raises OSError)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            tmp.write_text(body, encoding="utf-8")
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    def _heal(self, path: Path) -> None:
        """Drop a corrupt entry: count it and treat it as a miss."""
        self._drop(path)
        self.stats.invalid += 1
        self.stats.misses += 1

    # ------------------------------------------------------------------
    def entries(self) -> list[Path]:
        """All entry files, oldest modification time first."""
        if not self.root.is_dir():
            return []
        found = sorted(
            self.root.glob("??/*.json"),
            key=lambda p: (p.stat().st_mtime, p.name),
        )
        return found

    def __len__(self) -> int:
        return len(self.entries())

    def evict(
        self,
        max_entries: int | None = None,
        max_age_s: float | None = None,
    ) -> int:
        """Prune old entries; returns how many were removed.

        ``max_entries`` defaults to the cache's configured cap; entries
        beyond it are removed oldest-first. ``max_age_s`` additionally
        removes anything last written more than that many seconds ago.
        """
        if max_entries is None:
            max_entries = self.max_entries
        removed = 0
        entries = self.entries()
        if max_age_s is not None:
            cutoff = time.time() - max_age_s
            fresh = []
            for path in entries:
                if path.stat().st_mtime < cutoff:
                    self._drop(path)
                    removed += 1
                else:
                    fresh.append(path)
            entries = fresh
        if max_entries is not None and len(entries) > max_entries:
            for path in entries[: len(entries) - max_entries]:
                self._drop(path)
                removed += 1
        return removed

    def clear(self) -> int:
        """Remove every entry; returns how many were removed."""
        removed = 0
        for path in self.entries():
            self._drop(path)
            removed += 1
        return removed

    def _drop(self, path: Path) -> None:
        try:
            path.unlink(missing_ok=True)
        except OSError:
            return
