"""Set-associative caches with LRU replacement.

Write-back, write-allocate: stores dirty the cached line, and dirty lines
produce a writeback when evicted. The shared last-level cache is sliced
(NUCA), matching the paper's setup where LLC capacity stays constant
across core counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, require_int


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache.

    Attributes:
        size_bytes: total capacity.
        ways: associativity, >= 1.
        line_bytes: cache line size, a power of two. It must match the
            DRAM line size, which :class:`~repro.cpu.system.SystemConfig`
            checks, since it holds both.
        latency: access latency in memory-clock cycles, >= 0.
    """

    size_bytes: int
    ways: int = 8
    line_bytes: int = 64
    latency: int = 1

    def __post_init__(self) -> None:
        require_int("CacheConfig", "size_bytes", self.size_bytes, 1)
        require_int("CacheConfig", "ways", self.ways, 1)
        require_int("CacheConfig", "line_bytes", self.line_bytes, 1)
        require_int("CacheConfig", "latency", self.latency, 0)
        if self.line_bytes & (self.line_bytes - 1):
            raise ConfigurationError(
                f"CacheConfig(line_bytes=...) must be a power of two, "
                f"got {self.line_bytes}"
            )
        if self.size_bytes < self.ways * self.line_bytes:
            raise ConfigurationError(
                f"cache of {self.size_bytes} B cannot hold {self.ways} ways"
            )
        sets = self.size_bytes // (self.ways * self.line_bytes)
        if sets & (sets - 1):
            raise ConfigurationError(
                f"cache set count must be a power of two, got {sets}"
            )

    @property
    def num_sets(self) -> int:
        """Number of sets implied by the geometry."""
        return self.size_bytes // (self.ways * self.line_bytes)


@dataclass(slots=True)
class CacheStats:
    """Hit/miss/eviction counters for one cache."""
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0

    @property
    def accesses(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0 when unused)."""
        return self.hits / self.accesses if self.accesses else 0.0


class SetAssociativeCache:
    """One cache array: LRU, write-back, write-allocate.

    Lines are keyed by *line number* (byte address divided by the line
    size). Each set is a dict ordered by recency (least-recent first);
    values are dirty flags.
    """

    __slots__ = ("config", "name", "stats", "_set_mask", "_ways", "_sets")

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self.stats = CacheStats()
        self._set_mask = config.num_sets - 1
        self._ways = config.ways
        self._sets: list[dict[int, bool]] = [
            {} for _ in range(config.num_sets)
        ]

    def _set_for(self, line: int) -> dict[int, bool]:
        return self._sets[line & self._set_mask]

    # ------------------------------------------------------------------
    def lookup(self, line: int, is_write: bool = False) -> bool:
        """Probe for `line`; updates LRU and dirty state on hit."""
        cache_set = self._sets[line & self._set_mask]
        if line not in cache_set:
            self.stats.misses += 1
            return False
        dirty = cache_set.pop(line)
        cache_set[line] = dirty or is_write
        self.stats.hits += 1
        return True

    def insert(
        self, line: int, dirty: bool = False
    ) -> tuple[int, bool] | None:
        """Fill `line`; returns (evicted_line, was_dirty) if a line left."""
        cache_set = self._sets[line & self._set_mask]
        if line in cache_set:
            was_dirty = cache_set.pop(line)
            cache_set[line] = was_dirty or dirty
            return None
        evicted = None
        if len(cache_set) >= self._ways:
            victim = next(iter(cache_set))
            was_dirty = cache_set.pop(victim)
            self.stats.evictions += 1
            if was_dirty:
                self.stats.dirty_evictions += 1
            evicted = (victim, was_dirty)
        cache_set[line] = dirty
        return evicted

    def contains(self, line: int) -> bool:
        """Probe without side effects."""
        return line in self._set_for(line)

    def invalidate(self, line: int) -> bool:
        """Drop `line`; returns whether it was dirty."""
        cache_set = self._set_for(line)
        return bool(cache_set.pop(line, False))

    def occupancy(self) -> int:
        """Number of valid lines."""
        return sum(len(s) for s in self._sets)


class SharedCache:
    """A NUCA-sliced shared cache: address-hashed slices, fixed latency.

    The paper keeps the shared LLC at 8 slices / 11 MB for every core
    count to factor out caching effects; this class reproduces that.
    """

    __slots__ = ("config", "name", "_slices")

    def __init__(
        self, config: CacheConfig, slices: int = 8, name: str = "llc"
    ) -> None:
        if slices < 1:
            raise ConfigurationError("need at least one LLC slice")
        if config.size_bytes % slices:
            raise ConfigurationError(
                f"LLC size {config.size_bytes} not divisible into "
                f"{slices} slices"
            )
        self.config = config
        self.name = name
        slice_config = CacheConfig(
            size_bytes=config.size_bytes // slices,
            ways=config.ways,
            line_bytes=config.line_bytes,
            latency=config.latency,
        )
        self._slices = [
            SetAssociativeCache(slice_config, f"{name}[{i}]")
            for i in range(slices)
        ]

    def _slice_for(self, line: int) -> SetAssociativeCache:
        return self._slices[line % len(self._slices)]

    def lookup(self, line: int, is_write: bool = False) -> bool:
        """Probe a slice for `line` (see SetAssociativeCache.lookup)."""
        return self._slice_for(line).lookup(line, is_write)

    def insert(self, line: int, dirty: bool = False):
        """Fill `line` into its slice; returns any eviction."""
        return self._slice_for(line).insert(line, dirty)

    def contains(self, line: int) -> bool:
        """Side-effect-free membership probe."""
        return self._slice_for(line).contains(line)

    def invalidate(self, line: int) -> bool:
        """Drop `line`; returns whether it was dirty."""
        return self._slice_for(line).invalidate(line)

    @property
    def stats(self) -> CacheStats:
        """Aggregated statistics across slices."""
        total = CacheStats()
        for s in self._slices:
            total.hits += s.stats.hits
            total.misses += s.stats.misses
            total.evictions += s.stats.evictions
            total.dirty_evictions += s.stats.dirty_evictions
        return total
