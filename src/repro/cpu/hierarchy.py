"""Per-core cache hierarchy: private L1D and L2, shared sliced LLC.

Write-back, write-allocate throughout (the paper: "the cache organization
with write-allocate policy induces both a memory read and a write on a
store operation to a non-cached line"). Dirty evictions cascade outward;
dirty LLC victims become DRAM writes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cpu.cache import CacheConfig, SetAssociativeCache, SharedCache
from repro.cpu.prefetcher import PrefetcherConfig, StreamPrefetcher
from repro.errors import ConfigurationError, require_int


@dataclass(frozen=True)
class HierarchyConfig:
    """Cache geometry, defaulting to the paper's setup.

    32 KB L1D, 1 MB private L2, 11 MB shared LLC in 8 NUCA slices
    (constant across core counts), stream prefetcher at the L2-miss level.
    Latencies are in memory-controller clock cycles (1.2 GHz).
    ``llc_slices`` is an int >= 1 that splits the LLC into equal slices,
    each a valid cache geometry.
    """

    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, ways=8, latency=1)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(1024 * 1024, ways=16, latency=5)
    )
    llc: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            11 * 1024 * 1024, ways=11, latency=14
        )
    )
    llc_slices: int = 8
    prefetcher: PrefetcherConfig = field(default_factory=PrefetcherConfig)

    def __post_init__(self) -> None:
        require_int("HierarchyConfig", "llc_slices", self.llc_slices, 1)
        size, slices = self.llc.size_bytes, self.llc_slices
        if size % slices:
            raise ConfigurationError(
                f"HierarchyConfig(llc_slices={slices}): the LLC's {size} B "
                f"do not divide into {slices} slices"
            )
        try:
            replace(self.llc, size_bytes=size // slices)
        except ConfigurationError as err:
            raise ConfigurationError(
                f"HierarchyConfig(llc_slices={slices}): one LLC slice is "
                f"not a valid cache: {err}"
            ) from None

    def make_llc(self) -> SharedCache:
        """Build the shared LLC (one per system, passed to every core)."""
        return SharedCache(self.llc, slices=self.llc_slices)


@dataclass(slots=True)
class AccessResult:
    """Outcome of one demand access through the hierarchy.

    Attributes:
        level: where the line was found (``"l1"``/``"l2"``/``"llc"``) or
            ``"mem"`` when DRAM must be accessed.
        latency: lookup latency in memory cycles (for ``"mem"``, the time
            spent discovering the miss before the request leaves).
        writebacks: dirty LLC victim line numbers to write to DRAM.
            Read-only sequence; the empty default is a shared tuple so
            the hot L1-hit path allocates nothing.
        prefetch_lines: LLC-missing line numbers the prefetcher wants.
    """

    level: str
    latency: int
    writebacks: list[int] | tuple = ()
    prefetch_lines: list[int] | tuple = ()


class CacheHierarchy:
    """One core's view of the cache stack.

    The LLC is shared: pass the same :class:`SharedCache` instance to the
    hierarchies of all cores.
    """

    __slots__ = (
        "config", "l1", "l2", "llc", "prefetcher", "_line_bits",
        "_l1_latency", "_l2_lookup", "_llc_lookup",
        "_l1_sets", "_l1_mask", "_l1_ways", "_l1_stats",
        "_l2_sets", "_l2_mask", "_l2_ways", "_l2_stats",
        "_llc_slices", "_llc_n",
    )

    def __init__(
        self, config: HierarchyConfig, shared_llc: SharedCache
    ) -> None:
        self.config = config
        self.l1 = SetAssociativeCache(config.l1, "l1d")
        self.l2 = SetAssociativeCache(config.l2, "l2")
        self.llc = shared_llc
        self.prefetcher = StreamPrefetcher(config.prefetcher)
        self._line_bits = config.l1.line_bytes.bit_length() - 1
        # Hoisted lookup latencies (config attribute chains are hot).
        self._l1_latency = config.l1.latency
        self._l2_lookup = config.l1.latency + config.l2.latency
        self._llc_lookup = self._l2_lookup + config.llc.latency
        # Aliases into the cache arrays for the fast core engine, which
        # probes L1 and L2 on them inline and calls `l2_miss` past L2.
        # They reference (never copy) the caches' own state, so that
        # walk and `access` stay interchangeable mid-run.
        self._l1_sets = self.l1._sets
        self._l1_mask = self.l1._set_mask
        self._l1_ways = self.l1._ways
        self._l1_stats = self.l1.stats
        self._l2_sets = self.l2._sets
        self._l2_mask = self.l2._set_mask
        self._l2_ways = self.l2._ways
        self._l2_stats = self.l2.stats
        self._llc_slices = shared_llc._slices
        self._llc_n = len(shared_llc._slices)

    def line_of(self, address: int) -> int:
        """Cache-line number of a byte address."""
        return address >> self._line_bits

    # ------------------------------------------------------------------
    def access(self, line: int, is_write: bool) -> AccessResult:
        """One demand load/store of `line` (a line number, not a byte
        address). Updates all cache state immediately; the caller models
        timing."""
        if self.l1.lookup(line, is_write):
            return AccessResult("l1", self._l1_latency)

        writebacks: list[int] = []
        if self.l2.lookup(line):
            self._fill_l1(line, is_write, writebacks)
            return AccessResult("l2", self._l2_lookup, writebacks)

        prefetches = self._prefetch(line, writebacks)
        if self.llc.lookup(line):
            self._fill_l2(line, writebacks)
            self._fill_l1(line, is_write, writebacks)
            return AccessResult(
                "llc", self._llc_lookup, writebacks, prefetches
            )

        # DRAM access: fill every level now (timing handled by the core).
        self._fill_llc(line, dirty=False, writebacks=writebacks)
        self._fill_l2(line, writebacks)
        self._fill_l1(line, is_write, writebacks)
        return AccessResult("mem", self._llc_lookup, writebacks, prefetches)

    def l2_miss(self, line: int) -> tuple[str, list[int], list[int]]:
        """The walk past L2 for the fast core engine's demand misses.

        The caller has probed L1 and L2 on the aliased set dicts and
        counted both misses. This trains the prefetcher, probes the
        LLC and fills the LLC (on a miss there) and L2, in the order
        :meth:`access` does; the caller then fills L1. Returns
        ``(level, writebacks, prefetch_lines)`` with `level` ``"llc"``
        or ``"mem"``. The fast-versus-reference property tests in
        ``tests/cpu`` compare the whole walk with :meth:`access`.
        """
        writebacks: list[int] = []
        prefetches = self._prefetch(line, writebacks)
        llc = self._llc_slices[line % self._llc_n]
        sl = llc._sets[line & llc._set_mask]
        if line in sl:
            sl[line] = sl.pop(line)
            llc.stats.hits += 1
            level = "llc"
        else:
            llc.stats.misses += 1
            # `line` cannot be in this slice set (we just missed), so
            # the demand fill skips insert()'s membership check; victim
            # inserts keep it.
            if len(sl) >= llc._ways:
                victim = next(iter(sl))
                was_dirty = sl.pop(victim)
                llc.stats.evictions += 1
                if was_dirty:
                    llc.stats.dirty_evictions += 1
                    writebacks.append(victim)
            sl[line] = False
            level = "mem"
        s2 = self._l2_sets[line & self._l2_mask]
        if len(s2) >= self._l2_ways:
            victim = next(iter(s2))
            was_dirty = s2.pop(victim)
            stats = self._l2_stats
            stats.evictions += 1
            if was_dirty:
                stats.dirty_evictions += 1
                self._fill_llc(victim, dirty=True, writebacks=writebacks)
        s2[line] = False
        return level, writebacks, prefetches

    # ------------------------------------------------------------------
    def _fill_l1(
        self, line: int, is_write: bool, writebacks: list[int]
    ) -> None:
        evicted = self.l1.insert(line, dirty=is_write)
        if evicted is not None and evicted[1]:
            self._fill_l2(evicted[0], writebacks, dirty=True)

    def _fill_l2(
        self, line: int, writebacks: list[int], dirty: bool = False
    ) -> None:
        evicted = self.l2.insert(line, dirty=dirty)
        if evicted is not None and evicted[1]:
            self._fill_llc(evicted[0], dirty=True, writebacks=writebacks)

    def _fill_llc(
        self, line: int, dirty: bool, writebacks: list[int]
    ) -> None:
        evicted = self.llc.insert(line, dirty=dirty)
        if evicted is not None and evicted[1]:
            writebacks.append(evicted[0])

    def _prefetch(self, line: int, writebacks: list[int]) -> list[int]:
        """Train the prefetcher on an L2 miss; returns LLC-missing lines.

        The LLC is *not* filled here: the driver fills it (via
        :meth:`fill_prefetched`) only for the prefetches it actually
        issues, so dropped prefetches leave no phantom cache state.
        """
        candidates = self.prefetcher.observe(line)
        if not candidates:
            return candidates
        slices = self._llc_slices
        n = self._llc_n
        out = []
        for pf_line in candidates:
            if pf_line >= 0:
                sl = slices[pf_line % n]
                if pf_line not in sl._sets[pf_line & sl._set_mask]:
                    out.append(pf_line)
        return out

    def fill_prefetched(self, line: int) -> list[int]:
        """Install an issued prefetch into the LLC; returns writebacks."""
        writebacks: list[int] = []
        self._fill_llc(line, dirty=False, writebacks=writebacks)
        return writebacks
