"""Synthetic validation benchmarks (paper Sec. VI).

Two access patterns with a configurable load/store fraction:

* **sequential** — a linear stream of cache lines; spatially perfect,
  predictable, prefetcher-friendly. Stores are interleaved into the same
  stream, so dirty lines later evict in the same sequential order (the
  LRU-driven write-burst pathology of Sec. VII-B emerges naturally).
* **random** — uniformly distributed cache lines over a large footprint;
  page hit rate ~0, latency-bound. The address stream forms
  ``dependency`` independent pointer-chase chains, bounding memory-level
  parallelism the way the paper's random benchmark is bound.
"""

from __future__ import annotations

import random as _random
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.cpu.core import TraceItem
from repro.errors import WorkloadError
from repro.workloads.base import Workload, stagger_base

#: Materialized trace blocks, memoized so repeated runs of one
#: configuration (sweeps, figure scripts, benchmarks) reuse the
#: TraceItem lists instead of regenerating them — and so the fast core
#: engine always sees an indexable block rather than a generator.
#: Keyed by (pattern, config, placement, core); bounded LRU so
#: paper-scale sweeps cannot accumulate unbounded memory. Blocks and
#: their items are shared between runs, as interned GAP items are
#: between trace positions, so TraceItem's ``frozen=True`` is
#: load-bearing; the blocks themselves must never be mutated either.
_BLOCK_CACHE: OrderedDict[tuple, list[TraceItem]] = OrderedDict()
_BLOCK_CACHE_MAX = 32


def _trace_block(
    key: tuple, build: Callable[[], list[TraceItem]]
) -> list[TraceItem]:
    """Return the memoized block for `key`, building it on a miss."""
    block = _BLOCK_CACHE.get(key)
    if block is None:
        block = build()
        _BLOCK_CACHE[key] = block
        while len(_BLOCK_CACHE) > _BLOCK_CACHE_MAX:
            _BLOCK_CACHE.popitem(last=False)
    else:
        _BLOCK_CACHE.move_to_end(key)
    return block


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters shared by the synthetic patterns.

    Attributes:
        accesses_per_core: memory operations each core performs.
        store_fraction: fraction of operations that are stores
            (write-allocate: a store miss still reads the line first).
        line_bytes: access granularity, a power of two.
        instructions_per_access: non-memory instructions between ops.
        footprint_bytes: address range per core (random) or region size
            per core (sequential), at least one line. Must exceed the
            LLC to exercise DRAM.
        dependency: independent dependence chains in the random pattern
            (bounds MLP); ignored for sequential.
        seed: RNG seed for the random pattern.
    """

    accesses_per_core: int = 20_000
    store_fraction: float = 0.0
    line_bytes: int = 64
    instructions_per_access: int = 8
    footprint_bytes: int = 1 << 27  # 128 MB per core
    dependency: int = 3
    seed: int = 42

    def __post_init__(self) -> None:
        fraction = self.store_fraction
        if (
            not isinstance(fraction, (int, float))
            or isinstance(fraction, bool)
            or not 0.0 <= fraction <= 1.0
        ):
            raise WorkloadError(
                f"store_fraction must be in [0, 1], got {fraction!r}"
            )
        _require_count("accesses_per_core", self.accesses_per_core, 1)
        _require_count(
            "instructions_per_access", self.instructions_per_access, 0
        )
        _require_count("dependency", self.dependency, 0)
        _require_count("line_bytes", self.line_bytes, 1)
        if self.line_bytes & (self.line_bytes - 1):
            raise WorkloadError(
                f"SyntheticConfig(line_bytes=...) must be a power of two, "
                f"got {self.line_bytes!r}"
            )
        _require_count(
            "footprint_bytes", self.footprint_bytes, self.line_bytes
        )


def _require_count(name: str, value, minimum: int) -> None:
    """Raise :class:`WorkloadError` unless `value` is an int (not a bool)
    of at least `minimum`; the message names the field."""
    if not isinstance(value, int) or isinstance(value, bool) or (
        value < minimum
    ):
        raise WorkloadError(
            f"SyntheticConfig({name}=...) must be an int >= {minimum}, "
            f"got {value!r}"
        )


class _StorePattern:
    """Deterministic, evenly-spread store/load interleaving."""

    def __init__(self, fraction: float) -> None:
        self._fraction = fraction
        self._accumulator = 0.0

    def next_is_store(self) -> bool:
        """Whether the next access is a store."""
        self._accumulator += self._fraction
        if self._accumulator >= 1.0 - 1e-12:
            self._accumulator -= 1.0
            return True
        return False


class SequentialWorkload(Workload):
    """Linear streaming over per-core disjoint regions."""

    def __init__(self, config: SyntheticConfig | None = None,
                 base_address: int = 1 << 28) -> None:
        self.config = config or SyntheticConfig()
        self.base_address = base_address
        self.name = f"sequential-w{int(self.config.store_fraction * 100)}"

    def traces(self, cores: int) -> list[Iterable[TraceItem]]:
        """One instruction trace per core."""
        return [self._trace(core_id) for core_id in range(cores)]

    def _trace(self, core_id: int) -> list[TraceItem]:
        key = ("sequential", self.config, self.base_address, core_id)
        return _trace_block(key, lambda: self._build(core_id))

    def _build(self, core_id: int) -> list[TraceItem]:
        config = self.config
        base = stagger_base(self.base_address, core_id, config.footprint_bytes)
        stores = _StorePattern(config.store_fraction)
        address = base
        instructions = config.instructions_per_access
        line_bytes = config.line_bytes
        items: list[TraceItem] = []
        append = items.append
        for __ in range(config.accesses_per_core):
            append(TraceItem(
                instructions=instructions,
                address=address,
                is_store=stores.next_is_store(),
            ))
            address += line_bytes
        return items


class RandomWorkload(Workload):
    """Uniform random lines over a large footprint, chain-dependent."""

    def __init__(self, config: SyntheticConfig | None = None,
                 base_address: int = 1 << 28) -> None:
        base_config = config or SyntheticConfig()
        if base_config.instructions_per_access == 8 and config is None:
            # The paper's random benchmark does more work per access
            # (address generation); our calibrated default is 16.
            base_config = SyntheticConfig(instructions_per_access=16)
        self.config = base_config
        self.base_address = base_address
        self.name = f"random-w{int(self.config.store_fraction * 100)}"

    def traces(self, cores: int) -> list[Iterable[TraceItem]]:
        """One instruction trace per core."""
        return [self._trace(core_id) for core_id in range(cores)]

    def _trace(self, core_id: int) -> list[TraceItem]:
        key = ("random", self.config, self.base_address, core_id)
        return _trace_block(key, lambda: self._build(core_id))

    def _build(self, core_id: int) -> list[TraceItem]:
        config = self.config
        rng = _random.Random(config.seed + core_id * 7919)
        base = self.base_address + core_id * config.footprint_bytes
        lines = config.footprint_bytes // config.line_bytes
        stores = _StorePattern(config.store_fraction)
        instructions = config.instructions_per_access
        line_bytes = config.line_bytes
        dependency = config.dependency
        items: list[TraceItem] = []
        append = items.append
        for __ in range(config.accesses_per_core):
            line = rng.randrange(lines)
            append(TraceItem(
                instructions=instructions,
                address=base + line * line_bytes,
                is_store=stores.next_is_store(),
                dependency_distance=dependency,
            ))
        return items


class StridedWorkload(Workload):
    """Fixed-stride streaming (stride > one line skips page fractions).

    A 256-byte stride touches every fourth line: page hits still
    dominate, but only a quarter of each opened page is used, shifting
    the stack toward precharge/activate relative to pure sequential.
    Negative strides walk backwards.
    """

    def __init__(
        self,
        config: SyntheticConfig | None = None,
        stride_bytes: int = 256,
        base_address: int = 1 << 28,
    ) -> None:
        self.config = config or SyntheticConfig()
        if stride_bytes == 0 or stride_bytes % self.config.line_bytes:
            raise WorkloadError(
                "stride must be a nonzero multiple of the line size, got "
                f"{stride_bytes}"
            )
        self.stride_bytes = stride_bytes
        self.base_address = base_address
        self.name = f"strided-{stride_bytes}"

    def traces(self, cores: int) -> list[Iterable[TraceItem]]:
        """One instruction trace per core."""
        return [self._trace(core_id) for core_id in range(cores)]

    def _trace(self, core_id: int) -> list[TraceItem]:
        key = (
            "strided", self.config, self.stride_bytes, self.base_address,
            core_id,
        )
        return _trace_block(key, lambda: self._build(core_id))

    def _build(self, core_id: int) -> list[TraceItem]:
        config = self.config
        base = stagger_base(self.base_address, core_id, config.footprint_bytes)
        if self.stride_bytes < 0:
            base += config.footprint_bytes - config.line_bytes
        stores = _StorePattern(config.store_fraction)
        address = base
        instructions = config.instructions_per_access
        stride = self.stride_bytes
        items: list[TraceItem] = []
        append = items.append
        for __ in range(config.accesses_per_core):
            append(TraceItem(
                instructions=instructions,
                address=address,
                is_store=stores.next_is_store(),
            ))
            address += stride
        return items


class PointerChaseWorkload(Workload):
    """A fully serialized random walk: every load depends on the last.

    The purest latency-bound pattern — MLP of one. Useful as the lower
    bound when studying how memory-level parallelism fills the bandwidth
    stack's idle component.
    """

    def __init__(
        self,
        config: SyntheticConfig | None = None,
        base_address: int = 1 << 28,
    ) -> None:
        base_config = config or SyntheticConfig(instructions_per_access=4)
        self.config = base_config
        self.base_address = base_address
        self.name = "pointer-chase"

    def traces(self, cores: int) -> list[Iterable[TraceItem]]:
        """One instruction trace per core."""
        return [self._trace(core_id) for core_id in range(cores)]

    def _trace(self, core_id: int) -> list[TraceItem]:
        key = ("pointer-chase", self.config, self.base_address, core_id)
        return _trace_block(key, lambda: self._build(core_id))

    def _build(self, core_id: int) -> list[TraceItem]:
        config = self.config
        rng = _random.Random(config.seed + core_id * 104729)
        base = self.base_address + core_id * config.footprint_bytes
        lines = config.footprint_bytes // config.line_bytes
        instructions = config.instructions_per_access
        line_bytes = config.line_bytes
        items: list[TraceItem] = []
        append = items.append
        for __ in range(config.accesses_per_core):
            line = rng.randrange(lines)
            append(TraceItem(
                instructions=instructions,
                address=base + line * line_bytes,
                dependency_distance=1,
            ))
        return items


class StreamingAgentWorkload(Workload):
    """A GPU/DMA-style streaming agent: wide sequential bursts, no
    dependences.

    Models the "other requester" of the QoS experiments (docs/qos.md):
    an accelerator or DMA engine that issues long unit-stride read
    streams with almost no compute between accesses and unbounded MLP.
    On a shared channel it monopolizes row hits, which is exactly the
    interference the ``wrr``/``bank-reg`` schedulers regulate. Runs on
    an ordinary core slot; give that core its own requester domain via
    ``SystemConfig.requesters``.
    """

    def __init__(
        self,
        config: SyntheticConfig | None = None,
        base_address: int = 3 << 28,
    ) -> None:
        base_config = config or SyntheticConfig()
        if base_config.instructions_per_access == 8 and config is None:
            # An agent does essentially no compute per line.
            base_config = SyntheticConfig(instructions_per_access=1)
        self.config = base_config
        self.base_address = base_address
        self.name = "streaming-agent"

    def traces(self, cores: int) -> list[Iterable[TraceItem]]:
        """One instruction trace per core."""
        return [self._trace(core_id) for core_id in range(cores)]

    def _trace(self, core_id: int) -> list[TraceItem]:
        key = ("streaming", self.config, self.base_address, core_id)
        return _trace_block(key, lambda: self._build(core_id))

    def _build(self, core_id: int) -> list[TraceItem]:
        config = self.config
        base = stagger_base(self.base_address, core_id, config.footprint_bytes)
        stores = _StorePattern(config.store_fraction)
        address = base
        instructions = max(1, config.instructions_per_access)
        line_bytes = config.line_bytes
        items: list[TraceItem] = []
        append = items.append
        for __ in range(config.accesses_per_core):
            append(TraceItem(
                instructions=instructions,
                address=address,
                is_store=stores.next_is_store(),
            ))
            address += line_bytes
        return items


class PhasedWorkload(Workload):
    """Alternating phases of different patterns (e.g. seq, then random).

    Gives through-time stacks and the phase detector
    (:mod:`repro.analysis.phases`) organically phased input: each phase
    runs `accesses_per_phase` operations of one sub-pattern before the
    next takes over, cycling through `patterns`.
    """

    def __init__(
        self,
        patterns: tuple[str, ...] = ("sequential", "random"),
        phases: int = 4,
        config: SyntheticConfig | None = None,
    ) -> None:
        if phases < 1:
            raise WorkloadError("need at least one phase")
        if not patterns:
            raise WorkloadError("need at least one pattern")
        self.config = config or SyntheticConfig()
        self.patterns = patterns
        self.phases = phases
        self.name = "phased-" + "-".join(patterns)

    def traces(self, cores: int) -> list[Iterable[TraceItem]]:
        """One instruction trace per core."""
        per_phase = max(1, self.config.accesses_per_core // self.phases)
        sub_config = SyntheticConfig(
            accesses_per_core=per_phase,
            store_fraction=self.config.store_fraction,
            line_bytes=self.config.line_bytes,
            instructions_per_access=self.config.instructions_per_access,
            footprint_bytes=self.config.footprint_bytes,
            dependency=self.config.dependency,
            seed=self.config.seed,
        )
        traces: list[list[TraceItem]] = [[] for __ in range(cores)]
        for phase in range(self.phases):
            pattern = self.patterns[phase % len(self.patterns)]
            workload = make_pattern(pattern, sub_config)
            # Distinct regions per phase so phases do not cache-hit on
            # each other.
            workload.base_address = (1 << 28) + phase * (1 << 26) * cores
            for core_id, fragment in enumerate(workload.traces(cores)):
                traces[core_id].extend(fragment)
        return traces


def make_pattern(
    pattern: str, config: SyntheticConfig | None = None
) -> Workload:
    """Factory: ``sequential``, ``random``, ``strided``,
    ``pointer-chase`` or ``streaming``."""
    patterns = {
        "sequential": SequentialWorkload,
        "random": RandomWorkload,
        "strided": StridedWorkload,
        "pointer-chase": PointerChaseWorkload,
        "streaming": StreamingAgentWorkload,
    }
    if pattern not in patterns:
        raise WorkloadError(
            f"unknown pattern {pattern!r}; expected one of {sorted(patterns)}"
        )
    return patterns[pattern](config)
