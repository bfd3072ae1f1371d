"""Stream prefetcher.

Detects constant-stride streams in the L2 miss sequence and runs ahead of
them. The paper relies on prefetching to explain why the sequential
pattern saturates bandwidth ("caches and prefetchers are very effective
in hiding the memory latency") while the random pattern cannot.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import ConfigurationError, require_int


@dataclass(frozen=True)
class PrefetcherConfig:
    """Stream prefetcher parameters.

    Attributes:
        streams: simultaneously tracked streams, >= 1.
        degree: prefetches issued per triggering access, >= 1.
        distance: how many lines ahead of the demand stream to run,
            >= `degree`.
        enabled: master switch, a bool.
    """

    streams: int = 16
    degree: int = 4
    distance: int = 8
    enabled: bool = True

    def __post_init__(self) -> None:
        for name in ("streams", "degree", "distance"):
            require_int("PrefetcherConfig", name, getattr(self, name), 1)
        if not isinstance(self.enabled, bool):
            raise ConfigurationError(
                f"PrefetcherConfig(enabled=...) must be a bool, "
                f"got {self.enabled!r}"
            )
        if self.distance < self.degree:
            raise ConfigurationError("distance must be >= degree")


class _Stream:
    """One tracked stream: last line, stride, confirmation state.

    ``radius`` caches the match window ``max(2 * |stride|, 8)``; ``lo``
    and ``hi`` cache ``last_line ± radius`` so the per-access stream
    scan is two comparisons with no arithmetic at all.
    """

    __slots__ = (
        "last_line", "stride", "confirmed", "next_prefetch", "radius",
        "lo", "hi",
    )

    def __init__(self, line: int) -> None:
        self.last_line = line
        self.stride = 0
        self.confirmed = False
        self.next_prefetch = line + 1
        self.radius = 8
        self.lo = line - 8
        self.hi = line + 8


class StreamPrefetcher:
    """Per-core stride/stream detector working on line numbers.

    Call :meth:`observe` with every demand access (line number = byte
    address / line size); it returns the lines to prefetch. A stream is
    confirmed after two accesses with the same stride.
    """

    __slots__ = ("config", "_streams", "issued")

    def __init__(self, config: PrefetcherConfig | None = None) -> None:
        self.config = config or PrefetcherConfig()
        self._streams: OrderedDict[int, _Stream] = OrderedDict()
        self.issued = 0

    def observe(self, line: int) -> list[int]:
        """Record a demand access; return line numbers to prefetch."""
        if not self.config.enabled:
            return []
        # Find the tracked stream this access plausibly belongs to and
        # make it the most recently used.
        streams = self._streams
        for key, stream in streams.items():
            if stream.lo <= line <= stream.hi:
                streams.move_to_end(key)
                break
        else:
            self._allocate(line)
            return []
        delta = line - stream.last_line
        if delta == 0:
            return []
        if stream.stride == delta:
            stream.confirmed = True
        else:
            stream.stride = delta
            radius = delta + delta if delta > 0 else -(delta + delta)
            stream.radius = radius if radius > 8 else 8
            stream.confirmed = False
            stream.next_prefetch = line + delta
        stream.last_line = line
        radius = stream.radius
        stream.lo = line - radius
        stream.hi = line + radius
        if not stream.confirmed:
            return []
        return self._issue(stream, line)

    def _issue(self, stream: _Stream, line: int) -> list[int]:
        config = self.config
        horizon = line + stream.stride * config.distance
        prefetches = []
        next_pf = stream.next_prefetch
        # Keep the prefetch pointer strictly ahead of the demand stream.
        if (next_pf - line) * (1 if stream.stride > 0 else -1) <= 0:
            next_pf = line + stream.stride
        for __ in range(config.degree):
            if (horizon - next_pf) * (1 if stream.stride > 0 else -1) < 0:
                break
            prefetches.append(next_pf)
            next_pf += stream.stride
        stream.next_prefetch = next_pf
        self.issued += len(prefetches)
        return prefetches

    # ------------------------------------------------------------------
    def _allocate(self, line: int) -> None:
        if len(self._streams) >= self.config.streams:
            self._streams.popitem(last=False)  # drop LRU stream
        self._streams[line] = _Stream(line)
