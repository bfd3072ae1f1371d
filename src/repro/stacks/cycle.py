"""CPI-style cycle stacks for the core model.

Cycle stacks (Eyerman et al., ASPLOS 2006) attribute every core cycle to
what the core was doing: executing instructions (``base``), waiting for
the cache hierarchy (``dcache``), waiting for DRAM — split into the
uncontended part (``dram_latency``) and the queueing part (``dram_queue``)
using the read's latency decomposition — recovering from branch
mispredictions (``branch``), or idle with no work (``idle``).

The paper uses cycle stacks next to the new bandwidth/latency stacks in
Fig. 7; the through-time correlation between the ``dram_*`` cycle
components and the memory stacks is one of its analyses.
"""

from __future__ import annotations

from repro.errors import AccountingError
from repro.stacks.components import Stack, StackSeries, ordered_stack

CYCLE_COMPONENTS = (
    "base",
    "branch",
    "dcache",
    "dram_latency",
    "dram_queue",
    "idle",
)


class CycleStackBuilder:
    """Per-core accumulator of cycle components, binned through time.

    The core model calls :meth:`add` as it advances; bins are fixed-size
    windows of core cycles. Fractional cycles are accepted (a stall can be
    split proportionally between ``dram_latency`` and ``dram_queue``).
    """

    def __init__(self, bin_cycles: int, cycle_ns: float) -> None:
        if bin_cycles < 1:
            raise AccountingError("bin_cycles must be >= 1")
        self.bin_cycles = bin_cycles
        self.cycle_ns = cycle_ns
        self._bins: list[dict[str, float]] = []

    def _bin(self, index: int) -> dict[str, float]:
        while len(self._bins) <= index:
            self._bins.append(dict.fromkeys(CYCLE_COMPONENTS, 0.0))
        return self._bins[index]

    def add(self, component: str, start: float, cycles: float) -> None:
        """Attribute `cycles` starting at core cycle `start`."""
        if component not in CYCLE_COMPONENTS:
            raise AccountingError(f"unknown cycle component {component!r}")
        if cycles < 0:
            raise AccountingError(f"negative cycle count {cycles}")
        if cycles <= 1e-12:
            return
        bin_cycles = self.bin_cycles
        index = int(start // bin_cycles)
        # Fast path: the interval fits inside one bin (the common case —
        # dispatch chunks and stalls are much shorter than a bin).
        if start + cycles <= (index + 1) * bin_cycles:
            bins = self._bins
            if index < len(bins):
                bins[index][component] += cycles
            else:
                self._bin(index)[component] += cycles
            return
        remaining = cycles
        position = start
        while remaining > 1e-12:
            index = int(position // bin_cycles)
            bin_end = (index + 1) * bin_cycles
            chunk = min(remaining, bin_end - position)
            self._bin(index)[component] += chunk
            position += chunk
            remaining -= chunk

    # ------------------------------------------------------------------
    def total_cycles(self) -> float:
        """All cycles accumulated so far."""
        return sum(sum(b.values()) for b in self._bins)

    def stack(self, label: str = "") -> Stack:
        """Aggregate fraction-of-runtime stack (components sum to 1)."""
        total = self.total_cycles()
        if total == 0:
            return ordered_stack({}, CYCLE_COMPONENTS, "fraction", label)
        sums = dict.fromkeys(CYCLE_COMPONENTS, 0.0)
        for b in self._bins:
            for name, value in b.items():
                sums[name] += value
        return ordered_stack(
            {name: value / total for name, value in sums.items()},
            CYCLE_COMPONENTS,
            unit="fraction",
            label=label,
        )

    def _grouped(self, group: int) -> list[dict[str, float]]:
        """Base bins aggregated `group` at a time."""
        if group <= 1:
            return self._bins
        grouped = []
        for start in range(0, len(self._bins), group):
            merged = dict.fromkeys(CYCLE_COMPONENTS, 0.0)
            for b in self._bins[start:start + group]:
                for name, value in b.items():
                    merged[name] += value
            grouped.append(merged)
        return grouped

    def series(self, label: str = "", group: int = 1) -> StackSeries:
        """Through-time fraction-of-runtime stacks, one per bin.

        `group` merges that many base bins per sample, so callers can
        re-bin after the fact.
        """
        stacks = []
        for index, b in enumerate(self._grouped(group)):
            total = sum(b.values())
            if total == 0:
                stacks.append(
                    ordered_stack(
                        {}, CYCLE_COMPONENTS, "fraction", f"{label}[{index}]"
                    )
                )
                continue
            stacks.append(ordered_stack(
                {name: value / total for name, value in b.items()},
                CYCLE_COMPONENTS,
                unit="fraction",
                label=f"{label}[{index}]",
            ))
        return StackSeries(
            stacks, self.bin_cycles * group, self.cycle_ns, label=label
        )

    @staticmethod
    def merge(builders: list["CycleStackBuilder"], label: str = "") -> Stack:
        """Aggregate stack across cores (sums components, then normalizes)."""
        if not builders:
            raise AccountingError("no cycle stacks to merge")
        sums = dict.fromkeys(CYCLE_COMPONENTS, 0.0)
        total = 0.0
        for builder in builders:
            for b in builder._bins:
                for name, value in b.items():
                    sums[name] += value
                    total += value
        if total == 0:
            return ordered_stack({}, CYCLE_COMPONENTS, "fraction", label)
        return ordered_stack(
            {name: value / total for name, value in sums.items()},
            CYCLE_COMPONENTS,
            unit="fraction",
            label=label,
        )

    @staticmethod
    def merge_series(
        builders: list["CycleStackBuilder"], label: str = "", group: int = 1
    ) -> StackSeries:
        """Through-time aggregate across cores (per-bin normalization)."""
        if not builders:
            raise AccountingError("no cycle stacks to merge")
        bin_cycles = builders[0].bin_cycles * max(group, 1)
        cycle_ns = builders[0].cycle_ns
        grouped = [b._grouped(group) for b in builders]
        num_bins = max(len(g) for g in grouped)
        stacks = []
        for index in range(num_bins):
            sums = dict.fromkeys(CYCLE_COMPONENTS, 0.0)
            for bins in grouped:
                if index < len(bins):
                    for name, value in bins[index].items():
                        sums[name] += value
            total = sum(sums.values())
            if total:
                sums = {name: value / total for name, value in sums.items()}
            stacks.append(ordered_stack(
                sums, CYCLE_COMPONENTS, "fraction", f"{label}[{index}]"
            ))
        return StackSeries(stacks, bin_cycles, cycle_ns, label=label)
