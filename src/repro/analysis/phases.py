"""Phase detection on through-time stack series.

Applications have phases (the paper's Fig. 7 discussion): different code
or data with different memory behaviour. This module segments a
:class:`~repro.stacks.components.StackSeries` into phases by merging
adjacent time bins whose component vectors are similar, so each phase
can be analyzed (and extrapolated) on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AccountingError
from repro.stacks.components import Stack, StackSeries


@dataclass(frozen=True)
class Phase:
    """One detected phase.

    Attributes:
        first_bin / last_bin: inclusive bin range of the series.
        start_ms / end_ms: wall-clock extent.
        stack: component-wise mean stack over the phase.
    """

    first_bin: int
    last_bin: int
    start_ms: float
    end_ms: float
    stack: Stack

    @property
    def duration_ms(self) -> float:
        """Phase length in milliseconds."""
        return self.end_ms - self.start_ms

    @property
    def bins(self) -> int:
        """Number of time bins in the phase."""
        return self.last_bin - self.first_bin + 1


def _distance(a: Stack, b: Stack, names: tuple[str, ...]) -> float:
    """Normalized L1 distance between two component vectors."""
    scale = max(a.total, b.total, 1e-12)
    return sum(abs(a[name] - b[name]) for name in names) / scale


def detect_phases(
    series: StackSeries,
    threshold: float = 0.25,
    min_bins: int = 1,
) -> list[Phase]:
    """Segment a series into phases of similar stack shape.

    Greedy merge: a bin joins the current phase while its distance to
    the phase's running mean stays below `threshold` (L1 of component
    differences over the stack total). Phases shorter than `min_bins`
    are merged into their neighbor.
    """
    if not len(series):
        raise AccountingError("cannot detect phases in an empty series")
    if threshold <= 0:
        raise AccountingError("threshold must be positive")
    names = tuple(series[0].components)

    groups: list[list[int]] = [[0]]
    mean = series[0]
    for index in range(1, len(series)):
        stack = series[index]
        if _distance(stack, mean, names) <= threshold:
            groups[-1].append(index)
            count = len(groups[-1])
            mean = mean.scaled((count - 1) / count) + stack.scaled(1 / count)
        else:
            groups.append([index])
            mean = stack
    groups = _absorb_short(groups, min_bins)
    groups = _merge_similar(groups, series, names, threshold)

    bin_ms = series.bin_ns / 1e6
    phases = []
    for group in groups:
        stacks = [series[i] for i in group]
        phases.append(Phase(
            first_bin=group[0],
            last_bin=group[-1],
            start_ms=group[0] * bin_ms,
            end_ms=(group[-1] + 1) * bin_ms,
            stack=Stack.mean(
                stacks, label=f"phase[{group[0]}:{group[-1]}]"
            ),
        ))
    return phases


def _absorb_short(groups: list[list[int]], min_bins: int) -> list[list[int]]:
    """Merge groups shorter than `min_bins` into the previous group."""
    if min_bins <= 1:
        return groups
    merged: list[list[int]] = []
    for group in groups:
        if merged and len(group) < min_bins:
            merged[-1].extend(group)
        else:
            merged.append(group)
    # A short leading group joins its successor.
    if len(merged) > 1 and len(merged[0]) < min_bins:
        merged[1] = merged[0] + merged[1]
        merged.pop(0)
    return merged


def _merge_similar(
    groups: list[list[int]],
    series: StackSeries,
    names: tuple[str, ...],
    threshold: float,
) -> list[list[int]]:
    """Re-join adjacent groups that look similar (e.g. after a one-bin
    glitch was absorbed). Per-component medians are used so an absorbed
    outlier bin cannot keep its hosts apart."""

    def median_of(group: list[int]) -> Stack:
        """Per-component median stack of a group."""
        stacks = [series[i] for i in group]
        values = {}
        for name in names:
            ordered = sorted(stack[name] for stack in stacks)
            values[name] = ordered[len(ordered) // 2]
        return Stack(values, unit=series[0].unit)

    merged = [groups[0]]
    for group in groups[1:]:
        if _distance(
            median_of(merged[-1]), median_of(group), names
        ) <= threshold:
            merged[-1] = merged[-1] + group
        else:
            merged.append(group)
    return merged


def describe_phases(
    phases: list[Phase], key_components: tuple[str, ...] = ()
) -> str:
    """Human-readable phase table."""
    lines = [f"{len(phases)} phase(s):"]
    for number, phase in enumerate(phases, start=1):
        parts = [
            f"  {number}: {phase.start_ms:.3f}-{phase.end_ms:.3f} ms "
            f"({phase.bins} bins)"
        ]
        names = key_components or tuple(phase.stack.components)[:3]
        for name in names:
            parts.append(f"{name}={phase.stack[name]:.2f}")
        lines.append(" ".join(parts))
    return "\n".join(lines)
