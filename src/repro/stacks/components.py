"""Stack data structures.

A :class:`Stack` is an ordered mapping of component name to value, with a
unit and a label. The defining invariant — inherited from the paper's "no
double counting" rule — is that the components sum to the stack total
(peak bandwidth, average latency, or total cycles).

A :class:`StackSeries` is a list of stacks over time samples (the paper's
through-time stacks, Fig. 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.errors import AccountingError


@dataclass
class Stack:
    """One stacked bar: ordered components summing to a total.

    Attributes:
        components: component name -> value, in display order (bottom of
            the stack first).
        unit: e.g. ``"GB/s"``, ``"ns"``, ``"cycles"`` or ``"fraction"``.
        label: what this stack describes (e.g. ``"seq 4c"``).
    """

    components: dict[str, float]
    unit: str = ""
    label: str = ""

    @property
    def total(self) -> float:
        """Sum of all components (the top of the stack)."""
        return sum(self.components.values())

    def __getitem__(self, name: str) -> float:
        return self.components.get(name, 0.0)

    def __iter__(self) -> Iterator[tuple[str, float]]:
        return iter(self.components.items())

    def fraction(self, name: str) -> float:
        """Component share of the total (0 when the stack is empty)."""
        total = self.total
        return self[name] / total if total else 0.0

    def scaled(self, factor: float, label: str | None = None) -> "Stack":
        """Every component multiplied by `factor`."""
        return Stack(
            {name: value * factor for name, value in self.components.items()},
            unit=self.unit,
            label=self.label if label is None else label,
        )

    def with_unit(self, factor: float, unit: str) -> "Stack":
        """Scaled copy with a new unit (e.g. cycles -> GB/s)."""
        stack = self.scaled(factor)
        stack.unit = unit
        return stack

    def __add__(self, other: "Stack") -> "Stack":
        if self.unit != other.unit:
            raise AccountingError(
                f"cannot add stacks with units {self.unit!r} and "
                f"{other.unit!r}"
            )
        names = list(self.components)
        names.extend(n for n in other.components if n not in self.components)
        return Stack(
            {n: self[n] + other[n] for n in names},
            unit=self.unit,
            label=self.label,
        )

    def check_total(self, expected: float, tolerance: float = 1e-6) -> None:
        """Raise AccountingError unless components sum to `expected`.

        This is the no-double-counting / no-lost-cycles invariant.
        """
        total = self.total
        scale = max(abs(expected), 1.0)
        if abs(total - expected) > tolerance * scale:
            raise AccountingError(
                f"stack components sum to {total}, expected {expected} "
                f"(unit={self.unit!r}, label={self.label!r})"
            )

    def subset(self, names: Iterable[str]) -> "Stack":
        """Stack restricted to the named components (missing -> 0)."""
        return Stack(
            {name: self[name] for name in names}, unit=self.unit,
            label=self.label,
        )

    def as_rows(self) -> list[tuple[str, float]]:
        """(name, value) rows, bottom of the stack first."""
        return list(self.components.items())

    @staticmethod
    def mean(stacks: list["Stack"], label: str = "") -> "Stack":
        """Component-wise mean of same-unit stacks."""
        if not stacks:
            raise AccountingError("cannot average zero stacks")
        acc = stacks[0]
        for stack in stacks[1:]:
            acc = acc + stack
        return acc.scaled(1.0 / len(stacks), label=label)


@dataclass
class StackSeries:
    """Stacks sampled through time (one per fixed-size time bin)."""

    stacks: list[Stack]
    bin_cycles: int
    cycle_ns: float
    label: str = ""

    def __len__(self) -> int:
        return len(self.stacks)

    def __getitem__(self, index: int) -> Stack:
        return self.stacks[index]

    def __iter__(self) -> Iterator[Stack]:
        return iter(self.stacks)

    @property
    def bin_ns(self) -> float:
        """Bin length in nanoseconds."""
        return self.bin_cycles * self.cycle_ns

    def times_ms(self) -> list[float]:
        """Bin start times in milliseconds."""
        return [i * self.bin_ns / 1e6 for i in range(len(self.stacks))]

    def aggregate(self, label: str = "") -> Stack:
        """Time-weighted aggregate over all bins (equal-size bins)."""
        return Stack.mean(self.stacks, label=label or self.label)

    def component_series(self, name: str) -> list[float]:
        """The value of one component across all bins."""
        return [stack[name] for stack in self.stacks]


def ordered_stack(
    values: Mapping[str, float], order: tuple[str, ...],
    unit: str, label: str,
) -> Stack:
    """Build a Stack with components in canonical `order`."""
    return Stack(
        {name: float(values.get(name, 0.0)) for name in order},
        unit=unit,
        label=label,
    )
