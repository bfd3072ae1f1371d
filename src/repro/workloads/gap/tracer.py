"""Memory layout and trace emission for the GAP kernels.

Kernels declare their arrays in a :class:`MemoryLayout` (page-aligned,
disjoint address ranges) and drive one :class:`CoreTracer` per core.
Sequential scans are coalesced to one trace item per cache line (the
elements in between would be L1 hits and only inflate the trace), while
point accesses — the data-dependent property loads that dominate graph
kernels — emit individually.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.core import TraceItem
from repro.errors import WorkloadError

_PAGE = 8 * 1024
_LINE = 64


@dataclass(frozen=True)
class ArrayRef:
    """A virtual array placed in the simulated address space."""

    name: str
    base: int
    elem_bytes: int
    count: int

    def addr(self, index: int) -> int:
        """Byte address of element `index`."""
        return self.base + index * self.elem_bytes

    def line_of(self, index: int) -> int:
        """Cache-line number of element `index`."""
        return self.addr(index) // _LINE

    @property
    def size_bytes(self) -> int:
        """Array size in bytes."""
        return self.count * self.elem_bytes


class MemoryLayout:
    """Allocates page-aligned virtual arrays for a kernel's data."""

    def __init__(self, base_address: int = 1 << 29) -> None:
        if base_address % _PAGE:
            raise WorkloadError("layout base must be page-aligned")
        self._next = base_address
        self.arrays: dict[str, ArrayRef] = {}

    def array(self, name: str, count: int, elem_bytes: int) -> ArrayRef:
        """Place an array; returns its reference."""
        if name in self.arrays:
            raise WorkloadError(f"array {name!r} already allocated")
        ref = ArrayRef(name, self._next, elem_bytes, count)
        size = count * elem_bytes
        self._next += (size + _PAGE - 1) // _PAGE * _PAGE + _PAGE
        self.arrays[name] = ref
        return ref

    @property
    def footprint_bytes(self) -> int:
        """Total bytes across all arrays."""
        return sum(ref.size_bytes for ref in self.arrays.values())


class CoreTracer:
    """Accumulates one core's trace items.

    Items are interned: each emission looks its field values up in
    `table` and appends the object already built for them, constructing
    a :class:`TraceItem` only on a miss. Graph kernels emit the same
    item over and over (a vertex's offsets line, a popular neighbor's
    property load), so most emissions are hits. Sharing one object
    between trace positions is safe because ``TraceItem`` is frozen.
    :func:`make_tracers` gives the tracers of one kernel run one table,
    which is dropped with them when the run returns its traces.
    """

    def __init__(
        self, core_id: int, table: dict[tuple, TraceItem] | None = None
    ) -> None:
        self.core_id = core_id
        self.items: list[TraceItem] = []
        self._table = {} if table is None else table

    def _emit(self, fields: tuple) -> None:
        """Append the interned item with `fields` (TraceItem order)."""
        item = self._table.get(fields)
        if item is None:
            item = self._table[fields] = TraceItem(*fields)
        self.items.append(item)

    # ------------------------------------------------------------------
    def load(
        self,
        ref: ArrayRef,
        index: int,
        instructions: int = 2,
        dep: int = 0,
    ) -> None:
        """A point load of ``ref[index]``."""
        self._emit((instructions, ref.addr(index), False, dep, 0, False))

    def store(self, ref: ArrayRef, index: int, instructions: int = 1) -> None:
        """A point store to ``ref[index]``."""
        self._emit((instructions, ref.addr(index), True, 0, 0, False))

    def scan(
        self,
        ref: ArrayRef,
        start: int,
        stop: int,
        instructions_per_elem: int = 1,
        store: bool = False,
    ) -> None:
        """A sequential sweep over ``ref[start:stop]``.

        Emits one item per cache line touched; the per-element work is
        folded into the item's instruction count.
        """
        if stop <= start:
            return
        per_line = max(1, _LINE // ref.elem_bytes)
        index = start
        while index < stop:
            line_end = min(stop, (index // per_line + 1) * per_line)
            elems = line_end - index
            self._emit((
                elems * instructions_per_elem, ref.addr(index), store,
                0, 0, False,
            ))
            index = line_end

    def work(self, instructions: int) -> None:
        """Non-memory computation."""
        if instructions > 0:
            self._emit((instructions, -1, False, 0, 0, False))

    def branch(self, mispredicts: int = 1, instructions: int = 2) -> None:
        """A data-dependent, poorly-predicted branch."""
        self._emit((instructions, -1, False, 0, mispredicts, False))

    def barrier(self) -> None:
        """Synchronize with all other cores."""
        self._emit((0, -1, False, 0, 0, True))


def make_tracers(cores: int) -> list[CoreTracer]:
    """One CoreTracer per core, sharing one intern table."""
    table: dict[tuple, TraceItem] = {}
    return [CoreTracer(core_id, table) for core_id in range(cores)]


def barrier_all(tracers: list[CoreTracer]) -> None:
    """Append a barrier item to every tracer."""
    for tracer in tracers:
        tracer.barrier()
