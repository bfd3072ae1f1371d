"""Tests for the GAP memory layout and trace emission."""

import pytest

from repro.cpu.core import TraceItem
from repro.errors import WorkloadError
from repro.workloads.gap import bc, bfs, cc, pr, sssp, tc
from repro.workloads.gap.graph import kronecker_graph
from repro.workloads.gap.suite import GAP_KERNELS, make_kernel
from repro.workloads.gap.tracer import (
    ArrayRef,
    CoreTracer,
    MemoryLayout,
    barrier_all,
    make_tracers,
)

_KERNEL_MODULES = (bc, bfs, cc, pr, sssp, tc)


class TestMemoryLayout:
    def test_arrays_are_disjoint_and_page_aligned(self):
        layout = MemoryLayout()
        a = layout.array("a", 1000, 8)
        b = layout.array("b", 500, 4)
        assert a.base % 8192 == 0
        assert b.base % 8192 == 0
        assert b.base >= a.base + a.size_bytes

    def test_duplicate_name_rejected(self):
        layout = MemoryLayout()
        layout.array("x", 10, 4)
        with pytest.raises(WorkloadError):
            layout.array("x", 10, 4)

    def test_footprint(self):
        layout = MemoryLayout()
        layout.array("a", 100, 8)
        layout.array("b", 100, 4)
        assert layout.footprint_bytes == 1200

    def test_unaligned_base_rejected(self):
        with pytest.raises(WorkloadError):
            MemoryLayout(base_address=1000)

    def test_addressing(self):
        ref = ArrayRef("x", 8192, 8, 100)
        assert ref.addr(0) == 8192
        assert ref.addr(10) == 8192 + 80
        assert ref.line_of(8) == (8192 + 64) // 64


class TestCoreTracer:
    def test_load_store_emit_items(self):
        ref = ArrayRef("x", 8192, 8, 100)
        tracer = CoreTracer(0)
        tracer.load(ref, 3, instructions=5, dep=2)
        tracer.store(ref, 4)
        load, store = tracer.items
        assert load.address == ref.addr(3)
        assert load.instructions == 5
        assert load.dependency_distance == 2
        assert store.is_store

    def test_scan_coalesces_to_lines(self):
        # 8-byte elements: 8 per cache line; a 32-element scan touches
        # 4 lines -> 4 items.
        ref = ArrayRef("x", 8192, 8, 1000)
        tracer = CoreTracer(0)
        tracer.scan(ref, 0, 32, instructions_per_elem=2)
        assert len(tracer.items) == 4
        assert all(item.instructions == 16 for item in tracer.items)

    def test_scan_partial_lines(self):
        ref = ArrayRef("x", 8192, 8, 1000)
        tracer = CoreTracer(0)
        tracer.scan(ref, 5, 11)  # crosses one line boundary
        assert len(tracer.items) == 2
        assert sum(item.instructions for item in tracer.items) == 6

    def test_scan_empty_range(self):
        ref = ArrayRef("x", 8192, 8, 100)
        tracer = CoreTracer(0)
        tracer.scan(ref, 10, 10)
        assert tracer.items == []

    def test_scan_store_flag(self):
        ref = ArrayRef("x", 8192, 8, 100)
        tracer = CoreTracer(0)
        tracer.scan(ref, 0, 8, store=True)
        assert all(item.is_store for item in tracer.items)

    def test_work_and_branch(self):
        tracer = CoreTracer(0)
        tracer.work(100)
        tracer.work(0)  # no-op
        tracer.branch(mispredicts=2)
        assert len(tracer.items) == 2
        assert tracer.items[0].instructions == 100
        assert tracer.items[1].branch_mispredicts == 2

    def test_barrier_all(self):
        tracers = make_tracers(3)
        barrier_all(tracers)
        assert all(t.items[-1].barrier for t in tracers)

    def test_wide_elements_one_item_per_element(self):
        # 64-byte elements: every element its own line.
        ref = ArrayRef("x", 8192, 64, 100)
        tracer = CoreTracer(0)
        tracer.scan(ref, 0, 5)
        assert len(tracer.items) == 5


class FreshTracer:
    """The emission methods with no interning: every call builds a new
    TraceItem. The reference the interning tracer must match."""

    def __init__(self, core_id: int) -> None:
        self.core_id = core_id
        self.items: list[TraceItem] = []

    def load(self, ref, index, instructions=2, dep=0):
        self.items.append(TraceItem(
            instructions=instructions,
            address=ref.addr(index),
            dependency_distance=dep,
        ))

    def store(self, ref, index, instructions=1):
        self.items.append(TraceItem(
            instructions=instructions,
            address=ref.addr(index),
            is_store=True,
        ))

    def scan(self, ref, start, stop, instructions_per_elem=1, store=False):
        if stop <= start:
            return
        per_line = max(1, 64 // ref.elem_bytes)
        index = start
        while index < stop:
            line_end = min(stop, (index // per_line + 1) * per_line)
            self.items.append(TraceItem(
                instructions=(line_end - index) * instructions_per_elem,
                address=ref.addr(index),
                is_store=store,
            ))
            index = line_end

    def work(self, instructions):
        if instructions > 0:
            self.items.append(TraceItem(instructions=instructions))

    def branch(self, mispredicts=1, instructions=2):
        self.items.append(TraceItem(
            instructions=instructions, branch_mispredicts=mispredicts,
        ))

    def barrier(self):
        self.items.append(TraceItem(barrier=True))


def run_kernel(name: str, cores: int = 2):
    """One kernel run on a small Kronecker graph; returns its traces."""
    graph = kronecker_graph(7, degree=8, weighted=(name == "sssp"), seed=3)
    return make_kernel(name, graph).generate(cores)


class TestInterning:
    REF = ArrayRef("x", 8192, 8, 1000)

    @pytest.mark.parametrize("emit", [
        lambda t, ref: t.load(ref, 3, instructions=2, dep=4),
        lambda t, ref: t.store(ref, 3),
        lambda t, ref: t.scan(ref, 8, 16, store=True),
        lambda t, ref: t.work(7),
        lambda t, ref: t.branch(mispredicts=0, instructions=1),
        lambda t, ref: t.barrier(),
    ], ids=["load", "store", "scan", "work", "branch", "barrier"])
    def test_equal_calls_append_one_object(self, emit):
        tracer = CoreTracer(0)
        for __ in range(3):
            emit(tracer, self.REF)
        first, *rest = tracer.items
        assert len(rest) == 2
        assert all(item is first for item in rest)

    def test_kinds_of_access_to_one_address_stay_apart(self):
        tracer = CoreTracer(0)
        tracer.load(self.REF, 8, instructions=1)
        tracer.store(self.REF, 8, instructions=1)
        tracer.scan(self.REF, 8, 10, store=True)
        load, store, scan = tracer.items
        assert len({id(load), id(store), id(scan)}) == 3
        address = self.REF.addr(8)
        assert load == TraceItem(instructions=1, address=address)
        assert store == TraceItem(
            instructions=1, address=address, is_store=True,
        )
        assert scan == TraceItem(
            instructions=2, address=address, is_store=True,
        )

    def test_equal_items_from_different_calls_share(self):
        # A one-element store scan is the same item as a point store.
        tracer = CoreTracer(0)
        tracer.store(self.REF, 8, instructions=1)
        tracer.scan(self.REF, 8, 9, store=True)
        store, scan = tracer.items
        assert scan is store

    def test_loads_differing_in_dep_or_instructions_stay_apart(self):
        tracer = CoreTracer(0)
        tracer.load(self.REF, 5, instructions=2, dep=0)
        tracer.load(self.REF, 5, instructions=2, dep=4)
        tracer.load(self.REF, 5, instructions=3, dep=0)
        plain, dependent, longer = tracer.items
        assert len({id(plain), id(dependent), id(longer)}) == 3
        assert (plain.dependency_distance, plain.instructions) == (0, 2)
        assert (dependent.dependency_distance,
                dependent.instructions) == (4, 2)
        assert (longer.dependency_distance, longer.instructions) == (0, 3)

    def test_scan_line_and_load_of_one_line_stay_apart(self):
        # Equal address and instruction count: a scan line carries no
        # dependency, a store scan is a store; a load with dep=1 must
        # not be mistaken for either (True == 1 in a key).
        tracer = CoreTracer(0)
        tracer.scan(self.REF, 0, 8)
        tracer.scan(self.REF, 0, 8, store=True)
        tracer.load(self.REF, 0, instructions=8, dep=1)
        line, store_line, load = tracer.items
        assert len({id(line), id(store_line), id(load)}) == 3
        assert line == TraceItem(instructions=8, address=self.REF.addr(0))
        assert store_line == TraceItem(
            instructions=8, address=self.REF.addr(0), is_store=True,
        )
        assert load == TraceItem(
            instructions=8, address=self.REF.addr(0), dependency_distance=1,
        )

    def test_tracers_of_one_run_share_a_table(self):
        first, second = make_tracers(2)
        first.load(self.REF, 3)
        second.load(self.REF, 3)
        assert second.items[0] is first.items[0]

    @pytest.mark.parametrize("name", GAP_KERNELS)
    def test_kernel_traces_match_fresh_items(self, name, monkeypatch):
        expected = run_kernel(name)
        for module in _KERNEL_MODULES:
            monkeypatch.setattr(
                module, "make_tracers",
                lambda cores: [FreshTracer(core) for core in range(cores)],
            )
        fresh = run_kernel(name)
        assert [len(trace) for trace in expected] == [
            len(trace) for trace in fresh
        ]
        assert expected == fresh

    @pytest.mark.parametrize("name", GAP_KERNELS)
    def test_runs_share_no_items(self, name):
        first = run_kernel(name)
        second = run_kernel(name)
        assert first == second
        ids = {id(item) for trace in first for item in trace}
        assert not any(id(item) in ids for trace in second for item in trace)
