"""Spans around the simulator's layer entry points, for the traced pass.

:meth:`Tracer.installed` replaces each public entry point of
:func:`entry_points` on its class by a wrapper that records a span, and
puts the original back on exit. Spans are folded into per-layer totals
as they close: a layer's self time is the duration of its spans minus
the part covered by their child spans, so nested calls (a composite
memory forwarding to its channels, a core enqueueing into the
controller) are counted once, in the innermost layer. Timed passes
never install the wrappers.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter
from typing import Callable, Iterator

from repro.core.interfaces import CompositeMemory
from repro.cpu.core import IntervalCore
from repro.cpu.system import CpuSystem
from repro.dram.controller import MemoryController
from repro.dram.system import MemorySystem
from repro.reliability.auditor import InvariantAuditor
from repro.reliability.guard import ReliabilityGuard
from repro.stacks.bandwidth import BandwidthStackAccountant
from repro.stacks.latency import LatencyStackAccountant
from repro.stacks.requester import (
    RequesterBandwidthAccountant,
    RequesterLatencyAccountant,
)
from repro.workloads.base import Workload
from repro.workloads.gap import GapWorkload

LAYERS = (
    "workloads", "cpu.core", "cpu.system", "reliability", "dram.controller",
    "dram.system", "stacks.bandwidth", "stacks.latency", "stacks.requester",
)

#: The calls that feed and step a memory; a composite inherits all but
#: ``enqueue`` from ``CompositeMemory``.
_CONTROL = ("enqueue", "run_until", "run_until_next_read", "drain", "finalize")


def entry_points() -> list[tuple[str, type, tuple[str, ...]]]:
    """(layer, class, method names) whose calls are that layer's spans."""
    generators = [
        cls for cls in _subclasses(Workload) if "traces" in vars(cls)
    ]
    return [
        *(("workloads", cls, ("traces",)) for cls in generators),
        ("workloads", GapWorkload, ("__init__",)),
        ("cpu.core", IntervalCore, ("advance", "complete_request")),
        ("cpu.system", CpuSystem, ("__init__", "run")),
        ("reliability", InvariantAuditor, ("audit_log_increment",)),
        ("reliability", ReliabilityGuard, ("finish",)),
        ("dram.controller", MemoryController, _CONTROL),
        ("dram.system", MemorySystem, ("enqueue",)),
        ("dram.system", CompositeMemory, _CONTROL[1:]),
        (
            "stacks.bandwidth", BandwidthStackAccountant,
            ("account", "account_series"),
        ),
        ("stacks.bandwidth", MemorySystem, ("bandwidth_stack",)),
        (
            "stacks.latency", LatencyStackAccountant,
            ("account", "account_series"),
        ),
        ("stacks.latency", MemorySystem, ("latency_stack",)),
        ("stacks.requester", RequesterBandwidthAccountant, ("account",)),
        ("stacks.requester", RequesterLatencyAccountant, ("account",)),
    ]


def _subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found += [sub, *_subclasses(sub)]
    return found


def wrapped_attributes() -> dict[tuple[type, str], object]:
    """The current value of every attribute a tracer replaces."""
    return {
        (cls, name): vars(cls)[name]
        for __, cls, names in entry_points()
        for name in names
    }


class Tracer:
    """Per-layer self time and call counts from spans.

    Attributes:
        self_s: layer -> seconds spent in the layer itself.
        calls: layer -> spans recorded.
        edges: (parent layer, child layer) -> spans nested that way.
        top_s: summed duration of spans with no parent; equals the sum
            of every layer's self time.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.edges: Counter[tuple[str, str]] = Counter()
        self.top_s = 0.0
        #: Open spans, innermost last: [layer, seconds covered by children].
        self._open: list[list] = []

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every entry point for the duration of the block."""
        originals = wrapped_attributes()
        try:
            for layer, cls, names in entry_points():
                for name in names:
                    setattr(cls, name, self.wrap(layer, vars(cls)[name]))
            yield self
        finally:
            for (cls, name), original in originals.items():
                setattr(cls, name, original)

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """`fn` recording one span of `layer` per call."""
        clock = self.clock
        open_spans = self._open

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [layer, 0.0]
            open_spans.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                open_spans.pop()
                self.self_s[layer] += elapsed - frame[1]
                self.calls[layer] += 1
                if open_spans:
                    parent = open_spans[-1]
                    parent[1] += elapsed
                    self.edges[parent[0], layer] += 1
                else:
                    self.top_s += elapsed

        return span
