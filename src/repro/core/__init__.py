"""Core architecture: the memory interface and the event bus.

This package holds the seams the simulator is composed along — no
simulation logic:

* :mod:`repro.core.interfaces` — the single-/multi-channel
  :class:`~repro.core.interfaces.MemoryInterface` contract and its
  :class:`~repro.core.interfaces.CompositeMemory` aggregation base;
* :mod:`repro.core.events` — the typed
  :class:`~repro.core.events.EventBus` the execution service publishes
  its job events on.

The controller's policies live in :mod:`repro.dram.components`; the
accounting mechanisms that are the paper's contribution live in
:mod:`repro.stacks`. See ``docs/architecture.md`` for the full map.
"""

from repro.core.events import EventBus
from repro.core.interfaces import CompositeMemory, MemoryInterface

__all__ = [
    "CompositeMemory",
    "EventBus",
    "MemoryInterface",
]
