"""Core architecture: component interfaces, event bus, plugin registry.

This package holds the framework the DRAM simulator is composed from —
no simulation logic, only the seams:

* :mod:`repro.core.interfaces` — the component protocols
  (:class:`~repro.core.interfaces.SchedulerPolicy`,
  :class:`~repro.core.interfaces.PagePolicy`,
  :class:`~repro.core.interfaces.WriteDrainPolicy`,
  :class:`~repro.core.interfaces.RefreshPolicy`) plus the shared
  single-/multi-channel :class:`~repro.core.interfaces.MemoryInterface`
  contract and its :class:`~repro.core.interfaces.CompositeMemory`
  aggregation base;
* :mod:`repro.core.events` — the typed
  :class:`~repro.core.events.EventBus` and its event types;
* :mod:`repro.core.registry` — the
  :class:`~repro.core.registry.ComponentRegistry` plugin mechanism.

Concrete component implementations live in
:mod:`repro.dram.components`; the accounting mechanisms that are the
paper's contribution live in :mod:`repro.stacks`. See
``docs/architecture.md`` for the full map.
"""

from repro.core.events import (
    CommandIssued,
    EventBus,
    RefreshStarted,
    RequestAdmitted,
    RequestCompleted,
    SchedulerHeartbeat,
)
from repro.core.interfaces import (
    CompositeMemory,
    MemoryInterface,
    PagePolicy,
    RefreshPolicy,
    SchedulerPolicy,
    WriteDrainPolicy,
)
from repro.core.registry import ComponentRegistry

__all__ = [
    "CommandIssued",
    "ComponentRegistry",
    "CompositeMemory",
    "EventBus",
    "MemoryInterface",
    "PagePolicy",
    "RefreshPolicy",
    "RefreshStarted",
    "RequestAdmitted",
    "RequestCompleted",
    "SchedulerHeartbeat",
    "SchedulerPolicy",
    "WriteDrainPolicy",
]
