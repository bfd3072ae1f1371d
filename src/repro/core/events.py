"""Typed publish/subscribe hub for batch-progress events.

The execution service publishes its job lifecycle topics
(:mod:`repro.service.events`) on an :class:`EventBus`, and progress
consumers (:class:`~repro.viz.live.BatchProgressMeter`, the CLI
``batch`` printer) subscribe to the types they care about instead of
polling service internals.

The simulator publishes nothing here: the complete, replayable timeline
of a run is the controller's
:class:`~repro.dram.components.accounting.EventLog`, which the stack
accountants consume offline, and the forward-progress watchdog is
called directly by the controller it guards.
"""

from __future__ import annotations

from typing import Any, Callable, Type

__all__ = ["EventBus"]


Handler = Callable[[Any], None]


class EventBus:
    """Type-keyed publish/subscribe hub."""

    def __init__(self) -> None:
        self._handlers: dict[Type, list[Handler]] = {}

    def subscribe(self, event_type: Type, handler: Handler) -> Handler:
        """Register `handler` for events of `event_type`; returns it."""
        self._handlers.setdefault(event_type, []).append(handler)
        return handler

    def unsubscribe(self, event_type: Type, handler: Handler) -> None:
        """Remove a handler registered with :meth:`subscribe`.

        Unknown handlers are ignored, so detach paths are idempotent.
        """
        handlers = self._handlers.get(event_type)
        if handlers is not None and handler in handlers:
            handlers.remove(handler)

    def publish(self, event: Any) -> None:
        """Deliver `event` to every handler of its exact type."""
        handlers = self._handlers.get(type(event))
        if handlers:
            for handler in handlers:
                handler(event)
