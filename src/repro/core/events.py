"""Structured event bus for the memory-controller pipeline.

The controller publishes small, typed events at its decision points —
command issue, queue admission, refresh, request completion, and a
periodic scheduling heartbeat — and anything that wants to observe a
run subscribes to the types it cares about instead of reaching into
controller internals. Live subscribers today: the forward-progress
watchdog (:class:`~repro.reliability.watchdog.ForwardProgressWatchdog`
listens to :class:`SchedulerHeartbeat`) and the live utilization meter
(:class:`~repro.viz.live.LiveUtilizationMeter` listens to
:class:`CommandIssued` / :class:`RefreshStarted`).

The complete, replayable timeline (every burst, per-bank command
window, refresh/drain/blocked interval) is recorded in the
controller's :class:`~repro.dram.components.accounting.EventLog` and
consumed offline by the stack accountants; the bus carries the *online*
stream.

Performance contract: publishing costs one truthiness check on an empty
handler list when nobody subscribed. :meth:`EventBus.handlers` returns
the live, identity-stable handler list for a type, so hot loops can
hoist the lookup out of the loop and still observe later subscriptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Type

__all__ = [
    "EventBus",
    "CommandIssued",
    "RequestAdmitted",
    "RequestCompleted",
    "RequesterStalled",
    "RefreshStarted",
    "SchedulerHeartbeat",
]


@dataclass(frozen=True, slots=True)
class CommandIssued:
    """A DRAM command left the controller.

    ``command`` is the :class:`~repro.dram.commands.CommandType` name
    (``"ACTIVATE"``, ``"PRECHARGE"``, ``"READ"``, ``"WRITE"``, ...);
    ``flat_bank`` is -1 for all-bank commands and ``req_id`` /
    ``requester_id`` are -1 for commands not tied to a request (policy
    precharges, refresh).
    """

    cycle: int
    command: str
    flat_bank: int
    bank_group: int
    rank: int
    row: int
    req_id: int
    requester_id: int = -1


@dataclass(frozen=True, slots=True)
class RequestAdmitted:
    """A request moved from the arrival heap into a queue (or was
    forwarded from the write buffer, in which case ``forwarded`` is
    True and it never reaches DRAM)."""

    cycle: int
    req_id: int
    is_write: bool
    flat_bank: int
    forwarded: bool
    requester_id: int = 0


@dataclass(frozen=True, slots=True)
class RequestCompleted:
    """A request's data arrived (its ``finish`` cycle was reached)."""

    cycle: int
    req_id: int
    is_read: bool
    finish: int
    requester_id: int = 0


@dataclass(frozen=True, slots=True)
class RequesterStalled:
    """The scheduler's best candidate had to wait behind a resource last
    touched by a *different* requester (cross-requester interference).

    Published when the controller records a blocked window classified as
    interference: ``requester_id`` is the victim whose candidate waits,
    ``blocker_id`` the requester whose earlier command created the
    binding constraint, and ``[cycle, until)`` the waiting window.
    ``reason`` matches the blocked-window reason string in the event
    log (e.g. ``"tRCD"``, ``"bus_busy"``).
    """

    cycle: int
    until: int
    requester_id: int
    blocker_id: int
    reason: str


@dataclass(frozen=True, slots=True)
class RefreshStarted:
    """An all-bank refresh window ``[start, end)`` opened."""

    start: int
    end: int


@dataclass(frozen=True, slots=True)
class SchedulerHeartbeat:
    """Periodic scheduling-loop beat (every ~32 steps when subscribed).

    Carries the controller itself so diagnostic subscribers (the
    watchdog) can take a full :meth:`stall_snapshot` only when they
    actually declare a problem.
    """

    cycle: int
    last_command_cycle: int
    queued_requests: int
    controller: Any


Handler = Callable[[Any], None]


class EventBus:
    """Type-keyed publish/subscribe hub.

    Handlers for an event type are kept in one list whose *identity*
    never changes, so publishers may cache ``bus.handlers(T)`` once and
    use its truthiness as the "anyone listening?" fast check forever.
    """

    def __init__(self) -> None:
        self._handlers: dict[Type, list[Handler]] = {}

    def handlers(self, event_type: Type) -> list[Handler]:
        """The live handler list for `event_type` (stable identity)."""
        handlers = self._handlers.get(event_type)
        if handlers is None:
            handlers = self._handlers[event_type] = []
        return handlers

    def subscribe(self, event_type: Type, handler: Handler) -> Handler:
        """Register `handler` for events of `event_type`; returns it."""
        self.handlers(event_type).append(handler)
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

    def has_subscribers(self, event_type: Type) -> bool:
        """Whether anyone is listening for `event_type`."""
        return bool(self._handlers.get(event_type))

    def subscriber_count(self, event_type: Type) -> int:
        """Number of handlers registered for `event_type`."""
        return len(self._handlers.get(event_type, ()))
