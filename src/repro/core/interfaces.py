"""Component interfaces of the memory-controller architecture.

The controller monolith is decomposed into four concerns, each behind a
narrow protocol and registered in a :mod:`repro.core.registry`
registry keyed by the config strings of
:class:`~repro.dram.controller.ControllerConfig`:

* :class:`SchedulerPolicy` — which command issues next (``fr-fcfs``,
  ``fcfs``, the ``wrr`` and ``bank-reg`` QoS arbiters);
* :class:`PagePolicy` — what happens to open rows with no pending work
  (``open``, ``closed``);
* :class:`WriteDrainPolicy` — when the write buffer preempts reads
  (``watermark``, ``burst``);
* :class:`RefreshPolicy` — when and how refresh happens
  (``all-bank``, ``same-bank``, ``none``).

The concrete implementations live in :mod:`repro.dram.components`.

:class:`MemoryInterface` is the request-level contract shared by the
single-channel :class:`~repro.dram.controller.MemoryController` and the
multi-channel :class:`~repro.dram.system.MemorySystem`;
:class:`CompositeMemory` implements the multi-channel half of it
generically over a channel list so the forwarding logic exists exactly
once.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Protocol,
    Sequence,
    runtime_checkable,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dram.commands import Request

__all__ = [
    "CompositeMemory",
    "MemoryInterface",
    "PagePolicy",
    "RefreshPolicy",
    "SchedulerPolicy",
    "WriteDrainPolicy",
]


@runtime_checkable
class MemoryInterface(Protocol):
    """Request-level contract of a memory device (one or many channels).

    Implemented by :class:`~repro.dram.controller.MemoryController`
    (the real engine) and :class:`~repro.dram.system.MemorySystem`
    (channel composition). Drivers — :class:`~repro.cpu.system.CpuSystem`,
    the experiment runners — should depend on this protocol only.
    """

    @property
    def now(self) -> int: ...

    @property
    def pending_requests(self) -> int: ...

    def enqueue(self, request: "Request") -> None: ...

    def run_until(self, t_limit: int) -> list["Request"]: ...

    def drain(self) -> list["Request"]: ...

    def finalize(self) -> None: ...


class CompositeMemory:
    """Multi-channel aggregation over an ordered channel list.

    Subclasses provide :attr:`channels` (a sequence of
    :class:`MemoryInterface` devices) plus request routing; every
    run/drain/pending/finalize forwarding shim lives here, once, so the
    single- and multi-channel paths cannot drift.
    """

    @property
    def channels(self) -> Sequence[Any]:
        """The per-channel devices, in channel order."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """The latest channel clock."""
        return max(ch.now for ch in self.channels)

    @property
    def pending_requests(self) -> int:
        """Requests outstanding across all channels."""
        return sum(ch.pending_requests for ch in self.channels)

    @property
    def queued_requests(self) -> int:
        """Requests admitted but unserved, across all channels."""
        return sum(ch.queued_requests for ch in self.channels)

    @property
    def pending_reads(self) -> int:
        """Reads accepted but not yet completed, across all channels."""
        return sum(ch.pending_reads for ch in self.channels)

    def run_until_next_read(self, t_limit: int = 1 << 62) -> list["Request"]:
        """Advance until some channel completes a read (or `t_limit`).

        Channels with pending reads advance one at a time; once one
        yields a read completion its finish time bounds how far the
        remaining channels run, so no channel overshoots the earliest
        completion by more than its own single-step granularity (a
        channel driven past a later-rescinded bound rewinds its clock,
        see ``MemoryController._run`` — time limits are floors).
        Returns immediately when no channel has a read pending.
        """
        if not any(ch.pending_reads for ch in self.channels):
            return []
        bound = t_limit
        collected: list["Request"] = []
        for ch in self.channels:
            if not ch.pending_reads:
                continue
            done = ch.run_until_next_read(bound)
            collected.extend(done)
            for request in done:
                if request.is_read and request.finish < bound:
                    bound = request.finish
        collected.sort(key=lambda r: r.finish)
        return collected

    def run_until(self, t_limit: int) -> list["Request"]:
        """Advance every channel to `t_limit`; returns completions
        merged across channels in finish order."""
        return self._merge(ch.run_until(t_limit) for ch in self.channels)

    def drain(self) -> list["Request"]:
        """Run all channels until empty; returns merged completions."""
        return self._merge(ch.drain() for ch in self.channels)

    def finalize(self) -> None:
        """Close accounting windows on every channel."""
        for ch in self.channels:
            ch.finalize()

    @staticmethod
    def _merge(per_channel) -> list["Request"]:
        done: list["Request"] = []
        for completions in per_channel:
            done.extend(completions)
        done.sort(key=lambda r: r.finish)
        return done


# ----------------------------------------------------------------------
# Controller component protocols
# ----------------------------------------------------------------------
class SchedulerPolicy(Protocol):
    """Decides which command the controller issues next.

    This is the object-path (reference engine) contract: the controller
    re-plans every step through :meth:`reference_plan`. The packed
    engine runs the stock policies over its own arrays, so a custom
    policy runs under ``engine="reference"``.
    """

    name: str

    def bind(self, controller: Any) -> None:
        """Capture the controller's banks/ranks/page policy."""
        ...

    def reference_plan(
        self, queue: Any, write_mode: bool
    ) -> "tuple | None":
        """The winning ``(key, entry, cmd_type, coords)``, or None.

        `queue` is the active request queue (write buffer's when
        `write_mode`, else the read queue)."""
        ...

    def plan_entry(self, entry: Any, write_mode: bool) -> tuple:
        """``(sort_key, entry, command, coords)`` for one candidate
        (also reached through the fault-injection patch point)."""
        ...

    def block_info(
        self, entry: Any, cmd_type: Any, coords: Any, issue_at: int
    ) -> Any:
        """The binding constraint of a planned command that must wait."""
        ...


class PagePolicy(Protocol):
    """What happens to open rows nothing is waiting for."""

    name: str
    #: Whether the scheduler must scan for policy precharges at all.
    generates_commands: bool

    def bind(self, controller: Any) -> None: ...

    def plan_candidates(self, open_rows: list) -> list[tuple]:
        """Policy-generated candidates shaped like ``plan_entry``'s."""
        ...


class WriteDrainPolicy(Protocol):
    """When buffered writes preempt reads.

    Owns the drain state machine and the forced-drain windows consumed
    by the ``writeburst`` latency attribution.
    """

    name: str
    draining: bool
    windows: list[tuple[int, int]]

    def update(self, now: int, occupancy: int, reads_pending: bool) -> bool:
        """Advance the state machine on the buffer's `occupancy`; True
        while writes have priority."""
        ...

    def finalize(self, now: int) -> None:
        """Close an in-progress drain window at end of simulation."""
        ...


class RefreshPolicy(Protocol):
    """When and how the DRAM is refreshed.

    ``next_due`` and ``until`` are plain int attributes (not
    properties): the controller's scheduling loop reads them every
    step.
    """

    name: str
    next_due: int
    until: int

    def bind(self, controller: Any) -> None: ...

    def perform(self, now: int) -> None:
        """Run one refresh sequence starting at `now`."""
        ...
