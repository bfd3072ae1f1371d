"""The request-level memory contract.

:class:`MemoryInterface` is the contract shared by the single-channel
:class:`~repro.dram.controller.MemoryController` and the multi-channel
:class:`~repro.dram.system.MemorySystem`; :class:`CompositeMemory`
implements the multi-channel half of it generically over a channel
list so the forwarding logic exists exactly once.
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
