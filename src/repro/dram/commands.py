"""DRAM command and request types.

A *request* is what the processor side sends to the memory controller: a
read or a write of one cache line. A *command* is what the controller sends
to the DRAM devices over the command bus: ACTIVATE, PRECHARGE, READ, WRITE,
REFRESH. One request expands to one CAS command (READ/WRITE), possibly
preceded by PRECHARGE and/or ACTIVATE when the target row is not open.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum, auto


class RequestType(Enum):
    """Processor-side memory request kind."""

    READ = auto()
    WRITE = auto()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name.lower()


class CommandType(Enum):
    """DRAM command-bus command kind."""

    ACTIVATE = auto()
    PRECHARGE = auto()
    PRECHARGE_ALL = auto()
    READ = auto()
    WRITE = auto()
    REFRESH = auto()

    @property
    def is_cas(self) -> bool:
        """Whether this command transfers data on the data bus."""
        return self in (CommandType.READ, CommandType.WRITE)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name.lower()


#: Request ids, monotone for the life of the process. They double as
#: age tie-breakers in the scheduler.
_request_ids = itertools.count()


@dataclass(slots=True)
class Request:
    """A cache-line-sized memory request as seen by the controller.

    Attributes:
        req_type: read or write.
        address: physical byte address (cache-line aligned internally).
        arrival: memory-clock cycle at which the request reached the
            controller queue.
        core_id: originating core, used for per-core statistics.
        requester_id: QoS requester domain the request belongs to. Several
            cores may share one requester (a CPU cluster), and a streaming
            agent (GPU/DMA model) gets its own id. The default 0 puts every
            request in a single domain, which reproduces the original
            single-requester behaviour bit for bit.
        is_prefetch: prefetch-generated reads; they count as demand traffic
            for bandwidth purposes but are excluded from latency stacks.
        meta: free-form tag for callers. The CPU model keeps the
            request's waiters here, a list of ``(core, load)`` pairs whose
            loads point back at the request; it sets ``meta`` to None once
            the request is delivered or drained, so the pair forms no
            reference cycle. Nothing reads ``meta`` after delivery.

    The order of the first seven fields, ``req_type`` through ``meta``,
    is load-bearing: the CPU model's hot path passes them by position.
    """

    req_type: RequestType
    address: int
    arrival: int
    core_id: int = 0
    requester_id: int = 0
    is_prefetch: bool = False
    meta: object = None
    req_id: int = field(default_factory=_request_ids.__next__)

    # Fields filled in by the controller during service. They are part of
    # the public record: latency accounting reads them after completion.
    cas_issue: int = -1
    data_start: int = -1
    finish: int = -1
    row_hit: bool = False
    row_open_on_arrival: bool = False
    own_pre_start: int = -1
    own_pre_end: int = -1
    own_act_start: int = -1
    own_act_end: int = -1
    forwarded: bool = False

    @property
    def is_read(self) -> bool:
        """Whether this is a read request."""
        return self.req_type is RequestType.READ

    @property
    def is_write(self) -> bool:
        """Whether this is a write request."""
        return self.req_type is RequestType.WRITE

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Request({self.req_type}, addr={self.address:#x}, "
            f"arrival={self.arrival}, id={self.req_id})"
        )


@dataclass(frozen=True)
class Command:
    """A single DRAM command as issued on the command bus.

    Commands are recorded in issue order; together with the timing spec they
    fully determine the channel timeline, which is what both the online and
    the offline (trace-driven) stack accounting consume.
    """

    cmd_type: CommandType
    issue: int
    rank: int = 0
    bank_group: int = -1
    bank: int = -1
    row: int = -1
    column: int = -1
    req_id: int = -1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Command({self.cmd_type}, t={self.issue}, "
            f"bg={self.bank_group}, bank={self.bank})"
        )
