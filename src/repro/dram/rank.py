"""Rank-, bank-group- and channel-level timing constraints.

The :class:`RankTiming` tracker answers "when may this command issue at the
earliest, and which constraint is binding?" for CAS and ACTIVATE commands.
The binding constraint's *scope* (bank group vs. rank/channel) is what the
bandwidth-stack accounting uses to decide whether a blocked interval is
split per-bank (bank-group constraint: other banks could have worked) or
charged fully to the ``constraints`` component (rank-wide constraint:
nothing could have issued anywhere).

This module is on the simulator's innermost loop; the earliest-issue
queries are written as straight-line comparisons, not data-driven loops.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum, auto

from repro.dram.timing import TimingSpec

_NEVER = -(10**9)


class BlockScope(Enum):
    """Scope of the binding timing constraint for a blocked command."""

    NONE = auto()  # not blocked by this tracker
    BANK = auto()  # bank-local (tRCD/tRP/tRAS...)
    BANK_GROUP = auto()  # tCCD_L, tRRD_L, tWTR_L
    RANK = auto()  # turnaround, tCCD_S, tRRD_S, tFAW, tWTR_S
    CHANNEL = auto()  # data bus occupied / in-flight CAS


@dataclass(frozen=True)
class Block:
    """Earliest-issue answer: time plus the binding constraint."""

    time: int
    scope: BlockScope
    reason: str

    @staticmethod
    def free(t: int) -> "Block":
        """An unblocked answer at time t."""
        return Block(t, BlockScope.NONE, "ready")


class SharedBus:
    """Data-bus occupancy shared by all ranks of a channel.

    Consecutive bursts from different ranks need a tRTRS bubble for the
    bus to switch drivers.
    """

    __slots__ = ("free_at", "last_rank")

    def __init__(self) -> None:
        self.free_at = 0
        self.last_rank = -1


class RankTiming:
    """Timing state for one rank.

    Rank-internal constraints (tCCD/tRRD/tFAW/tWTR/turnaround) are
    per-rank; the data bus is shared across ranks via :class:`SharedBus`
    with a tRTRS switching penalty.
    """

    def __init__(
        self,
        spec: TimingSpec,
        rank_id: int = 0,
        bus: SharedBus | None = None,
    ) -> None:
        self._spec = spec
        self.rank_id = rank_id
        self._bus = bus if bus is not None else SharedBus()
        self._tRTRS = spec.tRTRS
        groups = spec.organization.bank_groups
        # Pre-extracted timing constants (attribute lookups are hot).
        self._tCCD_S = spec.tCCD_S
        self._tCCD_L = spec.tCCD_L
        self._tRRD_S = spec.tRRD_S
        self._tRRD_L = spec.tRRD_L
        self._tFAW = spec.tFAW
        self._tWTR_S = spec.tWTR_S
        self._tWTR_L = spec.tWTR_L
        self._tCL = spec.tCL
        self._tCWL = spec.tCWL
        self._burst = spec.burst_cycles
        self._read_to_write = spec.read_to_write

        # Last CAS issue time, per bank group and rank-wide.
        self._last_cas_group = [_NEVER] * groups
        self._last_cas_rank = _NEVER
        # Last ACT issue time, per group and rank-wide; FAW window.
        self._last_act_group = [_NEVER] * groups
        self._last_act_rank = _NEVER
        self._act_window: deque[int] = deque(maxlen=4)
        # Read/write turnaround state.
        self._last_read_issue = _NEVER
        self._last_write_data_end_group = [_NEVER] * groups
        self._last_write_data_end_rank = _NEVER

    # ------------------------------------------------------------------
    # Earliest-issue queries
    # ------------------------------------------------------------------
    def earliest_cas_time(
        self, now: int, bank_group: int, is_write: bool
    ) -> int:
        """Earliest cycle a CAS to `bank_group` may issue (fast path)."""
        t = self._last_cas_group[bank_group] + self._tCCD_L
        t2 = self._last_cas_rank + self._tCCD_S
        if t2 > t:
            t = t2
        if is_write:
            t2 = self._last_read_issue + self._read_to_write
            if t2 > t:
                t = t2
            t2 = self._bus_gate(is_write=True)
        else:
            t2 = self._last_write_data_end_group[bank_group] + self._tWTR_L
            if t2 > t:
                t = t2
            t2 = self._last_write_data_end_rank + self._tWTR_S
            if t2 > t:
                t = t2
            t2 = self._bus_gate(is_write=False)
        if t2 > t:
            t = t2
        return t if t > now else now

    def _bus_gate(self, is_write: bool) -> int:
        """Earliest CAS so its burst starts after the bus frees (plus
        the rank-switch bubble when another rank drove it last)."""
        lead = self._tCWL if is_write else self._tCL
        gate = self._bus.free_at - lead
        if self._bus.last_rank not in (-1, self.rank_id):
            gate += self._tRTRS
        return gate

    def earliest_cas(self, now: int, bank_group: int, is_write: bool) -> Block:
        """Earliest CAS issue plus the binding constraint."""
        t = self.earliest_cas_time(now, bank_group, is_write)
        if t <= now:
            return Block.free(now)
        # Slow path: identify which constraint binds at time t.
        if self._last_cas_group[bank_group] + self._tCCD_L >= t:
            return Block(t, BlockScope.BANK_GROUP, "tCCD_L")
        if self._last_cas_rank + self._tCCD_S >= t:
            return Block(t, BlockScope.RANK, "tCCD_S")
        if is_write:
            if self._last_read_issue + self._read_to_write >= t:
                return Block(t, BlockScope.RANK, "read_to_write")
        else:
            if self._last_write_data_end_group[bank_group] + self._tWTR_L >= t:
                return Block(t, BlockScope.BANK_GROUP, "tWTR_L")
            if self._last_write_data_end_rank + self._tWTR_S >= t:
                return Block(t, BlockScope.RANK, "tWTR_S")
        return Block(t, BlockScope.CHANNEL, "data_bus")

    def earliest_act_time(self, now: int, bank_group: int) -> int:
        """Earliest cycle an ACTIVATE in `bank_group` may issue."""
        t = self._last_act_group[bank_group] + self._tRRD_L
        t2 = self._last_act_rank + self._tRRD_S
        if t2 > t:
            t = t2
        if len(self._act_window) == 4:
            t2 = self._act_window[0] + self._tFAW
            if t2 > t:
                t = t2
        return t if t > now else now

    def earliest_act(self, now: int, bank_group: int) -> Block:
        """Earliest ACTIVATE issue plus the binding constraint."""
        t = self.earliest_act_time(now, bank_group)
        if t <= now:
            return Block.free(now)
        if self._last_act_group[bank_group] + self._tRRD_L >= t:
            return Block(t, BlockScope.BANK_GROUP, "tRRD_L")
        if self._last_act_rank + self._tRRD_S >= t:
            return Block(t, BlockScope.RANK, "tRRD_S")
        return Block(t, BlockScope.RANK, "tFAW")

    # ------------------------------------------------------------------
    # Command recording
    # ------------------------------------------------------------------
    def record_cas(
        self, t: int, bank_group: int, is_write: bool
    ) -> tuple[int, int]:
        """Record a CAS issued at t; returns its (data_start, data_end)."""
        self._last_cas_group[bank_group] = t
        self._last_cas_rank = t
        if is_write:
            data_start = t + self._tCWL
        else:
            data_start = t + self._tCL
            self._last_read_issue = t
        data_end = data_start + self._burst
        if is_write:
            self._last_write_data_end_group[bank_group] = data_end
            self._last_write_data_end_rank = data_end
        if data_end > self._bus.free_at:
            self._bus.free_at = data_end
        self._bus.last_rank = self.rank_id
        return data_start, data_end

    def record_act(self, t: int, bank_group: int) -> None:
        """Record an ACTIVATE issued at t."""
        self._last_act_group[bank_group] = t
        self._last_act_rank = t
        self._act_window.append(t)
