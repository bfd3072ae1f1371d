"""Per-bank state machine and timing bookkeeping.

Each bank tracks its open row, the earliest cycle each command type may
issue, and the busy windows (precharge / activate periods) that the
bandwidth-stack accounting turns into ``precharge``, ``activate`` and
``bank_idle`` components.
"""

from __future__ import annotations

from repro.dram.timing import TimingSpec
from repro.errors import ProtocolError


class Bank:
    """State machine for a single DRAM bank.

    The bank does not schedule anything itself; the controller asks it for
    earliest-issue times and informs it when commands are issued. Busy
    windows are appended to the lists the controller hands in, so all banks
    log into one shared event timeline.
    """

    __slots__ = (
        "_spec", "bank_group", "bank", "flat_index", "open_row",
        "next_act", "next_pre", "next_cas", "cas_data_until",
        "_pre_windows", "_act_windows",
        "_tRP", "_tRCD", "_tRAS", "_tRC", "_tWR", "_tRTP",
        "_write_data", "_read_data",
    )

    def __init__(
        self,
        spec: TimingSpec,
        bank_group: int,
        bank: int,
        pre_windows: list[tuple[int, int, int, int]],
        act_windows: list[tuple[int, int, int, int]],
        flat_index: int,
    ) -> None:
        self._spec = spec
        self.bank_group = bank_group
        self.bank = bank
        self.flat_index = flat_index
        self.open_row: int | None = None

        # Timing constants hoisted off the spec: attribute (and derived-
        # property) lookups are measurable on the innermost loop.
        self._tRP = spec.tRP
        self._tRCD = spec.tRCD
        self._tRAS = spec.tRAS
        self._tRC = spec.tRC
        self._tWR = spec.tWR
        self._tRTP = spec.tRTP
        burst = spec.burst_cycles
        self._write_data = spec.tCWL + burst  # CAS issue to write-data end
        self._read_data = spec.tCL + burst  # CAS issue to read-data end

        # Earliest cycle each command class may issue on this bank.
        self.next_act = 0
        self.next_pre = 0
        self.next_cas = 0  # bank-local CAS gate (tRCD after ACT)

        # End of the last data burst this bank sourced; used to mark the
        # bank busy during its own in-flight CAS.
        self.cas_data_until = 0

        self._pre_windows = pre_windows
        self._act_windows = act_windows

    # ------------------------------------------------------------------
    @property
    def is_open(self) -> bool:
        """Whether a row is open in the page buffer."""
        return self.open_row is not None

    # ------------------------------------------------------------------
    # Command application. Callers must respect the earliest-issue times;
    # violations raise ProtocolError/TimingViolationError in strict mode.
    # ------------------------------------------------------------------
    def do_precharge(
        self, t: int, requester: int = -1, record: bool = True
    ) -> None:
        """Issue PRECHARGE at cycle t: close the open row.

        The logged window names `requester`, the request that needed
        the precharge (-1 for refresh). `record=False` (policy/auto
        precharges) updates all timing state but does not log a busy
        window: a precharge issued while nothing is waiting for the
        bank costs no *potential* bandwidth, so the bandwidth stack does
        not show it (the paper: with a closed policy "precharges are
        done in parallel with data transfers").
        """
        if self.open_row is None:
            raise ProtocolError(
                f"PRECHARGE to already-precharged bank "
                f"{self.bank_group}/{self.bank}"
            )
        self.open_row = None
        done = t + self._tRP
        if done > self.next_act:
            self.next_act = done
        if record:
            self._pre_windows.append((t, done, self.flat_index, requester))

    def do_activate(self, t: int, row: int, requester: int = -1) -> None:
        """Issue ACTIVATE at cycle t: open `row` into the page buffer for
        `requester`'s request."""
        if self.open_row is not None:
            raise ProtocolError(
                f"ACTIVATE to open bank {self.bank_group}/{self.bank}"
            )
        self.open_row = row
        ready = t + self._tRCD
        if ready > self.next_cas:
            self.next_cas = ready
        self.next_pre = max(self.next_pre, t + self._tRAS)
        self.next_act = max(self.next_act, t + self._tRC)
        self._act_windows.append((t, ready, self.flat_index, requester))

    def do_cas(self, t: int, is_write: bool) -> None:
        """Issue READ or WRITE at cycle t to the open row."""
        if self.open_row is None:
            raise ProtocolError(
                f"CAS to closed bank {self.bank_group}/{self.bank}"
            )
        if is_write:
            data_end = t + self._write_data
            self.next_pre = max(self.next_pre, data_end + self._tWR)
        else:
            data_end = t + self._read_data
            self.next_pre = max(self.next_pre, t + self._tRTP)
        self.cas_data_until = max(self.cas_data_until, data_end)

    def force_close_for_refresh(self) -> None:
        """Drop the open row ahead of an all-bank refresh."""
        self.open_row = None
