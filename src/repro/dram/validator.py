"""Independent JEDEC timing validator.

Replays a recorded command stream against the timing specification and
raises :class:`~repro.errors.TimingViolationError` on the first
violation. This is a *separate* implementation of the protocol rules
from the scheduler's earliest-issue logic, so it catches controller bugs
the scheduler cannot see about itself; the property-test suite pushes
randomized workloads through the controller and validates every
resulting trace.

Checked rules (per rank unless noted):

* bank state: ACT only to a precharged bank, CAS/PRE only to an open one;
* tRCD (ACT→CAS), tRP (PRE→ACT), tRAS (ACT→PRE), tRC (ACT→ACT), same bank;
* tRTP (RD→PRE) and tWR (WR data end→PRE), same bank;
* tCCD_L / tCCD_S between CAS pairs (same / different bank group);
* tRRD_L / tRRD_S and tFAW between ACTs;
* write→read (tCWL+BL+tWTR_{L,S}) and read→write bus-turnaround spacing;
* data-bus occupancy: bursts never overlap, tRTRS between ranks (channel);
* refresh: all banks precharged at REF, nothing issues during tRFC;
* same-bank refresh (REFsb, recorded with ``bank_group >= 0``): the
  target bank precharged (tRP honored), nothing issues *to that bank*
  during tRFCsb — the rest of the channel keeps running.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.dram.commands import Command, CommandType
from repro.dram.timing import TimingSpec
from repro.errors import TimingViolationError

_NEVER = -(10**9)


@dataclass
class _BankState:
    open_row: int | None = None
    last_act: int = _NEVER
    last_pre: int = _NEVER
    last_read: int = _NEVER
    last_write_data_end: int = _NEVER
    refresh_until: int = 0  # same-bank refresh (tRFCsb) fence


@dataclass
class _RankState:
    banks: dict[tuple[int, int], _BankState] = field(default_factory=dict)
    last_cas: int = _NEVER
    last_cas_group: dict[int, int] = field(default_factory=dict)
    last_act: int = _NEVER
    last_act_group: dict[int, int] = field(default_factory=dict)
    act_window: deque = field(default_factory=lambda: deque(maxlen=4))
    last_read_issue: int = _NEVER
    last_write_data_end: int = _NEVER
    last_write_data_end_group: dict[int, int] = field(default_factory=dict)
    refresh_until: int = 0

    def bank(self, bank_group: int, bank: int) -> _BankState:
        """Bank state, created on first touch."""
        return self.banks.setdefault((bank_group, bank), _BankState())


class TimingValidator:
    """Validates a command stream against a :class:`TimingSpec`."""

    def __init__(self, spec: TimingSpec) -> None:
        self.spec = spec
        self._ranks: dict[int, _RankState] = {}
        self._bus_free = 0
        self._bus_rank = -1
        self.commands_checked = 0

    def _rank(self, rank_id: int) -> _RankState:
        return self._ranks.setdefault(rank_id, _RankState())

    # ------------------------------------------------------------------
    def validate(self, commands: list[Command]) -> int:
        """Validate a full stream (must be in issue order).

        Returns the number of commands checked; raises
        TimingViolationError on the first violation.
        """
        last_issue = _NEVER
        for command in commands:
            if command.issue < last_issue:
                raise TimingViolationError(
                    f"commands out of order at t={command.issue}"
                )
            last_issue = command.issue
            self.check(command)
        return self.commands_checked

    def check(self, command: Command) -> None:
        """Validate one command against the accumulated state."""
        handlers = {
            CommandType.ACTIVATE: self._check_act,
            CommandType.PRECHARGE: self._check_pre,
            CommandType.PRECHARGE_ALL: self._check_pre_all,
            CommandType.READ: self._check_cas,
            CommandType.WRITE: self._check_cas,
            CommandType.REFRESH: self._check_refresh,
        }
        handler = handlers.get(command.cmd_type)
        if handler is None:
            return
        if (
            command.cmd_type is CommandType.REFRESH
            and command.bank_group >= 0
        ):
            # Same-bank refresh (REFsb): scoped to one bank of one rank,
            # unlike the channel-wide all-bank REF (bank_group == -1).
            rank = self._rank(command.rank)
            if command.issue < rank.refresh_until:
                self._fail(command, "REFsb during all-bank refresh (tRFC)")
            self._check_refresh_sb(command, rank)
            self.commands_checked += 1
            return
        if command.cmd_type in (
            CommandType.PRECHARGE_ALL, CommandType.REFRESH
        ):
            # Channel-wide commands: the controller precharges and
            # refreshes all ranks jointly.
            for rank in self._all_ranks():
                handler(command, rank)
            self.commands_checked += 1
            return
        rank = self._rank(command.rank)
        if command.issue < rank.refresh_until:
            self._fail(command, "issued during refresh (tRFC)")
        handler(command, rank)
        self.commands_checked += 1

    def _all_ranks(self) -> list[_RankState]:
        ranks = self.spec.organization.ranks
        return [self._rank(r) for r in range(ranks)]

    # ------------------------------------------------------------------
    def _fail(self, command: Command, reason: str) -> None:
        raise TimingViolationError(
            f"{command.cmd_type} at t={command.issue} "
            f"(rank {command.rank}, bg {command.bank_group}, "
            f"bank {command.bank}): {reason}"
        )

    def _check_act(self, command: Command, rank: _RankState) -> None:
        spec = self.spec
        t = command.issue
        bank = rank.bank(command.bank_group, command.bank)
        if t < bank.refresh_until:
            self._fail(
                command, f"tRFCsb: bank refreshing until {bank.refresh_until}"
            )
        if bank.open_row is not None:
            self._fail(command, "ACT to an open bank")
        if t < bank.last_pre + spec.tRP:
            self._fail(command, f"tRP: precharge at {bank.last_pre}")
        if t < bank.last_act + spec.tRC:
            self._fail(command, f"tRC: previous ACT at {bank.last_act}")
        same = rank.last_act_group.get(command.bank_group, _NEVER)
        if t < same + spec.tRRD_L:
            self._fail(command, f"tRRD_L: group ACT at {same}")
        if t < rank.last_act + spec.tRRD_S:
            self._fail(command, f"tRRD_S: rank ACT at {rank.last_act}")
        if len(rank.act_window) == 4 and t < rank.act_window[0] + spec.tFAW:
            self._fail(command, f"tFAW: window head {rank.act_window[0]}")
        bank.open_row = command.row
        bank.last_act = t
        rank.last_act = t
        rank.last_act_group[command.bank_group] = t
        rank.act_window.append(t)

    def _check_pre(self, command: Command, rank: _RankState) -> None:
        spec = self.spec
        t = command.issue
        bank = rank.bank(command.bank_group, command.bank)
        if t < bank.refresh_until:
            self._fail(
                command, f"tRFCsb: bank refreshing until {bank.refresh_until}"
            )
        if bank.open_row is None:
            self._fail(command, "PRE to a precharged bank")
        if t < bank.last_act + spec.tRAS:
            self._fail(command, f"tRAS: ACT at {bank.last_act}")
        if t < bank.last_read + spec.tRTP:
            self._fail(command, f"tRTP: READ at {bank.last_read}")
        if t < bank.last_write_data_end + spec.tWR:
            self._fail(
                command, f"tWR: write data ended {bank.last_write_data_end}"
            )
        bank.open_row = None
        bank.last_pre = t

    def _check_cas(self, command: Command, rank: _RankState) -> None:
        spec = self.spec
        t = command.issue
        is_write = command.cmd_type is CommandType.WRITE
        bank = rank.bank(command.bank_group, command.bank)
        if t < bank.refresh_until:
            self._fail(
                command, f"tRFCsb: bank refreshing until {bank.refresh_until}"
            )
        if bank.open_row is None:
            self._fail(command, "CAS to a precharged bank")
        if command.row >= 0 and bank.open_row != command.row:
            self._fail(
                command,
                f"CAS to row {command.row} but row {bank.open_row} open",
            )
        if t < bank.last_act + spec.tRCD:
            self._fail(command, f"tRCD: ACT at {bank.last_act}")
        same = rank.last_cas_group.get(command.bank_group, _NEVER)
        if t < same + spec.tCCD_L:
            self._fail(command, f"tCCD_L: group CAS at {same}")
        if t < rank.last_cas + spec.tCCD_S:
            self._fail(command, f"tCCD_S: rank CAS at {rank.last_cas}")
        if not is_write:
            wdeg = rank.last_write_data_end_group.get(
                command.bank_group, _NEVER
            )
            if t < wdeg + spec.tWTR_L:
                self._fail(command, f"tWTR_L: write data end {wdeg}")
            if t < rank.last_write_data_end + spec.tWTR_S:
                self._fail(
                    command,
                    f"tWTR_S: write data end {rank.last_write_data_end}",
                )
        else:
            if t < rank.last_read_issue + spec.read_to_write:
                self._fail(
                    command,
                    f"read-to-write: READ at {rank.last_read_issue}",
                )
        # Data bus occupancy (channel-wide).
        lead = spec.tCWL if is_write else spec.tCL
        start = t + lead
        end = start + spec.burst_cycles
        gap = spec.tRTRS if (
            self._bus_rank not in (-1, command.rank)
        ) else 0
        if start < self._bus_free + gap:
            self._fail(
                command,
                f"data bus busy until {self._bus_free} (+{gap} tRTRS)",
            )
        self._bus_free = end
        self._bus_rank = command.rank

        rank.last_cas = t
        rank.last_cas_group[command.bank_group] = t
        if is_write:
            bank.last_write_data_end = end
            rank.last_write_data_end = end
            rank.last_write_data_end_group[command.bank_group] = end
        else:
            bank.last_read = t
            rank.last_read_issue = t

    def _check_pre_all(self, command: Command, rank: _RankState) -> None:
        """Precharge-all ahead of refresh: closes every open bank, with
        the per-bank PRE constraints applied to each."""
        spec = self.spec
        t = command.issue
        for bank in rank.banks.values():
            if bank.open_row is None:
                continue
            if t < bank.last_act + spec.tRAS:
                self._fail(command, f"tRAS (PREA): ACT at {bank.last_act}")
            if t < bank.last_read + spec.tRTP:
                self._fail(command, f"tRTP (PREA): READ at {bank.last_read}")
            if t < bank.last_write_data_end + spec.tWR:
                self._fail(
                    command,
                    f"tWR (PREA): data end {bank.last_write_data_end}",
                )
            bank.open_row = None
            bank.last_pre = t

    def _check_refresh(self, command: Command, rank: _RankState) -> None:
        t = command.issue
        if t < rank.refresh_until:
            self._fail(
                command,
                f"REF issued during refresh (tRFC) "
                f"until {rank.refresh_until}",
            )
        for (bg, b), bank in rank.banks.items():
            if bank.open_row is not None:
                self._fail(
                    command, f"REF with bank {bg}/{b} open"
                )
            # The precharge completing before REF must satisfy tRP.
            if t < bank.last_pre + self.spec.tRP:
                self._fail(command, f"tRP before REF: PRE at {bank.last_pre}")
        if t < self._bus_free:
            self._fail(
                command, f"REF while data in flight until {self._bus_free}"
            )
        rank.refresh_until = t + self.spec.tRFC

    def _check_refresh_sb(self, command: Command, rank: _RankState) -> None:
        """Same-bank refresh: only the target bank is fenced.

        The data bus is deliberately *not* checked — other banks keep
        transferring during a REFsb; that is the point of the policy.
        """
        spec = self.spec
        t = command.issue
        bank = rank.bank(command.bank_group, command.bank)
        if bank.open_row is not None:
            self._fail(command, "REFsb with target bank open")
        if t < bank.last_pre + spec.tRP:
            self._fail(command, f"tRP before REFsb: PRE at {bank.last_pre}")
        if t < bank.refresh_until:
            self._fail(
                command,
                f"REFsb during bank refresh until {bank.refresh_until}",
            )
        tsb = spec.tRFCsb if spec.tRFCsb > 0 else max(1, spec.tRFC // 2)
        bank.refresh_until = t + tsb


def validate_controller(controller) -> int:
    """Validate a finished controller's recorded command stream.

    The controller must have been created with
    ``keep_command_trace=True``. Note: refreshes close banks implicitly
    (the controller's precharge-all before REF is recorded through bank
    state, not as separate commands), so the validator learns about them
    from the REF record.

    The stream is stably sorted by issue time before validation: a
    same-bank refresh is scheduled ahead of its start time while the
    rest of the channel keeps issuing, so the *recorded* order can
    differ from issue order even though the timeline is valid.
    """
    from repro.errors import ConfigurationError

    if not controller.config.keep_command_trace:
        raise ConfigurationError(
            "controller was not recording commands "
            "(set keep_command_trace=True)"
        )
    validator = TimingValidator(controller.spec)
    commands = sorted(controller.log.commands, key=lambda c: c.issue)
    return validator.validate(commands)
