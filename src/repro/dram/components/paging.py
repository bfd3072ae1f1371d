"""Page policies: what happens to open rows nothing is waiting for.

* ``open`` — rows stay open until a conflicting request precharges
  them (the paper's default). Generates no commands of its own.
* ``closed`` — a bank whose open row has no pending request in either
  queue is precharged proactively, trading row-hit opportunity for
  lower miss latency. Generates policy-precharge candidates that
  compete with request candidates in the scheduler (at a priority that
  never displaces a data command ready in the same cycle).
"""

from __future__ import annotations

import weakref

from repro.dram.bank import Bank
from repro.dram.commands import CommandType


class _BankCoords:
    """Adapter so policy-precharge candidates look like request candidates."""

    def __init__(self, flat: int, bank: Bank, rank: int = 0) -> None:
        self.bank_group = bank.bank_group
        self.bank = bank
        self.flat = flat
        self.rank = rank


class OpenPagePolicy:
    """Leave rows open; the policy itself never issues a command."""

    name = "open"
    generates_commands = False

    def bind(self, controller) -> None:
        """Nothing to bind: the policy keeps no controller state."""

    def plan_candidates(self, open_rows: list[int | None]) -> list[tuple]:
        return []


class ClosedPagePolicy:
    """Precharge banks whose open row has no pending requests."""

    name = "closed"
    generates_commands = True

    def bind(self, controller) -> None:
        """Hold a weak proxy of the controller that owns this policy (a
        strong one would make the pair a reference cycle)."""
        self._ctrl = weakref.proxy(controller)

    def plan_candidates(self, open_rows: list[int | None]) -> list[tuple]:
        """Precharge candidates shaped like the scheduler's
        ``plan_entry`` tuples: ``(key, None, PRECHARGE, coords)``."""
        ctrl = self._ctrl
        result = []
        min_cmd_time = ctrl._last_cmd_issue + 1
        read_queue = ctrl._read_queue
        write_queue = ctrl._write_buffer.queue
        banks = ctrl._banks
        banks_per_rank = ctrl.spec.organization.banks
        now = ctrl.now
        for flat, row in enumerate(open_rows):
            if row is None:
                continue
            if read_queue.has_request_for_row(flat, row):
                continue
            if write_queue.has_request_for_row(flat, row):
                continue
            bank = banks[flat]
            time = max(now, bank.next_pre, min_cmd_time)
            # Priority 3: never displaces a data command ready at the
            # same cycle.
            key = (time, 3, flat)
            rank = flat // banks_per_rank
            result.append((
                key, None, CommandType.PRECHARGE,
                _BankCoords(flat, bank, rank),
            ))
        return result
