"""Scheduler policies: which command issues next.

Two policies live here (the QoS arbiters in
:mod:`repro.dram.components.qos` build on them):

* ``fr-fcfs`` (default, the paper's) — first-ready FCFS with a
  starvation cap;
* ``fcfs`` — strict arrival order: only the globally oldest request is
  a candidate.

A scheduler here is the object-path definition of its policy: the
reference engine re-plans every step through :meth:`reference_plan`,
and the packed engine (:mod:`repro.dram.packed`) runs the same policy
over its struct-of-arrays state. The golden/differential tests in
``tests/golden`` hold the two bit-identical.
"""

from __future__ import annotations

import weakref
from operator import itemgetter

from repro.dram.commands import CommandType
from repro.dram.rank import Block, BlockScope
from repro.dram.scheduler import QueuedRequest

_sort_key = itemgetter(0)


class _SchedulerBase:
    """Per-entry planning and the reference planner shared by all policies."""

    name = "base"
    #: Candidate-selection family understood by
    #: :meth:`repro.dram.scheduler.RequestQueue.candidates`. Arbiters
    #: layered on FR-FCFS selection (``wrr``, ``bank-reg``) keep
    #: ``"fr-fcfs"`` here under their own config name.
    candidate_policy = "fr-fcfs"

    def bind(self, controller) -> None:
        """Wire up to a controller.

        Holds a weak proxy of it: the controller owns this scheduler,
        and a strong reference back would make the pair a reference
        cycle that outlives the run until a full collection.
        """
        self._ctrl = weakref.proxy(controller)
        self._banks = controller._banks
        self._ranks = controller._ranks
        self._page = controller._page

    def plan_entry(self, entry: QueuedRequest, write_mode: bool) -> tuple:
        """Compute (sort_key, entry, command, coords) for a request.

        The sort key orders candidates by earliest issue time, then prefers
        data-moving commands and row hits (FR-FCFS), then age. Binding-
        constraint details are derived lazily by :meth:`block_info` only
        when the chosen candidate actually has to wait.
        """
        ctrl = self._ctrl
        bank = self._banks[entry.flat_bank]
        coords = entry.coords
        rank = self._ranks[coords.rank]
        now = ctrl.now
        min_cmd_time = ctrl._last_cmd_issue + 1
        if bank.open_row == coords.row:
            is_write = entry.request.is_write
            time = rank.earliest_cas_time(
                now, coords.bank_group, is_write
            )
            if bank.next_cas > time:
                time = bank.next_cas
            kind = CommandType.WRITE if is_write else CommandType.READ
            priority = 0
        elif bank.open_row is None:
            time = rank.earliest_act_time(now, coords.bank_group)
            if bank.next_act > time:
                time = bank.next_act
            kind = CommandType.ACTIVATE
            priority = 1
        else:
            time = bank.next_pre if bank.next_pre > now else now
            kind = CommandType.PRECHARGE
            priority = 2
        if min_cmd_time > time:
            time = min_cmd_time
        return ((time, priority, entry.arrival_order), entry, kind, coords)

    def block_info(
        self, entry, cmd_type: CommandType, coords, issue_at: int
    ) -> Block:
        """Binding constraint for a candidate that must wait."""
        ctrl = self._ctrl
        if entry is None:
            return Block(issue_at, BlockScope.BANK, "auto_precharge")
        bank = self._banks[entry.flat_bank]
        if cmd_type is CommandType.PRECHARGE:
            return Block(issue_at, BlockScope.BANK, "tRAS/tWR/tRTP")
        rank = self._ranks[coords.rank]
        if cmd_type is CommandType.ACTIVATE:
            if bank.next_act >= issue_at:
                return Block(issue_at, BlockScope.BANK, "tRP")
            return rank.earliest_act(ctrl.now, coords.bank_group)
        if bank.next_cas >= issue_at:
            return Block(issue_at, BlockScope.BANK, "tRCD")
        return rank.earliest_cas(
            ctrl.now, coords.bank_group, entry.request.is_write
        )

    def arbitrate(self, cands: list[tuple]) -> list[tuple]:
        """Arbiter stage over the planned request candidates.

        FR-FCFS and FCFS pass them through; the QoS arbiters in
        :mod:`repro.dram.components.qos` filter or re-time them.
        """
        return cands

    def reference_plan(self, queue, write_mode: bool) -> tuple | None:
        """Plan one step from scratch: the winning candidate, or None.

        Routes per-entry planning through the *controller's*
        ``_plan_entry`` so reliability drills that monkeypatch the
        planner (``faults.force_stall``) see their patched closure
        called.
        """
        ctrl = self._ctrl
        open_rows = [b.open_row for b in self._banks]
        cands = self.arbitrate([
            ctrl._plan_entry(entry, write_mode)
            for entry in queue.candidates(
                open_rows, self.candidate_policy, ctrl.now
            )
        ])
        if self._page.generates_commands:
            cands += self._page.plan_candidates(open_rows)
        # Keys are unique (request ids / bank indices break ties).
        return min(cands, key=_sort_key, default=None)


class FcfsScheduler(_SchedulerBase):
    """Strict arrival order: only the globally oldest request competes."""

    name = "fcfs"
    candidate_policy = "fcfs"


class FrFcfsScheduler(_SchedulerBase):
    """First-ready FCFS with a starvation cap (the paper's scheduler)."""

    name = "fr-fcfs"
