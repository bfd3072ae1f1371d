"""QoS scheduler policies: multi-requester arbitration.

Two schedulers layer requester-aware arbitration on top of the FR-FCFS
candidate selection (the per-bank oldest/row-hit choice of
:meth:`~repro.dram.scheduler.RequestQueue.candidates`), as an arbiter
stage (:meth:`arbitrate`) between candidate planning and the
(time, priority, age) tournament:

* ``wrr`` — a weighted-round-robin arbiter. Each requester holds a
  credit budget replenished to its weight once every requester with
  pending candidates has exhausted its credits; only the candidates of
  requesters with credits left compete, and within the allowed set the
  usual FR-FCFS (time, priority, age) key picks the winner. Weights are
  given as ``wrr:2,1`` (requester 0 weight 2, requester 1 weight 1,
  everyone else weight 1); bare ``wrr`` is equal-weight round-robin.

* ``bank-reg`` — per-bank bandwidth regulation in the MemGuard style of
  the real-time literature: each (requester, bank) pair may issue at
  most ``budget`` CAS commands per ``period`` cycles; a candidate over
  budget has its earliest issue time pushed to the next period
  boundary, and the wait is recorded as a bank-scope blocked window
  with reason ``"bank_regulation"``. Configured as
  ``bank-reg:period=1000,budget=4``; bare ``bank-reg`` leaves the
  budget unlimited.

Degenerate-case invariance (held by tests/dram/test_qos_properties.py
and the golden suite): with a single requester present, ``wrr`` — and
``bank-reg`` with an unlimited budget — reproduce the ``fr-fcfs``
event log bit for bit.

The arbitration state and its rules live here only. The reference
engine calls :meth:`arbitrate`; the packed engine
(:mod:`repro.dram.packed`) calls the same helpers —
:meth:`WrrScheduler.allowed_requesters` and
:meth:`BankRegScheduler.gate` — from its own candidate scan, and both
engines call :meth:`note_service` on every CAS issue. That state
changes only on CAS issue, which forces a re-plan, so the packed
engine's plan cache stays valid under both arbiters.
"""

from __future__ import annotations

from repro.dram.rank import Block, BlockScope
from repro.dram.components.scheduling import _SchedulerBase
from repro.errors import ConfigurationError


def _parse_weights(params: str) -> tuple[int, ...]:
    """Parse ``"2,1"`` into a weight tuple; empty means equal weights."""
    params = params.strip()
    if not params:
        return ()
    weights = []
    for token in params.split(","):
        try:
            weight = int(token)
        except ValueError:
            raise ConfigurationError(
                f"wrr weights must be integers, got {token!r} in "
                f"{params!r} (expected e.g. 'wrr:2,1')"
            ) from None
        if weight < 1:
            raise ConfigurationError(
                f"wrr weights must be >= 1, got {weight} in {params!r}"
            )
        weights.append(weight)
    return tuple(weights)


def _parse_regulation(params: str) -> tuple[int, int | None]:
    """Parse ``"period=1000,budget=4"``; returns (period, budget)."""
    period = 1000
    budget: int | None = None
    params = params.strip()
    if not params:
        return period, budget
    for token in params.split(","):
        key, sep, value = token.partition("=")
        key = key.strip()
        if not sep or key not in ("period", "budget"):
            raise ConfigurationError(
                f"bank-reg parameter {token!r} not understood (expected "
                f"'bank-reg:period=<cycles>,budget=<cas-per-period>')"
            )
        try:
            number = int(value)
        except ValueError:
            raise ConfigurationError(
                f"bank-reg {key} must be an integer, got {value!r}"
            ) from None
        if number < 1:
            raise ConfigurationError(
                f"bank-reg {key} must be >= 1, got {number}"
            )
        if key == "period":
            period = number
        else:
            budget = number
    return period, budget


class WrrScheduler(_SchedulerBase):
    """Weighted-round-robin arbiter over FR-FCFS candidates."""

    name = "wrr"
    candidate_policy = "fr-fcfs"

    def __init__(self, params: str = "") -> None:
        self.weights = _parse_weights(params)
        self._credits: dict[int, int] = {}

    def bind(self, controller) -> None:
        """Bind as the base does (a weak proxy); start with no credits."""
        super().bind(controller)
        self._credits = {}

    def weight_of(self, requester: int) -> int:
        """Configured weight of a requester (unlisted requesters get 1)."""
        if 0 <= requester < len(self.weights):
            return self.weights[requester]
        return 1

    def note_service(self, requester: int, flat_bank: int, t: int) -> None:
        """A CAS for `requester` issued: charge one credit."""
        credits = self._credits
        credits[requester] = (
            credits.get(requester, self.weight_of(requester)) - 1
        )

    def allowed_requesters(self, pending: set[int]) -> set[int]:
        """Requesters of `pending` that may be served now.

        `pending` holds the requesters of the per-bank candidates. A
        requester never seen before enters the round with a full credit
        budget. When every pending requester is out of credits the
        round ends: all of them are replenished to their weights.
        Replenishment is idempotent across repeated plans of the same
        state (credits only decrease on CAS issue, which forces a
        re-plan), so engines that re-plan at different steps observe
        identical arbitration state.
        """
        credits = self._credits
        weight_of = self.weight_of
        allowed = {
            r for r in pending if credits.get(r, weight_of(r)) > 0
        }
        if not allowed:
            for r in pending:
                credits[r] = weight_of(r)
            return pending
        return allowed

    def arbitrate(self, cands: list[tuple]) -> list[tuple]:
        """Keep the candidates of requesters with credits left."""
        allowed = self.allowed_requesters(
            {cand[1].request.requester_id for cand in cands}
        )
        return [
            cand for cand in cands
            if cand[1].request.requester_id in allowed
        ]


class BankRegScheduler(_SchedulerBase):
    """Per-bank bandwidth regulation over FR-FCFS candidates."""

    name = "bank-reg"
    candidate_policy = "fr-fcfs"

    def __init__(self, params: str = "") -> None:
        self.period, self.budget = _parse_regulation(params)
        # (requester, flat_bank) -> (period_index, cas_count). Only the
        # most recently served period matters: a gate never pushes a
        # candidate further than the next period boundary, where its
        # count restarts at zero.
        self._usage: dict[tuple[int, int], tuple[int, int]] = {}
        # req_ids whose CAS the current plan pushed to a boundary, so
        # block_info can name the regulation (not a DRAM timing gate)
        # as the binding constraint.
        self._gated: set[int] = set()

    def bind(self, controller) -> None:
        """Bind as the base does (a weak proxy); start with no usage."""
        super().bind(controller)
        self._usage = {}
        self._gated = set()

    def note_service(self, requester: int, flat_bank: int, t: int) -> None:
        """A CAS issued at cycle `t`: count it against the period."""
        if self.budget is None:
            return
        period_index = t // self.period
        key = (requester, flat_bank)
        usage = self._usage.get(key)
        if usage is not None and usage[0] == period_index:
            self._usage[key] = (period_index, usage[1] + 1)
        else:
            self._usage[key] = (period_index, 1)

    def gate(self, requester: int, flat_bank: int, time: int) -> int:
        """Earliest cycle a CAS planned for `time` may issue.

        `time` itself while the (requester, bank) pair is within budget
        for `time`'s period, else the next period boundary.
        """
        period_index = time // self.period
        usage = self._usage.get((requester, flat_bank))
        if (
            usage is not None
            and usage[0] == period_index
            and usage[1] >= self.budget
        ):
            return (period_index + 1) * self.period
        return time

    def arbitrate(self, cands: list[tuple]) -> list[tuple]:
        """Push over-budget CAS candidates to their period boundary."""
        self._gated.clear()
        if self.budget is None:
            return cands
        gated = []
        for cand in cands:
            key, entry = cand[0], cand[1]
            if key[1] == 0:
                request = entry.request
                time = self.gate(
                    request.requester_id, entry.flat_bank, key[0]
                )
                if time != key[0]:
                    self._gated.add(request.req_id)
                    cand = ((time, key[1], key[2]),) + cand[1:]
            gated.append(cand)
        return gated

    def block_info(self, entry, cmd_type, coords, issue_at: int) -> Block:
        """Name the regulation gate when it is the binding constraint."""
        if entry is not None and entry.request.req_id in self._gated:
            return Block(issue_at, BlockScope.BANK, "bank_regulation")
        return super().block_info(entry, cmd_type, coords, issue_at)
