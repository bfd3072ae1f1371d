"""Bandwidth stack accounting (Sec. IV of the paper).

Every memory-channel cycle is attributed to exactly one component (or,
for the per-bank split, to bank-sized fractions of one cycle), using the
paper's hierarchical priority:

1. data on the bus                      -> ``read`` / ``write``
2. refresh in progress                  -> ``refresh``
3. >= 1 bank precharging or activating  -> the segment is split 1/n per
   bank; precharging banks feed ``precharge``, activating banks
   ``activate``, banks with a CAS in flight ``constraints``, and idle
   banks ``bank_idle``
4. a *waiting* request blocked by a timing constraint -> ``constraints``;
   a bank-group- or bank-scoped constraint is again split per bank, with
   the non-constrained banks counted as ``bank_idle``; rank- and
   channel-wide constraints take the whole segment
5. otherwise (including cycles where data is merely in flight with no
   request waiting)                     -> ``idle``

The accounting is exact: counters are kept in integer units of 1/n_banks
of a cycle (the paper's footnote 1), and the components always sum to the
total simulated cycles.

The accountant cuts the controller's event log into segments at every
window edge and classifies all of them at once — the paper's "account
multiple cycles in one step", as whole-array passes
(:mod:`repro.stacks.segments`) — so its cost is linear in the number of
DRAM commands, not in simulated cycles.
"""

from __future__ import annotations

from repro.dram.controller import EventLog
from repro.dram.timing import TimingSpec
from repro.errors import AccountingError
from repro.stacks.components import (
    Stack,
    StackSeries,
    ordered_stack,
)
from repro.stacks.segments import ChannelTimeline

#: Canonical component order (bottom of the stack first). ``read`` and
#: ``write`` together are the achieved bandwidth; everything else is lost.
BANDWIDTH_COMPONENTS = (
    "read",
    "write",
    "precharge",
    "activate",
    "refresh",
    "constraints",
    "bank_idle",
    "idle",
)


class BandwidthStackAccountant:
    """Builds bandwidth stacks from a controller event log.

    Args:
        spec: timing spec (bank count, peak bandwidth).
        auditor: optional
            :class:`~repro.reliability.auditor.InvariantAuditor`. Without
            one, any exactness violation raises
            :class:`~repro.errors.AccountingError` immediately (strict);
            with one, the auditor's ``strict``/``warn``/``repair`` policy
            applies — ``repair`` folds residual cycles into ``idle`` and
            clamps overlapping bursts so accounting can continue.
    """

    def __init__(self, spec: TimingSpec, auditor=None) -> None:
        self.spec = spec
        self.num_banks = spec.organization.total_banks
        self.auditor = auditor

    # ------------------------------------------------------------------
    def account_cycles(
        self,
        log: EventLog,
        total_cycles: int,
        bin_cycles: int | None = None,
    ) -> list[dict[str, int]]:
        """Attribute all cycles; returns per-bin integer numerators.

        Each returned dict maps component -> count in units of
        1/num_banks cycles; per bin the counts sum to
        ``num_banks * bin_length`` exactly.
        """
        if total_cycles <= 0:
            raise AccountingError("total_cycles must be positive")
        n = self.num_banks
        if bin_cycles is None:
            bin_cycles = total_cycles
        num_bins = -(-total_cycles // bin_cycles)
        timeline = ChannelTimeline(
            log, total_cycles, n, self._burst_overlap, bin_cycles
        )
        bins: list[dict[str, int]] = [
            dict.fromkeys(BANDWIDTH_COMPONENTS, 0) for _ in range(num_bins)
        ]
        bpg = self.spec.organization.banks_per_group
        for component, units in timeline.units(bpg):
            for counters, count in zip(bins, timeline.per_bin(units)):
                counters[component] += count
        # Exact by construction; the check guards the kernel itself.
        for b, counters in enumerate(bins):
            length = min(total_cycles - b * bin_cycles, bin_cycles)
            residual = n * length - sum(counters.values())
            if residual != 0:
                message = (
                    f"bin {b}: components sum to {sum(counters.values())}, "
                    f"expected {n * length}"
                )
                if self.auditor is None:
                    raise AccountingError(message)
                self.auditor.report(
                    "bandwidth-sum", message, residual=residual,
                    repair=lambda c=counters, r=residual: _repair_bin(c, r),
                )
        return bins

    def _burst_overlap(self, start: int, residual: int) -> None:
        """A burst starting before the previous one ended."""
        message = f"overlapping data bursts at cycle {start}"
        if self.auditor is None:
            raise AccountingError(message)
        self.auditor.report("burst-overlap", message, residual=residual)

    # ------------------------------------------------------------------
    def account(
        self, log: EventLog, total_cycles: int, label: str = ""
    ) -> Stack:
        """One aggregate bandwidth stack in GB/s; totals the peak."""
        counters = self.account_cycles(log, total_cycles)[0]
        return self._to_gbps(counters, total_cycles, label)

    def account_series(
        self,
        log: EventLog,
        total_cycles: int,
        bin_cycles: int,
        label: str = "",
    ) -> StackSeries:
        """Through-time bandwidth stacks, one per `bin_cycles` window."""
        bins = self.account_cycles(log, total_cycles, bin_cycles)
        stacks = []
        for b, counters in enumerate(bins):
            length = min(total_cycles - b * bin_cycles, bin_cycles)
            stacks.append(self._to_gbps(counters, length, f"{label}[{b}]"))
        return StackSeries(
            stacks, bin_cycles, self.spec.cycle_ns, label=label
        )

    def _to_gbps(
        self, counters: dict[str, int], length: int, label: str
    ) -> Stack:
        peak = self.spec.peak_bandwidth_gbps
        scale = peak / (self.num_banks * length)
        stack = ordered_stack(
            {name: count * scale for name, count in counters.items()},
            BANDWIDTH_COMPONENTS,
            unit="GB/s",
            label=label,
        )
        if self.auditor is None:
            stack.check_total(peak)
        else:
            try:
                stack.check_total(peak)
            except AccountingError as error:
                # Already counted at the bin level in repair mode; in
                # warn mode this records that the stack shipped skewed.
                self.auditor.report("bandwidth-total", str(error))
        return stack


    def per_core_achieved(
        self, log: EventLog, total_cycles: int
    ) -> dict[int, dict[str, float]]:
        """Achieved read/write bandwidth per originating core, in GB/s.

        Bursts recorded without a core id (offline logs, injected
        faults) land under core -1.
        """
        if total_cycles <= 0:
            raise AccountingError("total_cycles must be positive")
        cycles: dict[int, dict[str, int]] = {}
        for start, end, is_write, core, __ in log.bursts:
            start = max(start, 0)
            end = min(end, total_cycles)
            if start >= end:
                continue
            bucket = cycles.setdefault(core, {"read": 0, "write": 0})
            bucket["write" if is_write else "read"] += end - start
        scale = self.spec.peak_bandwidth_gbps / total_cycles
        return {
            core: {kind: count * scale for kind, count in bucket.items()}
            for core, bucket in sorted(cycles.items())
        }


def _repair_bin(counters: dict[str, int], residual: int) -> None:
    """Fold a cycle residual into ``idle`` so the bin sums exactly.

    A positive residual (lost cycles) lands in ``idle`` directly; a
    negative one (double-counted cycles) drains ``idle`` first and then
    the largest remaining component.
    """
    counters["idle"] += residual
    if counters["idle"] < 0:
        deficit = -counters["idle"]
        counters["idle"] = 0
        victim = max(
            (name for name in counters if name != "idle"),
            key=lambda name: counters[name],
        )
        counters[victim] -= deficit


def bandwidth_stack_from_log(
    log: EventLog, total_cycles: int, spec: TimingSpec, label: str = ""
) -> Stack:
    """Convenience wrapper: one aggregate GB/s stack from an event log."""
    return BandwidthStackAccountant(spec).account(log, total_cycles, label)
