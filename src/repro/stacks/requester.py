"""Per-requester bandwidth and latency stacks (multi-requester QoS).

The aggregate accountants attribute every channel cycle to a
*component*; this module additionally attributes it to the *requester*
that caused it, which every window of the controller's event log names
(:class:`~repro.dram.components.accounting.EventLog`).

The bandwidth decomposition partitions exactly the same integer units
(1/n_banks of a cycle) as
:class:`~repro.stacks.bandwidth.BandwidthStackAccountant`: both route
the units of one :class:`~repro.stacks.segments.ChannelTimeline`, so it
aggregates back to the channel stack *by construction*:

* data bursts           -> the owning requester's ``read``/``write``;
* precharge/activate    -> the requester whose request triggered the
  command (refresh-driven precharges name requester -1 and land on the
  shared row);
* CAS-in-flight banks   -> the CAS owner's ``constraints``;
* blocked waiting       -> the victim requester: ``interference`` when
  the binding constraint was last touched by a *different* requester,
  ``constraints`` otherwise;
* refresh (all-bank and same-bank), idle banks, channel idle -> the
  shared row (:data:`SHARED_REQUESTER`).

Summing all rows and folding ``interference`` into ``constraints``
reproduces the aggregate channel counters exactly (integer equality —
the conservation property locked down in
``tests/dram/test_qos_properties.py``). With a single requester the
``interference`` row is identically zero.

The latency decomposition extends the aggregate per-read split by
carving ``interference`` out of ``queue``: the cycles of the read's
queueing intervals (arrival to CAS, minus refresh/drain/own-pre-act)
that were covered by *other* requesters' data bursts. The per-read
components still sum exactly to the measured latency. Both splits run
on the whole-array kernels of :mod:`repro.stacks.segments`, the same
ones under the aggregate stacks.
"""

from __future__ import annotations

from operator import attrgetter

import numpy as np

from repro.dram.commands import Request
from repro.dram.components.accounting import EventLog
from repro.dram.timing import TimingSpec
from repro.errors import AccountingError
from repro.stacks.components import Stack, ordered_stack
from repro.stacks.latency import (
    LatencyStackAccountant,
    check_parts,
    refresh_windows_for_latency,
)
from repro.stacks.segments import (
    SHARED_REQUESTER,
    ChannelTimeline,
    Cover,
    column,
    latency_split,
    read_table,
)

#: Canonical per-requester bandwidth component order. ``interference``
#: is the only addition over the aggregate components: waiting caused
#: by another requester's command, reported separately from the
#: requester's self-inflicted ``constraints``.
REQUESTER_BANDWIDTH_COMPONENTS = (
    "read",
    "write",
    "precharge",
    "activate",
    "refresh",
    "constraints",
    "interference",
    "bank_idle",
    "idle",
)

#: Per-requester latency component order (aggregate order with
#: ``interference`` carved out of ``queue``).
REQUESTER_LATENCY_COMPONENTS = (
    "base", "pre_act", "refresh", "writeburst", "interference", "queue",
)


def fold_interference(rows: dict[int, dict[str, int]]) -> dict[str, int]:
    """Sum requester rows back into aggregate-shaped channel counters.

    ``interference`` folds into ``constraints`` (the aggregate does not
    distinguish who caused a wait). The result is directly comparable
    to ``BandwidthStackAccountant.account_cycles(...)[0]``.
    """
    merged: dict[str, int] = {}
    for counters in rows.values():
        for name, value in counters.items():
            key = "constraints" if name == "interference" else name
            merged[key] = merged.get(key, 0) + value
    return merged


class RequesterBandwidthAccountant:
    """Per-requester bandwidth decomposition of a controller event log.

    Like the aggregate accountant, any exactness violation raises
    :class:`~repro.errors.AccountingError`.
    """

    def __init__(self, spec: TimingSpec) -> None:
        self.spec = spec
        self.num_banks = spec.organization.total_banks

    # ------------------------------------------------------------------
    def account_cycles(
        self, log: EventLog, total_cycles: int
    ) -> dict[int, dict[str, int]]:
        """Attribute all cycles; returns integer counters per requester.

        Each row maps component -> count in units of 1/num_banks
        cycles; across rows the counts sum to
        ``num_banks * total_cycles`` exactly.
        """
        if total_cycles <= 0:
            raise AccountingError("total_cycles must be positive")
        n = self.num_banks
        timeline = ChannelTimeline(log, total_cycles, n, owners=True)
        rows: dict[int, dict[str, int]] = {}
        for requester, component, units in timeline.owned(
            self.spec.organization.banks_per_group
        ):
            if units:  # a row only for requesters that own cycles
                rows.setdefault(requester, dict.fromkeys(
                    REQUESTER_BANDWIDTH_COMPONENTS, 0
                ))[component] += units
        total = sum(sum(row.values()) for row in rows.values())
        if total != n * total_cycles:
            raise AccountingError(
                f"per-requester components sum to {total}, expected "
                f"{n * total_cycles}"
            )
        return {r: rows[r] for r in sorted(rows)}

    # ------------------------------------------------------------------
    def account(
        self, log: EventLog, total_cycles: int, label: str = ""
    ) -> dict[int, Stack]:
        """Per-requester bandwidth stacks in GB/s.

        The rows share the aggregate stack's scale: summed across
        requesters (interference included) they total the peak
        bandwidth, so each row reads as that requester's share of the
        channel.
        """
        rows = self.account_cycles(log, total_cycles)
        peak = self.spec.peak_bandwidth_gbps
        scale = peak / (self.num_banks * total_cycles)
        return {
            requester: ordered_stack(
                {name: count * scale for name, count in counters.items()},
                REQUESTER_BANDWIDTH_COMPONENTS,
                unit="GB/s",
                label=f"{label}R{requester}" if requester >= 0
                else f"{label}shared",
            )
            for requester, counters in rows.items()
        }


class RequesterLatencyAccountant:
    """Per-requester latency stacks with an interference component.

    For each requester's reads the aggregate decomposition applies
    unchanged, except that the cycles of the read's queueing intervals
    covered by *other* requesters' data bursts move from ``queue`` to
    ``interference``. Per read the components still sum exactly to the
    measured latency; with one requester ``interference`` is zero and
    the split degenerates to the aggregate's. A read with a negative
    component raises :class:`~repro.errors.AccountingError`, as in the
    aggregate stack.
    """

    def __init__(
        self,
        spec: TimingSpec,
        base_controller_cycles: int = 0,
    ) -> None:
        self.spec = spec
        self.base_controller_cycles = base_controller_cycles
        self._base = LatencyStackAccountant(spec, base_controller_cycles)

    def account(
        self, requests: list[Request], log: EventLog, label: str = ""
    ) -> dict[int, Stack]:
        """Average per-requester latency stacks over DRAM reads, in ns."""
        reads = self._base.reads(requests)
        rows = read_table(reads)
        requester_of = np.fromiter(
            map(attrgetter("requester_id"), reads), np.int64,
            count=len(reads),
        )
        refresh = Cover.of(refresh_windows_for_latency(log))
        drain = Cover.of(log.drain_windows)
        burst_start, burst_end = column(log.bursts, 0), column(log.bursts, 1)
        burst_owner = column(log.bursts, 4)
        stacks: dict[int, Stack] = {}
        for requester in np.unique(requester_of).tolist():
            which = np.flatnonzero(requester_of == requester)
            mine = rows[which]
            others = (burst_owner != requester) & (
                burst_owner != SHARED_REQUESTER
            )
            parts = latency_split(
                mine, refresh, drain,
                Cover(burst_start[others], burst_end[others]),
            )
            parts["base"] = (
                self.base_controller_cycles + mine[:, 2] - mine[:, 1]
            )
            check_parts(parts, reads, which)
            scale = self.spec.cycle_ns / len(mine)
            stacks[requester] = ordered_stack(
                {name: int(values.sum()) * scale
                 for name, values in parts.items()},
                REQUESTER_LATENCY_COMPONENTS,
                unit="ns",
                label=f"{label}R{requester}",
            )
        return stacks
