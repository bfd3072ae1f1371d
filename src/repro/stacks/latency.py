"""Latency stack accounting (Sec. V of the paper).

For every read that reached DRAM, its latency (arrival at the controller
to last data beat) is decomposed into:

* ``base`` — the uncontended open-page read time: a fixed controller
  pipeline plus tCL plus the burst. Optionally split into ``base_cntlr``
  and ``base_dram`` (as in the paper's Fig. 7).
* ``pre_act`` — time spent in the request's own precharge/activate on a
  page miss.
* ``refresh`` — waiting while the rank was refreshing.
* ``writeburst`` — waiting while a forced write-buffer drain blocked reads.
* ``queue`` — all remaining waiting (other requests, timing constraints).

Components are measured per read and averaged over reads only — writes do
not stall cores (Sec. V). Prefetch-generated reads are DRAM reads like
any other and are counted; in a prefetcher-covered stream they *are*
the read stream whose latency bounds throughput. The decomposition is
exact: the components of each read sum to its measured latency, so no
latency is double counted or lost.
"""

from __future__ import annotations

import numpy as np

from repro.dram.commands import Request, RequestType
from repro.dram.timing import TimingSpec
from repro.errors import AccountingError
from repro.stacks import intervals as iv
from repro.stacks.components import (
    Stack,
    StackSeries,
    ordered_stack,
)
from repro.stacks.segments import Cover, latency_split, read_table

LATENCY_COMPONENTS = ("base", "pre_act", "refresh", "writeburst", "queue")
LATENCY_COMPONENTS_SPLIT = (
    "base_cntlr", "base_dram", "pre_act", "refresh", "writeburst", "queue",
)


class LatencyStackAccountant:
    """Builds latency stacks from completed read requests.

    Args:
        spec: timing spec (for the base read time and ns conversion).
        base_controller_cycles: fixed front-end cycles added to every
            request (controller pipeline, on-chip network).
        split_base: report ``base_cntlr``/``base_dram`` separately.
    """

    def __init__(
        self,
        spec: TimingSpec,
        base_controller_cycles: int = 0,
        split_base: bool = False,
    ) -> None:
        self.spec = spec
        self.base_controller_cycles = base_controller_cycles
        self.split_base = split_base

    @property
    def components(self) -> tuple[str, ...]:
        """Component order for this configuration."""
        if self.split_base:
            return LATENCY_COMPONENTS_SPLIT
        return LATENCY_COMPONENTS

    # ------------------------------------------------------------------
    def decompose(
        self,
        request: Request,
        refresh_windows: list[tuple[int, int]],
        drain_windows: list[tuple[int, int]],
    ) -> dict[str, float]:
        """Per-read latency components, in cycles: the one-read
        definition the whole-array kernel of :meth:`account` matches."""
        if not request.is_read or request.cas_issue < 0:
            raise AccountingError(
                "latency stacks are built from completed reads only"
            )
        arrival = request.arrival
        cas = request.cas_issue
        finish = request.finish
        base_dram = finish - cas

        # Each hierarchy level only allocates interval lists when its
        # windows actually overlap the wait; the common fully-queued
        # read touches none of them.
        in_refresh = iv.clip(refresh_windows, arrival, cas)
        if in_refresh:
            rest = iv.subtract([(arrival, cas)], in_refresh)
            refresh_c = iv.total_length(in_refresh)
        else:
            rest = [(arrival, cas)]
            refresh_c = 0
        drain_clipped = (
            iv.clip(drain_windows, arrival, cas) if drain_windows else []
        )
        drain_c = 0
        if drain_clipped:
            in_drain = iv.intersect(rest, drain_clipped)
            if in_drain:
                rest = iv.subtract(rest, in_drain)
                drain_c = iv.total_length(in_drain)
        own_c = 0
        pre_start = request.own_pre_start
        act_start = request.own_act_start
        if pre_start >= 0 or act_start >= 0:
            own: list[tuple[int, int]] = []
            if pre_start >= 0:
                own.append((pre_start, request.own_pre_end))
            if act_start >= 0:
                own.append((act_start, request.own_act_end))
            own.sort()
            own_clipped = iv.clip(own, arrival, cas)
            if own_clipped:
                own_c = iv.total_length(iv.intersect(rest, own_clipped))
        queue_c = (cas - arrival) - refresh_c - drain_c - own_c
        parts: dict[str, float] = {
            "pre_act": own_c,
            "refresh": refresh_c,
            "writeburst": drain_c,
            "queue": queue_c,
        }
        if self.split_base:
            parts["base_cntlr"] = self.base_controller_cycles
            parts["base_dram"] = base_dram
        else:
            parts["base"] = self.base_controller_cycles + base_dram
        return parts

    def account(
        self,
        requests: list[Request],
        refresh_windows: list[tuple[int, int]],
        drain_windows: list[tuple[int, int]],
        label: str = "",
    ) -> Stack:
        """Average latency stack over all DRAM reads, in nanoseconds.

        Every read is split by the whole-array kernel; ``queue`` is the
        residual, so each read's parts sum exactly to its measured
        latency. A read with a negative component raises
        :class:`~repro.errors.AccountingError` (:func:`check_parts`).
        """
        reads = self.reads(requests)
        rows = read_table(reads)
        parts = latency_split(
            rows, Cover.of(refresh_windows), Cover.of(drain_windows)
        )
        base_dram = rows[:, 2] - rows[:, 1]
        if self.split_base:
            parts["base_cntlr"] = np.full(
                len(reads), self.base_controller_cycles
            )
            parts["base_dram"] = base_dram
        else:
            parts["base"] = self.base_controller_cycles + base_dram
        check_parts(parts, reads)
        scale = self.spec.cycle_ns / len(reads) if reads else 0.0
        return ordered_stack(
            {
                name: int(values.sum()) * scale
                for name, values in parts.items()
            },
            self.components,
            unit="ns",
            label=label,
        )

    def account_series(
        self,
        requests: list[Request],
        refresh_windows: list[tuple[int, int]],
        drain_windows: list[tuple[int, int]],
        total_cycles: int,
        bin_cycles: int,
        label: str = "",
    ) -> StackSeries:
        """Through-time latency stacks, binned by read completion time."""
        num_bins = -(-total_cycles // bin_cycles)
        buckets: list[list[Request]] = [[] for _ in range(num_bins)]
        for read in self.reads(requests):
            buckets[min(read.finish // bin_cycles, num_bins - 1)].append(read)
        stacks = [
            self.account(
                bucket, refresh_windows, drain_windows, f"{label}[{b}]"
            )
            for b, bucket in enumerate(buckets)
        ]
        return StackSeries(stacks, bin_cycles, self.spec.cycle_ns, label=label)

    def reads(self, requests: list[Request]) -> list[Request]:
        """The completed DRAM reads a latency stack averages over."""
        return [
            r for r in requests
            if r.req_type is RequestType.READ and not r.forwarded
            and r.cas_issue >= 0
        ]


def check_parts(
    parts: dict[str, np.ndarray],
    reads: list[Request],
    which: np.ndarray | None = None,
) -> None:
    """Raise :class:`~repro.errors.AccountingError` for the first read
    with a negative latency component.

    Row i of every array in `parts` belongs to ``reads[which[i]]``, or
    to ``reads[i]`` without `which`. The check is one numpy pass per
    component; a read is looked up only to name it in the error.
    """
    negative = np.logical_or.reduce([values < 0 for values in parts.values()])
    if not negative.any():
        return
    i = int(negative.argmax())
    read = reads[i if which is None else int(which[i])]
    names = [name for name, values in parts.items() if values[i] < 0]
    raise AccountingError(
        f"negative latency component(s) {names} for request {read.req_id} "
        f"(arrival {read.arrival}, cas {read.cas_issue})"
    )


def refresh_windows_for_latency(log) -> list[tuple[int, int]]:
    """The refresh windows a latency stack should account from `log`.

    Under all-bank refresh this returns ``log.refresh_windows``
    untouched (bit-identical to historic accounting). Same-bank
    refresh (``bank_refresh_windows`` non-empty) adds the per-bank
    windows, coalesced with any channel-wide ones — overlapping
    windows must merge or the interval arithmetic would double count.
    A read waiting while *another* bank refreshes is attributed to
    ``refresh`` too; that is the same channel-level approximation the
    all-bank model makes, and the residual ``queue`` component keeps
    each read's decomposition exact either way.
    """
    bank = getattr(log, "bank_refresh_windows", None)
    if not bank:
        return log.refresh_windows
    merged = sorted(
        list(log.refresh_windows) + [(s, e) for s, e, *__ in bank]
    )
    out: list[tuple[int, int]] = []
    for s, e in merged:
        if out and s <= out[-1][1]:
            if e > out[-1][1]:
                out[-1] = (out[-1][0], e)
        else:
            out.append((s, e))
    return out


def latency_stack_from_requests(
    requests: list[Request],
    log,
    spec: TimingSpec,
    base_controller_cycles: int = 0,
    label: str = "",
) -> Stack:
    """Convenience wrapper taking the controller's event log directly."""
    accountant = LatencyStackAccountant(spec, base_controller_cycles)
    return accountant.account(
        requests, refresh_windows_for_latency(log), log.drain_windows, label
    )
