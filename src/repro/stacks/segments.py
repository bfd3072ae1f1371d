"""Whole-array kernels under every stack accountant.

Every stack attributes time by the paper's priority rules, and a rule
only changes its answer at a window edge. These kernels cut the timeline
at all edges at once and apply each rule as a numpy pass over the
resulting elementary segments (bandwidth, Sec. IV) or over the reads
(latency, Sec. V). Accounting then costs a few sorts and array passes,
linear in the number of DRAM commands, with no Python work per segment
or per read.

* :class:`ChannelTimeline` classifies every segment of one channel's
  event log: the burst on the data bus, an all-bank refresh, the banks
  refreshing, precharging, activating or with a CAS in flight, and the
  blocked window that applies. It also gives each bank-state interval
  the requester that owns it, for the per-requester split.
* :func:`latency_split` splits every read's wait by cause, with
  :class:`Cover` answering ``|[lo, hi) & union of windows|`` for whole
  arrays of intervals.

All arithmetic is int64, so every counter is an exact integer, and every
temporary is one-dimensional and O(events).
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import attrgetter, is_, itemgetter
from typing import Iterator

import numpy as np

from repro.dram.rank import BlockScope
from repro.errors import AccountingError

#: Row key for cycles no single requester owns (refresh, idle banks,
#: channel idle, refresh-driven precharges).
SHARED_REQUESTER = -1

#: Blocked-window classes: data in flight with nothing waiting, a
#: bank-group-, bank- or rank/channel-scoped constraint, no window, and
#: a segment a higher-priority rule already took.
INFLIGHT, GROUP, BANK, FULL, UNBLOCKED, TAKEN = range(6)

#: Bank states in priority order (per-bank refresh > precharge >
#: activate > CAS in flight) and the event-log lists that open them.
REF, PRE, ACT, CAS = range(4)
_BANK_LISTS = (
    "bank_refresh_windows", "pre_windows", "act_windows", "cas_windows",
)

_FAR_PAST = -(1 << 62)

_READ_FIELDS = attrgetter(
    "arrival", "cas_issue", "finish", "own_pre_start", "own_pre_end",
    "own_act_start", "own_act_end",
)


def table(rows, width: int, count: int | None = None) -> np.ndarray:
    """``(count, width)`` int64 array of the first `count` tuples."""
    count = len(rows) if count is None else count
    return np.fromiter(
        chain.from_iterable(rows), np.int64, count=count * width
    ).reshape(count, width)


def column(rows, index: int) -> np.ndarray:
    """Field `index` of every tuple in `rows`, as int64."""
    return np.fromiter(
        map(itemgetter(index), rows), np.int64, count=len(rows)
    )


def read_table(reads) -> np.ndarray:
    """Per read: arrival, CAS, finish and its own pre/act windows."""
    return table(map(_READ_FIELDS, reads), 7, len(reads))


def run_ends(*keys: np.ndarray) -> np.ndarray:
    """True at the last element of each run of equal key tuples."""
    last = np.ones(len(keys[0]), bool)
    last[:-1] = np.logical_or.reduce([k[1:] != k[:-1] for k in keys])
    return last


def distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values (a sort beats ``np.unique``'s hashing)."""
    values = np.sort(values)
    return values[run_ends(values)]


def covering(starts: np.ndarray, ends: np.ndarray, t: np.ndarray):
    """1 + the index of the sorted disjoint window holding each t, or 0."""
    k = np.searchsorted(starts, t, side="right")
    return np.where(t < np.concatenate(([_FAR_PAST], ends))[k], k, 0)


def group_sums(keys: np.ndarray, values: np.ndarray) -> Iterator:
    """(key, sum of its values) for every key with a nonzero sum; keys
    are few (requesters), so one masked sum per key."""
    for key in distinct(keys).tolist():
        total = int(values[keys == key].sum())
        if total:
            yield key, total


class Cover:
    """The union of half-open windows, with vectorized overlap queries.

    Windows may come in any order and may overlap or touch; empty and
    backwards windows cover nothing.
    """

    def __init__(self, starts: np.ndarray, ends: np.ndarray) -> None:
        keep = ends > starts
        order = np.argsort(starts[keep], kind="stable")
        starts, ends = starts[keep][order], ends[keep][order]
        reach = np.maximum.accumulate(ends)
        head = np.ones(len(starts), bool)
        head[1:] = starts[1:] > reach[:-1]
        self.starts = starts[head]
        self.ends = reach[np.roll(head, -1)]
        self._before = np.concatenate(
            ([0], np.cumsum(self.ends - self.starts))
        )
        self._ends = np.concatenate(([_FAR_PAST], self.ends))

    @classmethod
    def of(cls, windows) -> "Cover":
        """Cover of a list of ``(start, end, ...)`` tuples."""
        return cls(column(windows, 0), column(windows, 1))

    def contains(self, t: np.ndarray) -> np.ndarray:
        """Whether each t lies inside the union."""
        return covering(self.starts, self.ends, t) > 0

    def _upto(self, t: np.ndarray) -> np.ndarray:
        """``|(-inf, t) & union|`` for each t."""
        k = np.searchsorted(self.starts, t, side="right")
        return self._before[k] - np.maximum(self._ends[k] - t, 0)

    def measure(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """``|[lo, hi) & union|`` per interval (0 when hi <= lo)."""
        return self._upto(np.maximum(hi, lo)) - self._upto(lo)

    def __and__(self, other: "Cover") -> "Cover":
        cuts = distinct(np.concatenate(
            (self.starts, self.ends, other.starts, other.ends)
        ))
        first = cuts[:-1]
        both = self.contains(first) & other.contains(first)
        return Cover(first[both], cuts[1:][both])


def latency_split(
    reads: np.ndarray, refresh: Cover, drain: Cover,
    foreign: Cover | None = None,
) -> dict[str, np.ndarray]:
    """Each read's wait (rows of a :func:`read_table`) split by cause.

    The wait ``W = [arrival, cas)`` splits by priority: ``refresh`` is
    ``|W & R|``, ``writeburst`` ``|W & D - R|`` and ``pre_act``, for the
    read's own precharge/activate windows O, ``|W & O - (R | D)|``.
    Given the bursts F of the other requesters, ``interference`` is
    ``|W & F - (R | D | O)|``. ``queue`` is the rest, so each read's
    parts sum exactly to its wait.
    """
    arrival, cas = reads[:, 0], reads[:, 1]
    stalls = Cover(np.concatenate((refresh.starts, drain.starts)),
                   np.concatenate((refresh.ends, drain.ends)))
    refresh_c = refresh.measure(arrival, cas)
    drain_c = stalls.measure(arrival, cas) - refresh_c
    # The own windows clipped to W (absent ones empty); their union is
    # measured as pre + act - (pre & act).
    (pre_lo, pre_hi), (act_lo, act_hi) = own = [
        (
            np.where(start >= 0, np.maximum(start, arrival), arrival),
            np.where(start >= 0, np.minimum(end, cas), arrival),
        )
        for start, end in ((reads[:, 3], reads[:, 4]),
                           (reads[:, 5], reads[:, 6]))
    ]
    own.append((np.maximum(pre_lo, act_lo), np.minimum(pre_hi, act_hi)))
    own_c = sum(
        sign * (np.maximum(hi - lo, 0) - stalls.measure(lo, hi))
        for sign, (lo, hi) in zip((1, 1, -1), own)
    )
    parts = {
        "pre_act": own_c,
        "refresh": refresh_c,
        "writeburst": drain_c,
        "queue": cas - arrival - refresh_c - drain_c - own_c,
    }
    if foreign is not None:
        stalled = foreign & stalls

        def unstalled(lo, hi):
            return foreign.measure(lo, hi) - stalled.measure(lo, hi)

        inter = unstalled(arrival, cas) - sum(
            sign * unstalled(lo, hi) for sign, (lo, hi) in zip((1, 1, -1), own)
        )
        parts["interference"] = inter
        parts["queue"] = parts["queue"] - inter
    return parts


class ChannelTimeline:
    """One channel's event log cut into elementary segments.

    Segment k is ``[edges[k], edges[k + 1])``. Every window edge inside
    ``[0, total_cycles]`` and every bin boundary is a cut, so each rule
    has one answer per segment: its answer at the segment's first cycle.

    Args:
        log: the channel's event log.
        total_cycles: accounted cycles; windows are clipped to them.
        num_banks: flat banks; bank indices wrap ``% num_banks``.
        bin_cycles: also cut at its multiples, for :meth:`per_bin`.
        owners: also read each window's requester, for :meth:`owned`.

    Raises:
        AccountingError: at the first burst, in ``(start, end,
            is_write)`` order, that starts before cycle 0 or before an
            earlier burst ended.
    """

    def __init__(
        self, log, total_cycles: int, num_banks: int,
        bin_cycles: int | None = None, owners: bool = False,
    ) -> None:
        self.num_banks = num_banks
        self.owners = owners
        self._bursts(log, total_cycles)
        refresh = Cover.of(log.refresh_windows)
        block_start, block_end = column(log.blocked, 0), column(log.blocked, 1)
        bank_lists = [table(getattr(log, name), 4) for name in _BANK_LISTS]
        bins = np.arange(0, total_cycles, bin_cycles or total_cycles)
        cuts = np.concatenate([
            [total_cycles], bins, self.burst_start, self.burst_end,
            refresh.starts, refresh.ends, block_start, block_end,
            *(windows[:, :2].ravel() for windows in bank_lists),
        ])
        self.edges = distinct(np.clip(cuts, 0, total_cycles, out=cuts))
        del cuts
        self.length = np.diff(self.edges)
        self.bin_first = np.searchsorted(self.edges, bins)
        first = self.edges[:-1]
        self.on_bus = covering(self.burst_start, self.burst_end, first)
        self.refreshing = refresh.contains(first)
        self._bank_states(bank_lists)
        self._blocked(log, block_start, block_end, first)

    def _bursts(self, log, total_cycles: int) -> None:
        """Disjoint, sorted burst windows, clipped to the run."""
        bursts = log.bursts
        start, end, write = (column(bursts, i) for i in range(3))
        order = np.lexsort((write, end, start))
        start, end, write = start[order], end[order], write[order]
        reach = np.maximum.accumulate(np.concatenate(([0], end)))[:-1]
        late = start < reach
        if late.any():
            raise AccountingError(
                f"overlapping data bursts at cycle {start[late.argmax()]}"
            )
        end = np.minimum(end, total_cycles)
        keep = start < end
        self.burst_start, self.burst_end = start[keep], end[keep]
        self.burst_write = np.append(False, write[keep] != 0)
        if self.owners:
            owner = column(bursts, 4)[order][keep]
            self.burst_owner = np.append(SHARED_REQUESTER, owner)

    def _bank_states(self, bank_lists) -> None:
        """Per-bank state intervals, and the banks in each state per segment.

        Each (bank, kind) slot counts its open windows, and a bank's
        state is its highest-priority nonzero slot. Sorting every window
        edge by (bank, time) and running one cumulative sum per kind
        gives each bank's state after each of its event times;
        consecutive times bound the intervals. An interval's owner is the
        requester of the most recent start in its slot (the one listed
        last, on a tie).
        """
        n = self.num_banks
        times, banks, deltas, kinds, owners = [], [], [], [], []
        for kind, windows in enumerate(bank_lists):
            m = len(windows)
            times += [windows[:, 0], windows[:, 1]]
            banks += [windows[:, 2] % n] * 2
            deltas.append(np.repeat(np.array([1, -1], np.int8), m))
            kinds.append(np.full(2 * m, kind, np.int8))
            if self.owners:
                owners += [windows[:, 3], np.zeros(m, np.int64)]
        bank = np.concatenate(banks)
        time = np.concatenate(times)
        order = np.lexsort((time, bank))
        bank, time = bank[order], time[order]
        delta = np.concatenate(deltas)[order]
        kind = np.concatenate(kinds)[order]
        points = np.flatnonzero(run_ends(bank, time))
        state = np.zeros(len(points), np.int8)
        for k in (CAS, ACT, PRE, REF):
            opened = np.cumsum(np.where(kind == k, delta, 0))[points]
            state[opened != 0] = k + 1
        # Segment index of each point; an interval ends at the bank's
        # next point (or is empty at its last one).
        edges = self.edges
        start = np.searchsorted(edges, np.clip(time[points], 0, edges[-1]))
        end = start.copy()
        same_bank = bank[points[1:]] == bank[points[:-1]]
        end[:-1] = np.where(same_bank, start[1:], start[:-1])
        live = state != 0
        self.iv_start, self.iv_end = start[live], end[live]
        self.iv_state = state[live] - 1
        self.tally = [
            np.cumsum(
                np.bincount(self.iv_start[chosen], minlength=len(edges))
                - np.bincount(self.iv_end[chosen], minlength=len(edges))
            )[:-1]
            for chosen in (self.iv_state == k for k in range(4))
        ]
        if not self.owners:
            return
        owner = np.concatenate(owners)[order]
        points = points[live]
        self.iv_owner = np.full(len(points), SHARED_REQUESTER, np.int64)
        events = np.arange(len(time))
        for k in (PRE, ACT, CAS):
            chosen = self.iv_state == k
            at = points[chosen]
            recent = np.maximum.accumulate(
                np.where((kind == k) & (delta > 0), events, -1)
            )[at]
            source = np.maximum(recent, 0)
            self.iv_owner[chosen] = np.where(
                (recent >= 0) & (bank[source] == bank[at]),
                owner[source], SHARED_REQUESTER,
            )

    def _blocked(self, log, start, end, first) -> None:
        """The class (and victim) of the blocked window at each segment.

        Of the windows covering a segment's start t, the first in
        ``(start, end)`` order applies; duplicate ``(start, end)`` keys
        take the payload listed last. The first covering window is the
        first whose end exceeds t: a search on the prefix max of ends.
        """
        blocked = log.blocked
        order = np.lexsort((end, start))
        start, end = start[order], end[order]
        first_open = np.searchsorted(
            np.maximum.accumulate(end), first, side="right"
        )
        applies = first_open < np.searchsorted(start, first, side="right")
        key_ends = np.flatnonzero(run_ends(start, end))
        window = np.full(len(first), -1, np.int64)
        window[applies] = order[
            key_ends[np.searchsorted(key_ends, first_open[applies])]
        ]
        inflight = np.fromiter(
            map("data_inflight".__eq__, map(itemgetter(4), blocked)),
            bool, count=len(blocked),
        )
        block_class = np.full(len(blocked) + 1, FULL, np.int8)
        for scope, cls in ((BlockScope.BANK_GROUP, GROUP),
                           (BlockScope.BANK, BANK)):
            block_class[:-1][np.fromiter(
                map(is_, map(itemgetter(2), blocked), repeat(scope)),
                bool, count=len(blocked),
            )] = cls
        block_class[:-1][inflight] = INFLIGHT
        # Index -1 (no window) lands on the trailing UNBLOCKED.
        block_class[-1] = UNBLOCKED
        self.block_class = block_class[window]
        if self.owners:
            victim = np.append(column(blocked, 5), SHARED_REQUESTER)
            foreign = np.append(column(blocked, 6) != 0, False)
            self.block_victim = victim[window]
            self.block_foreign = foreign[window]

    # ------------------------------------------------------------------
    def per_bin(self, units: np.ndarray) -> list[int]:
        """Per-segment units summed per bin."""
        return np.add.reduceat(units, self.bin_first).tolist()

    def _rules(self):
        """Where the bus-idle rules apply: gap, bank-busy, blocked class."""
        gap = self.on_bus == 0
        free = gap & ~self.refreshing
        ref, pre, act, __ = self.tally
        busy = free & ((ref | pre | act) != 0)
        return gap, busy, np.where(free & ~busy, self.block_class, TAKEN)

    def units(self, banks_per_group: int) -> Iterator[tuple[str, np.ndarray]]:
        """(component, per-segment units) in 1/num_banks-cycle units.

        ``constraints`` comes twice: CAS-in-flight banks, then blocked
        waiting.
        """
        n, length = self.num_banks, self.length
        bpg = banks_per_group
        gap, busy, rule = self._rules()
        ref, pre, act, cas = self.tally
        write = self.burst_write[self.on_bus]
        yield "read", length * n * (~gap & ~write)
        yield "write", length * n * write
        yield "refresh", length * (n * (gap & self.refreshing) + ref * busy)
        yield "precharge", length * (pre * busy)
        yield "activate", length * (act * busy)
        yield "constraints", length * (cas * busy)
        # Per blocked class: INFLIGHT, GROUP, BANK, FULL, UNBLOCKED, TAKEN.
        yield "constraints", length * np.array([0, bpg, 1, n, 0, 0])[rule]
        yield "bank_idle", length * (
            (n - ref - pre - act - cas) * busy
            + np.array([0, n - bpg, n - 1, 0, 0, 0])[rule]
        )
        yield "idle", length * np.array([n, 0, 0, 0, n, 0])[rule]

    def owned(self, banks_per_group: int) -> Iterator[tuple[int, str, int]]:
        """(requester, component, units) with every unit routed to its
        owner; blocked waiting is ``interference`` when another
        requester created the binding constraint."""
        n, length = self.num_banks, self.length
        gap, busy, rule = self._rules()
        for component, units in self.units(banks_per_group):
            if component in ("refresh", "bank_idle", "idle"):
                yield SHARED_REQUESTER, component, int(units.sum())
        bus = ~gap
        write = self.burst_write[self.on_bus][bus]
        owner = self.burst_owner[self.on_bus][bus]
        for component, chosen in (("read", ~write), ("write", write)):
            for requester, units in group_sums(
                owner[chosen], n * length[bus][chosen]
            ):
                yield requester, component, units
        busy_before = np.concatenate(([0], np.cumsum(length * busy)))
        span = busy_before[self.iv_end] - busy_before[self.iv_start]
        for k, component in (
            (PRE, "precharge"), (ACT, "activate"), (CAS, "constraints")
        ):
            chosen = self.iv_state == k
            for requester, units in group_sums(
                self.iv_owner[chosen], span[chosen]
            ):
                yield requester, component, units
        waiting = length * np.array([0, banks_per_group, 1, n, 0, 0])[rule]
        for foreign, component in ((False, "constraints"),
                                   (True, "interference")):
            chosen = (self.block_foreign == foreign) & (waiting > 0)
            for requester, units in group_sums(
                self.block_victim[chosen], waiting[chosen]
            ):
                yield requester, component, units
