"""A per-cycle oracle for the whole-array stack kernels.

The accountants classify whole segments of the timeline at once
(:mod:`repro.stacks.segments`). The oracle here applies the paper's
priority rules literally instead, one cycle at a time, and hypothesis
checks all four accountants against it on small random event logs:
overlapping same-slot windows, duplicate windows with different
requesters or payloads, same-bank refresh, windows running past the end
of the run, negative and out-of-range bank indices, shared (-1)
requesters, and multi-bin series.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.commands import Request, RequestType
from repro.dram.components.accounting import EventLog
from repro.dram.rank import BlockScope
from repro.dram.timing import DDR4_2400
from repro.errors import AccountingError
from repro.stacks.bandwidth import (
    BANDWIDTH_COMPONENTS,
    BandwidthStackAccountant,
)
from repro.stacks.latency import (
    LatencyStackAccountant,
    refresh_windows_for_latency,
)
from repro.stacks.requester import (
    REQUESTER_LATENCY_COMPONENTS,
    SHARED_REQUESTER,
    RequesterBandwidthAccountant,
    RequesterLatencyAccountant,
)

SPEC = DDR4_2400
N = SPEC.organization.total_banks
BPG = SPEC.organization.banks_per_group
SHARED = SHARED_REQUESTER


# --------------------------------------------------------------- oracle
def covers(window, t: int) -> bool:
    return window[0] <= t < window[1]


def owner_at(log, kind: str, bank: int, t: int) -> int:
    """Requester of the most recent ``kind`` start at or before t on
    `bank` (the one listed last, on a tie)."""
    windows = getattr(log, f"{kind}_windows")
    latest = None
    for i, (start, __, b, __) in enumerate(windows):
        if b % N == bank and start <= t and (
            latest is None or start >= windows[latest][0]
        ):
            latest = i
    return windows[latest][3]


def cycle_units(log, t: int) -> list[tuple[int, str, int]]:
    """(requester, component, units) of cycle t by the paper's rules."""
    on_bus = sorted(
        (b[:3], i) for i, b in enumerate(log.bursts) if covers(b, t)
    )
    if on_bus:
        (__, __, is_write), i = on_bus[0]
        owner = log.bursts[i][4]
        return [(owner, "write" if is_write else "read", N)]
    if any(covers(w, t) for w in log.refresh_windows):
        return [(SHARED, "refresh", N)]
    states = []
    for bank in range(N):
        state = None
        for kind in ("bank_refresh", "pre", "act", "cas"):
            if any(
                w[2] % N == bank and covers(w, t)
                for w in getattr(log, f"{kind}_windows")
            ):
                state = kind
                break
        states.append(state)
    if any(s in ("bank_refresh", "pre", "act") for s in states):
        units = []
        for bank, state in enumerate(states):
            if state is None:
                units.append((SHARED, "bank_idle", 1))
            elif state == "bank_refresh":
                units.append((SHARED, "refresh", 1))
            else:
                component = {"pre": "precharge", "act": "activate",
                             "cas": "constraints"}[state]
                units.append((owner_at(log, state, bank, t), component, 1))
        return units
    keys = sorted(w[:2] for w in log.blocked if covers(w, t))
    if keys:
        i = max(j for j, w in enumerate(log.blocked) if w[:2] == keys[0])
        __, __, scope, __, reason, victim, foreign = log.blocked[i]
        waiting = "interference" if foreign else "constraints"
        if reason == "data_inflight":
            return [(SHARED, "idle", N)]
        if scope is BlockScope.BANK_GROUP:
            return [(victim, waiting, BPG), (SHARED, "bank_idle", N - BPG)]
        if scope is BlockScope.BANK:
            return [(victim, waiting, 1), (SHARED, "bank_idle", N - 1)]
        return [(victim, waiting, N)]
    return [(SHARED, "idle", N)]


def oracle_bins(log, total: int, bin_cycles: int) -> list[dict[str, int]]:
    bins = []
    for start in range(0, total, bin_cycles):
        counters = dict.fromkeys(BANDWIDTH_COMPONENTS, 0)
        for t in range(start, min(start + bin_cycles, total)):
            for __, component, units in cycle_units(log, t):
                if component == "interference":
                    component = "constraints"
                counters[component] += units
        bins.append(counters)
    return bins


def oracle_rows(log, total: int) -> dict[int, dict[str, int]]:
    rows: dict[int, dict[str, int]] = {}
    for t in range(total):
        for requester, component, units in cycle_units(log, t):
            row = rows.setdefault(requester, {})
            row[component] = row.get(component, 0) + units
    return rows


def wait_parts(read, refresh, drain, foreign=()) -> dict[str, int]:
    """One read's waiting cycles by cause, cycle by cycle."""
    own = [
        w for w in ((read.own_pre_start, read.own_pre_end),
                    (read.own_act_start, read.own_act_end))
        if w[0] >= 0
    ]
    parts = dict.fromkeys(
        ("refresh", "writeburst", "pre_act", "interference", "queue"), 0
    )
    for t in range(read.arrival, read.cas_issue):
        for name, windows in (
            ("refresh", refresh), ("writeburst", drain), ("pre_act", own),
            ("interference", foreign), ("queue", [(t, t + 1)]),
        ):
            if any(covers(w, t) for w in windows):
                parts[name] += 1
                break
    return parts


# ----------------------------------------------------------- strategies
def spans(max_start: int = 70, max_length: int = 14):
    return st.tuples(
        st.integers(0, max_start), st.integers(0, max_length)
    ).map(lambda p: (p[0], p[0] + p[1]))


#: Requesters (and cores) of reads; a window may name the shared row.
requesters = st.integers(0, 2)
owners = st.integers(SHARED, 2)
#: Bank indices past both ends wrap modulo the bank count.
bank_windows = st.lists(
    st.tuples(spans(), st.integers(-5, N + 4), owners).map(
        lambda p: (*p[0], p[1], p[2])
    ),
    max_size=8,
)
reasons = st.sampled_from(["tCCD_L", "bus", "data_inflight"])
foreign = st.booleans()
scopes = st.sampled_from(list(BlockScope))


@st.composite
def event_logs(draw, overlapping_bursts: bool = False):
    total = draw(st.integers(1, 60))
    bursts, t = [], 0
    for __ in range(draw(st.integers(0, 8))):
        if overlapping_bursts:
            start = draw(st.integers(0, total + 4))
        else:
            start = t + draw(st.integers(0, 10))
        t = start + draw(st.integers(0, 8))
        bursts.append((
            start, t, draw(st.booleans()), draw(requesters), draw(owners),
        ))
    # Half the logs keep every bank quiet, so blocked windows decide.
    quiet = draw(st.booleans())
    pre, act, cas, bank_refresh = (
        [] if quiet else draw(bank_windows) for __ in range(4)
    )
    for windows in (pre, act, cas):
        # The same (start, end, bank), another requester: the window
        # listed last owns the interval.
        repeated = windows[:draw(st.integers(0, 1))]
        windows += [w[:3] + (draw(owners),) for w in repeated]
    blocked = [
        (s, e, draw(scopes), 0, draw(reasons), draw(owners), draw(foreign))
        for s, e in draw(st.lists(spans(), max_size=8))
    ]
    for i in draw(st.lists(st.integers(0, 7), max_size=3)):
        if i < len(blocked):  # the same (start, end), another payload
            blocked.append((
                *blocked[i][:2], draw(scopes), 1, draw(reasons),
                draw(owners), draw(foreign),
            ))
    log = EventLog(
        bursts=bursts,
        pre_windows=pre,
        act_windows=act,
        cas_windows=cas,
        bank_refresh_windows=bank_refresh,
        refresh_windows=draw(st.lists(spans(), max_size=3)),
        blocked=blocked,
    )
    return log, total


@st.composite
def request_lists(draw):
    """Completed reads plus requests every latency stack must skip."""
    requests = []
    for __ in range(draw(st.integers(0, 8))):
        read = Request(
            RequestType.READ, 0, arrival=draw(st.integers(0, 40)),
            requester_id=draw(requesters), is_prefetch=draw(st.booleans()),
        )
        read.cas_issue = read.arrival + draw(st.integers(0, 25))
        read.finish = read.cas_issue + draw(st.integers(0, 10))
        for kind in ("pre", "act"):
            if draw(st.booleans()):
                start, end = draw(spans(60, 10))
                setattr(read, f"own_{kind}_start", start)
                setattr(read, f"own_{kind}_end", end)
        requests.append(read)
    write = Request(RequestType.WRITE, 0, arrival=3, cas_issue=5, finish=9)
    forwarded = Request(
        RequestType.READ, 0, arrival=4, cas_issue=6, finish=8, forwarded=True
    )
    unserved = Request(RequestType.READ, 0, arrival=5)
    return requests + [write, forwarded, unserved]


def counted(requests):
    """The reads a latency stack averages over, prefetch reads included."""
    return [
        r for r in requests
        if r.is_read and not r.forwarded and r.cas_issue >= 0
    ]


# ---------------------------------------------------------------- tests
@settings(max_examples=120, deadline=None)
@given(event_logs(), st.integers(1, 25))
def test_bandwidth_matches_oracle(case, bin_cycles):
    log, total = case
    accountant = BandwidthStackAccountant(SPEC)
    assert accountant.account_cycles(log, total) == oracle_bins(
        log, total, total
    )
    assert accountant.account_cycles(log, total, bin_cycles) == oracle_bins(
        log, total, bin_cycles
    )


@settings(max_examples=120, deadline=None)
@given(event_logs())
def test_requester_bandwidth_matches_oracle(case):
    log, total = case
    rows = RequesterBandwidthAccountant(SPEC).account_cycles(log, total)

    def nonzero(table):
        kept = {
            requester: {name: units for name, units in row.items() if units}
            for requester, row in table.items()
        }
        return {requester: row for requester, row in kept.items() if row}

    assert nonzero(rows) == nonzero(oracle_rows(log, total))
    assert set(rows) == set(nonzero(rows))


@settings(max_examples=80, deadline=None)
@given(event_logs(overlapping_bursts=True), st.integers(1, 25))
def test_overlapping_bursts_raise_and_disjoint_ones_match_oracle(
    case, bin_cycles
):
    log, total = case
    ordered = sorted(b[:3] for b in log.bursts)
    late = [
        start for i, (start, __, __) in enumerate(ordered)
        if start < max([0] + [end for __, end, __ in ordered[:i]])
    ]
    if not late:
        bins = BandwidthStackAccountant(SPEC).account_cycles(
            log, total, bin_cycles
        )
        assert bins == oracle_bins(log, total, bin_cycles)
        return
    message = f"overlapping data bursts at cycle {late[0]}$"
    with pytest.raises(AccountingError, match=message):
        BandwidthStackAccountant(SPEC).account_cycles(log, total, bin_cycles)
    with pytest.raises(AccountingError, match=message):
        RequesterBandwidthAccountant(SPEC).account_cycles(log, total)


@settings(max_examples=120, deadline=None)
@given(
    request_lists(), st.lists(spans(), max_size=3),
    st.lists(spans(), max_size=3), st.integers(0, 50), st.booleans(),
    st.integers(1, 30),
)
def test_latency_matches_oracle(
    requests, refresh, drain, base, split_base, bin_cycles
):
    accountant = LatencyStackAccountant(SPEC, base, split_base=split_base)

    def expected(reads):
        sums = dict.fromkeys(accountant.components, 0)
        for read in reads:
            parts = wait_parts(read, refresh, drain)
            del parts["interference"]
            if split_base:
                parts["base_cntlr"] = base
                parts["base_dram"] = read.finish - read.cas_issue
            else:
                parts["base"] = base + read.finish - read.cas_issue
            for name, value in parts.items():
                sums[name] += value
        scale = SPEC.cycle_ns / len(reads) if reads else 0.0
        return {name: value * scale for name, value in sums.items()}

    reads = counted(requests)
    stack = accountant.account(requests, refresh, drain)
    assert stack.components == expected(reads)
    total = 60
    num_bins = -(-total // bin_cycles)
    series = accountant.account_series(
        requests, refresh, drain, total, bin_cycles
    )
    assert len(series) == num_bins
    for b, stack in enumerate(series):
        assert stack.components == expected([
            r for r in reads
            if min(r.finish // bin_cycles, num_bins - 1) == b
        ])


@settings(max_examples=120, deadline=None)
@given(event_logs(), request_lists(), st.integers(0, 50))
def test_requester_latency_matches_oracle(case, requests, base):
    log, __ = case
    log.drain_windows = [(s + 3, e + 5) for s, e in log.refresh_windows]
    stacks = RequesterLatencyAccountant(SPEC, base).account(requests, log)
    reads = counted(requests)
    assert set(stacks) == {r.requester_id for r in reads}
    for requester, stack in stacks.items():
        foreign = [b for b in log.bursts if b[4] not in (requester, SHARED)]
        mine = [r for r in reads if r.requester_id == requester]
        sums = dict.fromkeys(REQUESTER_LATENCY_COMPONENTS, 0)
        for read in mine:
            parts = wait_parts(
                read, refresh_windows_for_latency(log), log.drain_windows,
                foreign,
            )
            parts["base"] = base + read.finish - read.cas_issue
            for name, value in parts.items():
                sums[name] += value
        scale = SPEC.cycle_ns / len(mine)
        assert stack.components == {
            name: value * scale for name, value in sums.items()
        }
