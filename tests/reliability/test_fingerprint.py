"""The event-log digest hashes the log as it was before its windows
carried their requester, so every committed fixture digest holds."""

from __future__ import annotations

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.components.accounting import EventLog
from repro.dram.rank import BlockScope
from repro.reliability.fingerprint import event_log_digest

#: The lists the digest covered, in order, when the log held no
#: requesters (same-bank refresh windows came after, and only if any).
_LEGACY_FIELDS = (
    "bursts", "pre_windows", "act_windows", "cas_windows",
    "refresh_windows", "drain_windows", "blocked",
)


def legacy_digest(lists: dict) -> str:
    """``event_log_digest`` as it read the requester-free layout."""
    h = hashlib.sha256()
    for name in _LEGACY_FIELDS:
        h.update(name.encode())
        h.update(repr(lists[name]).encode())
    bank_refresh = lists["bank_refresh_windows"]
    if bank_refresh:
        h.update(b"bank_refresh_windows")
        h.update(repr(bank_refresh).encode())
    return h.hexdigest()


cycles = st.integers(0, 10**6)
spans = st.tuples(cycles, cycles)
banks = st.integers(0, 31)
requesters = st.integers(-1, 3)
windows = st.lists(st.tuples(cycles, cycles, banks), max_size=5)


@st.composite
def logs(draw):
    """(old-layout lists, the new-layout log of the same run)."""
    legacy = {
        "bursts": draw(st.lists(
            st.tuples(cycles, cycles, st.booleans(), st.integers(-1, 7)),
            max_size=5,
        )),
        "pre_windows": draw(windows),
        "act_windows": draw(windows),
        "cas_windows": draw(windows),
        "bank_refresh_windows": draw(windows),
        "refresh_windows": draw(st.lists(spans, max_size=3)),
        "drain_windows": draw(st.lists(spans, max_size=3)),
        "blocked": draw(st.lists(
            st.tuples(
                cycles, cycles, st.sampled_from(list(BlockScope)),
                st.integers(-1, 7),
                st.sampled_from(["tRCD", "data_inflight", "bank_regulation"]),
            ),
            max_size=5,
        )),
    }
    tagged = {
        name: [entry + (draw(requesters),) for entry in entries]
        for name, entries in legacy.items()
        if name not in ("refresh_windows", "drain_windows", "blocked")
    }
    tagged["blocked"] = [
        entry + (draw(requesters), draw(st.booleans()))
        for entry in legacy["blocked"]
    ]
    log = EventLog(
        refresh_windows=legacy["refresh_windows"],
        drain_windows=legacy["drain_windows"],
        **tagged,
    )
    return legacy, log


@settings(max_examples=200, deadline=None)
@given(logs())
def test_digest_ignores_requesters(case):
    legacy, log = case
    assert event_log_digest(log) == legacy_digest(legacy)


def test_empty_log_digest():
    empty = {name: [] for name in (*_LEGACY_FIELDS, "bank_refresh_windows")}
    assert event_log_digest(EventLog()) == legacy_digest(empty)
