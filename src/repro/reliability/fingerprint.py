"""Result fingerprinting for golden-regression and determinism tests.

A *fingerprint* condenses everything the simulator measured — the full
DRAM event log plus the derived bandwidth and latency stacks — into a
small JSON-serializable dict with a content digest. Two runs produce
the same fingerprint if and only if they recorded byte-identical event
timelines and bit-identical stack components, which is exactly the
contract the performance-engineered packed controller engine must uphold
against the reference engine (see ``docs/performance.md``).

Used by:

* ``tests/golden`` — fixtures commit fingerprints of seeded mini-runs;
  any change to scheduling, timing, or accounting that shifts a single
  cycle shows up as a digest mismatch.
* determinism tests — same seed must mean same fingerprint across
  repeated runs.
* ``bench/run.py`` — the benchmark digests every point's stacks in
  this layout and checks them against its seed-42 pins, so a speedup
  that changes results is never reported as a win.
"""

from __future__ import annotations

import hashlib
import json
from operator import itemgetter

from repro.dram.components.accounting import DIGEST_WIDTHS


def event_log_digest(log) -> str:
    """SHA-256 over the controller's recorded timelines.

    Covers every list the stack accountants consume (bursts, per-bank
    command windows, refresh/drain windows, blocked intervals), each
    projected to its leading fields in
    :data:`~repro.dram.components.accounting.DIGEST_WIDTHS`: the
    requesters the windows carry are left out, so the digest of a run
    is the one its log had before they were added. Entries are hashed
    via ``repr``, which is exact for the int/str/enum tuples the log
    holds — no float formatting is involved.
    """
    h = hashlib.sha256()
    for name, width in DIGEST_WIDTHS.items():
        entries = getattr(log, name)
        if name == "bank_refresh_windows" and not entries:
            # Hashed only when present, so every all-bank (historic)
            # fixture digest is unchanged by the list's existence.
            continue
        # The bytes of repr(list) of the projected entries, one entry at
        # a time: a list of fresh tuples would trigger collector passes
        # that move the caller's live run into the oldest generation,
        # where it outlives its last reference.
        fields = itemgetter(slice(0, width))
        h.update(name.encode())
        h.update(b"[")
        h.update(", ".join(map(repr, map(fields, entries))).encode())
        h.update(b"]")
    return h.hexdigest()


def memory_log_digests(memory) -> list[str]:
    """Per-channel event-log digests of a memory subsystem.

    Accepts either a single :class:`~repro.dram.controller.MemoryController`
    (one digest) or a multi-channel
    :class:`~repro.dram.system.MemorySystem` (one digest per channel, in
    channel order). The multi-channel golden tests commit these lists so
    a change that shifts work between channels is caught even when the
    aggregate stacks happen to agree.
    """
    log = getattr(memory, "log", None)
    if log is not None:
        return [event_log_digest(log)]
    return [event_log_digest(mc.log) for mc in memory.channels]


def combined_log_digest(memory) -> str:
    """One digest covering every channel of a memory subsystem.

    For a single controller this equals :func:`event_log_digest` of its
    log, so existing single-channel fixtures stay valid.
    """
    digests = memory_log_digests(memory)
    if len(digests) == 1:
        return digests[0]
    h = hashlib.sha256()
    for digest in digests:
        h.update(digest.encode())
    return h.hexdigest()


def result_fingerprint(result) -> dict:
    """Full fingerprint of a :class:`~repro.cpu.system.SimulationResult`.

    Returns a JSON-serializable dict::

        {
          "event_log": "<sha256 of the event timelines>",
          "bandwidth": [["read", 10.26...], ...],   # GB/s components
          "latency":   [["base", 52.5], ...],       # ns components
          "counts": {"total_cycles": ..., "dram_reads": ...,
                     "dram_writes": ..., "instructions": ...},
          "digest": "<sha256 over all of the above>",
        }

    Stack values are kept at full float precision (``repr`` round-trip
    via JSON), so comparing fingerprints is a bit-identity check on the
    accounting, not an approximate one.
    """
    fp = {
        "event_log": combined_log_digest(result.memory),
        "bandwidth": [
            [name, value]
            for name, value in result.bandwidth_stack().as_rows()
        ],
        "latency": [
            [name, value]
            for name, value in result.latency_stack().as_rows()
        ],
        "counts": {
            "total_cycles": result.total_cycles,
            "dram_reads": result.dram_reads,
            "dram_writes": result.dram_writes,
            "instructions": result.instructions,
        },
    }
    fp["digest"] = fingerprint_digest(fp)
    return fp


def qos_fingerprint(result) -> dict:
    """Fingerprint extended with per-requester stacks.

    Deliberately a *separate* helper: adding a ``requesters`` section to
    :func:`result_fingerprint` would change the digest of every existing
    golden fixture. QoS fixtures commit this richer shape instead; its
    base sections (and the nested ``base_digest``) stay byte-compatible
    with :func:`result_fingerprint`, so a QoS fingerprint of a
    single-requester run still cross-checks against plain fixtures.
    """
    fp = result_fingerprint(result)
    fp["base_digest"] = fp.pop("digest")
    requesters: dict[str, dict] = {}
    bandwidth = result.per_requester_bandwidth_stacks()
    latency = result.per_requester_latency_stacks()
    for rid in sorted(set(bandwidth) | set(latency)):
        entry: dict = {}
        if rid in bandwidth:
            entry["bandwidth"] = [
                [name, value] for name, value in bandwidth[rid].as_rows()
            ]
        if rid in latency:
            entry["latency"] = [
                [name, value] for name, value in latency[rid].as_rows()
            ]
        requesters[str(rid)] = entry
    fp["requesters"] = requesters
    fp["digest"] = fingerprint_digest(fp)
    return fp


def fingerprint_digest(fp: dict) -> str:
    """Canonical content digest of a fingerprint dict.

    The ``digest`` key itself is excluded, so the function is stable
    whether it is handed a freshly built dict or one loaded from a
    fixture file.
    """
    body = {k: v for k, v in fp.items() if k != "digest"}
    payload = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def diff_fingerprints(expected: dict, actual: dict) -> list[str]:
    """Human-readable differences between two fingerprints.

    Empty list means identical. Designed for golden-test failure
    messages: points at the first diverging component instead of just
    two opaque digests.
    """
    problems: list[str] = []
    if expected.get("event_log") != actual.get("event_log"):
        problems.append(
            "event log timelines differ "
            f"(expected {expected.get('event_log', '?')[:12]}, "
            f"got {actual.get('event_log', '?')[:12]})"
        )
    for stack in ("bandwidth", "latency"):
        exp_rows = expected.get(stack, [])
        act_rows = actual.get(stack, [])
        if exp_rows == act_rows:
            continue
        for exp, act in zip(exp_rows, act_rows):
            if list(exp) != list(act):
                problems.append(
                    f"{stack} component {exp[0]!r}: "
                    f"expected {exp[1]!r}, got {act[1]!r}"
                )
        if len(exp_rows) != len(act_rows):
            problems.append(
                f"{stack} stack has {len(act_rows)} components, "
                f"expected {len(exp_rows)}"
            )
    exp_req = expected.get("requesters", {})
    act_req = actual.get("requesters", {})
    for rid in sorted(set(exp_req) | set(act_req)):
        exp_entry = exp_req.get(rid)
        act_entry = act_req.get(rid)
        if exp_entry is None or act_entry is None:
            problems.append(
                f"requester {rid} present only in "
                f"{'expected' if act_entry is None else 'actual'} "
                f"fingerprint"
            )
            continue
        for stack in ("bandwidth", "latency"):
            exp_rows = exp_entry.get(stack, [])
            act_rows = act_entry.get(stack, [])
            for exp, act in zip(exp_rows, act_rows):
                if list(exp) != list(act):
                    problems.append(
                        f"requester {rid} {stack} component {exp[0]!r}: "
                        f"expected {exp[1]!r}, got {act[1]!r}"
                    )
            if len(exp_rows) != len(act_rows):
                problems.append(
                    f"requester {rid} {stack} stack has "
                    f"{len(act_rows)} components, expected {len(exp_rows)}"
                )
    exp_counts = expected.get("counts", {})
    act_counts = actual.get("counts", {})
    for key in sorted(set(exp_counts) | set(act_counts)):
        if exp_counts.get(key) != act_counts.get(key):
            problems.append(
                f"counts[{key!r}]: expected {exp_counts.get(key)!r}, "
                f"got {act_counts.get(key)!r}"
            )
    if not problems and expected.get("digest") != actual.get("digest"):
        problems.append("fingerprint digests differ")
    return problems
