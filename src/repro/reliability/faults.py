"""Fault-injection harness.

Deliberately breaks things the guardrails claim to catch, so the test
suite can prove each detector works end to end:

* :func:`corrupt_trace_lines` — damage a stored trace; caught by
  :func:`repro.trace.io.read_trace` as a
  :class:`~repro.errors.TraceFormatError` naming the line.
* :func:`drop_commands` — lose commands from a recorded stream; caught by
  :class:`~repro.dram.validator.TimingValidator` as a
  :class:`~repro.errors.TimingViolationError`.
* :func:`perturb_timing` — tighten a timing parameter after the fact, so
  a stream legal under the original spec violates the perturbed one;
  caught by the validator.
* :func:`force_stall` — make a controller's scheduler refuse to issue;
  caught by the forward-progress watchdog as a
  :class:`~repro.errors.SimulationStalledError`.
* :func:`corrupt_request` / :func:`overlap_bursts` — falsify accounting
  inputs; caught by the invariant auditor / the accountants as an
  :class:`~repro.errors.AccountingError` (or recorded violation).

Nothing here is imported by production code paths; the harness is a test
fixture shipped as a module so CLI users can run the same drills.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ConfigurationError

#: Supported trace-corruption kinds.
TRACE_FAULTS = ("garbage", "truncate", "bad-kind", "bad-number")


def corrupt_trace_lines(
    lines: list[str], kind: str = "garbage", line_index: int | None = None
) -> list[str]:
    """Damage one record of a text trace; returns the corrupted lines.

    `line_index` is the 0-based index of the line to damage; by default
    the middle record is chosen. The header (line 0) is never picked
    implicitly so the parser reaches the damaged record.
    """
    if kind not in TRACE_FAULTS:
        raise ConfigurationError(
            f"unknown trace fault {kind!r}; "
            f"expected one of {sorted(TRACE_FAULTS)}"
        )
    if not lines:
        raise ConfigurationError("cannot corrupt an empty trace")
    corrupted = list(lines)
    if line_index is None:
        line_index = max(1, len(corrupted) // 2)
    if not 0 <= line_index < len(corrupted):
        raise ConfigurationError(
            f"line_index {line_index} outside trace of {len(corrupted)} lines"
        )
    fields = corrupted[line_index].split()
    if kind == "garbage":
        corrupted[line_index] = "XYZZY this is not a trace record"
    elif kind == "truncate":
        corrupted[line_index] = " ".join(fields[: max(1, len(fields) - 2)])
    elif kind == "bad-kind":
        corrupted[line_index] = " ".join(
            ["REQ", fields[1] if len(fields) > 1 else "0", "Q", "0xdead", "7"]
        )
    else:  # bad-number
        corrupted[line_index] = " ".join(
            f if i != len(fields) - 1 else "not-a-number"
            for i, f in enumerate(fields)
        )
    return corrupted


def drop_commands(
    commands: list, kind: str = "activate", every: int = 1
) -> list:
    """Remove commands of one kind from a recorded stream.

    `kind` is a command-type name (``"activate"``, ``"precharge"``,
    ``"read"``, ``"write"``, ``"refresh"``); `every` drops each n-th
    match (1 = all). Returns a new list; the input is untouched.
    """
    if every < 1:
        raise ConfigurationError("every must be >= 1")
    kept = []
    seen = 0
    for command in commands:
        if str(command.cmd_type) == kind:
            seen += 1
            if seen % every == 0:
                continue
        kept.append(command)
    if seen == 0:
        raise ConfigurationError(
            f"no {kind!r} commands in the stream; nothing to drop"
        )
    return kept


def perturb_timing(spec, **deltas: int):
    """Copy `spec` with named timing fields changed by the given deltas.

    Example: ``perturb_timing(DDR4_2400, tRCD=+4)`` yields a spec whose
    tRCD is 4 cycles longer — commands recorded under the original spec
    then violate the perturbed one, which is how the fault suite proves
    the validator is actually sensitive to each parameter.
    """
    if not deltas:
        raise ConfigurationError("no timing fields to perturb")
    changes = {}
    for name, delta in deltas.items():
        if not hasattr(spec, name):
            raise ConfigurationError(
                f"timing spec {spec.name!r} has no field {name!r}"
            )
        changes[name] = getattr(spec, name) + delta
    return dataclasses.replace(spec, **changes)


def force_stall(controller, after_cycle: int = 0) -> None:
    """Make `controller`'s scheduler refuse to issue once past `after_cycle`.

    Every scheduling candidate is pushed infinitely far into the future,
    so queued requests are never served while refresh keeps time moving —
    the exact livelock shape the forward-progress watchdog exists for.
    Patches the controller instance in place. The packed loop never
    calls ``_plan_entry``, so the drill first writes the packed engine's
    state back and drops it: the controller continues on the object
    path, which plans through the patched seam.
    """
    from repro.dram.controller import FAR_FUTURE

    packed = controller._packed
    if packed is not None:
        packed.flush()
        controller._packed = None
    original = controller._plan_entry

    def stalled_plan(entry, write_mode):
        key, planned_entry, cmd_type, coords = original(entry, write_mode)
        if controller.now >= after_cycle:
            key = (FAR_FUTURE - 1,) + key[1:]
        return (key, planned_entry, cmd_type, coords)

    controller._plan_entry = stalled_plan


def corrupt_request(request, skew_cycles: int = 50):
    """Falsify a completed read's timeline (CAS before arrival).

    Produces a negative ``queue`` component in the latency decomposition,
    which the auditor flags as a ``latency-negative`` violation (or the
    accountant raises on in strict mode). Returns the request.

    The skew is clamped so ``cas_issue`` stays >= 0: a negative CAS cycle
    would make the accountant *filter* the read as incomplete instead of
    detecting the corruption. Pick a read with ``arrival > 0``.
    """
    if request.arrival <= 0:
        raise ConfigurationError(
            "corrupt_request needs a read with arrival > 0 "
            "(cas_issue must stay >= 0 to reach the accountant)"
        )
    request.cas_issue = request.arrival - min(skew_cycles, request.arrival)
    return request


def overlap_bursts(log, overlap_cycles: int = 2) -> None:
    """Append a data burst overlapping the last recorded one.

    The bandwidth accountant rejects overlapping bursts (they would
    double-count channel cycles); in ``warn``/``repair`` modes the
    auditor records the violation and accounting clamps the burst.
    """
    if not log.bursts:
        raise ConfigurationError("event log has no bursts to overlap")
    start, end, is_write = (
        log.bursts[-1][0], log.bursts[-1][1], log.bursts[-1][2],
    )
    length = max(1, end - start)
    log.bursts.append((
        end - overlap_cycles, end - overlap_cycles + length, is_write, -1, -1,
    ))
