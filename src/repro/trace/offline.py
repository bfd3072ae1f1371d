"""Offline stack construction from a stored command trace.

Rebuilds a channel event log from commands + request arrivals (Sec. IV's
"the bandwidth stack can be constructed offline from this trace") and
runs the normal accountant on it. A precharge-all (``PREA``) becomes one
precharge window per bank open at that cycle, as the controller logs it;
the open banks are tracked from the ``ACT`` and ``PRE`` records. The
rebuilt windows name no requester (-1): the trace does not carry it.

Fidelity notes:

* the online controller records the *scope* of the binding constraint
  for every blocked interval, which the per-bank ``constraints`` vs
  ``bank_idle`` split uses. A bare command trace does not carry that
  information, so offline blocked intervals (cycles with a pending
  request but no pre/act activity) are charged rank-wide to
  ``constraints``;
* the controller does not log a closed-page policy precharge (nothing
  waits on it), but the trace holds it, so offline it replays as a busy
  precharge window;
* a v1 ``CMD`` record has no rank field, so :func:`capture_trace`
  refuses a multi-rank controller rather than fold rank 1 onto rank 0.

For a one-rank, open-page, all-bank-refresh run the ``read``,
``write``, ``refresh``, ``precharge`` and ``activate`` components match
the online stack exactly.
"""

from __future__ import annotations

from repro.dram.controller import EventLog, MemoryController
from repro.dram.commands import CommandType
from repro.dram.rank import BlockScope
from repro.dram.timing import DDR4_2400, DDR5_4800, DDR4_3200, TimingSpec
from repro.errors import TraceFormatError
from repro.stacks import intervals as iv
from repro.stacks.bandwidth import BandwidthStackAccountant
from repro.stacks.components import Stack
from repro.trace.events import CommandRecord, RequestRecord, TraceFile

_KNOWN_SPECS = {
    spec.name: spec for spec in (DDR4_2400, DDR4_3200, DDR5_4800)
}

_CMD_NAMES = {
    CommandType.ACTIVATE: "ACT",
    CommandType.PRECHARGE: "PRE",
    CommandType.PRECHARGE_ALL: "PREA",
    CommandType.READ: "RD",
    CommandType.WRITE: "WR",
    CommandType.REFRESH: "REF",
}


def spec_by_name(name: str) -> TimingSpec:
    """Look up a timing spec referenced by a trace header."""
    if name not in _KNOWN_SPECS:
        raise TraceFormatError(
            f"unknown spec {name!r}; known: {sorted(_KNOWN_SPECS)}"
        )
    return _KNOWN_SPECS[name]


def capture_trace(controller: MemoryController) -> TraceFile:
    """Extract a TraceFile from a finished controller run.

    The controller must have been configured with
    ``keep_command_trace=True`` and have one rank: the trace format has
    no rank field.
    """
    if not controller.config.keep_command_trace:
        raise TraceFormatError(
            "controller was not recording commands "
            "(set keep_command_trace=True)"
        )
    ranks = controller.spec.organization.ranks
    if ranks > 1:
        raise TraceFormatError(
            f"cannot capture a {ranks}-rank controller: trace format v1 "
            f"has no rank field"
        )
    trace = TraceFile(
        spec_name=controller.spec.name,
        total_cycles=controller.now,
    )
    for request in controller.completed_requests:
        if request.forwarded:
            continue
        trace.requests.append(RequestRecord(
            arrival=request.arrival,
            is_write=request.is_write,
            address=request.address,
            req_id=request.req_id,
        ))
    for command in controller.log.commands:
        trace.commands.append(CommandRecord(
            issue=command.issue,
            name=_CMD_NAMES[command.cmd_type],
            bank_group=command.bank_group,
            bank=command.bank,
            row=command.row,
            req_id=command.req_id,
        ))
    trace.requests.sort(key=lambda r: r.arrival)
    return trace


def event_log_from_trace(
    trace: TraceFile, spec: TimingSpec | None = None
) -> EventLog:
    """Rebuild the channel event log from a command trace."""
    spec = spec or spec_by_name(trace.spec_name)
    bpg = spec.organization.banks_per_group
    log = EventLog()
    serve_time: dict[int, int] = {}
    open_banks: set[int] = set()

    for cmd in trace.commands:
        flat = cmd.bank_group * bpg + cmd.bank
        if cmd.name == "ACT":
            open_banks.add(flat)
            log.act_windows.append(
                (cmd.issue, cmd.issue + spec.tRCD, flat, -1)
            )
        elif cmd.name == "PRE":
            open_banks.discard(flat)
            log.pre_windows.append(
                (cmd.issue, cmd.issue + spec.tRP, flat, -1)
            )
        elif cmd.name == "PREA":
            for bank in sorted(open_banks):
                log.pre_windows.append(
                    (cmd.issue, cmd.issue + spec.tRP, bank, -1)
                )
            open_banks.clear()
        elif cmd.name == "REF":
            log.refresh_windows.append((cmd.issue, cmd.issue + spec.tRFC))
        elif cmd.name in ("RD", "WR"):
            is_write = cmd.name == "WR"
            lead = spec.tCWL if is_write else spec.tCL
            start = cmd.issue + lead
            end = start + spec.burst_cycles
            log.bursts.append((start, end, is_write, -1, -1))
            log.cas_windows.append((cmd.issue, end, flat, -1))
            if cmd.req_id >= 0:
                serve_time[cmd.req_id] = cmd.issue
        else:
            raise TraceFormatError(f"unknown command {cmd.name!r}")

    # Pending intervals: arrival -> CAS issue per request; gaps covered
    # by them become rank-scope blocked intervals.
    pending: list[tuple[int, int]] = []
    for request in trace.requests:
        served = serve_time.get(request.req_id)
        if served is not None and served > request.arrival:
            pending.append((request.arrival, served))
    pending.sort()
    merged = iv.union(pending, [])
    for start, end in merged:
        log.blocked.append(
            (start, end, BlockScope.RANK, -1, "offline_pending", -1, False)
        )
    return log


def offline_bandwidth_stack(
    trace: TraceFile,
    spec: TimingSpec | None = None,
    label: str = "",
) -> Stack:
    """Bandwidth stack straight from a stored trace."""
    spec = spec or spec_by_name(trace.spec_name)
    log = event_log_from_trace(trace, spec)
    accountant = BandwidthStackAccountant(spec)
    return accountant.account(log, trace.total_cycles, label)
