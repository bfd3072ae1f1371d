"""Text trace format: write and parse.

Format (one record per line, ``#`` comments ignored)::

    DRAMTRACE v1 <spec-name> <total-cycles>
    REQ <arrival> <R|W> <address-hex> <req-id>
    CMD <issue> <ACT|PRE|PREA|RD|WR|REF> <bank-group> <bank> <row> <req-id>
"""

from __future__ import annotations

from typing import IO, Iterable

from repro.errors import TraceFormatError
from repro.trace.events import (
    COMMAND_NAMES,
    CommandRecord,
    RequestRecord,
    TraceFile,
)

_MAGIC = "DRAMTRACE"
_VERSION = "v1"


def write_trace(trace: TraceFile, handle: IO[str]) -> None:
    """Serialize a trace to a text stream."""
    handle.write(
        f"{_MAGIC} {_VERSION} {trace.spec_name} {trace.total_cycles}\n"
    )
    for req in trace.requests:
        kind = "W" if req.is_write else "R"
        handle.write(
            f"REQ {req.arrival} {kind} {req.address:#x} {req.req_id}\n"
        )
    for cmd in trace.commands:
        handle.write(
            f"CMD {cmd.issue} {cmd.name} {cmd.bank_group} {cmd.bank} "
            f"{cmd.row} {cmd.req_id}\n"
        )


def write_trace_path(trace: TraceFile, path: str) -> None:
    """Serialize a trace to a file."""
    with open(path, "w", encoding="utf-8") as handle:
        write_trace(trace, handle)


def read_trace(lines: Iterable[str]) -> TraceFile:
    """Parse a trace from text lines.

    Errors carry the 1-based *file* line number (comments and blank
    lines count) and the offending line, so a corrupted record in a
    large trace can be found with a text editor.
    """
    trace: TraceFile | None = None
    for number, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split()
        if trace is None:
            if (
                len(fields) != 4
                or fields[0] != _MAGIC
                or fields[1] != _VERSION
            ):
                raise TraceFormatError(
                    "bad trace header", line_number=number, line=stripped
                )
            try:
                total_cycles = int(fields[3])
            except ValueError as error:
                raise TraceFormatError(
                    "bad total-cycles in trace header",
                    line_number=number,
                    line=stripped,
                ) from error
            trace = TraceFile(spec_name=fields[2], total_cycles=total_cycles)
            continue
        try:
            if fields[0] == "REQ":
                trace.requests.append(_parse_req(fields))
            elif fields[0] == "CMD":
                trace.commands.append(_parse_cmd(fields))
            else:
                raise ValueError(f"unknown record {fields[0]!r}")
        except (IndexError, ValueError) as error:
            raise TraceFormatError(
                f"malformed trace record: {error}",
                line_number=number,
                line=stripped,
            ) from error
    if trace is None:
        raise TraceFormatError("empty trace")
    return trace


def read_trace_path(path: str) -> TraceFile:
    """Parse a trace from a file."""
    with open(path, encoding="utf-8") as handle:
        return read_trace(handle)


def _parse_req(fields: list[str]) -> RequestRecord:
    if len(fields) != 5:
        raise ValueError("REQ needs 4 fields")
    if fields[2] not in ("R", "W"):
        raise ValueError(f"bad request kind {fields[2]!r}")
    return RequestRecord(
        arrival=int(fields[1]),
        is_write=fields[2] == "W",
        address=int(fields[3], 0),
        req_id=int(fields[4]),
    )


def _parse_cmd(fields: list[str]) -> CommandRecord:
    if len(fields) != 7:
        raise ValueError("CMD needs 6 fields")
    if fields[2] not in COMMAND_NAMES:
        raise ValueError(f"bad command name {fields[2]!r}")
    return CommandRecord(
        issue=int(fields[1]),
        name=fields[2],
        bank_group=int(fields[3]),
        bank=int(fields[4]),
        row=int(fields[5]),
        req_id=int(fields[6]),
    )
