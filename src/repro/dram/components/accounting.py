"""The event log: what a controller records about its own run.

:class:`EventLog` is the one record of a run's channel timeline. The
stack accountants (:mod:`repro.stacks`), the reliability fingerprint
(:mod:`repro.reliability.fingerprint`) and the offline trace tooling
(:mod:`repro.trace.offline`) all read it. The controller and its banks
append to the log's lists directly (the lists are shared by reference
and never reassigned), so recording a window costs one ``list.append``.
The controller publishes no online stream beside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dram.commands import Command
from repro.dram.rank import BlockScope

#: The leading fields of each list's tuples that
#: :func:`~repro.reliability.fingerprint.event_log_digest` hashes, in
#: hashing order: each list's width before its windows carried their
#: requester, so every historic digest still holds.
DIGEST_WIDTHS = {
    "bursts": 4,
    "pre_windows": 3,
    "act_windows": 3,
    "cas_windows": 3,
    "refresh_windows": 2,
    "drain_windows": 2,
    "blocked": 5,
    "bank_refresh_windows": 3,
}


@dataclass
class EventLog:
    """Channel timeline recorded during simulation.

    All windows are half-open cycle intervals ``[start, end)``. Bank
    indices are flat (``AddressMapping.flat_bank_index``). Every window a
    request can cause names its ``requester`` (``Request.requester_id``).
    -1 marks the shared row: refresh-driven precharges, same-bank
    refresh, ``data_inflight`` waits, logs rebuilt offline from a
    command trace and fault-injected bursts.

    Layout, one tuple per entry:

    * ``bursts`` — data-bus bursts:
      ``(start, end, is_write, core_id, requester)``;
    * ``pre_windows``, ``act_windows``, ``cas_windows`` (CAS issue to
      data end) and ``bank_refresh_windows`` (same-bank REFsb; empty
      under all-bank refresh): ``(start, end, flat_bank, requester)``;
    * ``refresh_windows`` — all-bank refresh: ``(start, end)``;
    * ``blocked`` — waiting with work pending: ``(start, end, scope,
      bank_group, reason, requester, interference)``. ``requester`` is
      the waiting candidate's; ``interference`` is True when a
      different requester last issued a request-driven command on the
      binding scope (never for ``bank_regulation`` gates). A window
      that continues the previous one with the same payload extends it
      in place;
    * ``drain_windows`` — forced write drains: ``(start, end)``, the
      write buffer's own list;
    * ``commands`` — the full command trace, when
      ``ControllerConfig.keep_command_trace`` is set.
    """

    bursts: list[tuple[int, int, bool, int, int]] = field(
        default_factory=list
    )
    pre_windows: list[tuple[int, int, int, int]] = field(default_factory=list)
    act_windows: list[tuple[int, int, int, int]] = field(default_factory=list)
    cas_windows: list[tuple[int, int, int, int]] = field(default_factory=list)
    refresh_windows: list[tuple[int, int]] = field(default_factory=list)
    bank_refresh_windows: list[tuple[int, int, int, int]] = field(
        default_factory=list
    )
    blocked: list[tuple[int, int, BlockScope, int, str, int, bool]] = field(
        default_factory=list
    )
    drain_windows: list[tuple[int, int]] = field(default_factory=list)
    commands: list[Command] = field(default_factory=list)
