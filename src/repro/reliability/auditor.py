"""In-loop audit of the controller's event log.

The stack accountants check exactness whenever a stack is built; the
auditor checks their input while the simulation runs, over only the
events appended since the last audit, so corruption is caught close to
where it happened. Every violation raises
:class:`~repro.errors.AccountingError` (exit code 7).
"""

from __future__ import annotations

from repro.errors import AccountingError


class InvariantAuditor:
    """Incremental well-formedness audit of controller event logs."""

    def audit_log_increment(self, log, cursors: dict[str, int]) -> None:
        """Well-formedness of events appended since the last audit.

        `cursors` maps event-list name -> index already audited; it is
        updated in place, so repeated calls cost O(new events) and the
        whole run costs O(total events). Raises
        :class:`~repro.errors.AccountingError` at the first malformed
        event.
        """
        bursts = log.bursts
        start_idx = cursors.get("bursts", 0)
        prev_end = bursts[start_idx - 1][1] if start_idx > 0 else 0
        for i in range(start_idx, len(bursts)):
            s, e = bursts[i][0], bursts[i][1]
            if s < prev_end:
                raise AccountingError(
                    f"data bursts overlap at cycle {s} "
                    f"(previous burst ends at {prev_end})"
                )
            if e < s:
                raise AccountingError(
                    f"data burst [{s}, {e}) runs backwards"
                )
            prev_end = max(prev_end, e)
        cursors["bursts"] = len(bursts)

        for name in ("pre_windows", "act_windows", "cas_windows"):
            windows = getattr(log, name)
            for i in range(cursors.get(name, 0), len(windows)):
                s, e = windows[i][0], windows[i][1]
                if e < s:
                    raise AccountingError(
                        f"{name} entry [{s}, {e}) runs backwards"
                    )
            cursors[name] = len(windows)

        blocked = log.blocked
        for i in range(cursors.get("blocked", 0), len(blocked)):
            s, e = blocked[i][0], blocked[i][1]
            if e < s:
                raise AccountingError(
                    f"blocked interval [{s}, {e}) runs backwards"
                )
        cursors["blocked"] = len(blocked)
