"""In-loop invariant auditing for the stack accountants.

The paper's accounting contract is exactness: bandwidth-stack components
sum to the elapsed channel cycles and latency-stack components sum to
each read's measured latency. The accountants enforce this themselves by
raising :class:`~repro.errors.AccountingError` — correct for a library,
but a multi-hour figure run should be able to *finish* and report the
drift instead of dying at the last step. The auditor provides that
policy:

* ``strict`` — raise immediately (the accountants' historical behavior);
* ``warn``  — record the violation, emit an :class:`AuditWarning`, keep
  going with the inconsistent value (default for full-system runs);
* ``repair`` — record the violation and apply the provided repair (e.g.
  fold the residual into the idle component) so downstream invariants
  hold again.

Exactness itself is checked by the accountants an auditor is handed to
(``auditor=``), as :class:`~repro.cpu.system.SimulationResult` does for
every stack it builds. The auditor also performs cheap *incremental*
checks during simulation (event-log well-formedness over only the events
appended since the last audit), so corruption is caught close to where
it happened.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from repro.errors import AccountingError

AUDIT_MODES = ("strict", "warn", "repair")

#: Violations recorded per auditor before further ones are only counted.
MAX_RECORDED_VIOLATIONS = 100


class AuditWarning(UserWarning):
    """Warning category for invariant violations in ``warn``/``repair`` mode."""


@dataclass(frozen=True)
class AuditViolation:
    """One detected invariant violation.

    Attributes:
        kind: short machine-readable class, e.g. ``"bandwidth-sum"``.
        message: human-readable description.
        residual: numeric size of the inconsistency, when meaningful.
        repaired: whether a repair was applied.
    """

    kind: str
    message: str
    residual: float = 0.0
    repaired: bool = False


@dataclass
class InvariantAuditor:
    """Checks accounting invariants under a configurable failure policy.

    One auditor can be shared by several accountants and the reliability
    guard; it accumulates all violations seen during a run.
    """

    mode: str = "warn"
    violations: list[AuditViolation] = field(default_factory=list)
    total_violations: int = 0

    def __post_init__(self) -> None:
        if self.mode not in AUDIT_MODES:
            raise AccountingError(
                f"unknown audit mode {self.mode!r}; "
                f"expected one of {sorted(AUDIT_MODES)}"
            )

    @property
    def clean(self) -> bool:
        """Whether no violation has been recorded."""
        return self.total_violations == 0

    # ------------------------------------------------------------------
    def report(
        self,
        kind: str,
        message: str,
        residual: float = 0.0,
        repair=None,
    ) -> None:
        """Handle one violation according to the configured mode.

        `repair` is a zero-argument callable applied only in ``repair``
        mode; it must leave the caller's data satisfying the invariant.
        """
        if self.mode == "strict":
            raise AccountingError(message)
        repaired = False
        if self.mode == "repair" and repair is not None:
            repair()
            repaired = True
        self.total_violations += 1
        if len(self.violations) < MAX_RECORDED_VIOLATIONS:
            self.violations.append(
                AuditViolation(kind, message, residual, repaired)
            )
        warnings.warn(f"[{kind}] {message}", AuditWarning, stacklevel=3)

    # ------------------------------------------------------------------
    # Incremental event-log audit (cheap, runs during simulation).
    # ------------------------------------------------------------------
    def audit_log_increment(self, log, cursors: dict[str, int]) -> None:
        """Well-formedness of events appended since the last audit.

        `cursors` maps event-list name -> index already audited; it is
        updated in place, so repeated calls cost O(new events) and the
        whole run costs O(total events).
        """
        bursts = log.bursts
        start_idx = cursors.get("bursts", 0)
        prev_end = bursts[start_idx - 1][1] if start_idx > 0 else 0
        for i in range(start_idx, len(bursts)):
            s, e = bursts[i][0], bursts[i][1]
            if s < prev_end:
                self.report(
                    "burst-overlap",
                    f"data bursts overlap at cycle {s} "
                    f"(previous burst ends at {prev_end})",
                    residual=prev_end - s,
                )
            if e < s:
                self.report(
                    "burst-negative", f"data burst [{s}, {e}) runs backwards"
                )
            prev_end = max(prev_end, e)
        cursors["bursts"] = len(bursts)

        for name in ("pre_windows", "act_windows", "cas_windows"):
            windows = getattr(log, name)
            for i in range(cursors.get(name, 0), len(windows)):
                s, e = windows[i][0], windows[i][1]
                if e < s:
                    self.report(
                        "window-negative",
                        f"{name} entry [{s}, {e}) runs backwards",
                    )
            cursors[name] = len(windows)

        blocked = log.blocked
        for i in range(cursors.get("blocked", 0), len(blocked)):
            s, e = blocked[i][0], blocked[i][1]
            if e < s:
                self.report(
                    "blocked-negative",
                    f"blocked interval [{s}, {e}) runs backwards",
                )
        cursors["blocked"] = len(blocked)
