"""Forward-progress watchdog for the memory controller.

A livelocked or deadlocked controller — non-empty request queues, yet no
command issued for a long stretch — previously spun forever (the
scheduler keeps waking for refresh, so time advances but nothing is
served). The watchdog turns that into a
:class:`~repro.errors.SimulationStalledError` carrying a structured
:class:`StallDiagnostic`: queue contents, per-bank state and the timing
constraint blocking each scheduling candidate.

The controller calls the watchdog directly: once attached
(``controller.attach_watchdog``), both engines call :meth:`observe`
with the controller every 32 scheduling steps. The check is two integer
comparisons in the healthy case, so it is safe to leave enabled for
every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError, SimulationStalledError

#: Default stall threshold in memory-controller cycles. Legitimate
#: no-issue stretches (refresh tRFC, bus turnaround, tFAW windows, the
#: FR-FCFS starvation cap) are all well under 10k cycles; 200k cycles is
#: ~21 refresh intervals of silence with work pending.
DEFAULT_STALL_THRESHOLD = 200_000


@dataclass
class StallDiagnostic:
    """Structured snapshot of a stalled controller.

    Attributes:
        cycle: controller time when the stall was declared.
        last_command_cycle: when the controller last issued any command
            (-1 when it never issued one).
        queued_reads / queued_writes: pending request counts.
        queue_head: up to ``max_requests`` oldest queued requests, each a
            dict with req_id / type / arrival / bank / row.
        banks: per-bank state dicts (flat index, open row, next legal
            ACT/PRE/CAS cycles).
        candidates: one dict per scheduling candidate: the command the
            scheduler would issue, its earliest legal cycle, and the
            binding constraint (scope + reason) when it has to wait.
        refresh: next_due / in_progress_until cycles.
    """

    cycle: int
    last_command_cycle: int
    queued_reads: int
    queued_writes: int
    queue_head: list[dict] = field(default_factory=list)
    banks: list[dict] = field(default_factory=list)
    candidates: list[dict] = field(default_factory=list)
    refresh: dict = field(default_factory=dict)

    def describe(self) -> str:
        """Multi-line human-readable rendering for error messages."""
        lines = [
            f"stalled at cycle {self.cycle} "
            f"(last command at {self.last_command_cycle}): "
            f"{self.queued_reads} read(s) and "
            f"{self.queued_writes} write(s) pending",
        ]
        for cand in self.candidates:
            lines.append(
                f"  candidate {cand.get('command')} for req "
                f"{cand.get('req_id')} bank {cand.get('bank')}: "
                f"earliest issue {cand.get('earliest_issue')}"
                + (
                    f", blocked by {cand.get('reason')} "
                    f"({cand.get('scope')})"
                    if cand.get("reason")
                    else ""
                )
            )
        busy = [b for b in self.banks if b.get("open_row") is not None]
        lines.append(f"  banks with open rows: {len(busy)}/{len(self.banks)}")
        if self.refresh:
            lines.append(
                f"  refresh: next due {self.refresh.get('next_due')}, "
                f"in progress until {self.refresh.get('in_progress_until')}"
            )
        return "\n".join(lines)


class ForwardProgressWatchdog:
    """Detects a controller that has work queued but issues nothing.

    Args:
        threshold_cycles: silence (no command issued while requests are
            queued) tolerated before declaring a stall.
    """

    def __init__(
        self, threshold_cycles: int = DEFAULT_STALL_THRESHOLD
    ) -> None:
        if threshold_cycles < 1:
            raise ConfigurationError(
                f"watchdog threshold_cycles must be >= 1, "
                f"got {threshold_cycles}"
            )
        self.threshold_cycles = threshold_cycles
        self.stalls_detected = 0
        self._watermark = 0

    def reset(self) -> None:
        """Forget accumulated silence (e.g. after an external repair)."""
        self._watermark = 0

    def observe(self, controller) -> None:
        """One sampled scheduling step; raises on a detected stall.

        `controller` is a :class:`~repro.dram.controller.MemoryController`
        (duck-typed: needs ``now``, ``queued_requests``,
        ``last_command_cycle`` and ``stall_snapshot()``).
        """
        now = controller.now
        if controller.queued_requests == 0:
            self._watermark = now
            return
        last = controller.last_command_cycle
        if last > self._watermark:
            self._watermark = last
        if now - self._watermark <= self.threshold_cycles:
            return
        self.stalls_detected += 1
        diagnostic = StallDiagnostic(**controller.stall_snapshot())
        raise SimulationStalledError(
            "forward-progress watchdog: no command issued for "
            f"{now - self._watermark} cycles with requests pending\n"
            + diagnostic.describe(),
            diagnostic=diagnostic,
        )
