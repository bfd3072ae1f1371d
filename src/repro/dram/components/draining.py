"""The write-drain rule: when buffered writes preempt reads.

The paper's watermark rule, the only one: a *forced* drain runs from
the high to the low watermark, and writes are also issued
*opportunistically* whenever no reads are pending. The policy owns the
forced-drain state machine and its recorded windows (the
``writeburst`` latency attribution), and both engines consult it once
per scheduling decision through :meth:`~WatermarkDrainPolicy.update`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import
    # cycle: wqueue imports this module for its drain policy)
    from repro.dram.wqueue import WriteQueueConfig


class WatermarkDrainPolicy:
    """High/low-watermark forced drains plus opportunistic writes."""

    def __init__(self, config: WriteQueueConfig) -> None:
        self.config = config
        # Watermark entry counts, hoisted off the config properties (the
        # drain state machine runs once per scheduling decision).
        self._high_entries = config.high_entries
        self._low_entries = config.low_entries
        self.draining = False
        #: Completed forced-drain windows [(start, end)], shared by
        #: reference with the controller's event log.
        self.windows: list[tuple[int, int]] = []
        self._drain_start = -1
        self.stats_forced_drains = 0

    # ------------------------------------------------------------------
    def update(self, now: int, occupancy: int, reads_pending: bool) -> bool:
        """One state-machine step; True while writes have priority.

        A forced drain starts at the high watermark and ends at the low
        watermark. The forced-drain window is recorded for the
        ``writeburst`` latency attribution.
        """
        if self.draining:
            if occupancy <= self._low_entries:
                self.draining = False
                self.windows.append((self._drain_start, now))
                self._drain_start = -1
        elif occupancy >= self._high_entries:
            self.draining = True
            self._drain_start = now
            self.stats_forced_drains += 1
        # Opportunistic: issue writes while no reads are pending, without
        # entering (or recording) a forced drain.
        return self.draining or (occupancy > 0 and not reads_pending)

    def finalize(self, now: int) -> None:
        """Close an in-progress drain window at end of simulation."""
        if self.draining and self._drain_start >= 0:
            self.windows.append((self._drain_start, now))
            self._drain_start = -1
            self.draining = False

