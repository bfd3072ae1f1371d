"""Write-drain policies: when buffered writes preempt reads.

The drain policy owns the forced-drain state machine and its recorded
windows (the ``writeburst`` latency attribution). It is consulted once
per scheduling decision through :meth:`select_mode`.

* ``watermark`` (default, the paper's behavior) — a forced drain runs
  from the high to the low watermark; writes are also issued
  *opportunistically* whenever no reads are pending.
* ``burst`` — once the high watermark triggers, the drain runs all the
  way to an empty buffer (classic full write-burst turnaround,
  maximizing the writes amortized per bus turnaround at the cost of
  longer read-blocking windows). Opportunistic writes behave as under
  ``watermark``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import
    # cycle: wqueue imports this module for its default policy)
    from repro.dram.wqueue import WriteQueueConfig


class WatermarkDrainPolicy:
    """High/low-watermark forced drains plus opportunistic writes."""

    name = "watermark"

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
    def select_mode(self, now: int, queue, reads_pending: bool) -> bool:
        """Advance the state machine; True while writes have priority.

        Short-circuits the empty, idle buffer (occupancy 0 is below
        every watermark, so the update would be a no-op returning
        False) — this is the common hot-path case.
        """
        if not self.draining and not queue:
            return False
        return self.update(now, len(queue), reads_pending)

    def update(self, now: int, occupancy: int, reads_pending: bool) -> bool:
        """One state-machine step on explicit occupancy.

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


class BurstDrainPolicy(WatermarkDrainPolicy):
    """Forced drains run to an empty buffer, not the low watermark."""

    name = "burst"

    def __init__(self, config: WriteQueueConfig) -> None:
        super().__init__(config)
        self._low_entries = 0
