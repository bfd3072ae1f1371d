"""Multi-channel memory system.

The paper builds one stack per memory controller/channel and aggregates
afterwards (Sec. IV). :class:`MemorySystem` routes requests to channels by
address (cache-line channel interleaving), exposes one combined clock, and
aggregates per-channel stacks.

The run/drain/pending forwarding lives in the shared
:class:`~repro.core.interfaces.CompositeMemory` base (the same contract
a single :class:`~repro.dram.controller.MemoryController` satisfies via
:class:`~repro.core.interfaces.MemoryInterface`), so the single- and
multi-channel paths cannot drift. Each channel keeps its own event log
and calls its own forward-progress watchdog.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.interfaces import CompositeMemory
from repro.dram.commands import Request
from repro.dram.controller import ControllerConfig, MemoryController
from repro.errors import ConfigurationError, require_int
from repro.stacks.bandwidth import BandwidthStackAccountant
from repro.stacks.components import Stack
from repro.stacks.latency import (
    LatencyStackAccountant,
    refresh_windows_for_latency,
)


@dataclass(frozen=True)
class MemorySystemConfig:
    """A memory system: `channels` identical controllers."""

    controller: ControllerConfig = field(default_factory=ControllerConfig)
    channels: int = 1

    def __post_init__(self) -> None:
        require_int("MemorySystemConfig", "channels", self.channels, 1)
        if self.channels & (self.channels - 1):
            raise ConfigurationError(
                f"channels must be a positive power of two, "
                f"got {self.channels}"
            )


class MemorySystem(CompositeMemory):
    """N interleaved memory channels behaving as one memory subsystem."""

    def __init__(self, config: MemorySystemConfig | None = None) -> None:
        self.config = config or MemorySystemConfig()
        self.controllers = [
            MemoryController(self.config.controller)
            for _ in range(self.config.channels)
        ]
        self.spec = self.controllers[0].spec
        line = self.spec.organization.line_bytes
        self._channel_shift = line.bit_length() - 1
        self._channel_mask = self.config.channels - 1

    @property
    def channels(self) -> Sequence[MemoryController]:
        """The per-channel controllers, in channel order."""
        return self.controllers

    # ------------------------------------------------------------------
    def channel_of(self, address: int) -> int:
        """Channel an address maps to (cache-line interleaving)."""
        return (address >> self._channel_shift) & self._channel_mask

    def enqueue(self, request: Request) -> None:
        """Route a request to its channel.

        The arrival is clamped up to the *target channel's* clock (not
        the composite max): channels advance unevenly when the driver
        runs them read-by-read, and clamping to the furthest channel
        would charge queueing delay that never happened.
        """
        mc = self.controllers[self.channel_of(request.address)]
        if request.arrival < mc.now:
            request.arrival = mc.now
        mc.enqueue(request)

    # ------------------------------------------------------------------
    # Reliability hooks
    # ------------------------------------------------------------------
    def attach_watchdogs(self, threshold_cycles: int | None = None) -> list:
        """One forward-progress watchdog per channel; returns them.

        A stalled channel raises
        :class:`~repro.errors.SimulationStalledError` from its own
        scheduling loop, carrying that channel's diagnostic snapshot.
        """
        from repro.reliability.watchdog import (
            DEFAULT_STALL_THRESHOLD,
            ForwardProgressWatchdog,
        )

        threshold = (
            DEFAULT_STALL_THRESHOLD if threshold_cycles is None
            else threshold_cycles
        )
        watchdogs = []
        for mc in self.controllers:
            watchdog = ForwardProgressWatchdog(threshold)
            mc.attach_watchdog(watchdog)
            watchdogs.append(watchdog)
        return watchdogs

    def stall_snapshots(self) -> dict[int, dict]:
        """Per-channel scheduling diagnostics (see `stall_snapshot`)."""
        return {
            i: mc.stall_snapshot() for i, mc in enumerate(self.controllers)
        }

    def stall_snapshot(self) -> dict:
        """Single diagnostic dict (MemoryController-compatible shape).

        Reports the most-stalled channel's snapshot, annotated with the
        channel index and the per-channel pending counts, so composite
        memories satisfy the same deadlock-diagnostic contract drivers
        expect from one controller.
        """
        worst = max(
            range(len(self.controllers)),
            key=lambda i: self.controllers[i].queued_requests,
        )
        snapshot = dict(self.controllers[worst].stall_snapshot())
        snapshot["channel"] = worst
        snapshot["channel_pending"] = [
            mc.pending_requests for mc in self.controllers
        ]
        return snapshot

    def attach_watchdog(self, watchdog) -> None:
        """Install one watchdog on every channel (None to detach).

        Each channel calls it with itself, so a stall on any channel
        raises. Per-channel watchdogs with independent thresholds and
        counts come from :meth:`attach_watchdogs`.
        """
        for mc in self.controllers:
            mc.attach_watchdog(watchdog)

    @property
    def watchdog(self):
        """The watchdog installed by :meth:`attach_watchdog`, if any."""
        return self.controllers[0].watchdog

    @property
    def completed_requests(self) -> list[Request]:
        """Completed requests of all channels, in finish order."""
        merged = [
            r for mc in self.controllers for r in mc.completed_requests
        ]
        merged.sort(key=lambda r: r.finish)
        return merged

    @property
    def stats(self):
        """Aggregated :class:`ControllerStats` across channels."""
        from repro.dram.controller import ControllerStats

        total = ControllerStats()
        for mc in self.controllers:
            for name in vars(mc.stats):
                setattr(
                    total, name,
                    getattr(total, name) + getattr(mc.stats, name),
                )
        return total

    @property
    def peak_bandwidth_gbps(self) -> float:
        """System peak: channels x per-channel peak."""
        return self.spec.peak_bandwidth_gbps * len(self.controllers)

    # ------------------------------------------------------------------
    def bandwidth_stack(self, total_cycles: int, label: str = "") -> Stack:
        """Aggregate bandwidth stack: the sum of per-channel stacks.

        The total equals the system peak (channels x per-channel peak).
        """
        stacks = self.per_channel_bandwidth_stacks(total_cycles, label)
        combined = stacks[0]
        for stack in stacks[1:]:
            combined = combined + stack
        combined.label = label
        return combined

    def per_channel_bandwidth_stacks(
        self, total_cycles: int, label: str = ""
    ) -> list[Stack]:
        """One bandwidth stack per channel, from that channel's tap."""
        accountant = BandwidthStackAccountant(self.spec)
        return [
            accountant.account(mc.log, total_cycles, f"{label} ch{i}")
            for i, mc in enumerate(self.controllers)
        ]

    def per_channel_latency_stacks(
        self, base_controller_cycles: int = 0, label: str = ""
    ) -> list[Stack]:
        """One latency stack per channel (channels with no reads get an
        empty stack so indices still line up with :attr:`channels`)."""
        accountant = LatencyStackAccountant(self.spec, base_controller_cycles)
        stacks = []
        for i, mc in enumerate(self.controllers):
            reads = self._latency_reads(mc)
            stacks.append(accountant.account(
                reads, refresh_windows_for_latency(mc.log),
                mc.log.drain_windows, f"{label} ch{i}",
            ))
        return stacks

    def latency_stack(
        self, base_controller_cycles: int = 0, label: str = ""
    ) -> Stack:
        """Latency stack over the reads of all channels.

        Per-channel stacks are averaged weighted by each channel's read
        count, so the combined stack is the mean over all reads.
        """
        accountant = LatencyStackAccountant(self.spec, base_controller_cycles)
        stacks = []
        weights = []
        for mc in self.controllers:
            reads = self._latency_reads(mc)
            if not reads:
                continue
            stacks.append(accountant.account(
                reads, refresh_windows_for_latency(mc.log),
                mc.log.drain_windows,
            ))
            weights.append(len(reads))
        if not stacks:
            return accountant.account([], [], [], label)
        total = sum(weights)
        combined = stacks[0].scaled(weights[0] / total)
        for stack, weight in zip(stacks[1:], weights[1:]):
            combined = combined + stack.scaled(weight / total)
        combined.label = label
        return combined

    @staticmethod
    def _latency_reads(mc: MemoryController) -> list[Request]:
        """The reads a latency stack accounts (demand, served by DRAM)."""
        return [
            r for r in mc.completed_requests
            if r.is_read and not r.is_prefetch and not r.forwarded
        ]
