"""Write buffer with watermark draining and read forwarding.

Writes are buffered in the memory controller so reads, which stall cores,
can be prioritized. The buffer drains in bursts under the paper's
watermark rule (:class:`~repro.dram.components.draining.WatermarkDrainPolicy`):
a *forced* drain begins when occupancy reaches the high watermark and
runs until the low watermark, during which reads are not scheduled (the
paper's ``writeburst`` latency component). Writes are also issued
*opportunistically* whenever no reads are pending. A read that hits a
buffered write is served from the buffer in :data:`FORWARD_LATENCY`
cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.dram.address import Coordinates
from repro.dram.commands import Request
from repro.dram.components.draining import WatermarkDrainPolicy
from repro.dram.scheduler import QueuedRequest, RequestQueue
from repro.errors import ConfigurationError, require_finite, require_int

#: Cycles from arrival to completion of a read served from the write
#: buffer (read forwarding).
FORWARD_LATENCY = 4


@dataclass(frozen=True)
class WriteQueueConfig:
    """Write buffer sizing.

    Attributes:
        capacity: number of buffered writes (paper default 32; Fig. 8
            evaluates 128).
        high_watermark: occupancy fraction that triggers a forced drain.
        low_watermark: occupancy fraction at which a forced drain stops.
    """

    capacity: int = 32
    high_watermark: float = 0.8
    low_watermark: float = 0.25

    def __post_init__(self) -> None:
        require_int("WriteQueueConfig", "capacity", self.capacity, 1)
        for name in ("high_watermark", "low_watermark"):
            require_finite("WriteQueueConfig", name, getattr(self, name), 0.0)
        if not self.low_watermark < self.high_watermark <= 1.0:
            raise ConfigurationError(
                "watermarks must satisfy 0 <= low < high <= 1, got "
                f"low={self.low_watermark} high={self.high_watermark}"
            )

    @property
    def high_entries(self) -> int:
        """Occupancy that triggers a forced drain."""
        return max(1, int(self.capacity * self.high_watermark))

    @property
    def low_entries(self) -> int:
        """Occupancy at which a forced drain stops."""
        return int(self.capacity * self.low_watermark)


class WriteBuffer:
    """Buffered writes plus their watermark drain state machine.

    Both engines advance :attr:`drain_policy` once per scheduling
    decision and probe :attr:`_addresses` (buffered line address ->
    count) for read forwarding, so a read forwards from any buffered
    write to the same cache line.
    """

    def __init__(
        self,
        config: WriteQueueConfig,
        num_banks: int,
        line_address: Callable[[int], int],
    ) -> None:
        self.config = config
        self.drain_policy = WatermarkDrainPolicy(config)
        self.queue = RequestQueue(num_banks)
        self._line_address = line_address
        self._addresses: dict[int, int] = {}
        #: Completed forced-drain windows [(start, end)], for accounting.
        #: Shared by reference with the drain policy's window list.
        self.drain_windows = self.drain_policy.windows

    def __len__(self) -> int:
        return len(self.queue)

    @property
    def draining(self) -> bool:
        """Whether a forced drain is in progress."""
        return self.drain_policy.draining

    @property
    def stats_forced_drains(self) -> int:
        """Forced drains triggered so far."""
        return self.drain_policy.stats_forced_drains

    def add(
        self, request: Request, coords: Coordinates, flat_bank: int
    ) -> QueuedRequest:
        """Buffer a write."""
        entry = self.queue.add(request, coords, flat_bank)
        line = self._line_address(request.address)
        self._addresses[line] = self._addresses.get(line, 0) + 1
        return entry

    def complete(self, entry: QueuedRequest) -> None:
        """A buffered write's CAS was issued; remove it."""
        self.queue.mark_served(entry)
        line = self._line_address(entry.request.address)
        count = self._addresses.get(line, 0) - 1
        if count <= 0:
            self._addresses.pop(line, None)
        else:
            self._addresses[line] = count

    def finalize(self, now: int) -> None:
        """Close an in-progress drain window at end of simulation."""
        self.drain_policy.finalize(now)
