"""A fixed pure-Python loop that gauges how fast the host runs right now.

The benchmark's host is a share of a machine other programs also load.
Its speed drifts by a tenth or more over minutes and by half in slow
spells, and wall time drifts with it, in process CPU time as much as in
elapsed time. While a point runs, a :class:`Gauge` interrupts it every
``INTERVAL_S`` to time one short chunk of this loop, and times one more
right after. A point's time scaled by ``REFERENCE_S`` over the mean
chunk time is its time on a host where a chunk takes ``REFERENCE_S``.
The simulator's speed moves that number; the host's drift largely
cancels out, since it slows the chunks and the point alike at the same
moments.

The loop mixes what the simulator does most: slotted-object attribute
updates, dict counting, a bounded heap and random reads and writes in a
table larger than the processor's private caches. It never changes, so
a change to the simulator cannot move it.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import statistics
import time
from heapq import heappop, heappush
from typing import Iterator

#: The chunk time, in seconds, that scaled times are reported at. It
#: is a fixed unit of the order of a chunk's time (7-13 ms on the
#: 2-vCPU Intel Xeon VM at 2.0 GHz, Python 3.11, the baseline was taken
#: on); changing it rescales every scaled time and baseline.
REFERENCE_S = 0.0075

#: Seconds between two chunks while a point runs, so about a twentieth
#: of a pass goes to the gauge.
INTERVAL_S = 0.2

_ITERATIONS = 4000
_TABLE_BITS = 19
_BANKS = 4096


class _Bank:
    __slots__ = ("row", "ready", "hits")

    def __init__(self) -> None:
        self.row = -1
        self.ready = 0
        self.hits = 0


class Gauge:
    """Samples the host's speed with chunks of the reference loop.

    Attributes:
        samples: seconds each chunk took, since the last :meth:`take`.
        spent: seconds spent in chunks so far; :meth:`clock` leaves
            them out, so work timed with it does not pay for the gauge.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._table = list(range(1 << _TABLE_BITS))
        self._banks = [_Bank() for __ in range(_BANKS)]
        #: The loop's state carries over from chunk to chunk, so each
        #: chunk reaches other parts of the table.
        self._x = 12345
        self._now = 0

    def clock(self) -> float:
        """``time.perf_counter()`` minus the time spent in chunks."""
        return time.perf_counter() - self.spent

    def sample(self) -> None:
        """Time one chunk, with the garbage collector paused so that the
        program's heap does not add to it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self._chunk()
            elapsed = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.samples.append(elapsed)
        self.spent += elapsed

    def take(self) -> float:
        """Mean chunk time of the samples so far; starts a new set."""
        mean = statistics.fmean(self.samples)
        self.samples = []
        return mean

    @contextlib.contextmanager
    def sampling(self) -> Iterator["Gauge"]:
        """Take a sample every ``INTERVAL_S`` while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def _chunk(self) -> int:
        mask = (1 << _TABLE_BITS) - 1
        table, banks, x, now = self._table, self._banks, self._x, self._now
        rows: dict[int, int] = {}
        heap: list[tuple[int, int]] = []
        total = 0
        for i in range(_ITERATIONS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            bank = banks[x & (_BANKS - 1)]
            row = (x >> 12) & 0xFFFF
            if bank.row == row:
                bank.hits += 1
                cost = 4
            else:
                bank.row = row
                cost = 22
            start = bank.ready if bank.ready > now else now
            bank.ready = start + cost
            rows[row] = rows.get(row, 0) + 1
            value = table[(x >> 3) & mask]
            # Each entry is its own int object, spread over about 20 MB
            # with the table: reading them costs memory traffic, which
            # is what slows the simulator most when the machine is
            # busy. XOR keeps every entry below the table size.
            table[(x >> 9) & mask] = value ^ i
            heappush(heap, (bank.ready, i))
            if len(heap) > 32:
                now = heappop(heap)[0]
                total += value & 7
        self._x, self._now = x, now
        return total + len(rows)
