"""Request queues and scheduling policies.

The controller keeps one :class:`RequestQueue` for reads and one inside the
write buffer. Requests are indexed per bank (and per row within a bank) so
the FR-FCFS policy can find, in O(banks), the oldest row-hit request for
every bank and the oldest request overall.

Two policies are provided:

* ``fr-fcfs`` — first-ready, first-come-first-served: per bank, prefer the
  oldest request that hits the currently open row; fall back to the oldest
  request for that bank. This is the paper's configuration.
* ``fcfs`` — strict arrival order, no reordering.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.dram.address import Coordinates
from repro.dram.commands import Request
from repro.errors import ConfigurationError

SCHEDULING_POLICIES = ("fr-fcfs", "fcfs")

#: FR-FCFS reordering bound, in cycles: a bank's oldest request that has
#: waited longer than this beats younger row hits to its bank.
STARVATION_CAP = 1500


@dataclass(slots=True)
class QueuedRequest:
    """A request with its decoded coordinates, as held in a queue."""

    request: Request
    coords: Coordinates
    flat_bank: int
    served: bool = False

    @property
    def arrival_order(self) -> int:
        """Monotone id used for age ordering."""
        return self.request.req_id


class RequestQueue:
    """Per-bank indexed FIFO of pending requests.

    Requests are stored per bank in arrival order, additionally indexed by
    row so a row-hit candidate is found in O(1). Entries are removed lazily:
    :meth:`mark_served` flags the entry, and flagged entries are skipped and
    dropped when they reach the head of a deque.
    """

    def __init__(self, num_banks: int) -> None:
        self._num_banks = num_banks
        self._bank_fifo: list[deque[QueuedRequest]] = [
            deque() for _ in range(num_banks)
        ]
        self._by_row: list[dict[int, deque[QueuedRequest]]] = [
            {} for _ in range(num_banks)
        ]
        self._global_fifo: deque[QueuedRequest] = deque()
        self._bank_counts = [0] * num_banks
        self._active_banks: set[int] = set()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def add(
        self, request: Request, coords: Coordinates, flat_bank: int
    ) -> QueuedRequest:
        """Enqueue a request; returns the queue entry."""
        entry = QueuedRequest(request, coords, flat_bank)
        self._bank_fifo[flat_bank].append(entry)
        rows = self._by_row[flat_bank]
        rfifo = rows.get(coords.row)
        if rfifo is None:
            rows[coords.row] = rfifo = deque()
        rfifo.append(entry)
        self._global_fifo.append(entry)
        counts = self._bank_counts
        if counts[flat_bank] == 0:
            self._active_banks.add(flat_bank)
        counts[flat_bank] += 1
        self._size += 1
        return entry

    def mark_served(self, entry: QueuedRequest) -> None:
        """Remove a request from the queue (lazily)."""
        if entry.served:
            return
        entry.served = True
        self._bank_counts[entry.flat_bank] -= 1
        if self._bank_counts[entry.flat_bank] == 0:
            self._active_banks.discard(entry.flat_bank)
        self._size -= 1

    # ------------------------------------------------------------------
    def _head(self, fifo: deque[QueuedRequest]) -> QueuedRequest | None:
        """First unserved entry of a deque, dropping served ones."""
        while fifo:
            entry = fifo[0]
            if entry.served:
                fifo.popleft()
                continue
            return entry
        return None

    def oldest(self) -> QueuedRequest | None:
        """Oldest pending request across all banks."""
        return self._head(self._global_fifo)

    def oldest_row_hit(self, flat_bank: int, row: int) -> QueuedRequest | None:
        """Oldest pending request to (`flat_bank`, `row`), if any."""
        rows = self._by_row[flat_bank]
        fifo = rows.get(row)
        if fifo is None:
            return None
        entry = self._head(fifo)
        if entry is None:
            del rows[row]
        return entry

    def has_request_for_row(self, flat_bank: int, row: int) -> bool:
        """Whether any pending request targets (`flat_bank`, `row`)."""
        return self.oldest_row_hit(flat_bank, row) is not None

    def pending_entries(self, limit: int | None = None):
        """Unserved entries in arrival order (up to `limit`)."""
        entries = []
        for entry in self._global_fifo:
            if entry.served:
                continue
            entries.append(entry)
            if limit is not None and len(entries) >= limit:
                break
        return entries

    def candidates(
        self,
        open_rows: list[int | None],
        policy: str,
        now: int = 0,
    ) -> list[QueuedRequest]:
        """Per-bank scheduling candidates under `policy`.

        For FR-FCFS this returns, for each bank with pending work, the
        oldest row-hit request when the bank's open row has one, otherwise
        the bank's oldest request — unless the bank's oldest request has
        waited longer than :data:`STARVATION_CAP` cycles, in which case
        age wins (real FR-FCFS implementations bound reordering the same
        way).
        For FCFS it returns only the globally oldest request.
        """
        if policy == "fcfs":
            entry = self.oldest()
            return [entry] if entry is not None else []
        if policy != "fr-fcfs":
            raise ConfigurationError(
                f"unknown scheduling policy {policy!r}; "
                f"expected one of {sorted(SCHEDULING_POLICIES)}"
            )
        result = []
        for flat_bank in self._active_banks:
            oldest = self._head(self._bank_fifo[flat_bank])
            if oldest is None:
                continue
            entry = None
            row = open_rows[flat_bank]
            if (
                row is not None
                and now - oldest.request.arrival <= STARVATION_CAP
            ):
                entry = self.oldest_row_hit(flat_bank, row)
            result.append(entry if entry is not None else oldest)
        return result
