"""Unit tests for request queues and scheduling policies."""

import pytest

from repro.dram.address import AddressMapping
from repro.dram.commands import Request, RequestType
from repro.dram.scheduler import RequestQueue
from repro.dram.timing import Organization
from repro.errors import ConfigurationError

MAPPING = AddressMapping.default_scheme(Organization())


def queued(queue: RequestQueue, address: int, req_type=RequestType.READ):
    request = Request(req_type, address, arrival=0)
    coords = MAPPING.decode(address)
    return queue.add(request, coords, MAPPING.flat_bank_index(coords))


def address_for(bank_group: int, bank: int, row: int, column: int = 0) -> int:
    from repro.dram.address import Coordinates

    return MAPPING.encode(Coordinates(0, 0, bank_group, bank, row, column))


class TestRequestQueue:
    def test_len_tracks_adds_and_serves(self):
        queue = RequestQueue(16)
        entries = [queued(queue, i * 64) for i in range(5)]
        assert len(queue) == 5
        queue.mark_served(entries[0])
        assert len(queue) == 4

    def test_double_serve_is_idempotent(self):
        queue = RequestQueue(16)
        entry = queued(queue, 0)
        queue.mark_served(entry)
        queue.mark_served(entry)
        assert len(queue) == 0

    def test_oldest_is_fifo(self):
        queue = RequestQueue(16)
        first = queued(queue, 0)
        queued(queue, 64)
        assert queue.oldest() is first

    def test_oldest_skips_served(self):
        queue = RequestQueue(16)
        first = queued(queue, 0)
        second = queued(queue, 64)
        queue.mark_served(first)
        assert queue.oldest() is second

    def test_row_hit_lookup(self):
        queue = RequestQueue(16)
        miss = queued(queue, address_for(0, 0, row=1))
        hit = queued(queue, address_for(0, 0, row=2))
        flat = miss.flat_bank
        assert queue.oldest_row_hit(flat, 2) is hit
        assert queue.oldest_row_hit(flat, 3) is None


class TestFrFcfs:
    def test_prefers_row_hit_over_older_miss(self):
        queue = RequestQueue(16)
        miss = queued(queue, address_for(0, 0, row=1))
        hit = queued(queue, address_for(0, 0, row=2))
        open_rows: list = [None] * 16
        open_rows[miss.flat_bank] = 2  # row 2 is open
        candidates = queue.candidates(open_rows, "fr-fcfs")
        assert candidates == [hit]

    def test_falls_back_to_oldest_without_hit(self):
        queue = RequestQueue(16)
        first = queued(queue, address_for(0, 0, row=1))
        queued(queue, address_for(0, 0, row=2))
        open_rows: list = [None] * 16
        candidates = queue.candidates(open_rows, "fr-fcfs")
        assert candidates == [first]

    def test_one_candidate_per_bank(self):
        queue = RequestQueue(16)
        queued(queue, address_for(0, 0, row=1))
        queued(queue, address_for(1, 0, row=1))
        queued(queue, address_for(2, 0, row=1))
        candidates = queue.candidates([None] * 16, "fr-fcfs")
        assert len(candidates) == 3


class TestFcfs:
    def test_only_global_oldest(self):
        queue = RequestQueue(16)
        first = queued(queue, address_for(0, 0, row=1))
        queued(queue, address_for(1, 0, row=1))
        candidates = queue.candidates([None] * 16, "fcfs")
        assert candidates == [first]

    def test_unknown_policy_raises(self):
        queue = RequestQueue(16)
        queued(queue, 0)
        with pytest.raises(ConfigurationError):
            queue.candidates([None] * 16, "round-robin")
