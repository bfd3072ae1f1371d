"""Unit tests for the write buffer and drain state machine."""

import pytest

from repro.dram.address import AddressMapping
from repro.dram.commands import Request, RequestType
from repro.dram.timing import Organization
from repro.dram.wqueue import WriteBuffer, WriteQueueConfig
from repro.errors import ConfigurationError

MAPPING = AddressMapping.default_scheme(Organization())


def buffer(capacity=32, high=0.8, low=0.25):
    return WriteBuffer(
        WriteQueueConfig(capacity=capacity, high_watermark=high,
                         low_watermark=low),
        num_banks=16,
        line_address=MAPPING.line_address,
    )


def add_write(buf: WriteBuffer, address: int):
    request = Request(RequestType.WRITE, address, arrival=0)
    coords = MAPPING.decode(address)
    return buf.add(request, coords, MAPPING.flat_bank_index(coords))


class TestConfig:
    def test_watermark_entries(self):
        config = WriteQueueConfig(capacity=32, high_watermark=0.8,
                                  low_watermark=0.25)
        assert config.high_entries == 25
        assert config.low_entries == 8

    def test_rejects_inverted_watermarks(self):
        with pytest.raises(ConfigurationError):
            WriteQueueConfig(high_watermark=0.2, low_watermark=0.5)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigurationError):
            WriteQueueConfig(capacity=0)

    @pytest.mark.parametrize("field,value", [
        ("capacity", True),
        ("capacity", 2.5),
        ("capacity", "8"),
        ("high_watermark", True),
    ])
    def test_rejects_non_numbers(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            WriteQueueConfig(**{field: value})


class TestDrainStateMachine:
    def test_no_drain_below_high_watermark_with_reads(self):
        buf = buffer(capacity=10, high=0.8, low=0.2)
        for i in range(7):
            add_write(buf, i * 64)
        assert buf.update(100, len(buf), True) is False
        assert not buf.draining

    def test_forced_drain_at_high_watermark(self):
        buf = buffer(capacity=10, high=0.8, low=0.2)
        for i in range(8):
            add_write(buf, i * 64)
        assert buf.update(100, len(buf), True) is True
        assert buf.draining
        assert buf.drain_windows == []  # recorded when the drain ends

    def test_drain_stops_at_low_watermark_and_records_window(self):
        buf = buffer(capacity=10, high=0.8, low=0.2)
        entries = [add_write(buf, i * 64) for i in range(8)]
        buf.update(100, len(buf), True)
        for entry in entries[:6]:
            buf.complete(entry)
        assert buf.update(500, len(buf), True) is False
        assert buf.drain_windows == [(100, 500)]

    def test_opportunistic_drain_without_reads(self):
        buf = buffer(capacity=10, high=0.8, low=0.2)
        add_write(buf, 0)
        assert buf.update(100, len(buf), False) is True
        assert not buf.draining  # opportunistic, not forced
        assert buf.drain_windows == []

    def test_finalize_closes_open_window(self):
        buf = buffer(capacity=10, high=0.8, low=0.2)
        for i in range(8):
            add_write(buf, i * 64)
        buf.update(100, len(buf), True)
        buf.finalize(900)
        assert buf.drain_windows == [(100, 900)]
        assert not buf.draining


class TestForwarding:
    def test_holds_address(self):
        buf = buffer()
        entry = add_write(buf, 128)
        assert 128 in buf._addresses
        assert 192 not in buf._addresses
        buf.complete(entry)
        assert 128 not in buf._addresses

    def test_duplicate_addresses_counted(self):
        buf = buffer()
        first = add_write(buf, 128)
        add_write(buf, 128)
        buf.complete(first)
        assert buf._addresses == {128: 1}
