"""Unit tests for the bank state machine."""

import pytest

from repro.dram.bank import Bank
from repro.dram.timing import DDR4_2400
from repro.errors import ProtocolError


def make_bank():
    pre, act = [], []
    bank = Bank(DDR4_2400, bank_group=0, bank=0, pre_windows=pre,
                act_windows=act, flat_index=0)
    return bank, pre, act


class TestActivate:
    def test_opens_row(self):
        bank, __, act = make_bank()
        bank.do_activate(100, row=7, requester=2)
        assert bank.open_row == 7
        assert act == [(100, 100 + DDR4_2400.tRCD, 0, 2)]

    def test_cas_gated_by_trcd(self):
        bank, __, __ = make_bank()
        bank.do_activate(100, row=7)
        assert bank.next_cas == 100 + DDR4_2400.tRCD

    def test_precharge_gated_by_tras(self):
        bank, __, __ = make_bank()
        bank.do_activate(100, row=7)
        assert bank.next_pre == 100 + DDR4_2400.tRAS

    def test_next_act_gated_by_trc(self):
        bank, __, __ = make_bank()
        bank.do_activate(100, row=7)
        assert bank.next_act == 100 + DDR4_2400.tRC

    def test_activate_open_bank_is_protocol_error(self):
        bank, __, __ = make_bank()
        bank.do_activate(100, row=7)
        with pytest.raises(ProtocolError):
            bank.do_activate(200, row=8)


class TestPrecharge:
    def test_closes_row(self):
        bank, pre, __ = make_bank()
        bank.do_activate(0, row=3)
        bank.do_precharge(100)
        assert bank.open_row is None
        assert pre == [(100, 100 + DDR4_2400.tRP, 0, -1)]

    def test_act_gated_by_trp(self):
        bank, __, __ = make_bank()
        bank.do_activate(0, row=3)
        bank.do_precharge(100)
        assert bank.next_act >= 100 + DDR4_2400.tRP

    def test_precharge_closed_bank_is_protocol_error(self):
        bank, __, __ = make_bank()
        with pytest.raises(ProtocolError):
            bank.do_precharge(100)


class TestCas:
    def test_read_sets_rtp_gate(self):
        bank, __, __ = make_bank()
        bank.do_activate(0, row=1)
        bank.do_cas(50, is_write=False)
        assert bank.next_pre >= 50 + DDR4_2400.tRTP

    def test_write_sets_wr_gate(self):
        bank, __, __ = make_bank()
        bank.do_activate(0, row=1)
        bank.do_cas(50, is_write=True)
        data_end = 50 + DDR4_2400.tCWL + DDR4_2400.burst_cycles
        assert bank.next_pre >= data_end + DDR4_2400.tWR

    def test_cas_to_closed_bank_is_protocol_error(self):
        bank, __, __ = make_bank()
        with pytest.raises(ProtocolError):
            bank.do_cas(10, is_write=False)


class TestRefresh:
    def test_force_close(self):
        bank, __, __ = make_bank()
        bank.do_activate(0, row=5)
        bank.force_close_for_refresh()
        assert bank.open_row is None
