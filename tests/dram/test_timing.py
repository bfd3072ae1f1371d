"""Unit tests for the timing specifications."""

import pytest

from repro.dram.timing import (
    DDR4_2400,
    DDR4_3200,
    DDR5_4800,
    Organization,
    TimingSpec,
)
from repro.errors import ConfigurationError


class TestOrganization:
    def test_paper_defaults(self):
        org = Organization()
        assert org.banks == 16
        assert org.bank_groups == 4
        assert org.page_bytes == 8 * 1024
        assert org.capacity_bytes == 4 * 1024**3

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigurationError):
            Organization(bank_groups=3)

    def test_rejects_zero_ranks(self):
        with pytest.raises(ConfigurationError):
            Organization(ranks=0)

    def test_rejects_bus_wider_than_line(self):
        with pytest.raises(ConfigurationError):
            Organization(line_bytes=4, bus_bytes=8)


class TestDDR4_2400:
    """The paper's memory: DDR4-2400, 19.2 GB/s peak."""

    def test_peak_bandwidth_is_19_2(self):
        assert DDR4_2400.peak_bandwidth_gbps == pytest.approx(19.2)

    def test_transfer_rate_2400(self):
        assert DDR4_2400.transfer_rate_mts == pytest.approx(2400)

    def test_burst_takes_4_cycles(self):
        # 64 B line over an 8 B DDR bus: 8 transfers = 4 cycles.
        assert DDR4_2400.burst_cycles == 4

    def test_bank_group_slower_than_channel(self):
        # Paper Sec. VII-A: a bank group transfers one line in 6 cycles
        # while the channel needs only 4.
        assert DDR4_2400.tCCD_L == 6
        assert DDR4_2400.tCCD_S == DDR4_2400.burst_cycles == 4

    def test_refresh_fraction_is_a_few_percent(self):
        fraction = DDR4_2400.tRFC / DDR4_2400.tREFI
        assert 0.02 < fraction < 0.08

    def test_cycle_ns(self):
        assert DDR4_2400.cycle_ns == pytest.approx(1 / 1.2, rel=1e-6)

    def test_ns_cycle_round_trip(self):
        assert DDR4_2400.ns_to_cycles(DDR4_2400.cycles_to_ns(17)) == 17

    def test_bytes_per_cycle(self):
        assert DDR4_2400.bytes_per_cycle() == 16


class TestDerivedTimings:
    def test_trc_is_tras_plus_trp(self):
        assert DDR4_2400.tRC == DDR4_2400.tRAS + DDR4_2400.tRP

    def test_read_to_write_positive(self):
        assert DDR4_2400.read_to_write > 0

    def test_write_to_read_same_group_longer(self):
        assert DDR4_2400.write_to_read(True) > DDR4_2400.write_to_read(False)

    def test_tccd_selector(self):
        assert DDR4_2400.tCCD(True) == DDR4_2400.tCCD_L
        assert DDR4_2400.tCCD(False) == DDR4_2400.tCCD_S

    def test_trrd_selector(self):
        assert DDR4_2400.tRRD(True) == DDR4_2400.tRRD_L
        assert DDR4_2400.tRRD(False) == DDR4_2400.tRRD_S


class TestOtherGrades:
    def test_ddr4_3200_is_faster(self):
        assert DDR4_3200.peak_bandwidth_gbps > DDR4_2400.peak_bandwidth_gbps

    def test_ddr5_has_more_bank_groups(self):
        assert DDR5_4800.organization.bank_groups == 8

    def test_with_organization(self):
        two_rank = DDR4_2400.with_organization(ranks=2)
        assert two_rank.organization.ranks == 2
        assert DDR4_2400.organization.ranks == 1  # original untouched


class TestValidation:
    def test_rejects_inverted_tccd(self):
        with pytest.raises(ConfigurationError):
            TimingSpec(
                name="bad", freq_mhz=1200, organization=Organization(),
                tCL=17, tCWL=12, tRCD=17, tRP=17, tRAS=39,
                tCCD_S=6, tCCD_L=4,  # inverted
                tRRD_S=4, tRRD_L=6, tFAW=26, tWTR_S=3, tWTR_L=9,
                tWR=18, tRTP=9, tRFC=420, tREFI=9360,
            )

    def test_rejects_negative_timing(self):
        with pytest.raises(ConfigurationError):
            TimingSpec(
                name="bad", freq_mhz=1200, organization=Organization(),
                tCL=0, tCWL=12, tRCD=17, tRP=17, tRAS=39,
                tCCD_S=4, tCCD_L=6, tRRD_S=4, tRRD_L=6, tFAW=26,
                tWTR_S=3, tWTR_L=9, tWR=18, tRTP=9, tRFC=420, tREFI=9360,
            )

    def test_rejects_refresh_impossible(self):
        with pytest.raises(ConfigurationError):
            TimingSpec(
                name="bad", freq_mhz=1200, organization=Organization(),
                tCL=17, tCWL=12, tRCD=17, tRP=17, tRAS=39,
                tCCD_S=4, tCCD_L=6, tRRD_S=4, tRRD_L=6, tFAW=26,
                tWTR_S=3, tWTR_L=9, tWR=18, tRTP=9, tRFC=420, tREFI=50,
            )
