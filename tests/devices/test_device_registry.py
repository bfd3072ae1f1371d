"""Device table and preset tests.

The table contract: named presets resolve to full device
configurations, selectors carry typed parameters, unknown names fail
with the list of choices, and the DDR4 presets return the *same*
TimingSpec objects the codebase has always used (bit-identity with
every historic run).
"""

import dataclasses

import pytest

from repro.devices import DEVICES, DevicePreset, make_device
from repro.dram.timing import DDR4_2400, DDR4_3200, Organization, TimingSpec
from repro.errors import ConfigurationError


class TestRegistry:
    def test_names_in_registration_order(self):
        assert tuple(DEVICES) == (
            "ddr4-2400", "ddr4-3200", "ddr5-4800", "lpddr5-6400", "hbm2",
        )

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ConfigurationError) as excinfo:
            make_device("ddr6-9000")
        message = str(excinfo.value)
        assert "ddr6-9000" in message
        for name in DEVICES:
            assert name in message

    def test_bad_parameter_name_raises(self):
        with pytest.raises(ConfigurationError) as excinfo:
            make_device("ddr5-4800:lanes=3")
        assert "ddr5-4800" in str(excinfo.value)

    def test_malformed_selector_raises(self):
        with pytest.raises(ConfigurationError):
            make_device("ddr5-4800:subchannels")

    def test_parameter_values_are_typed(self):
        preset = make_device("hbm2:pseudo_channels=4")
        assert preset.channels == 4

    def test_channels_must_be_power_of_two(self):
        with pytest.raises(ConfigurationError):
            DevicePreset(name="bad", spec=DDR4_2400, channels=3)


class TestPresets:
    def test_ddr4_presets_are_the_historic_spec_objects(self):
        assert make_device("ddr4-2400").spec is DDR4_2400
        assert make_device("ddr4-3200").spec is DDR4_3200

    def test_aggregate_peak_bandwidth(self):
        expected = {
            "ddr4-2400": 19.2,
            "ddr4-3200": 25.6,
            "ddr5-4800": 38.4,
            "lpddr5-6400": 12.8,
            "hbm2": 153.6,
        }
        for name, peak in expected.items():
            preset = make_device(name)
            assert preset.peak_bandwidth_gbps == pytest.approx(peak), name

    def test_ddr5_subchannel_variants_keep_aggregate_peak(self):
        for subchannels in (1, 2, 4):
            preset = make_device(
                f"ddr5-4800:subchannels={subchannels}"
            )
            assert preset.channels == subchannels
            assert preset.peak_bandwidth_gbps == pytest.approx(38.4)
            # Narrower sub-channels carry the line in longer bursts.
            org = preset.spec.organization
            burst = org.line_bytes // (org.bus_bytes * org.data_rate)
            assert burst == 4 * subchannels

    def test_ddr5_rejects_bad_subchannel_count(self):
        with pytest.raises(ConfigurationError):
            make_device("ddr5-4800:subchannels=3")

    def test_hbm2_rejects_bad_pseudo_channel_count(self):
        for bad in (1, 3, 32):
            with pytest.raises(ConfigurationError):
                make_device(f"hbm2:pseudo_channels={bad}")

    def test_lpddr5_is_bank_group_less(self):
        spec = make_device("lpddr5-6400").spec
        assert spec.organization.bank_groups == 1
        assert spec.organization.banks_per_group == 16
        # BG-off mode: no short/long CAS-to-CAS distinction.
        assert spec.tCCD_S == spec.tCCD_L

    def test_same_bank_refresh_presets_carry_trfcsb(self):
        for name in ("ddr5-4800", "lpddr5-6400"):
            preset = make_device(name)
            assert preset.refresh == "same-bank", name
            assert preset.spec.tRFCsb > 0, name
            assert preset.spec.tRFCsb < preset.spec.tRFC, name


class TestSpecCrossConstraints:
    """Eager TimingSpec validation names the offending preset."""

    def _spec(self, **overrides):
        return dataclasses.replace(DDR4_2400, name="bad-spec", **overrides)

    def test_tras_must_cover_trcd(self):
        with pytest.raises(ConfigurationError, match="bad-spec"):
            self._spec(tRAS=DDR4_2400.tRCD - 1)

    def test_trfc_must_fit_in_refresh_interval(self):
        with pytest.raises(ConfigurationError, match="bad-spec"):
            self._spec(tRFC=DDR4_2400.tREFI + 1)

    def test_trfcsb_cannot_exceed_trfc(self):
        with pytest.raises(ConfigurationError, match="bad-spec"):
            self._spec(tRFCsb=DDR4_2400.tRFC + 1)

    def test_trfcsb_cannot_be_negative(self):
        with pytest.raises(ConfigurationError, match="bad-spec"):
            self._spec(tRFCsb=-1)

    def test_tccd_must_cover_the_burst(self):
        # DDR4-2400: 64B line over 8B*2 = 4-cycle burst; tCCD_S < 4
        # would overlap data transfers.
        with pytest.raises(ConfigurationError, match="bad-spec"):
            self._spec(tCCD_S=2, tCCD_L=2)

    def test_burst_must_be_at_least_one_cycle(self):
        wide = dataclasses.replace(
            DDR4_2400.organization, bus_bytes=64, data_rate=2
        )
        with pytest.raises(ConfigurationError, match="bad-spec"):
            dataclasses.replace(
                DDR4_2400, name="bad-spec", organization=wide
            )

    def test_valid_spec_with_trfcsb_passes(self):
        spec = self._spec(tRFCsb=DDR4_2400.tRFC // 2)
        assert spec.tRFCsb == DDR4_2400.tRFC // 2

    def test_organization_unchanged(self):
        # The constraint checks must not reject the shipped presets.
        assert isinstance(DDR4_2400.organization, Organization)
        assert isinstance(DDR4_2400, TimingSpec)
