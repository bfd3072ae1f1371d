"""Tests for the energy-stack extension."""

import pytest

from repro.dram import ControllerConfig, MemoryController
from repro.dram.controller import EventLog
from repro.dram.timing import DDR4_2400
from repro.errors import AccountingError
from repro.stacks.energy import (
    ENERGY_COMPONENTS,
    EnergyAccountant,
    EnergyModel,
    energy_stack_from_log,
)

from tests.conftest import make_reads, make_writes, run_stream

SPEC = DDR4_2400


class TestHandBuilt:
    def test_counts_map_to_energy(self):
        model = EnergyModel(
            act_pre_nj=10.0, read_nj=1.0, write_nj=2.0,
            refresh_nj=100.0, background_mw=0.0,
        )
        log = EventLog(
            bursts=[
                (0, 4, False, 0, 0), (4, 8, True, 0, 0), (8, 12, False, 0, 0),
            ],
            act_windows=[(0, 17, 0, 0)],
            refresh_windows=[(100, 520)],
        )
        stack = EnergyAccountant(SPEC, model).account(log, 1000)
        assert stack["read"] == pytest.approx(2e-3)
        assert stack["write"] == pytest.approx(2e-3)
        assert stack["activate_precharge"] == pytest.approx(10e-3)
        assert stack["refresh"] == pytest.approx(100e-3)
        assert stack["background"] == 0.0

    def test_background_scales_with_time(self):
        model = EnergyModel(background_mw=100.0)
        acct = EnergyAccountant(SPEC, model)
        one = acct.account(EventLog(), 1000)["background"]
        two = acct.account(EventLog(), 2000)["background"]
        assert two == pytest.approx(2 * one)

    def test_component_order(self):
        stack = energy_stack_from_log(EventLog(), 100, SPEC)
        assert tuple(stack.components) == ENERGY_COMPONENTS

    def test_zero_cycles_rejected(self):
        with pytest.raises(AccountingError):
            energy_stack_from_log(EventLog(), 0, SPEC)

    def test_negative_coefficients_rejected(self):
        with pytest.raises(AccountingError):
            EnergyModel(read_nj=-1.0)


class TestSimulated:
    def run(self, stride=64, count=800):
        mc = MemoryController(ControllerConfig())
        run_stream(mc, make_reads(count, stride=stride, gap=6))
        return mc

    def test_row_misses_cost_more_act_energy(self):
        hits = self.run(stride=64)
        misses = self.run(stride=1 << 21)
        acct = EnergyAccountant(SPEC)
        e_hits = acct.account(hits.log, hits.now)
        e_misses = acct.account(misses.log, misses.now)
        assert (
            e_misses["activate_precharge"]
            > 10 * e_hits["activate_precharge"]
        )

    def test_average_power_unit(self):
        mc = self.run()
        power = EnergyAccountant(SPEC).average_power(mc.log, mc.now)
        assert power.unit == "mW"
        assert power["background"] == pytest.approx(90.0, rel=0.01)

    def test_energy_per_bit_in_plausible_range(self):
        mc = self.run()
        pj_per_bit = EnergyAccountant(SPEC).energy_per_bit(mc.log, mc.now)
        # DDR4 is a few pJ/bit up to tens of pJ/bit at low utilization.
        assert 1.0 < pj_per_bit < 200.0

    def test_no_data_rejected(self):
        mc = MemoryController(ControllerConfig())
        mc.run_until(1000)
        with pytest.raises(AccountingError):
            EnergyAccountant(SPEC).energy_per_bit(mc.log, mc.now)

    def test_writes_counted(self):
        mc = MemoryController(ControllerConfig())
        run_stream(mc, make_writes(300, gap=8))
        stack = EnergyAccountant(SPEC).account(mc.log, mc.now)
        assert stack["write"] > 0
        assert stack["read"] == 0.0
