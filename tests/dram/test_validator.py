"""Tests for the independent JEDEC timing validator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram import (
    ControllerConfig,
    MemoryController,
    Request,
    RequestType,
)
from repro.dram.commands import Command, CommandType
from repro.dram.timing import DDR4_2400
from repro.dram.validator import TimingValidator, validate_controller
from repro.errors import ConfigurationError, TimingViolationError

SPEC = DDR4_2400


def act(t, bg=0, bank=0, row=0, rank=0):
    return Command(CommandType.ACTIVATE, t, rank, bg, bank, row)


def rd(t, bg=0, bank=0, row=0, rank=0):
    return Command(CommandType.READ, t, rank, bg, bank, row)


def wr(t, bg=0, bank=0, row=0, rank=0):
    return Command(CommandType.WRITE, t, rank, bg, bank, row)


def pre(t, bg=0, bank=0, rank=0):
    return Command(CommandType.PRECHARGE, t, rank, bg, bank)


class TestLegalSequences:
    def test_open_page_read_burst(self):
        commands = [act(0)]
        t = SPEC.tRCD
        for i in range(4):
            commands.append(rd(t + i * SPEC.tCCD_L))
        assert TimingValidator(SPEC).validate(commands) == 5

    def test_row_cycle(self):
        commands = [
            act(0),
            rd(SPEC.tRCD),
            pre(max(SPEC.tRAS, SPEC.tRCD + SPEC.tRTP)),
            act(SPEC.tRC),
        ]
        TimingValidator(SPEC).validate(commands)

    def test_cross_group_cas_at_tccd_s(self):
        commands = [
            act(0, bg=0), act(SPEC.tRRD_S, bg=1),
            rd(SPEC.tRCD + SPEC.tRRD_S, bg=0),
            rd(SPEC.tRCD + SPEC.tRRD_S + SPEC.tCCD_S, bg=1),
        ]
        TimingValidator(SPEC).validate(commands)


class TestViolationsDetected:
    def test_cas_to_closed_bank(self):
        with pytest.raises(TimingViolationError):
            TimingValidator(SPEC).validate([rd(100)])

    def test_act_to_open_bank(self):
        with pytest.raises(TimingViolationError):
            TimingValidator(SPEC).validate([act(0), act(10)])

    def test_trcd_violation(self):
        with pytest.raises(TimingViolationError, match="tRCD"):
            TimingValidator(SPEC).validate([act(0), rd(SPEC.tRCD - 1)])

    def test_tccd_l_violation(self):
        commands = [act(0), rd(SPEC.tRCD), rd(SPEC.tRCD + SPEC.tCCD_L - 1)]
        with pytest.raises(TimingViolationError, match="tCCD_L"):
            TimingValidator(SPEC).validate(commands)

    def test_tras_violation(self):
        with pytest.raises(TimingViolationError, match="tRAS"):
            TimingValidator(SPEC).validate([act(0), pre(SPEC.tRAS - 1)])

    def test_trc_violation(self):
        commands = [
            act(0), pre(SPEC.tRAS), act(SPEC.tRC - 1),
        ]
        with pytest.raises(TimingViolationError, match="tRC|tRP"):
            TimingValidator(SPEC).validate(commands)

    def test_faw_violation(self):
        commands = []
        t = 0
        for i in range(4):
            commands.append(act(t, bg=i % 4, bank=0))
            t += SPEC.tRRD_S
        commands.append(act(SPEC.tFAW - 1, bg=0, bank=1))
        with pytest.raises(TimingViolationError, match="tFAW|tRRD"):
            TimingValidator(SPEC).validate(commands)

    def test_wrong_row_cas(self):
        commands = [act(0, row=5), rd(SPEC.tRCD, row=6)]
        with pytest.raises(TimingViolationError, match="row"):
            TimingValidator(SPEC).validate(commands)

    def test_write_to_read_violation(self):
        t_cas = SPEC.tRCD
        data_end = t_cas + SPEC.tCWL + SPEC.burst_cycles
        commands = [
            act(0),
            wr(t_cas),
            rd(data_end + SPEC.tWTR_L - 1),
        ]
        with pytest.raises(TimingViolationError, match="tWTR"):
            TimingValidator(SPEC).validate(commands)

    def test_bus_overlap_violation(self):
        commands = [
            act(0, bg=0), act(SPEC.tRRD_S, bg=1),
            rd(SPEC.tRCD + SPEC.tRRD_S, bg=0),
            # tCCD_S would allow this, but pretend a buggy scheduler
            # issued at +1: the bus check must catch it.
            rd(SPEC.tRCD + SPEC.tRRD_S + 1, bg=1),
        ]
        with pytest.raises(TimingViolationError):
            TimingValidator(SPEC).validate(commands)

    def test_out_of_order_stream(self):
        with pytest.raises(TimingViolationError, match="order"):
            TimingValidator(SPEC).validate([act(100), pre(50)])


class TestControllerConformance:
    """The real controller never violates timing — checked by the
    independent validator on randomized workloads."""

    def run_and_validate(self, config: ControllerConfig, requests):
        mc = MemoryController(config)
        for request in requests:
            mc.enqueue(request)
        mc.drain()
        mc.finalize()
        return validate_controller(mc)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 1 << 13),  # line
                st.booleans(),  # write?
                st.integers(0, 50),  # gap
            ),
            min_size=1, max_size=80,
        ),
        st.sampled_from(["open", "closed"]),
        st.sampled_from(["default", "interleaved"]),
    )
    def test_random_streams_conform(self, stream, policy, scheme):
        t = 0
        requests = []
        for line, is_write, gap in stream:
            t += gap
            requests.append(Request(
                RequestType.WRITE if is_write else RequestType.READ,
                line * 64, arrival=t,
            ))
        checked = self.run_and_validate(
            ControllerConfig(
                keep_command_trace=True,
                page_policy=policy,
                address_scheme=scheme,
            ),
            requests,
        )
        assert checked >= len(requests)

    def test_multi_rank_conforms(self):
        spec = SPEC.with_organization(ranks=2)
        requests = [
            Request(RequestType.READ, i * (1 << 17) + (i % 8) * 64,
                    arrival=i * 3)
            for i in range(500)
        ]
        checked = self.run_and_validate(
            ControllerConfig(spec=spec, keep_command_trace=True),
            requests,
        )
        assert checked > 500

    def test_requires_recording(self):
        mc = MemoryController(ControllerConfig())
        with pytest.raises(ConfigurationError):
            validate_controller(mc)


class TestClosedLoopConformance:
    def test_gap_workload_trace_conforms(self):
        """The full CpuSystem pipeline (caches, prefetcher, barriers)
        produces a timing-legal command schedule."""
        from repro.cpu import CpuSystem
        from repro.experiments.config import paper_system
        from repro.workloads.gap import GapWorkload

        import dataclasses

        config = paper_system(cores=4, page_policy="closed", gap=True)
        config = dataclasses.replace(
            config,
            memory=dataclasses.replace(
                config.memory, keep_command_trace=True
            ),
        )
        workload = GapWorkload("bfs", scale=10, degree=8)
        system = CpuSystem(config)
        system.run(workload.traces(4))
        checked = validate_controller(system.memory)
        assert checked > 500


def ref(t, rank=0):
    # All-bank REF: bank_group == -1 (bank_group >= 0 records a REFsb).
    return Command(CommandType.REFRESH, t, rank, -1, -1)


class TestRefreshRules:
    """JEDEC refresh discipline: banks precharged at REF, nothing in
    flight, and full silence for tRFC afterwards."""

    def test_legal_refresh_cycle(self):
        commands = [
            act(0),
            rd(SPEC.tRCD),
            pre(max(SPEC.tRAS, SPEC.tRCD + SPEC.tRTP)),
            ref(max(SPEC.tRAS, SPEC.tRCD + SPEC.tRTP) + SPEC.tRP
                + SPEC.tCL + SPEC.burst_cycles),
        ]
        TimingValidator(SPEC).validate(commands)

    def test_ref_with_open_row_rejected(self):
        commands = [act(0), ref(SPEC.tRCD + 100)]
        with pytest.raises(TimingViolationError, match="open"):
            TimingValidator(SPEC).validate(commands)

    def test_command_inside_trfc_rejected(self):
        commands = [ref(0), act(SPEC.tRFC - 1)]
        with pytest.raises(TimingViolationError, match="tRFC"):
            TimingValidator(SPEC).validate(commands)

    def test_first_command_after_trfc_accepted(self):
        TimingValidator(SPEC).validate([ref(0), act(SPEC.tRFC)])

    def test_trp_before_ref_rejected(self):
        t_pre = SPEC.tRAS
        commands = [
            act(0),
            pre(t_pre),
            ref(t_pre + SPEC.tRP - 1),
        ]
        with pytest.raises(TimingViolationError, match="tRP before REF"):
            TimingValidator(SPEC).validate(commands)

    def test_ref_inside_previous_trfc_rejected(self):
        commands = [ref(0), ref(SPEC.tRFC - 1)]
        with pytest.raises(TimingViolationError, match="tRFC"):
            TimingValidator(SPEC).validate(commands)

    def test_back_to_back_ref_at_trfc_accepted(self):
        TimingValidator(SPEC).validate([ref(0), ref(SPEC.tRFC)])

    def test_controller_refresh_stream_conforms(self):
        """A run long enough to include real refreshes still validates."""
        mc = MemoryController(ControllerConfig(keep_command_trace=True))
        for i in range(400):
            mc.enqueue(Request(RequestType.READ, i * 64, arrival=i * 40))
        mc.drain()
        mc.finalize()
        assert mc.log.refresh_windows, "run too short to exercise refresh"
        validate_controller(mc)
