"""Fault-injection smoke suite.

Each injected fault class must be caught by its guardrail and surface as
the matching typed :class:`~repro.errors.ReproError` subclass — this is
the end-to-end proof that the detectors detect.
"""

import io

import pytest

from repro.dram import (
    ControllerConfig,
    MemoryController,
    Request,
    RequestType,
)
from repro.dram.timing import DDR4_2400
from repro.dram.validator import TimingValidator
from repro.errors import (
    AccountingError,
    ConfigurationError,
    SimulationStalledError,
    TimingViolationError,
    TraceFormatError,
)
from repro.reliability.auditor import InvariantAuditor
from repro.reliability.faults import (
    TRACE_FAULTS,
    corrupt_request,
    corrupt_trace_lines,
    drop_commands,
    force_stall,
    overlap_bursts,
    perturb_timing,
)
from repro.reliability.watchdog import ForwardProgressWatchdog
from repro.stacks.latency import LatencyStackAccountant
from repro.trace.io import read_trace, write_trace
from repro.trace.offline import capture_trace


def recorded_controller(requests=300):
    mc = MemoryController(ControllerConfig(keep_command_trace=True))
    for i in range(requests):
        kind = RequestType.WRITE if i % 4 == 0 else RequestType.READ
        mc.enqueue(Request(kind, (i * 64) % (1 << 22), arrival=i * 7))
    mc.drain()
    mc.finalize()
    return mc


def trace_lines(mc):
    buffer = io.StringIO()
    write_trace(capture_trace(mc), buffer)
    return buffer.getvalue().splitlines()


class TestTraceFaults:
    @pytest.mark.parametrize("kind", TRACE_FAULTS)
    def test_each_corruption_is_caught_with_line_number(self, kind):
        lines = trace_lines(recorded_controller(60))
        index = len(lines) // 2
        corrupted = corrupt_trace_lines(lines, kind, line_index=index)
        with pytest.raises(TraceFormatError) as info:
            read_trace(corrupted)
        assert info.value.line_number == index + 1  # 1-based
        assert info.value.line is not None
        assert f"line {index + 1}" in str(info.value)

    def test_rejects_unknown_fault_kind(self):
        with pytest.raises(ConfigurationError):
            corrupt_trace_lines(["DRAMTRACE v1 x 1"], kind="gremlins")


class TestDroppedCommands:
    def test_dropped_activates_violate_timing(self):
        mc = recorded_controller()
        commands = list(mc.log.commands)
        TimingValidator(mc.spec).validate(commands)  # sanity: legal
        broken = drop_commands(commands, kind="activate")
        with pytest.raises(TimingViolationError):
            TimingValidator(mc.spec).validate(broken)

    def test_dropped_precharges_violate_timing(self):
        # Closed-page policy precharges after every access, so the
        # stream is full of PREs whose absence re-opens "closed" rows.
        mc = MemoryController(ControllerConfig(
            keep_command_trace=True, page_policy="closed",
        ))
        for i in range(100):
            mc.enqueue(Request(RequestType.READ, i * 4096, arrival=i * 9))
        mc.drain()
        mc.finalize()
        broken = drop_commands(list(mc.log.commands), kind="precharge")
        with pytest.raises(TimingViolationError):
            TimingValidator(mc.spec).validate(broken)

    def test_drop_missing_kind_is_an_error(self):
        mc = recorded_controller(20)
        with pytest.raises(ConfigurationError, match="nothing to drop"):
            drop_commands(list(mc.log.commands), kind="refresh", every=1)


class TestPerturbedTiming:
    def test_tightened_spec_rejects_legal_stream(self):
        mc = recorded_controller()
        commands = list(mc.log.commands)
        harsher = perturb_timing(mc.spec, tRCD=+6)
        with pytest.raises(TimingViolationError):
            TimingValidator(harsher).validate(commands)

    def test_unknown_field_named(self):
        with pytest.raises(ConfigurationError, match="tBOGUS"):
            perturb_timing(DDR4_2400, tBOGUS=1)

    def test_loosened_spec_still_accepts(self):
        mc = recorded_controller(100)
        looser = perturb_timing(mc.spec, tRCD=-1)
        TimingValidator(looser).validate(list(mc.log.commands))


class TestForcedStall:
    def test_watchdog_catches_livelock(self):
        mc = MemoryController(ControllerConfig())
        mc.attach_watchdog(ForwardProgressWatchdog(threshold_cycles=2_000))
        force_stall(mc)
        mc.enqueue(Request(RequestType.READ, 0, arrival=0))
        with pytest.raises(SimulationStalledError):
            mc.drain()

    def test_stall_after_cycle_serves_earlier_work(self):
        mc = MemoryController(ControllerConfig())
        mc.attach_watchdog(ForwardProgressWatchdog(threshold_cycles=2_000))
        force_stall(mc, after_cycle=10_000_000)
        for i in range(32):
            mc.enqueue(Request(RequestType.READ, i * 64, arrival=i * 4))
        mc.drain()  # stall trigger never reached
        assert mc.stats.reads_completed == 32


class TestAccountingFaults:
    def test_corrupt_request_surfaces_typed_error(self):
        mc = recorded_controller()
        reads = [r for r in mc.completed_requests if r.is_read]
        corrupt_request(reads[0])
        with pytest.raises(AccountingError):
            LatencyStackAccountant(mc.spec).account(
                reads, mc.log.refresh_windows, mc.log.drain_windows
            )

    def test_overlap_burst_warn_mode_records(self):
        """The in-run audit raises on the overlap; nothing records it."""
        mc = recorded_controller()
        overlap_bursts(mc.log)
        with pytest.raises(AccountingError, match="data bursts overlap"):
            InvariantAuditor().audit_log_increment(mc.log, {})
