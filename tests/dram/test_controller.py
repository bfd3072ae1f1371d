"""Integration tests for the memory controller."""

import numpy
import pytest

from repro.dram import (
    ControllerConfig,
    MemoryController,
    Request,
    RequestType,
)
from repro.dram.controller import ENGINES
from repro.dram.timing import DDR4_2400
from repro.dram.wqueue import FORWARD_LATENCY, WriteQueueConfig
from repro.errors import ConfigurationError

from tests.conftest import make_reads, make_writes, run_stream

SPEC = DDR4_2400


class TestSingleRead:
    def test_cold_read_latency(self, controller):
        controller.enqueue(Request(RequestType.READ, 0, arrival=0))
        done = controller.drain()
        assert len(done) == 1
        req = done[0]
        # Cold bank: ACT at 0, CAS at tRCD, data ends tCL + burst later.
        assert req.cas_issue == SPEC.tRCD
        assert req.finish == SPEC.tRCD + SPEC.tCL + SPEC.burst_cycles
        assert not req.row_hit

    def test_row_hit_read_latency(self, controller):
        controller.enqueue(Request(RequestType.READ, 0, arrival=0))
        controller.drain()
        controller.enqueue(
            Request(RequestType.READ, 64, arrival=controller.now)
        )
        done = controller.drain()
        req = done[0]
        assert req.row_hit
        assert req.finish - req.arrival == SPEC.tCL + SPEC.burst_cycles

    def test_row_conflict_needs_pre_act(self, controller):
        controller.enqueue(Request(RequestType.READ, 0, arrival=0))
        controller.drain()
        conflict_addr = 1 << 21  # same bank, different row (default scheme)
        a = controller.mapping.decode(0)
        b = controller.mapping.decode(conflict_addr)
        assert (a.bank_group, a.bank) == (b.bank_group, b.bank)
        assert a.row != b.row
        controller.enqueue(
            Request(RequestType.READ, conflict_addr, arrival=controller.now)
        )
        done = controller.drain()
        req = done[0]
        assert not req.row_hit
        assert req.own_pre_start >= 0
        assert req.own_act_start >= 0


class TestThroughput:
    def test_same_page_reads_pace_at_tccd_l(self):
        # Back-to-back reads within one page (one bank, one bank group)
        # sustain one line per tCCD_L: burst/tCCD_L of peak utilization.
        mc = MemoryController(ControllerConfig(refresh="none"))
        run_stream(mc, make_reads(120, gap=0))  # 120 lines < one 128-line page
        data_cycles = 120 * SPEC.burst_cycles
        utilization = data_cycles / mc.now
        assert utilization == pytest.approx(
            SPEC.burst_cycles / SPEC.tCCD_L, rel=0.05
        )

    def test_multi_page_backlog_interleaves_bank_groups(self):
        # A fully-queued sequential stream spans pages in different bank
        # groups; FR-FCFS interleaves them at tCCD_S and nearly saturates
        # the channel.
        mc = MemoryController(ControllerConfig(refresh="none"))
        run_stream(mc, make_reads(512, gap=0))
        utilization = 512 * SPEC.burst_cycles / mc.now
        assert utilization > 0.9

    def test_interleaved_reads_saturate_channel(self):
        # Reads striped across bank groups reach ~full bus utilization.
        config = ControllerConfig(
            address_scheme="interleaved", refresh="none"
        )
        mc = MemoryController(config)
        run_stream(mc, make_reads(500, gap=0))
        utilization = 500 * SPEC.burst_cycles / mc.now
        assert utilization > 0.9

    def test_page_hit_rate_sequential(self):
        mc = MemoryController(ControllerConfig(refresh="none"))
        run_stream(mc, make_reads(512, gap=4))
        assert mc.stats.page_hit_rate > 0.95

    def test_random_rows_all_miss(self):
        mc = MemoryController(ControllerConfig(refresh="none"))
        # Stride of one row within a bank: every access a new row.
        row_stride = 1 << 21
        reads = make_reads(100, stride=row_stride, gap=60)
        run_stream(mc, reads)
        assert mc.stats.page_hit_rate < 0.05


class TestWrites:
    def test_writes_complete(self):
        mc = MemoryController(ControllerConfig())
        run_stream(mc, make_writes(100, gap=4))
        assert mc.stats.writes_completed == 100

    def test_forced_drain_happens_when_buffer_fills(self):
        config = ControllerConfig(
            write_queue=WriteQueueConfig(capacity=8, high_watermark=0.75,
                                         low_watermark=0.25)
        )
        mc = MemoryController(config)
        # Interleave reads to keep the controller in read mode while
        # writes accumulate.
        requests = []
        for i in range(64):
            requests.append(Request(RequestType.READ, i * 64, arrival=i * 8))
            requests.append(
                Request(RequestType.WRITE, (1 << 22) + i * 64, arrival=i * 8)
            )
        run_stream(mc, requests)
        assert len(mc.log.drain_windows) >= 1

    def test_read_forwarding_from_write_buffer(self):
        mc = MemoryController(ControllerConfig())
        mc.enqueue(Request(RequestType.WRITE, 4096, arrival=0))
        # Enough reads to keep the write buffered, then a read to the
        # written address.
        for i in range(4):
            mc.enqueue(Request(RequestType.READ, i * 64, arrival=0))
        mc.enqueue(Request(RequestType.READ, 4096, arrival=1))
        done = run_stream(mc, []).completed_requests
        forwarded = [r for r in done if r.forwarded]
        assert len(forwarded) == 1
        assert forwarded[0].finish == 1 + FORWARD_LATENCY

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("write,read", [
        (4100, 4100), (4100, 4096), (4096, 4100),
    ])
    def test_forwarding_matches_by_cache_line(self, engine, write, read):
        """A buffered write forwards to a read of the same cache line,
        wherever in the line either address falls."""
        mc = MemoryController(ControllerConfig(engine=engine))
        mc.enqueue(Request(RequestType.WRITE, write, arrival=0))
        for i in range(4):
            mc.enqueue(Request(RequestType.READ, i * 64, arrival=0))
        mc.enqueue(Request(RequestType.READ, read, arrival=1))
        done = run_stream(mc, []).completed_requests
        assert sum(r.forwarded for r in done) == 1
        # The write left the buffer under the line it entered with.
        assert mc._write_buffer._addresses == {}


class TestRefresh:
    def test_refresh_fires_at_trefi(self):
        mc = MemoryController(ControllerConfig())
        mc.run_until(SPEC.tREFI * 4 + 100)
        assert mc.stats.refreshes == 4
        assert len(mc.log.refresh_windows) == 4

    def test_refresh_window_length_is_trfc(self):
        mc = MemoryController(ControllerConfig())
        mc.run_until(SPEC.tREFI + 100)
        start, end = mc.log.refresh_windows[0]
        assert end - start == SPEC.tRFC

    def test_refresh_closes_open_rows(self):
        mc = MemoryController(ControllerConfig())
        mc.enqueue(Request(RequestType.READ, 0, arrival=0))
        mc.drain()
        assert any(b.is_open for b in mc.banks)
        mc.run_until(SPEC.tREFI + SPEC.tRFC + 200)
        assert not any(b.is_open for b in mc.banks)

    def test_refresh_can_be_disabled(self):
        mc = MemoryController(ControllerConfig(refresh="none"))
        mc.run_until(SPEC.tREFI * 3)
        assert mc.stats.refreshes == 0

    def test_reads_resume_after_refresh(self):
        mc = MemoryController(ControllerConfig())
        reads = make_reads(50, gap=SPEC.tREFI // 25)  # spans a refresh
        for request in reads:
            mc.enqueue(request)
        done = mc.drain()
        assert len(done) == 50


class TestPagePolicies:
    def test_closed_policy_precharges_idle_banks(self):
        mc = MemoryController(ControllerConfig(page_policy="closed"))
        mc.enqueue(Request(RequestType.READ, 0, arrival=0))
        mc.drain()
        mc.run_until(mc.now + 200)
        assert not any(b.is_open for b in mc.banks)

    def test_open_policy_keeps_rows_open(self):
        mc = MemoryController(ControllerConfig(page_policy="open"))
        mc.enqueue(Request(RequestType.READ, 0, arrival=0))
        mc.drain()
        mc.run_until(mc.now + 200)
        assert any(b.is_open for b in mc.banks)

    def test_closed_policy_hits_become_misses(self):
        reads = make_reads(64, gap=80)  # sparse: bank goes idle between
        open_mc = run_stream(
            MemoryController(ControllerConfig(page_policy="open")),
            [Request(r.req_type, r.address, r.arrival) for r in reads],
        )
        closed_mc = run_stream(
            MemoryController(ControllerConfig(page_policy="closed")),
            [Request(r.req_type, r.address, r.arrival) for r in reads],
        )
        assert open_mc.stats.row_hits > closed_mc.stats.row_hits


class TestEventLogSanity:
    def test_bursts_never_overlap(self):
        mc = MemoryController(ControllerConfig(address_scheme="interleaved"))
        requests = make_reads(300, gap=2)
        requests.extend(make_writes(100, start_address=1 << 22, gap=6))
        run_stream(mc, sorted(requests, key=lambda r: r.arrival))
        bursts = sorted(mc.log.bursts)
        for (s1, e1, *_), (s2, e2, *_) in zip(bursts, bursts[1:]):
            assert e1 <= s2

    def test_command_trace_optional(self):
        mc = MemoryController(ControllerConfig(keep_command_trace=True))
        run_stream(mc, make_reads(10, gap=10))
        assert len(mc.log.commands) >= 10
        mc2 = MemoryController(ControllerConfig(keep_command_trace=False))
        run_stream(mc2, make_reads(10, gap=10))
        assert mc2.log.commands == []

    def test_stale_arrival_rejected(self):
        mc = MemoryController(ControllerConfig())
        mc.run_until(1000)
        with pytest.raises(ConfigurationError):
            mc.enqueue(Request(RequestType.READ, 0, arrival=10))

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("field", ["arrival", "address"])
    @pytest.mark.parametrize(
        "value", [10.5, 10.0, True, numpy.int64(10)],
        ids=["float", "integral-float", "bool", "numpy-int64"],
    )
    def test_non_int_arrival_or_address_rejected(self, engine, field, value):
        # Both engines write arrivals and addresses into the
        # fingerprinted log, which holds plain ints; a bool is an int
        # subclass and a numpy integer compares equal to one, so the
        # check is on the exact type.
        fields = {"arrival": 10, "address": 64, field: value}
        mc = MemoryController(ControllerConfig(engine=engine))
        with pytest.raises(ConfigurationError, match="must be int"):
            mc.enqueue(Request(
                RequestType.READ, fields["address"],
                arrival=fields["arrival"],
            ))
        assert mc.pending_requests == 0
        assert mc.stats.reads_enqueued == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_windows_name_their_requester(self, engine):
        # Two requesters on different rows of the same banks, sparse
        # enough to idle with data in flight and to leave rows open at
        # the first refresh.
        mc = MemoryController(ControllerConfig(engine=engine))
        run_stream(mc, [
            Request(
                RequestType.READ, (requester << 22) + i * 64,
                arrival=i * 150 + requester * 70, core_id=requester,
                requester_id=requester,
            )
            for i in range(100) for requester in (0, 1)
        ])
        log = mc.log
        refresh_starts = {start for start, __ in log.refresh_windows}
        by_refresh = [w for w in log.pre_windows if w[1] in refresh_starts]
        assert by_refresh
        assert all(w[3] == -1 for w in by_refresh)
        act, cas = set(log.act_windows), set(log.cas_windows)
        bursts = set(log.bursts)
        requested = set()
        for req in mc.completed_requests:
            rq = req.requester_id
            flat = mc.mapping.flat_bank_index(mc.mapping.decode(req.address))
            if req.own_pre_start >= 0:
                requested.add((req.own_pre_start, req.own_pre_end, flat, rq))
            if req.own_act_start >= 0:
                assert (
                    req.own_act_start, req.own_act_end, flat, rq
                ) in act
            assert (req.cas_issue, req.finish, flat, rq) in cas
            assert (req.data_start, req.finish, False, rq, rq) in bursts
        # Every other precharge was requested, by both requesters.
        assert requested == set(log.pre_windows) - set(by_refresh)
        assert {w[3] for w in requested} == {0, 1}
        inflight = [w for w in log.blocked if w[4] == "data_inflight"]
        assert inflight
        assert all(w[5:] == (-1, False) for w in inflight)

    def test_multi_rank_controller(self):
        spec = SPEC.with_organization(ranks=2)
        mc = MemoryController(ControllerConfig(spec=spec))
        assert mc.num_banks == 32
        run_stream(mc, make_reads(200, gap=4))
        assert mc.stats.reads_completed == 200

    def test_two_ranks_relieve_faw_pressure(self):
        # Row-missing traffic striped across two ranks activates in two
        # independent tFAW windows and sustains more bandwidth.
        def run(ranks: int) -> float:
            spec = SPEC.with_organization(ranks=ranks)
            mc = MemoryController(ControllerConfig(
                spec=spec, address_scheme="interleaved",
                refresh="none",
            ))
            rank_shift = next(
                (shift for name, shift, __ in mc.mapping._slices
                 if name == "rank"),
                0,
            )
            # New row per access: an ACT-bound stream, alternating ranks
            # when the organization has two.
            reads = []
            for i in range(300):
                # Decorrelate the bank-group bits from the rank bit so two
                # ranks really expose twice the banks.
                address = i * (1 << 22) + ((i >> 1) % 4) * 64
                if ranks == 2 and i % 2:
                    address |= 1 << rank_shift
                reads.append(Request(RequestType.READ, address, arrival=i))
            run_stream(mc, reads)
            return 300 * SPEC.burst_cycles / mc.now

        assert run(2) > run(1) * 1.1

    def test_rank_switch_bubble_on_bus(self):
        # Alternating ranks insert tRTRS bubbles: same-rank back-to-back
        # bursts pack tighter than rank-alternating ones.
        spec = SPEC.with_organization(ranks=2)
        mapping = MemoryController(
            ControllerConfig(spec=spec)
        ).mapping
        rank_bit = next(
            shift for name, shift, __ in mapping._slices if name == "rank"
        )

        def run(alternate: bool) -> int:
            mc = MemoryController(ControllerConfig(
                spec=spec, refresh="none",
            ))
            reads = []
            for i in range(64):
                address = i * 64
                if alternate and i % 2:
                    address |= 1 << rank_bit
                reads.append(Request(RequestType.READ, address, arrival=0))
            run_stream(mc, reads)
            return mc.now

        assert run(alternate=True) >= run(alternate=False)


class TestRunUntilSemantics:
    def test_run_until_does_not_pass_limit(self):
        mc = MemoryController(ControllerConfig())
        for request in make_reads(100, gap=2):
            mc.enqueue(request)
        mc.run_until(50)
        assert mc.now <= 50

    def test_run_until_next_read(self):
        mc = MemoryController(ControllerConfig())
        for request in make_reads(10, gap=2):
            mc.enqueue(request)
        done = mc.run_until_next_read()
        assert len(done) >= 1
        assert mc.stats.reads_completed >= 1

    def test_pending_requests_counts_everything(self):
        mc = MemoryController(ControllerConfig())
        for request in make_reads(5, gap=1000):
            mc.enqueue(request)
        assert mc.pending_requests == 5
        mc.drain()
        assert mc.pending_requests == 0


class TestRunUntilNextReadGuards:
    def test_returns_immediately_without_pending_reads(self):
        mc = MemoryController(ControllerConfig())
        done = mc.run_until_next_read()  # unbounded, but nothing pending
        assert done == []
        assert mc.now < SPEC.tREFI  # did not spin through refreshes

    def test_write_only_pending_does_not_hang(self):
        mc = MemoryController(ControllerConfig())
        mc.enqueue(Request(RequestType.WRITE, 0, arrival=0))
        done = mc.run_until_next_read()
        assert all(not r.is_read for r in done)
        assert mc.now < SPEC.tREFI

    def test_pending_reads_counter(self):
        mc = MemoryController(ControllerConfig())
        for request in make_reads(5, gap=10):
            mc.enqueue(request)
        assert mc.pending_reads == 5
        mc.drain()
        assert mc.pending_reads == 0
