"""Event-driven DRAM memory controller.

The controller advances in *decisions*, not cycles: at each step it finds
the earliest-issuable command among the scheduling candidates, jumps
directly to that cycle, and issues it. This is the paper's "account
multiple cycles in one step" approach — the complete channel timeline
(data bursts, precharge/activate windows, refresh windows, blocked
intervals with their binding constraint) is recorded in an event log that
the stack accountants in :mod:`repro.stacks` consume.

The controller itself is a thin composition shell: the scheduler, page
policy and refresh policy are the classes that the config strings of
:class:`ControllerConfig` select in the fixed tables of
:mod:`repro.dram.components`, and writes drain under the rule the write
buffer (:class:`~repro.dram.wqueue.WriteBuffer`) runs; both engines
call its ``update`` once per scheduling decision. The event log
(:class:`EventLog`) is the run's only record; the one online observer,
the forward-progress watchdog, is called directly every
``_WATCHDOG_STRIDE`` scheduling steps while one is attached.

``ControllerConfig.engine`` is the one switch between the production
engine and its oracle: no runner, sweep or CLI option forwards it, and
the differential tests set it directly.

Features modeled: FR-FCFS and FCFS scheduling, open and closed page
policies, a watermark-drained write buffer with read forwarding, all-bank
refresh at tREFI, and the full DDR4 bank/bank-group/rank timing protocol.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.dram import components
from repro.dram.address import SCHEMES, AddressMapping
from repro.dram.bank import Bank
from repro.dram.commands import Command, CommandType, Request, RequestType
from repro.dram.components.accounting import EventLog
from repro.dram.packed import PackedEngine
from repro.dram.rank import BlockScope, RankTiming, SharedBus
from repro.dram.scheduler import QueuedRequest, RequestQueue
from repro.dram.timing import DDR4_2400, TimingSpec
from repro.dram.wqueue import FORWARD_LATENCY, WriteBuffer, WriteQueueConfig
from repro.errors import ConfigurationError, require_choice

#: Scheduling engines. ``"packed"`` runs the struct-of-arrays batch
#: engine (:mod:`repro.dram.packed`), which runs every policy;
#: ``"reference"`` re-derives the decision from the object state every
#: step. The golden/differential tests in ``tests/golden`` hold the two
#: bit-identical.
ENGINES = ("packed", "reference")

#: Sentinel "infinitely far in the future" time.
FAR_FUTURE = 1 << 62

# Enum-member lookups hoisted out of the issue path.
_CAS_READ = CommandType.READ
_CAS_WRITE = CommandType.WRITE
_ACT = CommandType.ACTIVATE
_PRE = CommandType.PRECHARGE

#: Scheduling steps between forward-progress watchdog calls. The
#: watchdog's stall threshold is hundreds of thousands of cycles, so a
#: ~32-step sampling delay is invisible while keeping the healthy path
#: free of per-step attribute chatter.
_WATCHDOG_STRIDE = 32


@dataclass(frozen=True)
class ControllerConfig:
    """Configuration of one memory controller / channel.

    The string-valued policy fields are looked up in the fixed tables
    of :mod:`repro.dram.components`; an unknown name raises
    :class:`~repro.errors.ConfigurationError` listing the choices.
    Writes drain under the paper's watermark rule, reads that hit a
    buffered write are forwarded in
    :data:`~repro.dram.wqueue.FORWARD_LATENCY` cycles, and FR-FCFS
    reordering is bounded by
    :data:`~repro.dram.scheduler.STARVATION_CAP`.

    Attributes:
        spec: DRAM timing specification (default: the paper's DDR4-2400).
        address_scheme: a name in :data:`repro.dram.address.SCHEMES`:
            ``"default"`` or ``"interleaved"`` (Fig. 5), or a device
            scheme such as ``"lpddr5"``. It must map every address field
            the spec has (``"lpddr5"`` has no bank-group field).
        page_policy: ``"open"`` keeps rows open until a conflict;
            ``"closed"`` precharges a bank as soon as no pending request
            targets its open row.
        scheduling: ``"fr-fcfs"`` (paper), ``"fcfs"``, or one of the
            QoS arbiters — ``"wrr"`` / ``"wrr:2,1"`` (weighted round
            robin over requesters) and ``"bank-reg"`` /
            ``"bank-reg:period=1000,budget=4"`` (per-bank bandwidth
            regulation); see :mod:`repro.dram.components.qos`.
        write_queue: write-buffer sizing and watermarks.
        keep_command_trace: record every DRAM command (off by default;
            the stack accounting does not need it, but the offline trace
            tooling in :mod:`repro.trace` does).
        refresh: refresh policy name (``"all-bank"``, ``"same-bank"``
            or ``"none"``, the refresh ablation); None selects the
            device's default (``"all-bank"`` without a device).
        engine: ``"packed"`` (default) runs the struct-of-arrays batch
            loop of :mod:`repro.dram.packed`. ``"reference"``
            recomputes the decision every step on the object state; it
            is the oracle of the golden/differential test layer and the
            path the fault drills switch to.
        device: optional device-preset selector resolved by
            :func:`repro.devices.make_device` (``"ddr4-2400"``,
            ``"ddr5-4800:subchannels=2"``, ``"lpddr5-6400"``,
            ``"hbm2"``). The preset supplies `spec` and, where the
            config still holds its defaults, `refresh` and
            `address_scheme`; multi-channel presets set
            :attr:`device_channels` so system builders compose a
            :class:`~repro.dram.system.MemorySystem`.
    """

    spec: TimingSpec = DDR4_2400
    address_scheme: str = "default"
    page_policy: str = "open"
    scheduling: str = "fr-fcfs"
    write_queue: WriteQueueConfig = field(default_factory=WriteQueueConfig)
    keep_command_trace: bool = False
    engine: str = "packed"
    refresh: str | None = None
    device: str | None = None

    def __post_init__(self) -> None:
        if self.device is not None:
            from repro.devices import make_device

            # Resolve the preset first: it supplies the spec and the
            # defaults the checks below then validate.
            preset = make_device(self.device)
            object.__setattr__(self, "spec", preset.spec)
            if self.refresh is None and preset.refresh != "all-bank":
                object.__setattr__(self, "refresh", preset.refresh)
            if (
                self.address_scheme == "default"
                and preset.mapping != "default"
            ):
                object.__setattr__(self, "address_scheme", preset.mapping)
            object.__setattr__(self, "_device_channels", preset.channels)
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; expected one of "
                f"{sorted(ENGINES)}"
            )
        require_choice("address_scheme", self.address_scheme, SCHEMES)
        try:
            self.make_mapping()
        except ConfigurationError as err:
            raise ConfigurationError(
                f"address_scheme {self.address_scheme!r} does not fit "
                f"{self.spec.name}: {err}"
            ) from None
        # Each lookup raises ConfigurationError listing the choices;
        # building the scheduler also checks its parameters.
        require_choice(
            "page policy", self.page_policy, components.PAGE_POLICIES
        )
        components.make_scheduler(self.scheduling)
        require_choice(
            "refresh policy", self.resolved_refresh, components.REFRESH
        )

    @property
    def device_channels(self) -> int:
        """Channels the selected device presents (1 without a device)."""
        return getattr(self, "_device_channels", 1)

    @property
    def resolved_refresh(self) -> str:
        """The effective refresh-policy name."""
        return "all-bank" if self.refresh is None else self.refresh

    def make_mapping(self) -> AddressMapping:
        """Build the configured address mapping."""
        return AddressMapping.from_name(
            self.address_scheme, self.spec.organization
        )


@dataclass
class ControllerStats:
    """Aggregate counters, available at any point during simulation."""

    reads_enqueued: int = 0
    writes_enqueued: int = 0
    reads_completed: int = 0
    writes_completed: int = 0
    reads_forwarded: int = 0
    activates: int = 0
    precharges: int = 0
    refreshes: int = 0
    row_hits: int = 0
    row_misses: int = 0

    @property
    def page_hit_rate(self) -> float:
        """Row hits over all CAS operations."""
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0


class MemoryController:
    """One memory channel: request queues, scheduler and DRAM state.

    Typical use::

        mc = MemoryController(ControllerConfig())
        mc.enqueue(Request(RequestType.READ, 0x1000, arrival=0))
        completed = mc.run_until(10_000)

    Co-simulation drivers interleave :meth:`enqueue` and :meth:`run_until`;
    trace-driven runs enqueue everything and call :meth:`drain`.
    """

    def __init__(self, config: ControllerConfig | None = None) -> None:
        self.config = config or ControllerConfig()
        self.spec = self.config.spec
        org = self.spec.organization
        self.mapping = self.config.make_mapping()
        self.num_banks = org.total_banks

        #: The offline record of the run (layout on :class:`EventLog`).
        self.log = EventLog()
        self.stats = ControllerStats()
        self._banks = [
            Bank(
                self.spec,
                bank_group=(i % org.banks) // org.banks_per_group,
                bank=i % org.banks_per_group,
                pre_windows=self.log.pre_windows,
                act_windows=self.log.act_windows,
                flat_index=i,
            )
            for i in range(self.num_banks)
        ]
        shared_bus = SharedBus()
        self._ranks = [
            RankTiming(self.spec, rank_id=r, bus=shared_bus)
            for r in range(org.ranks)
        ]
        self._bus = shared_bus
        self._read_queue = RequestQueue(self.num_banks)
        self._write_buffer = WriteBuffer(
            self.config.write_queue, self.num_banks,
            self.mapping.line_address,
        )
        self.log.drain_windows = self._write_buffer.drain_windows

        #: Optional forward-progress watchdog (see
        #: :mod:`repro.reliability.watchdog`); both engines call its
        #: ``observe`` every ``_WATCHDOG_STRIDE`` scheduling steps while
        #: attached.
        self.watchdog = None
        self._watchdog_countdown = 0

        self.now = 0
        self._last_cmd_issue = -1
        self._arrivals: list[tuple[int, int, Request]] = []  # heap
        self._in_flight: list[tuple[int, int, Request]] = []  # heap by finish
        self._completions: list[Request] = []
        self.completed_requests: list[Request] = []

        #: Page policy.
        self._page = components.PAGE_POLICIES[self.config.page_policy]()
        self._page.bind(self)
        #: Scheduler: plans each step on the object path.
        self._sched = components.make_scheduler(self.config.scheduling)
        self._sched.bind(self)
        #: CAS-service hook for requester-aware arbiters (wrr charges
        #: credits, bank-reg counts budget); None for schedulers that
        #: do not define it, so the default hot path pays one check.
        self._note_service = getattr(self._sched, "note_service", None)
        #: Refresh policy; `next_due`/`until` are read every step.
        self._refresh = components.REFRESH[self.config.resolved_refresh]()
        self._refresh.bind(self)

        self._tRP = self.spec.tRP
        self._tRCD = self.spec.tRCD
        self._trace_commands = self.config.keep_command_trace
        # The log's lists, shared by reference (EventLog never reassigns
        # them), so the issue path skips the attribute chains.
        self._log_bursts = self.log.bursts
        self._log_cas_windows = self.log.cas_windows
        self._log_blocked = self.log.blocked
        # Last requester to issue a request-driven command, per bank and
        # channel-wide: a blocked candidate whose binding constraint was
        # last touched by a *different* requester counts as interference.
        self._last_req_by_bank = [-1] * self.num_banks
        self._last_req_channel = -1

        # Packed struct-of-arrays engine (see repro.dram.packed). While set,
        # its columns hold the queues and the bank, rank and bus state,
        # and the objects above are stale until its flush() copies them
        # out. None under ``engine="reference"`` and after a fault drill
        # (:func:`repro.reliability.faults.force_stall`) dropped it.
        self._packed: PackedEngine | None = (
            PackedEngine(self) if self.config.engine == "packed" else None
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def enqueue(self, request: Request) -> None:
        """Accept a request; its ``arrival`` must be >= the current time.

        ``arrival`` and ``address`` must be plain ``int`` (not bool,
        float or a numpy integer): both engines write them into the
        fingerprinted event log, which holds Python ints only.
        """
        if type(request.arrival) is not int or (
            type(request.address) is not int
        ):
            raise ConfigurationError(
                f"request {request.req_id}: arrival and address must be "
                f"int, got {type(request.arrival).__name__} "
                f"{request.arrival!r} and {type(request.address).__name__} "
                f"{request.address!r}"
            )
        if request.arrival < self.now:
            raise ConfigurationError(
                f"request arrives at {request.arrival} but controller time "
                f"is already {self.now}"
            )
        if request.is_read:
            self.stats.reads_enqueued += 1
        else:
            self.stats.writes_enqueued += 1
        heapq.heappush(
            self._arrivals, (request.arrival, request.req_id, request)
        )

    @property
    def pending_requests(self) -> int:
        """Requests not yet completed (queued, buffered or in flight)."""
        return (
            len(self._arrivals) + self.queued_requests + len(self._in_flight)
        )

    def run_until(self, t_limit: int) -> list[Request]:
        """Advance to `t_limit`; return requests completed on the way."""
        self._run(t_limit, stop_on_read=False)
        return self._take_completions()

    def run_until_next_read(self, t_limit: int = FAR_FUTURE) -> list[Request]:
        """Advance until a read completes (or `t_limit`); return completions.

        Returns immediately when no read is pending (otherwise an
        unbounded call would spin on refresh cycles forever).
        """
        self._run(t_limit, stop_on_read=True)
        return self._take_completions()

    @property
    def pending_reads(self) -> int:
        """Reads accepted but not yet completed."""
        return self.stats.reads_enqueued - self.stats.reads_completed

    def drain(self) -> list[Request]:
        """Run until every pending request has completed."""
        packed = self._packed
        if packed is not None:
            packed.run(FAR_FUTURE, False, stop_when_idle=True)
            return self._take_completions()
        while self.pending_requests and self.now < FAR_FUTURE:
            self._run_one_step(FAR_FUTURE)
        self._collect_finished(self.now)
        return self._take_completions()

    def finalize(self) -> None:
        """Close open accounting windows at the end of a simulation."""
        self._write_buffer.finalize(self.now)

    @property
    def banks(self) -> list[Bank]:
        """The per-bank state machines (flat order).

        Under the packed engine its columns are authoritative; observing
        the objects copies the state out first, and writes to them do
        not reach the engine.
        """
        packed = self._packed
        if packed is not None:
            packed.flush()
        return self._banks

    # ------------------------------------------------------------------
    # Reliability hooks
    # ------------------------------------------------------------------
    def attach_watchdog(self, watchdog) -> None:
        """Install a forward-progress watchdog (None to detach).

        Both engines call ``watchdog.observe(self)`` every
        ``_WATCHDOG_STRIDE`` scheduling steps while one is attached.
        """
        self.watchdog = watchdog
        if watchdog is not None:
            watchdog.reset()

    @property
    def queued_requests(self) -> int:
        """Requests admitted to the queues but not yet served."""
        packed = self._packed
        if packed is not None:
            return packed.rq_len + packed.wq_len
        return len(self._read_queue) + len(self._write_buffer)

    @property
    def last_command_cycle(self) -> int:
        """Cycle of the last issued command (-1 before the first)."""
        return self._last_cmd_issue

    def stall_snapshot(self) -> dict:
        """Structured diagnostic of the current scheduling state.

        Returns the keyword arguments of
        :class:`repro.reliability.watchdog.StallDiagnostic`: queue
        contents, per-bank state, and — for every scheduling candidate —
        the command it would issue, its earliest legal cycle and the
        binding timing constraint when it has to wait.
        """
        packed = self._packed
        if packed is not None:
            packed.flush()
        max_requests = 32
        queue_head = []
        # Mirrors the write buffer's update without mutating it.
        reads_pending = bool(self._read_queue)
        write_mode = self._write_buffer.draining or (
            len(self._write_buffer) > 0 and not reads_pending
        )
        for queue in (self._read_queue, self._write_buffer.queue):
            for entry in queue.pending_entries(limit=max_requests):
                queue_head.append({
                    "req_id": entry.request.req_id,
                    "type": str(entry.request.req_type),
                    "arrival": entry.request.arrival,
                    "bank": entry.flat_bank,
                    "row": entry.coords.row,
                })
        banks = [
            {
                "flat": bank.flat_index,
                "open_row": bank.open_row,
                "next_act": bank.next_act,
                "next_pre": bank.next_pre,
                "next_cas": bank.next_cas,
            }
            for bank in self._banks
        ]
        candidates = []
        queue = self._write_buffer.queue if write_mode else self._read_queue
        open_rows = [b.open_row for b in self._banks]
        for entry in queue.candidates(
            open_rows, self._sched.candidate_policy, self.now
        ):
            key, __, cmd_type, coords = self._plan_entry(entry, write_mode)
            issue_at = key[0]
            info = {
                "req_id": entry.request.req_id,
                "command": str(cmd_type),
                "bank": entry.flat_bank,
                "earliest_issue": issue_at,
                "scope": None,
                "reason": None,
            }
            if issue_at > self.now:
                block = self._block_info(entry, cmd_type, coords, issue_at)
                info["scope"] = block.scope.name.lower()
                info["reason"] = block.reason
            candidates.append(info)
        return {
            "cycle": self.now,
            "last_command_cycle": self._last_cmd_issue,
            "queued_reads": len(self._read_queue),
            "queued_writes": len(self._write_buffer),
            "queue_head": queue_head,
            "banks": banks,
            "candidates": candidates,
            "refresh": {
                "next_due": self._refresh.next_due,
                "in_progress_until": self._refresh.until,
            },
        }

    @property
    def write_buffer_occupancy(self) -> int:
        """Writes currently buffered."""
        packed = self._packed
        if packed is not None:
            return packed.wq_len
        return len(self._write_buffer)

    # ------------------------------------------------------------------
    # Engine
    # ------------------------------------------------------------------
    def _take_completions(self) -> list[Request]:
        done, self._completions = self._completions, []
        return done

    def _collect_finished(self, t: int) -> None:
        """Pop in-flight requests whose data has arrived by cycle t."""
        while self._in_flight and self._in_flight[0][0] <= t:
            __, __, req = heapq.heappop(self._in_flight)
            self._finish_request(req)

    def _finish_request(self, req: Request) -> None:
        self._completions.append(req)
        self.completed_requests.append(req)
        if req.req_type is RequestType.READ:
            self.stats.reads_completed += 1
        else:
            self.stats.writes_completed += 1

    def _admit_arrivals(self) -> None:
        """Move requests whose arrival time has come into the queues."""
        arrivals = self._arrivals
        now = self.now
        mapping = self.mapping
        decode = mapping.decode
        flat_index = mapping.flat_bank_index
        heappop = heapq.heappop
        # Forwarding probe short-circuits on the buffered-address dict so
        # the empty-buffer case skips the line-align arithmetic.
        wb_addresses = self._write_buffer._addresses
        while arrivals and arrivals[0][0] <= now:
            __, __, req = heappop(arrivals)
            coords = decode(req.address)
            flat = flat_index(coords)
            if req.req_type is RequestType.READ:
                if wb_addresses and (
                    mapping.line_address(req.address) in wb_addresses
                ):
                    req.forwarded = True
                    req.finish = req.arrival + FORWARD_LATENCY
                    req.cas_issue = req.arrival
                    req.data_start = req.finish
                    self.stats.reads_forwarded += 1
                    heapq.heappush(
                        self._in_flight, (req.finish, req.req_id, req)
                    )
                    continue
                bank = self._banks[flat]
                req.row_open_on_arrival = bank.open_row == coords.row
                self._read_queue.add(req, coords, flat)
            else:
                self._write_buffer.add(req, coords, flat)

    def _run(self, t_limit: int, stop_on_read: bool) -> None:
        packed = self._packed
        if packed is not None:
            packed.run(t_limit, stop_on_read)
            return
        stats = self.stats
        while self.now < t_limit:
            if stop_on_read and stats.reads_completed == stats.reads_enqueued:
                break
            before = stats.reads_completed
            advanced = self._run_one_step(t_limit)
            if stop_on_read and stats.reads_completed > before:
                break
            if not advanced:
                break
        if self.now > t_limit:
            self.now = t_limit
        self._collect_finished(self.now)

    def _advance_to(self, t: int, t_limit: int) -> bool:
        """Jump time forward, delivering completions on the way."""
        target = t if t < t_limit else t_limit
        if target <= self.now:
            return False
        in_flight = self._in_flight
        if in_flight and in_flight[0][0] <= target:
            self._collect_finished(target)
        self.now = target
        return True

    def _run_one_step(self, t_limit: int) -> bool:
        """Issue one command or advance time once. Returns False when
        nothing can happen before `t_limit` (caller should stop)."""
        now = self.now
        arrivals = self._arrivals
        if arrivals and arrivals[0][0] <= now:
            self._admit_arrivals()
        in_flight = self._in_flight
        if in_flight and in_flight[0][0] <= now:
            self._collect_finished(now)
        watchdog = self.watchdog
        if watchdog is not None:
            # Sampling is lossless: the watermark derives from the
            # monotonic last-command cycle, and queues only drain by
            # issuing commands, so skipped steps cannot hide progress.
            self._watchdog_countdown -= 1
            if self._watchdog_countdown <= 0:
                self._watchdog_countdown = _WATCHDOG_STRIDE
                watchdog.observe(self)

        refresh = self._refresh
        # 1. Refresh in progress: nothing can issue.
        if now < refresh.until:
            return self._advance_to(refresh.until, t_limit)

        # 2. Refresh due: precharge all and refresh.
        if now >= refresh.next_due:
            refresh.perform(now)
            return True

        # 3. Scheduling decision, planned from scratch: the write
        # buffer's drain rule picks the active queue, the scheduler
        # derives the decision.
        wbuf = self._write_buffer
        if not wbuf.draining and not wbuf.queue:
            # Empty, idle write buffer: the drain update would be a
            # no-op returning False (occupancy 0 is below every
            # watermark), so skip the call.
            write_mode = False
        else:
            write_mode = wbuf.update(
                now, len(wbuf.queue), bool(self._read_queue)
            )
        queue = wbuf.queue if write_mode else self._read_queue
        best = self._sched.reference_plan(queue, write_mode)

        next_arrival = arrivals[0][0] if arrivals else FAR_FUTURE
        if best is None:
            # Nothing schedulable. Either data is in flight (pipeline
            # draining — a channel-scope constraint) or truly idle.
            wake = min(next_arrival, refresh.next_due)
            if in_flight:
                wake = min(wake, in_flight[0][0])
                end = min(wake, t_limit)
                if end > now:
                    # Blocked windows are disjoint and appended in time
                    # order, so a window starting where the previous one
                    # ended with the same payload extends it in place. A
                    # pipeline drain blocks no requester in particular:
                    # shared row, never interference.
                    lb = self._log_blocked
                    last = lb[-1] if lb else None
                    if (
                        last is not None
                        and last[1] == now
                        and last[2] is BlockScope.CHANNEL
                        and last[4] == "data_inflight"
                    ):
                        lb[-1] = (
                            last[0], end, BlockScope.CHANNEL, -1,
                            "data_inflight", -1, False,
                        )
                    else:
                        lb.append((
                            now, end, BlockScope.CHANNEL, -1,
                            "data_inflight", -1, False,
                        ))
            return self._advance_to(wake, t_limit)

        (key, entry, cmd_type, coords) = best
        issue_at = key[0]
        if issue_at > now:
            # Blocked: record why, then advance (arrivals or refresh may
            # preempt the wait).
            wake = issue_at
            if next_arrival < wake:
                wake = next_arrival
            if refresh.next_due < wake:
                wake = refresh.next_due
            end = wake if wake < t_limit else t_limit
            if end > now:
                block = self._sched.block_info(
                    entry, cmd_type, coords, issue_at
                )
                bg = coords.bank_group if coords is not None else -1
                # Requester attribution of the wait: the victim is the
                # planned candidate's requester; the blocker is whoever
                # last issued a request-driven command on the binding
                # scope (the candidate's bank for bank-scope blocks,
                # channel-wide otherwise). A different blocker makes the
                # window cross-requester interference — except for
                # bank-regulation gates, which the victim's own budget
                # causes. Single-requester runs always classify as
                # self-blocked, so the merge below behaves exactly as
                # before and historic fingerprints are preserved.
                if entry is not None:
                    victim = entry.request.requester_id
                    if block.scope is BlockScope.BANK:
                        blocker = self._last_req_by_bank[entry.flat_bank]
                    else:
                        blocker = self._last_req_channel
                    inter = (
                        blocker >= 0
                        and blocker != victim
                        and block.reason != "bank_regulation"
                    )
                else:
                    victim = -1
                    inter = False
                # Extend the previous window in place when contiguous
                # with an identical payload (windows are disjoint and
                # time-ordered, so this changes no attribution).
                lb = self._log_blocked
                last = lb[-1] if lb else None
                if (
                    last is not None
                    and last[1] == now
                    and last[2] is block.scope
                    and last[3] == bg
                    and last[4] == block.reason
                    and last[5] == victim
                    and last[6] == inter
                ):
                    lb[-1] = (
                        last[0], end, block.scope, bg, block.reason,
                        victim, inter,
                    )
                else:
                    lb.append((
                        now, end, block.scope, bg, block.reason, victim,
                        inter,
                    ))
            return self._advance_to(wake, t_limit)

        self._issue(entry, cmd_type, coords, write_mode)
        return True

    # ------------------------------------------------------------------
    def _plan_entry(self, entry: QueuedRequest, write_mode: bool) -> tuple:
        """Reference ``(sort_key, entry, command, coords)`` for a request.

        Delegates to the scheduler component. Kept as a controller
        method because it is the documented fault-injection patch point
        (:func:`repro.reliability.faults.force_stall` replaces it in the
        instance dict after dropping the packed engine).
        """
        return self._sched.plan_entry(entry, write_mode)

    def _block_info(
        self, entry, cmd_type: CommandType, coords, issue_at: int
    ):
        """Binding constraint for a candidate that must wait."""
        return self._sched.block_info(entry, cmd_type, coords, issue_at)

    # ------------------------------------------------------------------
    def _issue(
        self,
        entry: QueuedRequest | None,
        cmd_type: CommandType,
        coords,
        write_mode: bool,
    ) -> None:
        """Issue `cmd_type` at the current cycle."""
        t = self.now
        self._last_cmd_issue = t
        flat = coords.flat if entry is None else entry.flat_bank
        if entry is None:
            # Policy precharge: nothing is waiting for this bank. The
            # bank's last-requester slot reverts to shared — the next
            # candidate blocked on this bank waits on a policy action,
            # not on another requester's command.
            bank = coords.bank
            bank.do_precharge(t, record=False)
            self.stats.precharges += 1
            self._last_req_by_bank[flat] = -1
            if self._trace_commands:
                self._record_command(
                    cmd_type, t, coords.bank_group, bank, rank=coords.rank
                )
            return

        bank = self._banks[entry.flat_bank]
        req = entry.request
        rq = req.requester_id
        self._last_req_by_bank[flat] = rq
        self._last_req_channel = rq
        stats = self.stats
        if cmd_type is _PRE:
            bank.do_precharge(t, rq)
            stats.precharges += 1
            if req.own_pre_start < 0:
                req.own_pre_start = t
                req.own_pre_end = t + self._tRP
        elif cmd_type is _ACT:
            bank.do_activate(t, coords.row, rq)
            self._ranks[coords.rank].record_act(t, coords.bank_group)
            stats.activates += 1
            if req.own_act_start < 0:
                req.own_act_start = t
                req.own_act_end = t + self._tRCD
        else:  # READ / WRITE
            is_write = cmd_type is _CAS_WRITE
            # A CAS is always a row-buffer hit at issue time; the
            # hit/miss statistic refers to whether the request found the
            # row open (and so needed no pre/act of its own).
            needed_pre_act = req.own_act_start >= 0 or req.own_pre_start >= 0
            effective_hit = not needed_pre_act
            data_start, data_end = self._ranks[coords.rank].record_cas(
                t, coords.bank_group, is_write
            )
            bank.do_cas(t, is_write)
            if effective_hit:
                stats.row_hits += 1
            else:
                stats.row_misses += 1
            req.cas_issue = t
            req.data_start = data_start
            req.finish = data_end
            req.row_hit = effective_hit
            self._log_bursts.append(
                (data_start, data_end, is_write, req.core_id, rq)
            )
            self._log_cas_windows.append((t, data_end, flat, rq))
            note_service = self._note_service
            if note_service is not None:
                note_service(rq, flat, t)
            if write_mode:
                self._write_buffer.complete(entry)
            else:
                self._read_queue.mark_served(entry)
            heapq.heappush(self._in_flight, (data_end, req.req_id, req))
        if self._trace_commands:
            self._record_command(
                cmd_type, t, coords.bank_group,
                bank, row=coords.row, req_id=req.req_id, rank=coords.rank,
            )

    def _record_command(
        self, cmd_type: CommandType, t: int, bank_group: int, bank: Bank,
        row: int = -1, req_id: int = -1, rank: int = 0,
    ) -> None:
        if not self.config.keep_command_trace:
            return
        self.log.commands.append(Command(
            cmd_type=cmd_type,
            issue=t,
            rank=rank,
            bank_group=bank_group,
            bank=bank.bank,
            row=row,
            req_id=req_id,
        ))
