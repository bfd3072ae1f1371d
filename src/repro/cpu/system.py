"""Multi-core closed-loop simulation driver.

Couples N :class:`IntervalCore` instances (sharing one LLC) with one
memory controller in a discrete-event loop: the controller only ever runs
up to the earliest runnable core's local time, so request arrival order
is consistent, and when every core is blocked on memory the controller
runs ahead to the next read completion (the same loose synchronization
the paper's Sniper setup uses).
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush

from repro.cpu.core import (
    AT_BARRIER,
    BLOCKED,
    CoreConfig,
    IntervalCore,
    OutstandingLoad,
    RUNNING,
)
from repro.cpu.hierarchy import AccessResult, CacheHierarchy, HierarchyConfig
from repro.dram.commands import Request, RequestType
from repro.dram.controller import ControllerConfig, MemoryController
from repro.errors import (
    ConfigurationError,
    SimulationStalledError,
    require_finite,
    require_int,
)
from repro.reliability.guard import ReliabilityGuard
from repro.stacks.bandwidth import BandwidthStackAccountant
from repro.stacks.components import Stack, StackSeries
from repro.stacks.cycle import CycleStackBuilder
from repro.stacks.latency import (
    LatencyStackAccountant,
    refresh_windows_for_latency,
)
from repro.stacks.requester import (
    RequesterBandwidthAccountant,
    RequesterLatencyAccountant,
)

_READ = RequestType.READ
_WRITE = RequestType.WRITE


@dataclass(frozen=True)
class SystemConfig:
    """Whole-system configuration (paper defaults).

    ``quantum`` is the most cycles a core runs before the driver picks
    the next core, a finite number >= 1. Every cache level's line size
    must equal the DRAM line size: the core and the caches count in
    cache lines, and DRAM requests are one line each.
    """

    cores: int = 1
    core: CoreConfig = field(default_factory=CoreConfig)
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    memory: ControllerConfig = field(default_factory=ControllerConfig)
    quantum: float = 2000.0
    #: Requester domain per core, for multi-requester QoS runs (see
    #: docs/qos.md). ``None`` puts every core in domain 0, which keeps
    #: single-requester runs bit-identical to the pre-QoS simulator.
    requesters: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        require_int("SystemConfig", "cores", self.cores, 1)
        require_finite("SystemConfig", "quantum", self.quantum, 1)
        dram_line = self.memory.spec.organization.line_bytes
        for level in ("l1", "l2", "llc"):
            line_bytes = getattr(self.hierarchy, level).line_bytes
            if line_bytes != dram_line:
                raise ConfigurationError(
                    f"{level} line_bytes {line_bytes} differs from the "
                    f"{dram_line}-byte lines of {self.memory.spec.name}"
                )
        if self.requesters is not None:
            ids = tuple(self.requesters)
            if len(ids) != self.cores:
                raise ConfigurationError(
                    f"{len(ids)} requester ids for {self.cores} cores"
                )
            if any(not isinstance(r, int) or r < 0 for r in ids):
                raise ConfigurationError(
                    f"requester ids must be non-negative ints, got {ids!r}"
                )
            object.__setattr__(self, "requesters", ids)


class CpuSystem:
    """N cores + shared LLC + one memory controller, co-simulated."""

    def __init__(self, config: SystemConfig | None = None) -> None:
        self.config = config or SystemConfig()
        # Device presets with several channels/sub-channels/pseudo-channels
        # (see repro.devices) get a MemorySystem; everything else keeps the
        # single controller, bit-identical to before.
        device_channels = getattr(self.config.memory, "device_channels", 1)
        if device_channels > 1:
            from repro.dram.system import MemorySystem, MemorySystemConfig

            self.memory = MemorySystem(MemorySystemConfig(
                controller=self.config.memory, channels=device_channels,
            ))
        else:
            self.memory = MemoryController(self.config.memory)
        #: Whether `memory` is a multi-channel composite.
        self._composite = device_channels > 1
        self.llc = self.config.hierarchy.make_llc()
        cycle_ns = self.memory.spec.cycle_ns
        # The cores reach the system through a weak proxy: it owns them,
        # and a strong reference back would be a reference cycle.
        system = weakref.proxy(self)
        self.cores = [
            IntervalCore(
                core_id=i,
                config=self.config.core,
                hierarchy=CacheHierarchy(self.config.hierarchy, self.llc),
                memory=system,
                cycle_ns=cycle_ns,
            )
            for i in range(self.config.cores)
        ]
        self._line_bytes = self.memory.spec.organization.line_bytes
        self._noc_request = self.config.core.noc_request_cycles
        #: Requester domain of each core (all 0 unless configured).
        self._requester_of = (
            list(self.config.requesters)
            if self.config.requesters is not None
            else [0] * self.config.cores
        )
        #: DRAM reads in flight, by line number. Demand accesses to these
        #: lines wait for the existing request instead of re-fetching.
        self._pending_lines: dict[int, Request] = {}
        # Outstanding DRAM reads per core (demand + prefetch): models the
        # L2 miss buffer that bounds each core's memory-level parallelism.
        self._dram_inflight = [0] * self.config.cores
        #: Wake heap of (t, core_index) for RUNNING cores; rebuilt at
        #: the top of every `_run_loop` call (see there for invariants).
        self._wake_heap: list[tuple[float, int]] = []

    # ------------------------------------------------------------------
    # Memory interface used by the cores
    # ------------------------------------------------------------------
    def cache_access(
        self, core: IntervalCore, line: int, is_write: bool
    ) -> tuple[AccessResult, Request | None]:
        """Access the core's hierarchy; detect in-flight fills.

        Returns the cache result plus, when the line is still on its way
        from DRAM, the request to wait on.
        """
        result = core.hierarchy.access(line, is_write)
        if result.level in ("llc", "mem"):
            pending = self._pending_lines.get(line)
            if pending is not None:
                return result, pending
        return result, None

    def attach_waiter(
        self, request: Request, core: IntervalCore, load: OutstandingLoad
    ) -> None:
        """Register another load waiting on an in-flight DRAM read."""
        request.meta.append((core, load))

    def issue_read(
        self, core: IntervalCore, load: OutstandingLoad, line: int, t: float
    ) -> Request:
        """Issue a demand DRAM read for a core's load."""
        # Request's leading fields go by position (see its docstring):
        # keywords cost this hot call about two thirds more.
        core_id = core.core_id
        request = Request(
            _READ, line * self._line_bytes, self._arrival(t), core_id,
            self._requester_of[core_id], False, [(core, load)],
        )
        self._pending_lines[line] = request
        self._dram_inflight[core_id] += 1
        self.memory.enqueue(request)
        return request

    def issue_prefetches(
        self, core: IntervalCore, lines: list[int], t: float
    ) -> None:
        """Issue prefetch reads (dropped at the in-flight cap)."""
        cap = self.config.core.dram_inflight_cap
        core_id = core.core_id
        for line in lines:
            if line in self._pending_lines:
                continue
            if self._dram_inflight[core_id] >= cap:
                break  # L2 miss buffer full: drop the prefetch
            request = Request(
                _READ, line * self._line_bytes, self._arrival(t), core_id,
                self._requester_of[core_id], True, [],
            )
            self._pending_lines[line] = request
            self._dram_inflight[core_id] += 1
            self.memory.enqueue(request)
            self.issue_writebacks(
                core, core.hierarchy.fill_prefetched(line), t
            )

    def issue_writebacks(
        self, core: IntervalCore, lines: list[int], t: float
    ) -> None:
        """Issue DRAM writes for dirty LLC victims."""
        core_id = core.core_id
        for line in lines:
            self.memory.enqueue(Request(
                _WRITE, line * self._line_bytes, self._arrival(t), core_id,
                self._requester_of[core_id],
            ))

    def _arrival(self, t: float) -> int:
        arrival = int(t) + self._noc_request
        if self._composite:
            # Channels advance unevenly; MemorySystem.enqueue clamps to
            # the target channel's clock, which is the only one that
            # matters. Clamping to the composite max here would charge
            # queueing delay that never happened.
            return arrival
        now = self.memory.now
        return arrival if arrival > now else now

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(
        self,
        traces,
        guard: "ReliabilityGuard | bool | None" = None,
    ) -> "SimulationResult":
        """Run every core's trace to completion.

        Args:
            traces: one instruction trace per core.
            guard: reliability guard for this run. ``None`` (the
                default) uses :meth:`ReliabilityGuard.default` —
                forward-progress watchdog plus the event-log audit.
                Pass ``False`` to run bare, or a configured
                :class:`~repro.reliability.guard.ReliabilityGuard` to
                add a wall-clock budget or change the stall threshold.
                Stacks check their own exactness either way.

        A killed run is not resumed: rerun it. A killed batch is rerun
        with the same result cache (``dram-stacks batch --cache-dir
        DIR``), which recomputes only the unfinished points.
        """
        traces = list(traces)
        if len(traces) != len(self.cores):
            raise ConfigurationError(
                f"{len(traces)} traces for {len(self.cores)} cores"
            )
        if guard is None:
            guard = ReliabilityGuard.default()
        elif guard is False:
            guard = None
        for core, trace in zip(self.cores, traces):
            core.set_trace(trace)
        if guard is not None:
            guard.attach(self)
        return self._run_loop(guard)

    def _run_loop(self, guard: ReliabilityGuard | None) -> "SimulationResult":
        cores = self.cores
        quantum = self.config.quantum
        memory = self.memory
        run_until = memory.run_until
        deliver = self._deliver
        # Lazy-invalidation wake heap: one (t, core_index) entry per
        # RUNNING core. An entry is valid iff that core is still RUNNING
        # at exactly that time; everything else is stale and skipped on
        # pop. Tuple order (t, index) reproduces the linear scan's
        # tie-break — earliest time wins, lowest index breaks ties — so
        # the schedule (and with it every result) is unchanged.
        heap = [
            (core.t, i)
            for i, core in enumerate(cores)
            if core.state == RUNNING
        ]
        heapify(heap)
        self._wake_heap = heap
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            # The simulator's object graph is acyclic (docs/performance.md,
            # "Memory"), so reference counting frees what the loop drops
            # and generational passes would only cost time here.
            # Collection resumes afterwards.
            gc.disable()
        try:
            while True:
                if guard is not None:
                    guard.tick(self)
                entry = None
                while heap:
                    t, idx = heap[0]
                    core = cores[idx]
                    if core.state == RUNNING and core.t == t:
                        entry = heap[0]
                        break
                    heappop(heap)
                if entry is not None:
                    heappop(heap)
                    deliver(run_until(int(t)))
                    # A delivery may have woken a core with an earlier
                    # wake time; that core advances instead (its entry
                    # was pushed by _deliver).
                    while heap:
                        t2, idx2 = heap[0]
                        c2 = cores[idx2]
                        if c2.state == RUNNING and c2.t == t2:
                            if (t2, idx2) < (t, idx):
                                heappush(heap, (t, idx))
                                heappop(heap)
                                core = c2
                                idx = idx2
                            break
                        heappop(heap)
                    if core.advance(quantum) == RUNNING:
                        heappush(heap, (core.t, idx))
                    continue
                # Heap dry: no RUNNING core should exist. Rebuild
                # defensively in case a wake path bypassed the heap so
                # the schedule contract above can never be violated.
                stale = [
                    (c.t, i)
                    for i, c in enumerate(cores)
                    if c.state == RUNNING
                ]
                if stale:
                    for e in stale:
                        heappush(heap, e)
                    continue
                if any(c.state == BLOCKED for c in cores):
                    self._advance_memory_for()
                    continue
                waiting = [c for c in cores if c.state == AT_BARRIER]
                if waiting:
                    self._release_barrier(waiting)
                    continue
                break  # everyone finished
        finally:
            if gc_was_enabled:
                gc.enable()

        return self._finalize(guard)

    def _advance_memory_for(self) -> None:
        # With nothing pending, run_until_next_read returns [] at once
        # without moving a clock, so the pending count is read only when
        # a read-wait comes back empty.
        done = self.memory.run_until_next_read()
        if not done and self.memory.pending_requests == 0:
            raise SimulationStalledError(
                "memory drained without unblocking any core",
                diagnostic=self.memory.stall_snapshot(),
            )
        self._deliver(done)

    def _deliver(self, completed: list[Request]) -> None:
        heap = self._wake_heap
        for request in completed:
            if request.req_type is _READ:
                line = request.address // self._line_bytes
                if self._pending_lines.get(line) is request:
                    del self._pending_lines[line]
                    self._dram_inflight[request.core_id] -= 1
            waiters = request.meta
            if not waiters:
                continue
            # Each waiting load points back at the request; dropping
            # the pairs here keeps the two from forming a cycle.
            request.meta = None
            for core, load in waiters:
                was_blocked = core.state == BLOCKED
                core.complete_request(load, request)
                if was_blocked and core.state == RUNNING:
                    heappush(heap, (core.t, core.core_id))

    def _release_barrier(self, waiting: list[IntervalCore]) -> None:
        release = max(c.t for c in waiting)
        heap = self._wake_heap
        for core in waiting:
            core.finish_barrier(release)
            heappush(heap, (core.t, core.core_id))

    def _finalize(self, guard: ReliabilityGuard | None) -> "SimulationResult":
        # Nothing waits on these any more: drop their (core, load)
        # pairs as _deliver does.
        for request in self.memory.drain():
            request.meta = None
        self.memory.finalize()
        end = max(
            self.memory.now,
            int(max(c.t for c in self.cores)) + 1,
        )
        for core in self.cores:
            if core.t < end:
                core.account_idle_until(end)
        if guard is not None:
            guard.finish(self)
        return SimulationResult(self, end)


class SimulationResult:
    """Everything measured in one simulation, with stack constructors."""

    def __init__(self, system: CpuSystem, total_cycles: int) -> None:
        self.system = system
        self.memory = system.memory
        self.total_cycles = max(total_cycles, 1)
        self.spec = system.memory.spec
        #: Whether the run used a multi-channel composite memory.
        self.composite = hasattr(system.memory, "channels")

    # ------------------------------------------------------------------
    @property
    def base_controller_cycles(self) -> int:
        """Fixed NoC round-trip cycles added to reads."""
        core = self.system.config.core
        return core.noc_request_cycles + core.noc_response_cycles

    @property
    def runtime_ms(self) -> float:
        """Simulated wall-clock time in milliseconds."""
        return self.total_cycles * self.spec.cycle_ns / 1e6

    @property
    def achieved_bandwidth_gbps(self) -> float:
        """Read+write bandwidth actually used."""
        stack = self.bandwidth_stack()
        return stack["read"] + stack["write"]

    @property
    def instructions(self) -> int:
        """Instructions executed across all cores."""
        return sum(c.stats.instructions for c in self.system.cores)

    @property
    def dram_reads(self) -> int:
        """DRAM read requests completed."""
        return self.memory.stats.reads_completed

    @property
    def dram_writes(self) -> int:
        """DRAM write requests completed."""
        return self.memory.stats.writes_completed

    # ------------------------------------------------------------------
    def bandwidth_stack(self, label: str = "") -> Stack:
        """Aggregate bandwidth stack (GB/s, sums to peak).

        Multi-channel memories return the sum of per-channel stacks
        (total = channels x per-channel peak)."""
        if self.composite:
            return self.memory.bandwidth_stack(self.total_cycles, label)
        acct = BandwidthStackAccountant(self.spec)
        return acct.account(self.memory.log, self.total_cycles, label)

    def bandwidth_series(
        self, bin_cycles: int, label: str = ""
    ) -> StackSeries:
        """Through-time bandwidth stacks."""
        self._require_single_channel("bandwidth_series")
        acct = BandwidthStackAccountant(self.spec)
        return acct.account_series(
            self.memory.log, self.total_cycles, bin_cycles, label
        )

    def latency_stack(
        self, label: str = "", split_base: bool = False
    ) -> Stack:
        """Average read-latency stack in nanoseconds.

        Multi-channel memories return the read-weighted mean of the
        per-channel stacks (``split_base`` is single-channel only)."""
        if self.composite:
            if split_base:
                self._require_single_channel("latency_stack(split_base=True)")
            return self.memory.latency_stack(
                self.base_controller_cycles, label
            )
        acct = LatencyStackAccountant(
            self.spec, self.base_controller_cycles, split_base
        )
        return acct.account(
            self.memory.completed_requests,
            refresh_windows_for_latency(self.memory.log),
            self.memory.log.drain_windows,
            label,
        )

    def latency_series(
        self, bin_cycles: int, label: str = "", split_base: bool = False
    ) -> StackSeries:
        """Through-time latency stacks."""
        self._require_single_channel("latency_series")
        acct = LatencyStackAccountant(
            self.spec, self.base_controller_cycles, split_base
        )
        return acct.account_series(
            self.memory.completed_requests,
            refresh_windows_for_latency(self.memory.log),
            self.memory.log.drain_windows,
            self.total_cycles,
            bin_cycles,
            label,
        )

    def per_core_latency_stacks(
        self, split_base: bool = False
    ) -> dict[int, Stack]:
        """One latency stack per core, over that core's DRAM reads."""
        self._require_single_channel("per_core_latency_stacks")
        acct = LatencyStackAccountant(
            self.spec, self.base_controller_cycles, split_base
        )
        refresh = refresh_windows_for_latency(self.memory.log)
        by_core: dict[int, list] = {}
        for request in self.memory.completed_requests:
            if request.is_read and not request.forwarded:
                by_core.setdefault(request.core_id, []).append(request)
        return {
            core: acct.account(
                reads,
                refresh,
                self.memory.log.drain_windows,
                label=f"core {core}",
            )
            for core, reads in sorted(by_core.items())
        }

    def per_core_bandwidth(self) -> dict[int, dict[str, float]]:
        """Achieved read/write GB/s per core (prefetch and writebacks
        count toward the core that caused them)."""
        self._require_single_channel("per_core_bandwidth")
        acct = BandwidthStackAccountant(self.spec)
        return acct.per_core_achieved(self.memory.log, self.total_cycles)

    def per_requester_bandwidth_stacks(
        self, label: str = ""
    ) -> dict[int, Stack]:
        """Per-requester bandwidth stacks with interference (GB/s).

        One row per requester domain plus a shared row (key -1) for
        refresh/idle cycles nobody owns; the rows sum to the aggregate
        stack exactly (see :mod:`repro.stacks.requester`). Multi-channel
        memories are not split per requester yet.
        """
        self._require_single_channel("per_requester_bandwidth_stacks")
        acct = RequesterBandwidthAccountant(self.spec)
        return acct.account(self.memory.log, self.total_cycles, label)

    def per_requester_bandwidth_cycles(self) -> dict[int, dict[str, int]]:
        """Raw per-requester integer cycle counters (conservation tests)."""
        self._require_single_channel("per_requester_bandwidth_cycles")
        acct = RequesterBandwidthAccountant(self.spec)
        return acct.account_cycles(self.memory.log, self.total_cycles)

    def per_requester_latency_stacks(
        self, label: str = ""
    ) -> dict[int, Stack]:
        """Per-requester latency stacks with interference (ns)."""
        self._require_single_channel("per_requester_latency_stacks")
        acct = RequesterLatencyAccountant(
            self.spec, self.base_controller_cycles
        )
        return acct.account(
            self.memory.completed_requests, self.memory.log, label
        )

    def _require_single_channel(self, what: str) -> None:
        if self.composite:
            raise ConfigurationError(
                f"{what} is not supported for multi-channel devices yet; "
                f"use the aggregate bandwidth_stack/latency_stack, or the "
                f"per-channel methods on result.memory"
            )

    def cycle_stack(self, label: str = "") -> Stack:
        """Merged CPI-style cycle stack over all cores."""
        return CycleStackBuilder.merge(
            [c.cycle_stack for c in self.system.cores], label
        )

    def cycle_series(
        self, label: str = "", bin_cycles: int | None = None
    ) -> StackSeries:
        """Through-time cycle stacks (re-binnable)."""
        base = self.system.config.core.cycle_stack_bin
        group = 1 if bin_cycles is None else max(1, bin_cycles // base)
        return CycleStackBuilder.merge_series(
            [c.cycle_stack for c in self.system.cores], label, group
        )

    def summary(self) -> dict:
        """Headline numbers for reports and tests."""
        return {
            "cores": len(self.system.cores),
            "total_cycles": self.total_cycles,
            "runtime_ms": self.runtime_ms,
            "achieved_gbps": self.achieved_bandwidth_gbps,
            "dram_reads": self.dram_reads,
            "dram_writes": self.dram_writes,
            "page_hit_rate": self.memory.stats.page_hit_rate,
            "instructions": self.instructions,
        }
