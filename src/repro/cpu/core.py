"""Interval-style out-of-order core approximation.

The core consumes a trace of :class:`TraceItem` records. It dispatches
instructions at its dispatch width (scaled to the memory clock), issues
memory operations through the cache hierarchy, and keeps a window of
outstanding loads bounded by the ROB size and MSHR count. It stalls —
exactly like the closed loop the paper describes — when:

* the oldest load is incomplete and the ROB is full,
* a dependent load's producer has not returned,
* all MSHRs are busy.

Stall time is attributed to cycle-stack components (``dcache``,
``dram_latency``, ``dram_queue``) using the completed request's timing.
Stores never block retirement (Sec. V: "writes usually do not stall a
core") but do consume MSHRs and trigger write-allocate fills.

Two engines implement the dispatch loop, mirroring the controller's
``ControllerConfig.engine`` seam: ``"fast"`` (default) runs an inlined,
event-skipping rewrite over materialized trace blocks that walks the
cache hierarchy itself (L1 and L2 probed inline on the set dicts, one
call to :meth:`CacheHierarchy.l2_miss` past L2); ``"reference"`` steps
item-by-item through :meth:`CacheHierarchy.access`, exactly as the
original model did. Both produce bit-identical results — the
golden/differential tests hold them to it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.cpu.hierarchy import CacheHierarchy
from repro.dram.commands import Request
from repro.errors import ConfigurationError, require_finite, require_int
from repro.stacks.cycle import CycleStackBuilder


@dataclass(frozen=True, slots=True)
class TraceItem:
    """One unit of work in a core's instruction trace.

    Attributes:
        instructions: non-memory instructions executed before the
            (optional) memory operation.
        address: byte address of the memory operation, or -1 for none.
        is_store: the operation is a store (write-allocate).
        dependency_distance: 0 for an independent access; k > 0 makes the
            access depend on the k-th most recent load (pointer-chase
            style). Emitting every item with distance k yields k
            independent dependence chains, i.e. memory-level
            parallelism of about k.
        branch_mispredicts: mispredicted branches in this block.
        barrier: synchronization point — the core waits for all cores.

    Items are shared, so ``frozen=True`` is load-bearing: the GAP
    tracer interns equal items, putting one object at many positions of
    a run's traces, and the synthetic block cache hands the same item
    lists to every run of one configuration. A mutable item would let
    one position or run change another.
    """

    instructions: int = 0
    address: int = -1
    is_store: bool = False
    dependency_distance: int = 0
    branch_mispredicts: int = 0
    barrier: bool = False

    @property
    def has_memory_op(self) -> bool:
        """Whether this item carries a load/store."""
        return self.address >= 0


#: Core dispatch engines. ``"fast"`` runs the inlined event-skipping
#: loop over materialized trace blocks; ``"reference"`` keeps the
#: original per-item stepping. Results are bit-identical; the reference
#: engine exists so the differential tests can prove it.
CORE_ENGINES = ("fast", "reference")


@dataclass(frozen=True)
class CoreConfig:
    """Core parameters, defaulting to the paper's Skylake-like setup.

    All times are memory-controller cycles (1.2 GHz); ``freq_ratio`` is
    the core-to-memory clock ratio, so a 4-wide core at ratio 3 dispatches
    up to 12 instructions per memory cycle. ``freq_ratio`` must be a
    positive, finite number (not a bool) and ``branch_penalty`` finite
    and non-negative. The other numeric fields are ints:
    ``dispatch_width``, ``rob_size``, ``mshrs`` and ``cycle_stack_bin``
    at least 1, the NoC cycles and ``dram_inflight_cap`` non-negative
    (NoC 0: no on-chip network delay; cap 0: every prefetch is dropped).
    """

    dispatch_width: int = 4
    rob_size: int = 224
    mshrs: int = 7
    dram_inflight_cap: int = 7
    freq_ratio: float = 3.0
    branch_penalty: float = 5.0  # memory cycles per misprediction
    noc_request_cycles: int = 21  # core -> memory controller
    noc_response_cycles: int = 21  # data return path
    cycle_stack_bin: int = 2_000
    engine: str = "fast"

    def __post_init__(self) -> None:
        for name in ("dispatch_width", "rob_size", "mshrs", "cycle_stack_bin"):
            require_int("CoreConfig", name, getattr(self, name), 1)
        for name in (
            "dram_inflight_cap", "noc_request_cycles", "noc_response_cycles",
        ):
            require_int("CoreConfig", name, getattr(self, name), 0)
        require_finite("CoreConfig", "freq_ratio", self.freq_ratio, 0)
        if self.freq_ratio == 0:
            raise ConfigurationError(
                "CoreConfig(freq_ratio=...) must be positive, got 0"
            )
        require_finite("CoreConfig", "branch_penalty", self.branch_penalty, 0)
        if self.engine not in CORE_ENGINES:
            raise ConfigurationError(
                f"unknown core engine {self.engine!r}; "
                f"expected one of {sorted(CORE_ENGINES)}"
            )

    @property
    def instructions_per_cycle(self) -> float:
        """Peak dispatch rate in instructions per memory cycle."""
        return self.dispatch_width * self.freq_ratio


@dataclass(slots=True, eq=False)
class OutstandingLoad:
    """A load (or store fill) in flight.

    Identity semantics (``eq=False``): the window, the recent-load ring
    and request metadata all hold *references*; the fast engine's free
    pool relies on ``in`` meaning "this exact object".
    """

    index: int  # cumulative instruction index at dispatch
    level: str  # "l2" / "llc" / "mem"
    complete: float | None  # known completion time, None while in DRAM
    is_store: bool
    request: Request | None = None


#: Core scheduling states returned by :meth:`IntervalCore.advance`.
RUNNING = "running"
BLOCKED = "blocked"
AT_BARRIER = "barrier"
FINISHED = "finished"


@dataclass
class CoreStats:
    """Per-core instruction and cache-level counters."""
    instructions: int = 0
    memory_ops: int = 0
    loads: int = 0
    stores: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    llc_hits: int = 0
    dram_loads: int = 0
    dram_pending_hits: int = 0


class IntervalCore:
    """One core of the closed-loop model.

    The system driver calls :meth:`advance` repeatedly; the core runs
    until it blocks on memory, reaches a barrier, exhausts a time quantum
    or finishes its trace. Memory requests are issued through the
    `memory` callback supplied by the driver; completions are delivered
    via :meth:`complete_request`. :class:`~repro.cpu.system.CpuSystem`
    passes a weak proxy of itself as `memory`: the system owns its
    cores, so a strong reference back would be a reference cycle. A
    core kept after its system is dropped can be read, not advanced.
    """

    def __init__(
        self,
        core_id: int,
        config: CoreConfig,
        hierarchy: CacheHierarchy,
        memory,
        cycle_ns: float,
    ) -> None:
        self.core_id = core_id
        self.config = config
        self.hierarchy = hierarchy
        self._memory = memory
        self.stats = CoreStats()
        self.cycle_stack = CycleStackBuilder(
            config.cycle_stack_bin, cycle_ns
        )
        # Hot-loop constants hoisted out of the (frozen) config: property
        # and attribute-chain lookups dominate the dispatch loop otherwise.
        self._ipc = config.instructions_per_cycle
        self._rob_size = config.rob_size
        self._mshrs = config.mshrs
        self._branch_penalty = config.branch_penalty
        self._noc_response = config.noc_response_cycles
        self._line_shift = hierarchy.config.l1.line_bytes.bit_length() - 1
        self._engine_fast = config.engine == "fast"

        self.t = 0.0
        self._trace = iter(())
        self._pending: TraceItem | None = None
        self._outstanding: deque[OutstandingLoad] = deque()
        self._mshr_used = 0
        self._recent_loads: deque[OutstandingLoad] = deque(maxlen=64)
        self._blocked_since: float | None = None
        self._blocked_on: OutstandingLoad | None = None
        # Fast-engine trace block: the fast engine runs off `_items`/
        # `_pos` directly instead of the `_trace` iterator.
        self._items: list[TraceItem] | tuple[TraceItem, ...] = ()
        self._pos = 0
        # Free pool of OutstandingLoad objects safe to recycle (never
        # referenced from request metadata or the recent-load ring).
        self._load_pool: list[OutstandingLoad] = []
        self.state = FINISHED

    # ------------------------------------------------------------------
    def set_trace(self, trace) -> None:
        """Install a new instruction trace; the core becomes runnable.

        A trace that is not a list or tuple (a generator, say) is made
        into a list once, so both engines step the same items.
        """
        if not isinstance(trace, (list, tuple)):
            trace = list(trace)
        self._items = trace
        self._trace = iter(trace)
        self._pos = 0
        self._pending = None
        self.state = RUNNING

    @property
    def blocked_on_memory(self) -> bool:
        """Whether the core waits on a DRAM completion."""
        return self.state == BLOCKED

    # ------------------------------------------------------------------
    # Completion path
    # ------------------------------------------------------------------
    def complete_request(
        self, load: OutstandingLoad, request: Request
    ) -> None:
        """The DRAM request backing `load` finished."""
        load.complete = request.finish + self._noc_response
        if self.state == BLOCKED:
            blocker = self._blocked_on
            # Blocked on MSHR pressure (no blocker), any known completion
            # lets the core go on, and `load` sits in the window.
            if blocker is None or blocker.complete is not None:
                self._resume()

    def _resume(self) -> None:
        """Leave the blocked state, charging the stall to the blocker."""
        blocker = self._blocked_on
        if blocker is None:
            blocker = min(
                (o for o in self._outstanding if o.complete is not None),
                key=lambda o: o.complete,
                default=None,
            )
        assert self._blocked_since is not None
        wake = max(
            self.t,
            blocker.complete if blocker and blocker.complete else self.t,
        )
        self._charge_stall(blocker, self._blocked_since, wake)
        self.t = wake
        self._blocked_since = None
        self._blocked_on = None
        self.state = RUNNING
        self._retire_completed()

    def _charge_stall(
        self, load: OutstandingLoad | None, start: float, end: float
    ) -> None:
        """Attribute a stall interval to cycle-stack components.

        Each part goes through the single-bin fast path of
        :meth:`CycleStackBuilder.add` inline, as the dispatch loop does,
        and through ``add`` itself otherwise, so the sums are identical.
        """
        duration = end - start
        if duration <= 0:
            return
        cycle_stack = self.cycle_stack
        bins = cycle_stack._bins
        bin_cycles = cycle_stack.bin_cycles
        if load is None or load.level in ("l2", "llc"):
            component = "dcache"
        else:
            component = "dram_latency"
            request = load.request
            if request is not None and request.cas_issue >= 0:
                total = max(request.finish - request.arrival, 1)
                uncontended = (
                    request.finish - request.cas_issue  # tCL + burst
                    + (request.own_pre_end - request.own_pre_start
                       if request.own_pre_start >= 0 else 0)
                    + (request.own_act_end - request.own_act_start
                       if request.own_act_start >= 0 else 0)
                )
                queue_fraction = max(
                    0.0, min(1.0, 1.0 - uncontended / total)
                )
                # Both parts are >= 0, and add() drops a part of at most
                # 1e-12 cycles, so skipping those here changes nothing.
                queue = duration * queue_fraction
                if queue > 1e-12:
                    index = int(start // bin_cycles)
                    if (
                        index < len(bins)
                        and start + queue <= (index + 1) * bin_cycles
                    ):
                        bins[index]["dram_queue"] += queue
                    else:
                        cycle_stack.add("dram_queue", start, queue)
                start += queue
                duration *= 1.0 - queue_fraction
        if duration > 1e-12:
            index = int(start // bin_cycles)
            if (
                index < len(bins)
                and start + duration <= (index + 1) * bin_cycles
            ):
                bins[index][component] += duration
            else:
                cycle_stack.add(component, start, duration)

    def _retire_completed(self) -> None:
        """Drop leading completed loads from the window."""
        while self._outstanding:
            head = self._outstanding[0]
            if head.complete is None or head.complete > self.t:
                break
            self._outstanding.popleft()
            self._mshr_used -= 1

    # ------------------------------------------------------------------
    # Dispatch loop
    # ------------------------------------------------------------------
    def advance(self, quantum: float) -> str:
        """Run until blocked, a barrier, trace end, or `quantum` cycles."""
        if self.state in (FINISHED, BLOCKED):
            return self.state
        if self._engine_fast:
            return self._advance_fast(quantum)
        return self._advance_reference(quantum)

    def _advance_reference(self, quantum: float) -> str:
        """Original per-item stepping, kept as the differential oracle."""
        deadline = self.t + quantum
        while self.t < deadline:
            self._retire_completed()
            item = self._pending
            if item is None:
                item = next(self._trace, None)
                if item is None:
                    self.state = FINISHED
                    return self.state
                self._pending = item

            if item.barrier:
                # The driver releases barriers; stay pending until then.
                self.state = AT_BARRIER
                return self.state

            if not self._dispatch_instructions(item):
                return self.state  # blocked inside the ROB stall
            if item.branch_mispredicts:
                penalty = item.branch_mispredicts * self._branch_penalty
                self.cycle_stack.add("branch", self.t, penalty)
                self.t += penalty
            if item.has_memory_op and not self._issue_memory(item):
                return self.state  # blocked on dependency or MSHRs
            self._pending = None
        return self.state

    def _leave_fast(
        self, t: float, pos: int, item: TraceItem | None, state: str
    ) -> str:
        """Write the fast loop's hoisted state back, then return."""
        self.t = t
        self._pos = pos
        self._pending = item
        self.state = state
        return state

    def _advance_fast(self, quantum: float) -> str:
        """Event-skipping rewrite of :meth:`_advance_reference`.

        Same arithmetic in the same order, on hoisted locals: every
        float the reference path adds to ``self.t`` or to the cycle
        stack is produced by an identical expression here, so results
        stay bit-identical (the differential matrix in ``tests/golden``
        holds both engines to that). The cache walk is inlined the same
        way: each cache changes state, statistics and victims in the
        order :meth:`CacheHierarchy.access` gives them.
        """
        items = self._items
        t = self.t
        deadline = t + quantum
        pos = self._pos
        n = len(items)
        outstanding = self._outstanding
        stats = self.stats
        cycle_stack = self.cycle_stack
        add = cycle_stack.add
        # Inlined single-bin fast path of CycleStackBuilder.add: `bins`
        # aliases the builder's list (only ever appended to, never
        # rebound), and anything outside the common case — bin-crossing
        # intervals, unallocated bins, sub-epsilon durations — falls
        # back to add() itself, so the accumulated floats are identical.
        bins = cycle_stack._bins
        bin_cycles = cycle_stack.bin_cycles
        ipc = self._ipc
        rob_size = self._rob_size
        recent = self._recent_loads
        recent_cap = recent.maxlen
        pool = self._load_pool
        memory = self._memory
        pending_lines = memory._pending_lines
        line_shift = self._line_shift
        hierarchy = self.hierarchy
        l1_sets = hierarchy._l1_sets
        l1_mask = hierarchy._l1_mask
        l1_ways = hierarchy._l1_ways
        l1_stats = hierarchy._l1_stats
        l2_sets = hierarchy._l2_sets
        l2_mask = hierarchy._l2_mask
        l2_stats = hierarchy._l2_stats
        l2_lookup = hierarchy._l2_lookup
        llc_lookup = hierarchy._llc_lookup
        l2_miss = hierarchy.l2_miss
        fill_l2 = hierarchy._fill_l2
        item = self._pending

        while t < deadline:
            # Retire completed loads at the head of the window.
            while outstanding:
                head = outstanding[0]
                hc = head.complete
                if hc is None or hc > t:
                    break
                outstanding.popleft()
                self._mshr_used -= 1
                if head.is_store and head.request is None:
                    pool.append(head)
            if item is None:
                if pos >= n:
                    return self._leave_fast(t, pos, None, FINISHED)
                item = items[pos]
                pos += 1

            if item.barrier:
                # The driver releases barriers; stay pending until then.
                return self._leave_fast(t, pos, item, AT_BARRIER)

            # Dispatch item.instructions, honoring the ROB bound.
            remaining = item.instructions
            while remaining > 0:
                blocking = None
                for o in outstanding:
                    if not o.is_store:
                        oc = o.complete
                        if oc is None or oc > t:
                            blocking = o
                            break
                if blocking is None:
                    room = rob_size
                else:
                    room = rob_size - (stats.instructions - blocking.index)
                    if room <= 0:
                        bc = blocking.complete
                        if bc is None:
                            self._blocked_since = t
                            self._blocked_on = blocking
                            return self._leave_fast(t, pos, item, BLOCKED)
                        self._charge_stall(blocking, t, bc)
                        if bc > t:
                            t = bc
                        while outstanding:
                            head = outstanding[0]
                            hc = head.complete
                            if hc is None or hc > t:
                                break
                            outstanding.popleft()
                            self._mshr_used -= 1
                            if head.is_store and head.request is None:
                                pool.append(head)
                        continue
                chunk = remaining if remaining < room else room
                duration = chunk / ipc
                index = int(t // bin_cycles)
                if (
                    duration > 1e-12
                    and index < len(bins)
                    and t + duration <= (index + 1) * bin_cycles
                ):
                    bins[index]["base"] += duration
                else:
                    add("base", t, duration)
                t += duration
                stats.instructions += chunk
                remaining -= chunk

            bm = item.branch_mispredicts
            if bm:
                penalty = bm * self._branch_penalty
                index = int(t // bin_cycles)
                if (
                    penalty > 1e-12
                    and index < len(bins)
                    and t + penalty <= (index + 1) * bin_cycles
                ):
                    bins[index]["branch"] += penalty
                else:
                    add("branch", t, penalty)
                t += penalty

            address = item.address
            if address < 0:
                item = None
                if outstanding:
                    continue
                # Pure-compute run with an empty window: nothing can
                # retire or block, so fold the whole run of non-memory
                # items in one sweep (identical per-item arithmetic).
                while t < deadline and pos < n:
                    nxt = items[pos]
                    if nxt.address >= 0 or nxt.barrier:
                        break
                    pos += 1
                    remaining = nxt.instructions
                    while remaining > 0:
                        chunk = (
                            remaining if remaining < rob_size else rob_size
                        )
                        duration = chunk / ipc
                        index = int(t // bin_cycles)
                        if (
                            duration > 1e-12
                            and index < len(bins)
                            and t + duration <= (index + 1) * bin_cycles
                        ):
                            bins[index]["base"] += duration
                        else:
                            add("base", t, duration)
                        t += duration
                        stats.instructions += chunk
                        remaining -= chunk
                    bm = nxt.branch_mispredicts
                    if bm:
                        penalty = bm * self._branch_penalty
                        index = int(t // bin_cycles)
                        if (
                            penalty > 1e-12
                            and index < len(bins)
                            and t + penalty <= (index + 1) * bin_cycles
                        ):
                            bins[index]["branch"] += penalty
                        else:
                            add("branch", t, penalty)
                        t += penalty
                continue

            # Memory operation (inlined _issue_memory).
            distance = item.dependency_distance
            if 0 < distance <= len(recent):
                producer = recent[-distance]
                pc = producer.complete
                if pc is None:
                    self._blocked_since = t
                    self._blocked_on = producer
                    return self._leave_fast(t, pos, item, BLOCKED)
                if pc > t:
                    self._charge_stall(producer, t, pc)
                    t = pc
                    while outstanding:
                        head = outstanding[0]
                        hc = head.complete
                        if hc is None or hc > t:
                            break
                        outstanding.popleft()
                        self._mshr_used -= 1
                        if head.is_store and head.request is None:
                            pool.append(head)
            if self._mshr_used >= self._mshrs:
                earliest = None
                earliest_t = None
                for o in outstanding:
                    oc = o.complete
                    if oc is not None and (
                        earliest_t is None or oc < earliest_t
                    ):
                        earliest = o
                        earliest_t = oc
                if earliest is None:
                    self._blocked_since = t
                    self._blocked_on = None
                    return self._leave_fast(t, pos, item, BLOCKED)
                self._charge_stall(earliest, t, earliest_t)
                if earliest_t > t:
                    t = earliest_t
                while outstanding:
                    head = outstanding[0]
                    hc = head.complete
                    if hc is None or hc > t:
                        break
                    outstanding.popleft()
                    self._mshr_used -= 1
                    if head.is_store and head.request is None:
                        pool.append(head)
                if self._mshr_used >= self._mshrs:
                    # Completed-but-not-head entries keep MSHRs; drain
                    # harder (reads self.t — sync first).
                    self.t = t
                    self._drain_one_mshr()

            # The cache walk: L1 and L2 probed inline on the hierarchy's
            # set dicts, one call past L2 (same order as access()).
            is_store = item.is_store
            line = address >> line_shift
            stats.memory_ops += 1
            if is_store:
                stats.stores += 1
            else:
                stats.loads += 1
            s1 = l1_sets[line & l1_mask]
            if line in s1:
                s1[line] = s1.pop(line) or is_store
                l1_stats.hits += 1
                stats.l1_hits += 1
                item = None
                continue
            l1_stats.misses += 1
            writebacks = prefetches = pending = None
            s2 = l2_sets[line & l2_mask]
            if line in s2:
                s2[line] = s2.pop(line)
                l2_stats.hits += 1
                level = "l2"
                latency = l2_lookup
            else:
                l2_stats.misses += 1
                level, writebacks, prefetches = l2_miss(line)
                latency = llc_lookup
                pending = pending_lines.get(line)
            # Fill L1; a dirty victim cascades into L2 through insert()'s
            # membership-checking path, since it may already sit there.
            if len(s1) >= l1_ways:
                victim = next(iter(s1))
                was_dirty = s1.pop(victim)
                l1_stats.evictions += 1
                if was_dirty:
                    l1_stats.dirty_evictions += 1
                    if writebacks is None:
                        writebacks = []
                    fill_l2(victim, writebacks, dirty=True)
            s1[line] = is_store

            if pool:
                load = pool.pop()
                load.index = stats.instructions
                load.level = level
                load.complete = None
                load.is_store = is_store
                load.request = None
            else:
                load = OutstandingLoad(
                    stats.instructions, level, None, is_store
                )
            if pending is not None:
                # The line is already on its way from DRAM (a prefetch
                # or another core's demand miss): wait on that request.
                load.level = "mem"
                load.request = pending
                stats.dram_pending_hits += 1
                memory.attach_waiter(pending, self, load)
            elif level == "mem":
                stats.dram_loads += 1
                load.request = memory.issue_read(
                    self, load, line, t + latency
                )
            else:
                if level == "l2":
                    stats.l2_hits += 1
                else:
                    stats.llc_hits += 1
                load.complete = t + latency
            outstanding.append(load)
            self._mshr_used += 1
            if not is_store:
                if len(recent) == recent_cap:
                    # The ring is about to evict its oldest entry; it is
                    # recyclable unless DRAM metadata or the window
                    # still reference it.
                    old = recent[0]
                    if old.request is None and old not in outstanding:
                        pool.append(old)
                recent.append(load)
            if writebacks:
                memory.issue_writebacks(self, writebacks, t)
            if prefetches:
                memory.issue_prefetches(self, prefetches, t)
            item = None

        return self._leave_fast(t, pos, item, RUNNING)

    def finish_barrier(self, release_time: float) -> None:
        """Release from a barrier; idle time until `release_time`."""
        if release_time > self.t:
            self.cycle_stack.add("idle", self.t, release_time - self.t)
            self.t = release_time
        self._pending = None
        self.state = RUNNING

    def _block(self, on: OutstandingLoad | None) -> None:
        self._blocked_since = self.t
        self._blocked_on = on
        self.state = BLOCKED

    def _wait_for(self, load: OutstandingLoad) -> bool:
        """Wait until `load` completes; False if its time is unknown."""
        if load.complete is None:
            self._block(load)
            return False
        self._charge_stall(load, self.t, load.complete)
        self.t = max(self.t, load.complete)
        self._retire_completed()
        return True

    def _dispatch_instructions(self, item: TraceItem) -> bool:
        """Advance time for `item.instructions`, honoring the ROB bound."""
        remaining = item.instructions
        rate = self._ipc
        rob_size = self._rob_size
        stats = self.stats
        add = self.cycle_stack.add
        while remaining > 0:
            blocking = self._oldest_blocking_load()
            if blocking is None:
                # Only non-blocking stores (if anything) fill the window;
                # stores retire without waiting for data, so the full ROB
                # is available.
                room = rob_size
            else:
                room = rob_size - (stats.instructions - blocking.index)
                if room <= 0:
                    if not self._wait_for(blocking):
                        return False
                    continue
            chunk = remaining if remaining < room else room
            duration = chunk / rate
            add("base", self.t, duration)
            self.t += duration
            stats.instructions += chunk
            remaining -= chunk
        return True

    def _rob_room(self) -> int:
        blocking = self._oldest_blocking_load()
        if blocking is None:
            return self._rob_size
        return self._rob_size - (
            self.stats.instructions - blocking.index
        )

    def _oldest_blocking_load(self) -> OutstandingLoad | None:
        t = self.t
        for load in self._outstanding:
            if load.is_store:
                continue
            complete = load.complete
            if complete is None or complete > t:
                return load
        return None

    def _issue_memory(self, item: TraceItem) -> bool:
        """Issue the item's load/store; False when the core blocked."""
        distance = item.dependency_distance
        if 0 < distance <= len(self._recent_loads):
            producer = self._recent_loads[-distance]
            if producer.complete is None or producer.complete > self.t:
                if not self._wait_for(producer):
                    return False
        if self._mshr_used >= self._mshrs:
            earliest = None
            earliest_t = None
            for o in self._outstanding:
                complete = o.complete
                if complete is not None and (
                    earliest_t is None or complete < earliest_t
                ):
                    earliest = o
                    earliest_t = complete
            if earliest is None:
                self._block(None)
                return False
            if not self._wait_for(earliest):
                return False
            self._retire_completed()
            if self._mshr_used >= self._mshrs:
                # Completed-but-not-head entries keep MSHRs; drain harder.
                self._drain_one_mshr()

        line = item.address >> self._line_shift
        result, pending = self._memory.cache_access(self, line, item.is_store)
        self.stats.memory_ops += 1
        if item.is_store:
            self.stats.stores += 1
        else:
            self.stats.loads += 1

        if result.level == "l1":
            self.stats.l1_hits += 1
            if result.writebacks:
                self._memory.issue_writebacks(self, result.writebacks, self.t)
            return True

        load = OutstandingLoad(
            index=self.stats.instructions,
            level=result.level,
            complete=None,
            is_store=item.is_store,
        )
        if pending is not None:
            # The line is already on its way from DRAM (a prefetch or
            # another core's demand miss): wait on that request.
            load.level = "mem"
            load.request = pending
            self.stats.dram_pending_hits += 1
            self._memory.attach_waiter(pending, self, load)
        elif result.level == "mem":
            self.stats.dram_loads += 1
            load.request = self._memory.issue_read(
                self, load, line, self.t + result.latency
            )
        else:
            if result.level == "l2":
                self.stats.l2_hits += 1
            else:
                self.stats.llc_hits += 1
            load.complete = self.t + result.latency
        self._outstanding.append(load)
        self._mshr_used += 1
        if not item.is_store:
            self._recent_loads.append(load)
        if result.writebacks:
            self._memory.issue_writebacks(self, result.writebacks, self.t)
        if result.prefetch_lines:
            self._memory.issue_prefetches(self, result.prefetch_lines, self.t)
        return True

    def _drain_one_mshr(self) -> None:
        """Free the MSHR of a completed, non-head outstanding entry."""
        for i, load in enumerate(self._outstanding):
            if load.complete is not None and load.complete <= self.t:
                del self._outstanding[i]
                self._mshr_used -= 1
                return

    # ------------------------------------------------------------------
    def account_idle_until(self, time: float) -> None:
        """Charge idle time (no work) up to `time`."""
        if time > self.t:
            self.cycle_stack.add("idle", self.t, time - self.t)
            self.t = time
