"""Packed struct-of-arrays controller engine (``engine="packed"``).

The object path (the ``"reference"`` engine) pays for its flexibility
in attribute chatter: every scheduling step walks ``Bank``/
``RankTiming``/``QueuedRequest`` objects and re-plans from scratch.
This engine packs the same state into flat columns — one plain list
per field, indexed by flat bank / entry id — and runs the
whole admit → refresh → decide → issue loop inside a single closure
whose hot names are cell variables, so the ~100k ``run_until`` calls of
a simulation pay no per-call re-hoisting. It is the production engine
for every policy: FR-FCFS and FCFS, the ``wrr`` and ``bank-reg``
QoS arbiters, both page policies and all three refresh policies.

Layout (struct of arrays; see docs/performance.md for the diagram):

* **Entry table** — append-only columns ``row/flat/req_id/arrival``
  plus intrusive linked lists ``next_in_bank`` / ``next_in_row`` /
  ``next_global`` and a ``served`` flag; the read queue and the write
  queue are chains through one shared table. Row chains are keyed
  ``(flat << 40) | row`` in plain dicts.
* **Bank state** — ``open_row`` (-1 = closed), ``next_act/pre/cas`` and
  ``cas_data_until``, one column each.
* **Rank state** — per-(rank, group) last-CAS/ACT/write-data-end
  columns, per-rank scalars, and the tFAW window as a 4-slot ring per
  rank (oldest sits at the next write position when full, matching
  ``deque(maxlen=4)``).
* **Candidate cache** — per queue, per bank: entry index (-1 invalid),
  kind code, starvation-flip cycle and bank gate of the bank's FR-FCFS
  candidate, valid until an admission or command on the bank, a
  refresh, or the starvation flip.

The columns are the one copy of the channel's queue, bank, rank and bus
state from construction on: a fresh controller's objects hold exactly
the columns' initial values, so nothing is ever copied in. The
``Bank``/``RankTiming``/``RequestQueue`` objects go stale while the
loop runs; :meth:`flush` copies the columns out into them whenever
object state must be observed — ``stall_snapshot``, the ``banks``
property, or a fault drill switching the controller to the object path
— and the loop carries on from its columns. That the written-back
state equals the reference engine's at random mid-run stops is
property-tested in ``tests/dram/test_packed_properties.py``.

The columns are lists rather than ``array('q')``: CPython 3.11
specializes list subscripts but not array ones, and an array read boxes
a new int each time (docs/performance.md has the measurement). A list
accepts any object, so the plain Python ints of the fingerprinted log
tuples rest on what enters the loop: ``MemoryController.enqueue``
refuses a request whose ``arrival`` or ``address`` is not exactly an
``int`` (a bool, float or numpy integer raises), the ``TimingSpec``
fields and run limits are ints, and the loop only adds, subtracts,
shifts and compares them.

Scheduling semantics are the object path's *exactly* — same candidate
selection, same arbiter stage (the QoS helpers of
:mod:`repro.dram.components.qos` are called, not copied), same
(time, priority, req_id) tournament, same merge-on-append blocked
windows and requester attribution — and held bit-identical to the
reference engine by the golden fingerprints and
``tests/golden/test_differential.py``. Only this loop memoizes: it
keeps the decision (plan cache) until an admission, issue, refresh or
starvation flip; repairs it from the banks admitted to when nothing
moved command timing (not under the QoS arbiters, which re-scan); and
issues a blocked plan in the step its wait ends (fused wait-and-issue).
docs/performance.md has the validity arguments.
"""

from __future__ import annotations

import heapq
import weakref

from repro.dram.commands import Command, CommandType, RequestType
from repro.dram.components.paging import ClosedPagePolicy, OpenPagePolicy
from repro.dram.components.refreshing import (
    AllBankRefresh,
    NoRefresh,
    SameBankRefresh,
)
from repro.dram.components.qos import BankRegScheduler, WrrScheduler
from repro.dram.components.scheduling import FcfsScheduler, FrFcfsScheduler
from repro.dram.rank import BlockScope
from repro.dram.scheduler import STARVATION_CAP, RequestQueue
from repro.dram.wqueue import FORWARD_LATENCY

#: Sentinel "infinitely far in the future" (the controller's FAR_FUTURE).
_FAR = 1 << 62
#: RankTiming's "never happened" initial timestamp.
_NEVER = -(10**9)
#: Scheduling steps between watchdog calls (controller._WATCHDOG_STRIDE).
_WATCHDOG_STRIDE = 32
#: Row-chain key packing: key = (flat << _ROW_SHIFT) | row.
_ROW_SHIFT = 40

_RT_READ = RequestType.READ
_CT_READ = CommandType.READ
_CT_WRITE = CommandType.WRITE
_CT_ACT = CommandType.ACTIVATE
_CT_PRE = CommandType.PRECHARGE
_CT_PRE_ALL = CommandType.PRECHARGE_ALL
_CT_REF = CommandType.REFRESH

_SCOPE_NONE = BlockScope.NONE
_SCOPE_BANK = BlockScope.BANK
_SCOPE_BG = BlockScope.BANK_GROUP
_SCOPE_RANK = BlockScope.RANK
_SCOPE_CHANNEL = BlockScope.CHANNEL


#: The policy classes the packed loop runs (exact types: a subclass may
#: override anything the loop transcribes).
_PACKED_SCHEDULERS = (
    FrFcfsScheduler, FcfsScheduler, WrrScheduler, BankRegScheduler,
)
_PACKED_PAGE_POLICIES = (OpenPagePolicy, ClosedPagePolicy)
_PACKED_REFRESH = (AllBankRefresh, SameBankRefresh, NoRefresh)


def packed_fallback_reason(controller) -> str | None:
    """Why `controller` cannot run packed, or None when it can.

    `controller` is anything carrying the controller's ``_sched``,
    ``_page`` and ``_refresh`` policies. The packed loop runs the four
    schedulers, both page policies and all three refresh policies, and
    those are every class the tables of :mod:`repro.dram.components`
    hold, so no config string names a policy this refuses.
    """
    for kind, component, supported in (
        ("scheduling policy", controller._sched, _PACKED_SCHEDULERS),
        ("page policy", controller._page, _PACKED_PAGE_POLICIES),
        ("refresh policy", controller._refresh, _PACKED_REFRESH),
    ):
        cls = type(component)
        if cls not in supported:
            name = getattr(component, "name", "?")
            return (
                f"{kind} {name!r} ({cls.__qualname__}) is not one the "
                f"packed loop runs"
            )
    return None


class PackedEngine:
    """SoA state + mega-loop for one :class:`MemoryController`.

    Life cycle: the constructor allocates the columns, which already
    hold a fresh controller's state, and builds the loop closure; every
    :meth:`run` steps it. :meth:`flush` copies the columns out into the
    controller's objects and leaves the engine running. The closure
    keeps the loop's scalars in its cells between runs and copies out
    the ones :meth:`flush` and the controller's size properties read
    (``gh_r``/``gh_w``, ``rq_len``/``wq_len``, ``bus_free``/``bus_last``)
    at every run exit and watchdog call.

    No reference cycle runs through the engine: the controller owns it,
    it holds only a weak reference back, and the closure's cells hold
    neither of them. :meth:`run` hands the closure both, per call.
    """

    def __init__(self, controller) -> None:
        """Allocate the columns and build the loop closure.

        `controller` is held weakly (it owns this engine), so dropping
        the controller frees the pair by reference counting.
        """
        self._ctrl = weakref.ref(controller)
        spec = controller.spec
        org = spec.organization
        B = self.B = controller.num_banks
        G = self.G = org.bank_groups
        R = self.R = org.ranks

        # Flat-index decompositions (mirrors Bank.__init__ / paging).
        self.bg_of = [(f % org.banks) // org.banks_per_group
                      for f in range(B)]
        self.bank_of = [f % org.banks_per_group for f in range(B)]
        self.rank_of = [f // org.banks for f in range(B)]

        # Every column below is a list of its own: two fields sharing one
        # list object would alias. Initial values are those of a fresh
        # Bank, RankTiming and SharedBus.
        # Bank state columns.
        self.b_row = [-1] * B
        self.b_nact = [0] * B
        self.b_npre = [0] * B
        self.b_ncas = [0] * B
        self.b_cdu = [0] * B
        # Rank state: per-(rank, group) columns, rank-major.
        self.rg_cas = [_NEVER] * (R * G)
        self.rg_act = [_NEVER] * (R * G)
        self.rg_wend = [_NEVER] * (R * G)
        self.rk_cas = [_NEVER] * R
        self.rk_act = [_NEVER] * R
        self.rk_ri = [_NEVER] * R
        self.rk_wend = [_NEVER] * R
        # tFAW ring: 4 slots per rank; oldest at the next write position
        # once full (deque(maxlen=4) semantics).
        self.faw = [0] * (R * 4)
        self.faw_n = [0] * R
        self.faw_p = [0] * R

        # Entry table (shared by both queues; chains disambiguate).
        self.e_row: list[int] = []
        self.e_flat: list[int] = []
        self.e_rid: list[int] = []
        self.e_arr: list[int] = []
        self.e_nb: list[int] = []   # next in bank chain (-1 = end)
        self.e_nr: list[int] = []   # next in row chain
        self.e_ng: list[int] = []   # next in global chain
        self.e_srv: list[int] = []  # 1 once served
        self.e_req: list = []       # parallel list of Request objects
        # Per-queue chain heads/tails and counts.
        self.bh_r = [-1] * B
        self.bt_r = [-1] * B
        self.bh_w = [-1] * B
        self.bt_w = [-1] * B
        self.cnt_r = [0] * B
        self.cnt_w = [0] * B
        self.rh_r: dict[int, int] = {}
        self.rt_r: dict[int, int] = {}
        self.rh_w: dict[int, int] = {}
        self.rt_w: dict[int, int] = {}

        # Candidate caches (entry -1 = invalid slot).
        self.cr_e = [-1] * B
        self.cr_k = [0] * B
        self.cr_f = [0] * B
        self.cr_b = [0] * B
        self.cw_e = [-1] * B
        self.cw_k = [0] * B
        self.cw_f = [0] * B
        self.cw_b = [0] * B

        # The loop's scalars as of its last exit or watchdog call.
        self.gh_r = self.gh_w = -1
        self.rq_len = self.wq_len = 0
        self.bus_free = 0
        self.bus_last = -1

        self._runner = self._make_runner(controller)

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Copy the columns out into the controller's objects.

        Writes the bank, rank and bus state into the ``Bank``,
        ``RankTiming`` and ``SharedBus`` objects and rebuilds both object
        queues as fresh ``RequestQueue``s in global arrival order, so
        repeated calls do not stack. The columns stay authoritative:
        the loop carries on from them, and writes to the objects do not
        reach it.
        """
        ctrl = self._ctrl()
        G = self.G
        for f, bank in enumerate(ctrl._banks):
            row = self.b_row[f]
            bank.open_row = None if row < 0 else row
            bank.next_act = self.b_nact[f]
            bank.next_pre = self.b_npre[f]
            bank.next_cas = self.b_ncas[f]
            bank.cas_data_until = self.b_cdu[f]
        for rk, rank in enumerate(ctrl._ranks):
            base = rk * G
            for g in range(G):
                rank._last_cas_group[g] = self.rg_cas[base + g]
                rank._last_act_group[g] = self.rg_act[base + g]
                rank._last_write_data_end_group[g] = self.rg_wend[base + g]
            rank._last_cas_rank = self.rk_cas[rk]
            rank._last_act_rank = self.rk_act[rk]
            rank._last_read_issue = self.rk_ri[rk]
            rank._last_write_data_end_rank = self.rk_wend[rk]
            n = self.faw_n[rk]
            p = self.faw_p[rk]
            rank._act_window.clear()
            for j in range(n):
                rank._act_window.append(
                    self.faw[(rk << 2) + ((p - n + j) & 3)]
                )
        ctrl._bus.free_at = self.bus_free
        ctrl._bus.last_rank = self.bus_last
        # Coordinates re-derive from the deterministic address mapping.
        decode = ctrl.mapping.decode
        e_srv, e_ng, e_req, e_flat = (
            self.e_srv, self.e_ng, self.e_req, self.e_flat
        )
        queues = []
        for head in (self.gh_r, self.gh_w):
            queue = RequestQueue(self.B)
            i = head
            while i >= 0:
                if not e_srv[i]:
                    req = e_req[i]
                    queue.add(req, decode(req.address), e_flat[i])
                i = e_ng[i]
            queues.append(queue)
        ctrl._read_queue, ctrl._write_buffer.queue = queues

    # ------------------------------------------------------------------
    def run(self, t_limit: int, stop_on_read: bool,
            stop_when_idle: bool = False) -> None:
        """Advance the packed loop."""
        self._runner(
            self, self._ctrl(), t_limit, stop_on_read, stop_when_idle
        )

    # ------------------------------------------------------------------
    def _make_runner(self, ctrl):
        """Build the mega-loop closure over the engine's columns.

        The closure's cells hold `ctrl`'s state objects but neither
        `ctrl` nor the engine: the engine keeps the closure, so either
        in a cell would close a reference cycle. Each call gets both as
        its first two arguments.

        Every name the loop touches per step is a closure cell (or a
        flat column), so the ~100k calls per simulation skip the object
        engine's per-call hoisting entirely. The control flow is a
        faithful transcription of ``MemoryController._run`` /
        ``_run_one_step`` / ``_issue``, the scheduler component's
        ``reference_plan`` / ``plan_entry`` / ``block_info`` methods and
        the refresh ``perform`` sequences; comments here mark the
        *mapping*, the originals document the *why*.
        """
        spec = ctrl.spec
        B, G = self.B, self.G

        # --- timing constants -----------------------------------------
        tRP = spec.tRP
        tRCD = spec.tRCD
        tRAS = spec.tRAS
        tRC = spec.tRC
        tWR = spec.tWR
        tRTP = spec.tRTP
        tCL = spec.tCL
        tCWL = spec.tCWL
        burst = spec.burst_cycles
        tCCD_L = spec.tCCD_L
        tCCD_S = spec.tCCD_S
        tRRD_L = spec.tRRD_L
        tRRD_S = spec.tRRD_S
        tFAW = spec.tFAW
        tWTR_L = spec.tWTR_L
        tWTR_S = spec.tWTR_S
        tRTRS = spec.tRTRS
        rtw = spec.read_to_write
        tREFI = spec.tREFI
        tRFC = spec.tRFC
        cap = STARVATION_CAP
        cap1 = cap + 1
        fwd_lat = FORWARD_LATENCY
        trace_commands = ctrl._trace_commands

        # --- components / shared structures ---------------------------
        stats = ctrl.stats
        arrivals = ctrl._arrivals
        in_flight = ctrl._in_flight
        completed = ctrl.completed_requests
        refresh = ctrl._refresh
        refresh_kind = (
            0 if type(refresh) is AllBankRefresh
            else 1 if type(refresh) is SameBankRefresh
            else 2
        )
        ref_interval = getattr(refresh, "_interval", 0)
        tRFCsb = getattr(refresh, "_tRFCsb", 0)
        wbuf = ctrl._write_buffer
        wbuf_update = wbuf.update
        wbA = wbuf._addresses
        mapping = ctrl.mapping
        locate = mapping.locate
        line_address = mapping.line_address
        closed_policy = type(ctrl._page) is ClosedPagePolicy
        sched = ctrl._sched
        fcfs_mode = type(sched) is FcfsScheduler
        # QoS arbiter stage (the object path's `arbitrate`): wrr filters
        # the per-bank candidates by requester credit, a budgeted
        # bank-reg re-times over-budget CAS candidates. An unbudgeted
        # bank-reg is plain FR-FCFS. Under an arbiter the scan collects
        # every candidate and the plan is never repaired incrementally.
        wrr = type(sched) is WrrScheduler
        reg_gate = (
            sched.gate
            if type(sched) is BankRegScheduler and sched.budget is not None
            else None
        )
        qos = wrr or reg_gate is not None
        repairable = not fcfs_mode and not qos
        note_service = ctrl._note_service
        qos_cands: list = []
        last_req_by_bank = ctrl._last_req_by_bank
        log_commands = ctrl.log.commands
        bursts = ctrl._log_bursts
        cas_w = ctrl._log_cas_windows
        lb = ctrl._log_blocked
        pre_w = ctrl.log.pre_windows
        act_w = ctrl.log.act_windows
        refresh_w = ctrl.log.refresh_windows
        bank_refresh_w = ctrl.log.bank_refresh_windows
        heappush = heapq.heappush
        heappop = heapq.heappop

        # --- columns ---------------------------------------------------
        bg_of, bank_of, rank_of = self.bg_of, self.bank_of, self.rank_of
        b_row, b_nact, b_npre, b_ncas = (
            self.b_row, self.b_nact, self.b_npre, self.b_ncas
        )
        b_cdu = self.b_cdu
        rg_cas, rg_act, rg_wend = self.rg_cas, self.rg_act, self.rg_wend
        rk_cas, rk_act, rk_ri, rk_wend = (
            self.rk_cas, self.rk_act, self.rk_ri, self.rk_wend
        )
        faw, faw_n, faw_p = self.faw, self.faw_n, self.faw_p
        e_row, e_flat, e_rid, e_arr = (
            self.e_row, self.e_flat, self.e_rid, self.e_arr
        )
        e_nb, e_nr, e_ng = self.e_nb, self.e_nr, self.e_ng
        e_srv, e_req = self.e_srv, self.e_req
        bh_r, bt_r, bh_w, bt_w = self.bh_r, self.bt_r, self.bh_w, self.bt_w
        cnt_r, cnt_w = self.cnt_r, self.cnt_w
        rh_r, rt_r, rh_w, rt_w = self.rh_r, self.rt_r, self.rh_w, self.rt_w
        cr_e, cr_k, cr_f, cr_b = self.cr_e, self.cr_k, self.cr_f, self.cr_b
        cw_e, cw_k, cw_f, cw_b = self.cw_e, self.cw_k, self.cw_f, self.cw_b

        # Per-decide rank-gate scratch (lazily filled, seen-bitmask).
        cas_rgate = [0] * self.R
        act_rgate = [0] * self.R

        # --- persistent loop state (cells, kept between runs) ---------
        gh_r = gt_r = gh_w = gt_w = -1
        mask_r = mask_w = 0
        rq_n = wq_n = 0
        bus_free = 0
        bus_last = -1
        last_chan = -1
        epoch = 0
        plan_has = False
        plan_time = 0
        plan_ent = -1
        plan_kind = 0
        plan_flat = -1
        plan_epoch_v = -1
        plan_valid = 0
        plan_wmode = False
        plan_gated = False
        blk_set = False
        blk_scope = _SCOPE_NONE
        blk_reason = ""
        # Plan cache: the decision stays valid while the scheduling
        # epoch (admissions, issues, refreshes) is unchanged and `now`
        # is below the starvation horizon `plan_valid`.
        # Timing epoch + dirty-bank masks for incremental plan repair:
        # only issue and refresh move command timing; admissions merely
        # mark their bank dirty so the next decide can repair the cached
        # plan from the dirty banks instead of rescanning every bank.
        t_epoch = 0
        plan_t_epoch = -1
        dirty_r = 0
        dirty_w = 0

        def _finish(upto, completions):
            """_collect_finished + _finish_request."""
            while in_flight and in_flight[0][0] <= upto:
                __, __, req = heappop(in_flight)
                completions.append(req)
                completed.append(req)
                if req.req_type is _RT_READ:
                    stats.reads_completed += 1
                else:
                    stats.writes_completed += 1

        def run(eng, ctrl, t_limit, stop_on_read, stop_when_idle):
            nonlocal gh_r, gt_r, gh_w, gt_w, mask_r, mask_w, rq_n, wq_n
            nonlocal bus_free, bus_last, last_chan, epoch
            nonlocal plan_has, plan_time, plan_ent, plan_kind, plan_flat
            nonlocal plan_epoch_v, plan_valid, plan_wmode, plan_gated
            nonlocal blk_set, blk_scope, blk_reason
            nonlocal t_epoch, plan_t_epoch, dirty_r, dirty_w
            now = ctrl.now
            last_cmd = ctrl._last_cmd_issue
            watchdog = ctrl.watchdog
            wd_count = ctrl._watchdog_countdown
            completions = ctrl._completions
            ref_until = refresh.until
            ref_due = refresh.next_due
            try:
                while now < t_limit:
                    if stop_on_read and (
                        stats.reads_completed == stats.reads_enqueued
                    ):
                        break
                    if stop_when_idle and not (
                        arrivals or in_flight or rq_n or wq_n
                    ):
                        break
                    before = stats.reads_completed

                    # ===== one scheduling step (= _run_one_step) =====
                    if arrivals and arrivals[0][0] <= now:
                        # _admit_arrivals, against the entry table.
                        admitted = False
                        while arrivals and arrivals[0][0] <= now:
                            admitted = True
                            __, __, req = heappop(arrivals)
                            addr = req.address
                            flat, row = locate(addr)
                            if req.req_type is _RT_READ:
                                if wbA and line_address(addr) in wbA:
                                    req.forwarded = True
                                    fin = req.arrival + fwd_lat
                                    req.finish = fin
                                    req.cas_issue = req.arrival
                                    req.data_start = fin
                                    stats.reads_forwarded += 1
                                    heappush(
                                        in_flight, (fin, req.req_id, req)
                                    )
                                    continue
                                req.row_open_on_arrival = (
                                    b_row[flat] == row
                                )
                                i = len(e_rid)
                                e_row.append(row)
                                e_flat.append(flat)
                                e_rid.append(req.req_id)
                                e_arr.append(req.arrival)
                                e_nb.append(-1)
                                e_nr.append(-1)
                                e_ng.append(-1)
                                e_srv.append(0)
                                e_req.append(req)
                                t = bt_r[flat]
                                if t >= 0:
                                    e_nb[t] = i
                                else:
                                    bh_r[flat] = i
                                bt_r[flat] = i
                                key = (flat << _ROW_SHIFT) | row
                                t = rt_r.get(key, -1)
                                if t >= 0 and key in rh_r:
                                    e_nr[t] = i
                                else:
                                    rh_r[key] = i
                                rt_r[key] = i
                                if gt_r >= 0:
                                    e_ng[gt_r] = i
                                else:
                                    gh_r = i
                                gt_r = i
                                c = cnt_r[flat]
                                if c == 0:
                                    mask_r |= 1 << flat
                                cnt_r[flat] = c + 1
                                rq_n += 1
                                cr_e[flat] = -1
                                dirty_r |= 1 << flat
                            else:
                                # WriteBuffer.add (raw-address keying).
                                i = len(e_rid)
                                e_row.append(row)
                                e_flat.append(flat)
                                e_rid.append(req.req_id)
                                e_arr.append(req.arrival)
                                e_nb.append(-1)
                                e_nr.append(-1)
                                e_ng.append(-1)
                                e_srv.append(0)
                                e_req.append(req)
                                t = bt_w[flat]
                                if t >= 0:
                                    e_nb[t] = i
                                else:
                                    bh_w[flat] = i
                                bt_w[flat] = i
                                key = (flat << _ROW_SHIFT) | row
                                t = rt_w.get(key, -1)
                                if t >= 0 and key in rh_w:
                                    e_nr[t] = i
                                else:
                                    rh_w[key] = i
                                rt_w[key] = i
                                if gt_w >= 0:
                                    e_ng[gt_w] = i
                                else:
                                    gh_w = i
                                gt_w = i
                                c = cnt_w[flat]
                                if c == 0:
                                    mask_w |= 1 << flat
                                cnt_w[flat] = c + 1
                                wq_n += 1
                                line = line_address(addr)
                                wbA[line] = wbA.get(line, 0) + 1
                                cw_e[flat] = -1
                                dirty_w |= 1 << flat
                        if admitted:
                            epoch += 1
                    if in_flight and in_flight[0][0] <= now:
                        _finish(now, completions)
                    if watchdog is not None:
                        wd_count -= 1
                        if wd_count <= 0:
                            wd_count = _WATCHDOG_STRIDE
                            # Call with coherent controller scalars: on a
                            # stall the watchdog takes a stall_snapshot
                            # (which flushes this engine) and raises.
                            ctrl.now = now
                            ctrl._last_cmd_issue = last_cmd
                            ctrl._last_req_channel = last_chan
                            ctrl._watchdog_countdown = wd_count
                            eng.gh_r, eng.gh_w = gh_r, gh_w
                            eng.rq_len, eng.wq_len = rq_n, wq_n
                            eng.bus_free, eng.bus_last = bus_free, bus_last
                            watchdog.observe(ctrl)

                    # 1. Refresh in progress: nothing can issue.
                    if now < ref_until:
                        target = ref_until if ref_until < t_limit else t_limit
                        if target <= now:
                            break
                        if in_flight and in_flight[0][0] <= target:
                            _finish(target, completions)
                        now = target
                        if stop_on_read and stats.reads_completed > before:
                            break
                        continue

                    # 2. Refresh due (refresh.perform, inlined).
                    if now >= ref_due:
                        epoch += 1
                        t_epoch += 1
                        for f in range(B):
                            cr_e[f] = -1
                            cw_e[f] = -1
                        if refresh_kind == 0:
                            # AllBankRefresh.perform
                            t_ready = now
                            any_open = False
                            for f in range(B):
                                c = b_cdu[f]
                                if c > t_ready:
                                    t_ready = c
                                if b_row[f] >= 0:
                                    any_open = True
                                    c = b_npre[f]
                                    if c > t_ready:
                                        t_ready = c
                            if bus_free > t_ready:
                                t_ready = bus_free
                            if any_open:
                                t_pre = t_ready
                                done = t_pre + tRP
                                for f in range(B):
                                    if b_row[f] >= 0:
                                        b_row[f] = -1
                                        if done > b_nact[f]:
                                            b_nact[f] = done
                                        stats.precharges += 1
                                        pre_w.append((t_pre, done, f, -1))
                                if trace_commands:
                                    log_commands.append(Command(
                                        cmd_type=_CT_PRE_ALL, issue=t_pre,
                                        rank=0, bank_group=-1,
                                        bank=bank_of[0], row=-1, req_id=-1,
                                    ))
                                t_ref = t_pre + tRP
                            else:
                                t_ref = t_ready
                            refresh_end = t_ref + tRFC
                            refresh_w.append((t_ref, refresh_end))
                            for f in range(B):
                                if refresh_end > b_nact[f]:
                                    b_nact[f] = refresh_end
                                b_row[f] = -1
                            ref_until = refresh_end
                            refresh.until = refresh_end
                            refresh.next_due += tREFI
                            ref_due = refresh.next_due
                            stats.refreshes += 1
                            if trace_commands:
                                log_commands.append(Command(
                                    cmd_type=_CT_REF, issue=t_ref, rank=0,
                                    bank_group=-1, bank=bank_of[0],
                                    row=-1, req_id=-1,
                                ))
                        else:
                            # SameBankRefresh.perform (round robin).
                            f = refresh._next_bank
                            refresh._next_bank = (f + 1) % B
                            epoch_t = b_cdu[f]
                            t_ref = now if now > epoch_t else epoch_t
                            if b_row[f] >= 0:
                                t_pre = t_ref
                                c = b_npre[f]
                                if c > t_pre:
                                    t_pre = c
                                done = t_pre + tRP
                                b_row[f] = -1
                                if done > b_nact[f]:
                                    b_nact[f] = done
                                pre_w.append((t_pre, done, f, -1))
                                stats.precharges += 1
                                if trace_commands:
                                    log_commands.append(Command(
                                        cmd_type=_CT_PRE, issue=t_pre,
                                        rank=0, bank_group=bg_of[f],
                                        bank=bank_of[f], row=-1, req_id=-1,
                                    ))
                            c = b_nact[f]
                            if c > t_ref:
                                t_ref = c
                            refresh_end = t_ref + tRFCsb
                            bank_refresh_w.append(
                                (t_ref, refresh_end, f, -1)
                            )
                            if refresh_end > b_nact[f]:
                                b_nact[f] = refresh_end
                            if refresh_end > b_npre[f]:
                                b_npre[f] = refresh_end
                            b_row[f] = -1
                            refresh.next_due += ref_interval
                            ref_due = refresh.next_due
                            stats.refreshes += 1
                            if trace_commands:
                                log_commands.append(Command(
                                    cmd_type=_CT_REF, issue=t_ref, rank=0,
                                    bank_group=bg_of[f], bank=bank_of[f],
                                    row=-1, req_id=-1,
                                ))
                        if stop_on_read and stats.reads_completed > before:
                            break
                        continue

                    # 3. Scheduling decision: cached plan or full scan.
                    if plan_epoch_v != epoch or now >= plan_valid:
                        # write-mode selection (drain state untouched).
                        if not wbuf.draining and wq_n == 0:
                            write_mode = False
                        else:
                            write_mode = wbuf_update(now, wq_n, rq_n > 0)
                        min_cmd = last_cmd + 1
                        horizon = _FAR
                        best_time = _FAR  # sentinel: no candidate yet
                        best_prio = best_tie = 0
                        best_ent = -1
                        best_kind = 0
                        best_flat = -1
                        best_gated = False
                        if write_mode:
                            bhead = bh_w
                            rowh = rh_w
                            rowt = rt_w
                            ce = cw_e
                            ck = cw_k
                            cf = cw_f
                            cb = cw_b
                            m = mask_w
                        else:
                            bhead = bh_r
                            rowh = rh_r
                            rowt = rt_r
                            ce = cr_e
                            ck = cr_k
                            cf = cr_f
                            cb = cr_b
                            m = mask_r
                        # Incremental repair: when only admissions bumped
                        # the epoch (timing unchanged, same write mode, no
                        # starvation flip due), every planned candidate's
                        # issue time is unchanged, so new arrivals can only
                        # displace the winner directly. If the cached
                        # winner's bank is clean, seed the tournament with
                        # the cached plan and scan just the dirty banks.
                        # Policy precharges are skipped — admissions only
                        # remove them.
                        incremental = False
                        changed = False
                        if (
                            repairable
                            and plan_t_epoch == t_epoch
                            and plan_epoch_v >= 0
                            and plan_wmode == write_mode
                            and now < plan_valid
                        ):
                            dirty = dirty_w if write_mode else dirty_r
                            if not plan_has:
                                incremental = True
                            elif plan_ent < 0:
                                if not (
                                    (dirty_r | dirty_w) >> plan_flat
                                ) & 1:
                                    incremental = True
                            elif not (dirty >> plan_flat) & 1:
                                incremental = True
                            if incremental:
                                if plan_has:
                                    best_time = plan_time
                                    if plan_ent >= 0:
                                        best_prio = plan_kind
                                        best_tie = e_rid[plan_ent]
                                    else:
                                        best_prio = 3
                                        best_tie = plan_flat
                                    best_ent = plan_ent
                                    best_kind = plan_kind
                                    best_flat = plan_flat
                                horizon = plan_valid
                                m &= dirty
                        if fcfs_mode:
                            # FCFS: global-oldest only.
                            # When the walk drains the chain the tail must
                            # be dropped with the head: a tail left at a
                            # served entry would absorb the next append
                            # into an unreachable chain (head == -1).
                            g = gh_w if write_mode else gh_r
                            while g >= 0 and e_srv[g]:
                                g = e_ng[g]
                            if write_mode:
                                gh_w = g
                                if g < 0:
                                    gt_w = -1
                            else:
                                gh_r = g
                                if g < 0:
                                    gt_r = -1
                            if g >= 0:
                                f = e_flat[g]
                                row = b_row[f]
                                rk = rank_of[f]
                                bg = bg_of[f]
                                i2 = rk * G + bg
                                if e_row[g] == row:
                                    time = rg_cas[i2] + tCCD_L
                                    t2 = rk_cas[rk] + tCCD_S
                                    if t2 > time:
                                        time = t2
                                    if write_mode:
                                        t2 = rk_ri[rk] + rtw
                                        if t2 > time:
                                            time = t2
                                        gate = bus_free - tCWL
                                    else:
                                        t2 = rg_wend[i2] + tWTR_L
                                        if t2 > time:
                                            time = t2
                                        t2 = rk_wend[rk] + tWTR_S
                                        if t2 > time:
                                            time = t2
                                        gate = bus_free - tCL
                                    if bus_last != -1 and bus_last != rk:
                                        gate += tRTRS
                                    if gate > time:
                                        time = gate
                                    if time < now:
                                        time = now
                                    if b_ncas[f] > time:
                                        time = b_ncas[f]
                                    kcode = 0
                                    prio = 0
                                elif row < 0:
                                    time = rg_act[i2] + tRRD_L
                                    t2 = rk_act[rk] + tRRD_S
                                    if t2 > time:
                                        time = t2
                                    if faw_n[rk] == 4:
                                        t2 = faw[
                                            (rk << 2) + faw_p[rk]
                                        ] + tFAW
                                        if t2 > time:
                                            time = t2
                                    if time < now:
                                        time = now
                                    if b_nact[f] > time:
                                        time = b_nact[f]
                                    kcode = 1
                                    prio = 1
                                else:
                                    time = b_npre[f]
                                    if time < now:
                                        time = now
                                    kcode = 2
                                    prio = 2
                                if min_cmd > time:
                                    time = min_cmd
                                best_time = time
                                best_prio = prio
                                best_tie = e_rid[g]
                                best_ent = g
                                best_kind = kcode
                                best_flat = f
                        else:
                            # FR-FCFS: fused per-bank candidate selection
                            # (RequestQueue.candidates) and timing
                            # (plan_entry) over banks with pending work.
                            cas_seen = 0
                            act_seen = 0
                            while m:
                                low = m & -m
                                m ^= low
                                f = low.bit_length() - 1
                                ent = ce[f]
                                if (
                                    ent >= 0
                                    and now < cf[f]
                                    and not e_srv[ent]
                                ):
                                    kcode = ck[f]
                                    bank_time = cb[f]
                                    flip = cf[f]
                                    if flip < horizon:
                                        horizon = flip
                                else:
                                    h = bhead[f]
                                    while e_srv[h]:
                                        h = e_nb[h]
                                    bhead[f] = h
                                    row = b_row[f]
                                    ent = -1
                                    flip = _FAR
                                    if row >= 0 and now - e_arr[h] <= cap:
                                        key = (f << _ROW_SHIFT) | row
                                        r = rowh.get(key, -1)
                                        if r >= 0:
                                            r0 = r
                                            while r >= 0 and e_srv[r]:
                                                r = e_nr[r]
                                            if r >= 0:
                                                if r != r0:
                                                    rowh[key] = r
                                                ent = r
                                            else:
                                                del rowh[key]
                                                del rowt[key]
                                        if ent >= 0 and ent != h:
                                            flip = e_arr[h] + cap1
                                            if flip < horizon:
                                                horizon = flip
                                    if ent < 0:
                                        ent = h
                                    if e_row[ent] == row:
                                        kcode = 0
                                        bank_time = b_ncas[f]
                                    elif row < 0:
                                        kcode = 1
                                        bank_time = b_nact[f]
                                    else:
                                        kcode = 2
                                        bank_time = b_npre[f]
                                    ce[f] = ent
                                    ck[f] = kcode
                                    cf[f] = flip
                                    cb[f] = bank_time
                                if kcode == 0:
                                    rk = rank_of[f]
                                    bit = 1 << rk
                                    if not cas_seen & bit:
                                        cas_seen |= bit
                                        t = rk_cas[rk] + tCCD_S
                                        if write_mode:
                                            t2 = rk_ri[rk] + rtw
                                            if t2 > t:
                                                t = t2
                                            gate = bus_free - tCWL
                                        else:
                                            t2 = rk_wend[rk] + tWTR_S
                                            if t2 > t:
                                                t = t2
                                            gate = bus_free - tCL
                                        if (
                                            bus_last != -1
                                            and bus_last != rk
                                        ):
                                            gate += tRTRS
                                        if gate > t:
                                            t = gate
                                        cas_rgate[rk] = t
                                    time = cas_rgate[rk]
                                    i2 = rk * G + bg_of[f]
                                    gate = rg_cas[i2] + tCCD_L
                                    if gate > time:
                                        time = gate
                                    if not write_mode:
                                        gate = rg_wend[i2] + tWTR_L
                                        if gate > time:
                                            time = gate
                                    if bank_time > time:
                                        time = bank_time
                                    prio = 0
                                elif kcode == 1:
                                    rk = rank_of[f]
                                    bit = 1 << rk
                                    if not act_seen & bit:
                                        act_seen |= bit
                                        t = rk_act[rk] + tRRD_S
                                        if faw_n[rk] == 4:
                                            t2 = faw[
                                                (rk << 2) + faw_p[rk]
                                            ] + tFAW
                                            if t2 > t:
                                                t = t2
                                        act_rgate[rk] = t
                                    time = act_rgate[rk]
                                    gate = rg_act[rk * G + bg_of[f]] + tRRD_L
                                    if gate > time:
                                        time = gate
                                    if bank_time > time:
                                        time = bank_time
                                    prio = 1
                                else:
                                    time = bank_time
                                    prio = 2
                                if time < now:
                                    time = now
                                if time < min_cmd:
                                    time = min_cmd
                                tie = e_rid[ent]
                                if qos:
                                    qos_cands.append(
                                        (time, prio, tie, ent, kcode, f)
                                    )
                                elif (
                                    time < best_time
                                    or (
                                        time == best_time
                                        and (
                                            prio < best_prio
                                            or (
                                                prio == best_prio
                                                and tie < best_tie
                                            )
                                        )
                                    )
                                ):
                                    best_time = time
                                    best_prio = prio
                                    best_tie = tie
                                    best_ent = ent
                                    best_kind = kcode
                                    best_flat = f
                                    changed = True
                            if qos:
                                # The arbiter stage, then the tournament.
                                if wrr:
                                    allowed = sched.allowed_requesters({
                                        e_req[c[3]].requester_id
                                        for c in qos_cands
                                    })
                                for time, prio, tie, ent, kcode, f in (
                                    qos_cands
                                ):
                                    rq = e_req[ent].requester_id
                                    gated = False
                                    if wrr:
                                        if rq not in allowed:
                                            continue
                                    elif kcode == 0:
                                        t2 = reg_gate(rq, f, time)
                                        if t2 != time:
                                            time = t2
                                            gated = True
                                    if (time, prio, tie) < (
                                        best_time, best_prio, best_tie
                                    ):
                                        best_time = time
                                        best_prio = prio
                                        best_tie = tie
                                        best_ent = ent
                                        best_kind = kcode
                                        best_flat = f
                                        best_gated = gated
                                qos_cands.clear()
                        if closed_policy and not incremental:
                            # ClosedPagePolicy.plan_candidates: precharge
                            # open rows nothing is waiting for.
                            for f in range(B):
                                row = b_row[f]
                                if row < 0:
                                    continue
                                key = (f << _ROW_SHIFT) | row
                                pend = False
                                r = rh_r.get(key, -1)
                                if r >= 0:
                                    r0 = r
                                    while r >= 0 and e_srv[r]:
                                        r = e_nr[r]
                                    if r >= 0:
                                        if r != r0:
                                            rh_r[key] = r
                                        pend = True
                                    else:
                                        del rh_r[key]
                                        del rt_r[key]
                                if not pend:
                                    r = rh_w.get(key, -1)
                                    if r >= 0:
                                        r0 = r
                                        while r >= 0 and e_srv[r]:
                                            r = e_nr[r]
                                        if r >= 0:
                                            if r != r0:
                                                rh_w[key] = r
                                            pend = True
                                        else:
                                            del rh_w[key]
                                            del rt_w[key]
                                if pend:
                                    continue
                                time = now
                                c = b_npre[f]
                                if c > time:
                                    time = c
                                if min_cmd > time:
                                    time = min_cmd
                                if (
                                    time < best_time
                                    or (
                                        time == best_time
                                        and (
                                            3 < best_prio
                                            or (
                                                3 == best_prio
                                                and f < best_tie
                                            )
                                        )
                                    )
                                ):
                                    best_time = time
                                    best_prio = 3
                                    best_tie = f
                                    best_ent = -1
                                    best_kind = 3
                                    best_flat = f
                                    best_gated = False
                        if incremental and not changed:
                            # Winner survived: keep the cached plan (and
                            # its lazily derived block info).
                            plan_valid = horizon
                        else:
                            plan_has = best_time != _FAR
                            plan_time = best_time if plan_has else 0
                            plan_ent = best_ent
                            plan_kind = best_kind
                            plan_flat = best_flat
                            plan_gated = best_gated
                            plan_valid = horizon if not fcfs_mode else _FAR
                            blk_set = False
                        plan_epoch_v = epoch
                        plan_t_epoch = t_epoch
                        plan_wmode = write_mode
                        dirty_r = 0
                        dirty_w = 0

                    next_arrival = arrivals[0][0] if arrivals else _FAR
                    if not plan_has:
                        # Nothing schedulable: pipeline drain or idle.
                        wake = next_arrival
                        if ref_due < wake:
                            wake = ref_due
                        if in_flight:
                            t2 = in_flight[0][0]
                            if t2 < wake:
                                wake = t2
                            end = wake if wake < t_limit else t_limit
                            if end > now:
                                last = lb[-1] if lb else None
                                if (
                                    last is not None
                                    and last[1] == now
                                    and last[2] is _SCOPE_CHANNEL
                                    and last[4] == "data_inflight"
                                ):
                                    lb[-1] = (
                                        last[0], end, _SCOPE_CHANNEL, -1,
                                        "data_inflight", -1, False,
                                    )
                                else:
                                    lb.append((
                                        now, end, _SCOPE_CHANNEL, -1,
                                        "data_inflight", -1, False,
                                    ))
                        target = wake if wake < t_limit else t_limit
                        if target <= now:
                            break
                        if in_flight and in_flight[0][0] <= target:
                            _finish(target, completions)
                        now = target
                        if stop_on_read and stats.reads_completed > before:
                            break
                        continue

                    issue_at = plan_time
                    if issue_at > now:
                        # Blocked: record why, then advance or fuse.
                        wake = issue_at
                        if next_arrival < wake:
                            wake = next_arrival
                        if ref_due < wake:
                            wake = ref_due
                        end = wake if wake < t_limit else t_limit
                        if end > now:
                            if not blk_set:
                                # block_info, against the columns.
                                blk_set = True
                                f = plan_flat
                                if plan_ent < 0:
                                    blk_scope = _SCOPE_BANK
                                    blk_reason = "auto_precharge"
                                elif plan_gated:
                                    blk_scope = _SCOPE_BANK
                                    blk_reason = "bank_regulation"
                                elif plan_kind == 2:
                                    blk_scope = _SCOPE_BANK
                                    blk_reason = "tRAS/tWR/tRTP"
                                elif plan_kind == 1:
                                    if b_nact[f] >= issue_at:
                                        blk_scope = _SCOPE_BANK
                                        blk_reason = "tRP"
                                    else:
                                        rk = rank_of[f]
                                        i2 = rk * G + bg_of[f]
                                        t = rg_act[i2] + tRRD_L
                                        t2 = rk_act[rk] + tRRD_S
                                        if t2 > t:
                                            t = t2
                                        if faw_n[rk] == 4:
                                            t2 = faw[
                                                (rk << 2) + faw_p[rk]
                                            ] + tFAW
                                            if t2 > t:
                                                t = t2
                                        if t <= now:
                                            blk_scope = _SCOPE_NONE
                                            blk_reason = "ready"
                                        elif rg_act[i2] + tRRD_L >= t:
                                            blk_scope = _SCOPE_BG
                                            blk_reason = "tRRD_L"
                                        elif rk_act[rk] + tRRD_S >= t:
                                            blk_scope = _SCOPE_RANK
                                            blk_reason = "tRRD_S"
                                        else:
                                            blk_scope = _SCOPE_RANK
                                            blk_reason = "tFAW"
                                else:
                                    if b_ncas[f] >= issue_at:
                                        blk_scope = _SCOPE_BANK
                                        blk_reason = "tRCD"
                                    else:
                                        rk = rank_of[f]
                                        i2 = rk * G + bg_of[f]
                                        t = rg_cas[i2] + tCCD_L
                                        t2 = rk_cas[rk] + tCCD_S
                                        if t2 > t:
                                            t = t2
                                        if plan_wmode:
                                            t2 = rk_ri[rk] + rtw
                                            if t2 > t:
                                                t = t2
                                            gate = bus_free - tCWL
                                        else:
                                            t2 = rg_wend[i2] + tWTR_L
                                            if t2 > t:
                                                t = t2
                                            t2 = rk_wend[rk] + tWTR_S
                                            if t2 > t:
                                                t = t2
                                            gate = bus_free - tCL
                                        if (
                                            bus_last != -1
                                            and bus_last != rk
                                        ):
                                            gate += tRTRS
                                        if gate > t:
                                            t = gate
                                        if t <= now:
                                            blk_scope = _SCOPE_NONE
                                            blk_reason = "ready"
                                        elif rg_cas[i2] + tCCD_L >= t:
                                            blk_scope = _SCOPE_BG
                                            blk_reason = "tCCD_L"
                                        elif rk_cas[rk] + tCCD_S >= t:
                                            blk_scope = _SCOPE_RANK
                                            blk_reason = "tCCD_S"
                                        elif plan_wmode and (
                                            rk_ri[rk] + rtw >= t
                                        ):
                                            blk_scope = _SCOPE_RANK
                                            blk_reason = "read_to_write"
                                        elif not plan_wmode and (
                                            rg_wend[i2] + tWTR_L >= t
                                        ):
                                            blk_scope = _SCOPE_BG
                                            blk_reason = "tWTR_L"
                                        elif not plan_wmode and (
                                            rk_wend[rk] + tWTR_S >= t
                                        ):
                                            blk_scope = _SCOPE_RANK
                                            blk_reason = "tWTR_S"
                                        else:
                                            blk_scope = _SCOPE_CHANNEL
                                            blk_reason = "data_bus"
                            bg = bg_of[plan_flat]
                            if plan_ent >= 0:
                                victim = e_req[plan_ent].requester_id
                                if blk_scope is _SCOPE_BANK:
                                    blocker = last_req_by_bank[plan_flat]
                                else:
                                    blocker = last_chan
                                inter = (
                                    blocker >= 0
                                    and blocker != victim
                                    and blk_reason != "bank_regulation"
                                )
                            else:
                                victim = -1
                                inter = False
                            last = lb[-1] if lb else None
                            if (
                                last is not None
                                and last[1] == now
                                and last[2] is blk_scope
                                and last[3] == bg
                                and last[4] == blk_reason
                                and last[5] == victim
                                and last[6] == inter
                            ):
                                lb[-1] = (
                                    last[0], end, blk_scope, bg, blk_reason,
                                    victim, inter,
                                )
                            else:
                                lb.append((
                                    now, end, blk_scope, bg, blk_reason,
                                    victim, inter,
                                ))
                        if (
                            next_arrival > issue_at
                            and ref_due > issue_at
                            and issue_at < t_limit
                            and issue_at < plan_valid
                            and plan_epoch_v == epoch
                            and not (
                                stop_on_read
                                and in_flight
                                and in_flight[0][0] <= issue_at
                            )
                        ):
                            # Fused wait-and-issue.
                            if in_flight and in_flight[0][0] <= issue_at:
                                _finish(issue_at, completions)
                            now = issue_at
                            # The loop-top idle check this path skips: a
                            # drain with nothing left pending stops here,
                            # before a waiting policy precharge issues.
                            if stop_when_idle and not (
                                arrivals or in_flight or rq_n or wq_n
                            ):
                                break
                            # The issue is the reference engine's second
                            # step: count it, and call the watchdog as the
                            # loop top would.
                            if watchdog is not None:
                                wd_count -= 1
                                if wd_count <= 0:
                                    wd_count = _WATCHDOG_STRIDE
                                    ctrl.now = now
                                    ctrl._last_cmd_issue = last_cmd
                                    ctrl._last_req_channel = last_chan
                                    ctrl._watchdog_countdown = wd_count
                                    eng.gh_r, eng.gh_w = gh_r, gh_w
                                    eng.rq_len, eng.wq_len = rq_n, wq_n
                                    eng.bus_free = bus_free
                                    eng.bus_last = bus_last
                                    watchdog.observe(ctrl)
                        else:
                            target = wake if wake < t_limit else t_limit
                            if target <= now:
                                break
                            if in_flight and in_flight[0][0] <= target:
                                _finish(target, completions)
                            now = target
                            if stop_on_read and (
                                stats.reads_completed > before
                            ):
                                break
                            continue

                    # ===== issue (= _issue, at `now`) =====
                    last_cmd = now
                    epoch += 1
                    t_epoch += 1
                    f = plan_flat
                    cr_e[f] = -1
                    cw_e[f] = -1
                    if plan_ent < 0:
                        # Policy precharge (entry None).
                        done = now + tRP
                        b_row[f] = -1
                        if done > b_nact[f]:
                            b_nact[f] = done
                        stats.precharges += 1
                        last_req_by_bank[f] = -1
                        if trace_commands:
                            log_commands.append(Command(
                                cmd_type=_CT_PRE, issue=now,
                                rank=rank_of[f], bank_group=bg_of[f],
                                bank=bank_of[f], row=-1, req_id=-1,
                            ))
                    else:
                        ent = plan_ent
                        req = e_req[ent]
                        rq = req.requester_id
                        last_req_by_bank[f] = rq
                        last_chan = rq
                        row = e_row[ent]
                        rk = rank_of[f]
                        bg = bg_of[f]
                        kcode = plan_kind
                        if kcode == 2:
                            done = now + tRP
                            b_row[f] = -1
                            if done > b_nact[f]:
                                b_nact[f] = done
                            pre_w.append((now, done, f, rq))
                            stats.precharges += 1
                            if req.own_pre_start < 0:
                                req.own_pre_start = now
                                req.own_pre_end = done
                            ct = _CT_PRE
                        elif kcode == 1:
                            ready = now + tRCD
                            b_row[f] = row
                            if ready > b_ncas[f]:
                                b_ncas[f] = ready
                            t2 = now + tRAS
                            if t2 > b_npre[f]:
                                b_npre[f] = t2
                            t2 = now + tRC
                            if t2 > b_nact[f]:
                                b_nact[f] = t2
                            act_w.append((now, ready, f, rq))
                            i2 = rk * G + bg
                            rg_act[i2] = now
                            rk_act[rk] = now
                            p = faw_p[rk]
                            faw[(rk << 2) + p] = now
                            faw_p[rk] = (p + 1) & 3
                            if faw_n[rk] < 4:
                                faw_n[rk] += 1
                            stats.activates += 1
                            if req.own_act_start < 0:
                                req.own_act_start = now
                                req.own_act_end = ready
                            ct = _CT_ACT
                        else:
                            is_w = plan_wmode
                            hit = not (
                                req.own_act_start >= 0
                                or req.own_pre_start >= 0
                            )
                            i2 = rk * G + bg
                            rg_cas[i2] = now
                            rk_cas[rk] = now
                            if is_w:
                                ds = now + tCWL
                            else:
                                ds = now + tCL
                                rk_ri[rk] = now
                            de = ds + burst
                            if is_w:
                                rg_wend[i2] = de
                                rk_wend[rk] = de
                            if de > bus_free:
                                bus_free = de
                            bus_last = rk
                            if is_w:
                                t2 = de + tWR
                                if t2 > b_npre[f]:
                                    b_npre[f] = t2
                            else:
                                t2 = now + tRTP
                                if t2 > b_npre[f]:
                                    b_npre[f] = t2
                            if de > b_cdu[f]:
                                b_cdu[f] = de
                            if hit:
                                stats.row_hits += 1
                            else:
                                stats.row_misses += 1
                            req.cas_issue = now
                            req.data_start = ds
                            req.finish = de
                            req.row_hit = hit
                            bursts.append((ds, de, is_w, req.core_id, rq))
                            cas_w.append((now, de, f, rq))
                            if qos:
                                note_service(rq, f, now)
                            e_srv[ent] = 1
                            if is_w:
                                wq_n -= 1
                                c = cnt_w[f] - 1
                                cnt_w[f] = c
                                if c == 0:
                                    mask_w &= ~(1 << f)
                                # WriteBuffer.complete bookkeeping.
                                line = line_address(req.address)
                                c = wbA.get(line, 0) - 1
                                if c <= 0:
                                    wbA.pop(line, None)
                                else:
                                    wbA[line] = c
                            else:
                                rq_n -= 1
                                c = cnt_r[f] - 1
                                cnt_r[f] = c
                                if c == 0:
                                    mask_r &= ~(1 << f)
                            heappush(in_flight, (de, req.req_id, req))
                            ct = _CT_WRITE if is_w else _CT_READ
                        if trace_commands:
                            log_commands.append(Command(
                                cmd_type=ct, issue=now, rank=rk,
                                bank_group=bg, bank=bank_of[f], row=row,
                                req_id=req.req_id,
                            ))
                    if stop_on_read and stats.reads_completed > before:
                        break
                    # loop
            finally:
                if now > t_limit:
                    now = t_limit
                ctrl.now = now
                ctrl._last_cmd_issue = last_cmd
                ctrl._last_req_channel = last_chan
                ctrl._watchdog_countdown = wd_count
                eng.gh_r, eng.gh_w = gh_r, gh_w
                eng.rq_len, eng.wq_len = rq_n, wq_n
                eng.bus_free, eng.bus_last = bus_free, bus_last
            _finish(now, completions)

        return run
