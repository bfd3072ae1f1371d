"""Refresh policies: when and how the DRAM is refreshed.

* ``all-bank`` (default) — all-bank refresh every tREFI: precharge
  everything, hold the rank in refresh for tRFC (the paper's model).
* ``same-bank`` — DDR5-style REFsb: refresh one bank at a time, round
  robin, every tREFI / total_banks cycles. Only the refreshed bank is
  blocked (for tRFCsb); the channel keeps serving the other banks.
* ``none`` — refresh disabled (ablation); ``next_due`` sits at the
  far-future sentinel so the scheduling loop never triggers.

``next_due`` and ``until`` are plain int attributes read by the
controller's scheduling loop every step; :meth:`perform` runs one
refresh sequence and reschedules.
"""

from __future__ import annotations

import weakref

from repro.dram.commands import CommandType

#: Sentinel "infinitely far in the future" time (mirrors the
#: controller's FAR_FUTURE; duplicated to avoid an import cycle).
_FAR_FUTURE = 1 << 62


class AllBankRefresh:
    """Precharge all banks and hold the rank in refresh for tRFC."""

    name = "all-bank"

    def __init__(self) -> None:
        self.next_due = _FAR_FUTURE
        self.until = 0

    def bind(self, controller) -> None:
        """Schedule the first refresh; hold a weak proxy of the
        controller that owns this policy (a strong one would make the
        pair a reference cycle)."""
        self._ctrl = weakref.proxy(controller)
        self.next_due = controller.spec.tREFI
        self.until = 0

    def perform(self, now: int) -> None:
        """One all-bank refresh sequence starting no earlier than `now`."""
        ctrl = self._ctrl
        spec = ctrl.spec
        t_ready = now
        any_open = False
        for bank in ctrl._banks:
            t_ready = max(t_ready, bank.cas_data_until)
            if bank.is_open:
                any_open = True
                t_ready = max(t_ready, bank.next_pre)
        t_ready = max(t_ready, ctrl._bus.free_at)
        if any_open:
            t_pre = t_ready
            for bank in ctrl._banks:
                if bank.is_open:
                    bank.do_precharge(t_pre)
                    ctrl.stats.precharges += 1
            ctrl._record_command(
                CommandType.PRECHARGE_ALL, t_pre, -1, ctrl._banks[0]
            )
            t_ref = t_pre + spec.tRP
        else:
            t_ref = t_ready
        refresh_end = t_ref + spec.tRFC
        ctrl.log.refresh_windows.append((t_ref, refresh_end))
        for bank in ctrl._banks:
            bank.next_act = max(bank.next_act, refresh_end)
            bank.force_close_for_refresh()
        self.until = refresh_end
        self.next_due += spec.tREFI
        ctrl.stats.refreshes += 1
        ctrl._record_command(CommandType.REFRESH, t_ref, -1, ctrl._banks[0])


class SameBankRefresh:
    """DDR5-style same-bank refresh (REFsb), one bank per interval.

    Every ``tREFI / total_banks`` cycles one bank (round robin across
    the channel) is refreshed for ``tRFCsb`` cycles — ``spec.tRFCsb``
    when the grade defines it, else the customary ``tRFC / 2``. Unlike
    all-bank refresh, ``until`` stays 0: the channel is never blocked
    as a whole. The refreshed bank is fenced through its own
    ``next_act``/``next_pre`` gates, and the window is logged in
    ``log.bank_refresh_windows`` (per-bank weight in the bandwidth
    stack, unlike the channel-wide ``refresh_windows``).
    """

    name = "same-bank"

    def __init__(self) -> None:
        self.next_due = _FAR_FUTURE
        self.until = 0

    def bind(self, controller) -> None:
        """Schedule the first bank's refresh; hold a weak proxy of the
        controller that owns this policy (a strong one would make the
        pair a reference cycle)."""
        self._ctrl = weakref.proxy(controller)
        spec = controller.spec
        self._interval = max(1, spec.tREFI // spec.organization.total_banks)
        self._tRFCsb = (
            spec.tRFCsb if spec.tRFCsb > 0 else max(1, spec.tRFC // 2)
        )
        self._next_bank = 0
        self.next_due = self._interval
        self.until = 0

    def perform(self, now: int) -> None:
        """Refresh the next bank in rotation, no earlier than `now`."""
        ctrl = self._ctrl
        spec = ctrl.spec
        bank = ctrl._banks[self._next_bank]
        self._next_bank = (self._next_bank + 1) % len(ctrl._banks)
        t_ref = max(now, bank.cas_data_until)
        if bank.is_open:
            t_pre = max(t_ref, bank.next_pre)
            bank.do_precharge(t_pre)
            ctrl.stats.precharges += 1
            ctrl._record_command(
                CommandType.PRECHARGE, t_pre, bank.bank_group, bank
            )
        t_ref = max(t_ref, bank.next_act)
        refresh_end = t_ref + self._tRFCsb
        ctrl.log.bank_refresh_windows.append(
            (t_ref, refresh_end, bank.flat_index, -1)
        )
        bank.next_act = max(bank.next_act, refresh_end)
        bank.next_pre = max(bank.next_pre, refresh_end)
        bank.force_close_for_refresh()
        self.next_due += self._interval
        ctrl.stats.refreshes += 1
        # bank_group >= 0 marks the command as per-bank REFsb (all-bank
        # REF records -1); the validator keys its rule on this.
        ctrl._record_command(
            CommandType.REFRESH, t_ref, bank.bank_group, bank
        )


class NoRefresh:
    """Refresh disabled: never due, never in progress."""

    name = "none"

    def __init__(self) -> None:
        self.next_due = _FAR_FUTURE
        self.until = 0

    def bind(self, controller) -> None:
        """Nothing to bind: refresh never runs."""

    def perform(self, now: int) -> None:  # pragma: no cover - unreachable
        raise AssertionError("NoRefresh.perform should never be called")
