"""The memory controller's policies, by config name.

The controller's policies are a closed set: three fixed tables map the
config string that selects a policy to its class:

==================  =======================  ==========================
table               config field             names
==================  =======================  ==========================
SCHEDULERS          ``scheduling``           ``fr-fcfs`` (default),
                                             ``fcfs``, ``wrr``,
                                             ``bank-reg``
PAGE_POLICIES       ``page_policy``          ``open`` (default),
                                             ``closed``
REFRESH             ``refresh``              ``all-bank`` (default),
                                             ``none``, ``same-bank``
==================  =======================  ==========================

Both engines run every class here: the packed loop of
:mod:`repro.dram.packed` in production, the reference engine as its
oracle. Writes drain under one rule, the paper's watermarks
(:class:`WatermarkDrainPolicy`, which the write buffer builds itself).
Every controller records the one :class:`EventLog` the stack
accountants read; recording is not a policy.

``wrr`` and ``bank-reg`` take parameters after a colon —
``"wrr:2,1"`` (per-requester weights) and
``"bank-reg:period=1000,budget=4"`` (per-bank regulation) are resolved
by :func:`make_scheduler`; see :mod:`repro.dram.components.qos` and
docs/qos.md.
"""

from __future__ import annotations

from repro.dram.components.accounting import EventLog
from repro.dram.components.draining import WatermarkDrainPolicy
from repro.dram.components.paging import ClosedPagePolicy, OpenPagePolicy
from repro.dram.components.qos import BankRegScheduler, WrrScheduler
from repro.dram.components.refreshing import (
    AllBankRefresh,
    NoRefresh,
    SameBankRefresh,
)
from repro.dram.components.scheduling import FcfsScheduler, FrFcfsScheduler
from repro.errors import ConfigurationError, require_choice

#: Scheduler policies, keyed by ``ControllerConfig.scheduling``.
SCHEDULERS = {
    "fr-fcfs": FrFcfsScheduler,
    "fcfs": FcfsScheduler,
    "wrr": WrrScheduler,
    "bank-reg": BankRegScheduler,
}

#: Page policies, keyed by ``ControllerConfig.page_policy``.
PAGE_POLICIES = {"open": OpenPagePolicy, "closed": ClosedPagePolicy}

#: Refresh policies, keyed by ``ControllerConfig.refresh``.
REFRESH = {
    "all-bank": AllBankRefresh,
    "none": NoRefresh,
    "same-bank": SameBankRefresh,
}


def make_scheduler(spec: str):
    """Instantiate the scheduler a ``scheduling`` config string selects.

    The string is ``name`` or ``name:params``; the name is looked up in
    :data:`SCHEDULERS` and the parameter suffix (weights for ``wrr``,
    period/budget for ``bank-reg``) is handed to the policy's
    constructor. The other policies reject a suffix. Raises
    :class:`~repro.errors.ConfigurationError` for unknown names or
    malformed parameters.
    """
    base, sep, params = str(spec).partition(":")
    cls = require_choice("scheduling policy", base, SCHEDULERS)
    if sep:
        if cls not in (WrrScheduler, BankRegScheduler):
            raise ConfigurationError(
                f"scheduling policy {base!r} takes no parameters "
                f"(got {params!r} in {spec!r})"
            )
        return cls(params)
    return cls()


__all__ = [
    "AllBankRefresh",
    "BankRegScheduler",
    "ClosedPagePolicy",
    "EventLog",
    "FcfsScheduler",
    "FrFcfsScheduler",
    "NoRefresh",
    "OpenPagePolicy",
    "PAGE_POLICIES",
    "SameBankRefresh",
    "REFRESH",
    "SCHEDULERS",
    "WatermarkDrainPolicy",
    "WrrScheduler",
    "make_scheduler",
]
