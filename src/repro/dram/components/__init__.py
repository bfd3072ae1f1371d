"""Pluggable memory-controller components and their registries.

The controller is assembled from four component kinds, each resolved
from a :class:`~repro.core.registry.ComponentRegistry` keyed by the
config string that selects it:

==================  =======================  ==========================
registry            config field             built-ins
==================  =======================  ==========================
SCHEDULERS          ``scheduling``           ``fr-fcfs`` (default),
                                             ``fcfs``, ``wrr``,
                                             ``bank-reg``
PAGE_POLICIES       ``page_policy``          ``open`` (default),
                                             ``closed``
WRITE_DRAIN         ``write_drain``          ``watermark`` (default),
                                             ``burst``
REFRESH             ``refresh``              ``all-bank`` (default),
                                             ``none``, ``same-bank``
==================  =======================  ==========================

Every controller records the one :class:`EventLog` the stack
accountants read; recording is not a component.

Scheduler strings may carry parameters after a colon when the policy
declares ``accepts_params`` — ``"wrr:2,1"`` (per-requester weights) and
``"bank-reg:period=1000,budget=4"`` (per-bank regulation) are resolved
by :func:`make_scheduler`; see :mod:`repro.dram.components.qos` and
docs/qos.md.

Registering a custom policy is one decorator::

    from repro.dram.components import SCHEDULERS

    @SCHEDULERS.register("my-policy")
    class MyScheduler(FrFcfsScheduler):
        ...

after which ``ControllerConfig(scheduling="my-policy")`` selects it.
See ``docs/architecture.md`` for the component interfaces.
"""

from __future__ import annotations

from repro.core.registry import ComponentRegistry
from repro.dram.components.accounting import EventLog
from repro.dram.components.draining import (
    BurstDrainPolicy,
    WatermarkDrainPolicy,
)
from repro.dram.components.paging import ClosedPagePolicy, OpenPagePolicy
from repro.dram.components.qos import BankRegScheduler, WrrScheduler
from repro.dram.components.refreshing import (
    AllBankRefresh,
    NoRefresh,
    SameBankRefresh,
)
from repro.dram.components.scheduling import FcfsScheduler, FrFcfsScheduler
from repro.errors import ConfigurationError

#: Scheduler policies, keyed by ``ControllerConfig.scheduling``.
SCHEDULERS: ComponentRegistry = ComponentRegistry("scheduling policy")
SCHEDULERS.register("fr-fcfs")(FrFcfsScheduler)
SCHEDULERS.register("fcfs")(FcfsScheduler)
SCHEDULERS.register("wrr")(WrrScheduler)
SCHEDULERS.register("bank-reg")(BankRegScheduler)

#: Page policies, keyed by ``ControllerConfig.page_policy``.
PAGE_POLICIES: ComponentRegistry = ComponentRegistry("page policy")
PAGE_POLICIES.register("open")(OpenPagePolicy)
PAGE_POLICIES.register("closed")(ClosedPagePolicy)

#: Write-drain policies, keyed by ``ControllerConfig.write_drain``.
WRITE_DRAIN: ComponentRegistry = ComponentRegistry("write-drain policy")
WRITE_DRAIN.register("watermark")(WatermarkDrainPolicy)
WRITE_DRAIN.register("burst")(BurstDrainPolicy)

#: Refresh policies, keyed by ``ControllerConfig.refresh``.
REFRESH: ComponentRegistry = ComponentRegistry("refresh policy")
REFRESH.register("all-bank")(AllBankRefresh)
REFRESH.register("none")(NoRefresh)
REFRESH.register("same-bank")(SameBankRefresh)


def scheduling_base_name(spec: str) -> str:
    """The registry name of a scheduling spec (``"wrr:2,1"`` -> ``"wrr"``)."""
    base, __, __ = str(spec).partition(":")
    return base


def make_scheduler(spec: str):
    """Instantiate the scheduler a ``scheduling`` config string selects.

    The string is ``name`` or ``name:params``; the name is resolved in
    :data:`SCHEDULERS` and the parameter suffix (weights for ``wrr``,
    period/budget for ``bank-reg``) is handed to the policy's
    constructor. Policies that do not declare ``accepts_params`` reject
    a suffix. Raises :class:`~repro.errors.ConfigurationError` for
    unknown names or malformed parameters.
    """
    base, sep, params = str(spec).partition(":")
    cls = SCHEDULERS.get(base)
    if sep:
        if not getattr(cls, "accepts_params", False):
            raise ConfigurationError(
                f"scheduling policy {base!r} takes no parameters "
                f"(got {params!r} in {spec!r})"
            )
        return cls(params)
    return cls()


def validate_scheduling(spec: str) -> str:
    """Validate a ``scheduling`` config string eagerly; returns it.

    Instantiates the scheduler (constructors are cheap — all heavy
    state is built in ``bind``) so malformed parameter suffixes fail at
    config time, not mid-run.
    """
    make_scheduler(spec)
    return spec


__all__ = [
    "AllBankRefresh",
    "BankRegScheduler",
    "BurstDrainPolicy",
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
    "WRITE_DRAIN",
    "WatermarkDrainPolicy",
    "WrrScheduler",
    "make_scheduler",
    "scheduling_base_name",
    "validate_scheduling",
]
