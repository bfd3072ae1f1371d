"""Simulation guardrails: watchdog, invariant auditing, wall-clock budget.

This package keeps long simulations trustworthy. A killed run is not
resumed mid-way: it is rerun, and a killed batch restarts point by point
from its journal (:mod:`repro.service.journal`).

* :mod:`~repro.reliability.watchdog` — forward-progress watchdog that
  turns scheduler livelocks into a diagnosable
  :class:`~repro.errors.SimulationStalledError` instead of a hang;
* :mod:`~repro.reliability.auditor` — in-loop verification that the
  event log the stacks are built from is well formed; a violation
  raises :class:`~repro.errors.AccountingError`, as the accountants'
  own exactness checks do;
* :mod:`~repro.reliability.guard` — one object bundling the three,
  ticked by the CPU-system main loop;
* :mod:`~repro.reliability.faults` — deliberate fault injection used to
  prove the guardrails catch what they claim to;
* :mod:`~repro.reliability.fingerprint` — content digests of simulation
  results, backing the golden-regression and determinism test layers.
"""

from repro.reliability.auditor import InvariantAuditor
from repro.reliability.fingerprint import (
    diff_fingerprints,
    event_log_digest,
    fingerprint_digest,
    qos_fingerprint,
    result_fingerprint,
)
from repro.reliability.guard import ReliabilityGuard
from repro.reliability.watchdog import ForwardProgressWatchdog, StallDiagnostic

__all__ = [
    "ForwardProgressWatchdog",
    "InvariantAuditor",
    "ReliabilityGuard",
    "StallDiagnostic",
    "diff_fingerprints",
    "event_log_digest",
    "fingerprint_digest",
    "qos_fingerprint",
    "result_fingerprint",
]
