"""Bandwidth extrapolation across core counts (Sec. VIII-B).

Two predictors of the bandwidth an application would use at a higher core
count, both starting from a measured bandwidth stack at a lower count:

* **naive** — multiply the achieved bandwidth by the core-count factor and
  saturate at the peak bandwidth minus the refresh share.
* **stack-based** (the paper's method) — scale every non-idle component
  (read, write, precharge, activate, constraints) by the factor, keep
  refresh constant, and if the scaled sum exceeds the peak, shrink the
  scaled components proportionally so the stack again sums to the peak.
  The predicted bandwidth is the scaled read+write.

Because applications have phases, both methods are also offered per time
sample (:func:`extrapolate_series`), aggregating the per-sample
predictions — this is how the paper evaluates Fig. 9.
"""

from __future__ import annotations

from repro.errors import AccountingError
from repro.stacks.components import Stack, StackSeries, ordered_stack

#: Components that scale with traffic.
_SCALING = ("read", "write", "precharge", "activate", "constraints")
#: Components that absorb the slack after scaling.
_IDLE = ("bank_idle", "idle")


def achieved_bandwidth(stack: Stack) -> float:
    """Read + write bandwidth of a bandwidth stack."""
    return stack["read"] + stack["write"]


def extrapolate_naive(stack: Stack, factor: float) -> float:
    """Naive prediction: achieved x factor, saturated at peak - refresh."""
    if factor <= 0:
        raise AccountingError(
            f"core-count factor must be positive, got {factor}"
        )
    peak = stack.total
    ceiling = peak - stack["refresh"]
    return min(achieved_bandwidth(stack) * factor, ceiling)


def extrapolate_stack_based(
    stack: Stack, factor: float
) -> tuple[float, Stack]:
    """The paper's stack-based prediction.

    Returns (predicted achieved bandwidth, extrapolated stack). The
    extrapolated stack sums to the peak again, with remaining slack in
    ``idle``.
    """
    if factor <= 0:
        raise AccountingError(
            f"core-count factor must be positive, got {factor}"
        )
    peak = stack.total
    refresh = stack["refresh"]
    scaled = {name: stack[name] * factor for name in _SCALING}
    busy = sum(scaled.values())
    if busy + refresh > peak:
        shrink = (peak - refresh) / busy if busy else 0.0
        scaled = {name: value * shrink for name, value in scaled.items()}
    scaled["refresh"] = refresh
    slack = peak - sum(scaled.values())
    scaled["bank_idle"] = 0.0
    scaled["idle"] = max(slack, 0.0)
    order = tuple(stack.components) or (
        _SCALING[:2] + ("precharge", "activate", "refresh") + _IDLE
    )
    result = ordered_stack(
        scaled, order, unit=stack.unit,
        label=f"{stack.label} x{factor:g}",
    )
    return achieved_bandwidth(result), result


def extrapolate_series(
    series: StackSeries, factor: float, method: str = "stack"
) -> float:
    """Average predicted bandwidth across time samples.

    The paper applies the extrapolation per measured sample and aggregates
    afterwards, because phases scale differently.
    """
    if method not in ("stack", "naive"):
        raise AccountingError(f"unknown extrapolation method {method!r}")
    if not len(series):
        raise AccountingError("cannot extrapolate an empty series")
    predictions = []
    for stack in series:
        if method == "naive":
            predictions.append(extrapolate_naive(stack, factor))
        else:
            predictions.append(extrapolate_stack_based(stack, factor)[0])
    return sum(predictions) / len(predictions)
