#!/usr/bin/env python3
"""Sweep the controller configuration space and find the best settings.

Runs the cartesian product of {pattern} x {page policy} x {indexing
scheme} through the full pipeline, prints the grid as CSV, and reports
the best configuration per pattern — recovering the paper's guidance
(sequential: open page + default indexing; random: closed page) from
raw measurements.
"""

from repro.experiments.sweep import grid, run_sweep
from repro.service import JobFinished


def show(event) -> None:
    """Print each point as it finishes."""
    if isinstance(event, JobFinished):
        metrics = event.payload["metrics"]
        print(
            f"  {event.label:28s} {metrics['achieved_gbps']:6.2f} GB/s "
            f"{metrics['avg_latency_ns']:6.1f} ns  "
            f"hit={metrics['page_hit_rate']:5.1%}"
        )


def main() -> None:
    points = grid(
        patterns=("sequential", "random"),
        cores=(2,),
        page_policies=("open", "closed"),
        address_schemes=("default", "interleaved"),
    )
    print(f"running {len(points)} configurations...")
    sweep = run_sweep(points, scale="ci", on_event=show)

    print()
    print(sweep.to_csv())

    for pattern in ("sequential", "random"):
        subset = sweep.filter(pattern=pattern)
        best_bw = subset.best_bandwidth()
        best_lat = subset.best_latency()
        print(f"{pattern}:")
        print(f"  highest bandwidth: {best_bw.point.label} "
              f"({best_bw.achieved_gbps:.2f} GB/s)")
        print(f"  lowest latency:    {best_lat.point.label} "
              f"({best_lat.avg_latency_ns:.1f} ns)")


if __name__ == "__main__":
    main()
