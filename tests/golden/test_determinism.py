"""Determinism: same seed ⇒ byte-identical event log.

The simulator must be a pure function of (configuration, traces, seed):
two fresh runs of the same seeded workload record identical event
timelines — not just matching stacks, the same windows at the same
cycles (checked through the event-log content digest).

These are the properties the golden fixtures lean on: a fingerprint is
only worth committing if re-running the scenario cannot legitimately
produce a different one.
"""

from __future__ import annotations

from repro.experiments.runner import run_gap, run_synthetic
from repro.reliability.fingerprint import (
    diff_fingerprints,
    event_log_digest,
    result_fingerprint,
)


def assert_same_fingerprint(a, b, context: str) -> None:
    fp_a, fp_b = result_fingerprint(a), result_fingerprint(b)
    problems = diff_fingerprints(fp_a, fp_b)
    assert not problems, f"{context}:\n  " + "\n  ".join(problems)


def test_repeated_synthetic_runs_are_identical():
    runs = [
        run_synthetic(
            "random", cores=2, store_fraction=0.5, scale="ci", guard=False
        )
        for _ in range(2)
    ]
    assert_same_fingerprint(
        runs[0], runs[1], "two identically-seeded runs diverged"
    )


def test_repeated_gap_runs_are_identical():
    first, _ = run_gap("bfs", cores=2, scale="ci", seed=42, guard=False)
    second, _ = run_gap("bfs", cores=2, scale="ci", seed=42, guard=False)
    assert_same_fingerprint(
        first, second, "two seed-42 BFS runs diverged"
    )
    third, _ = run_gap("bfs", cores=2, scale="ci", seed=7, guard=False)
    assert event_log_digest(third.memory.log) != event_log_digest(
        first.memory.log
    ), "different seeds produced the same event log"

