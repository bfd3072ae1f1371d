"""DRAM-stacks simulator benchmark: host time end to end and per layer.

Usage, from the root of the repository::

    python bench/run.py                       # all four workloads
    python bench/run.py --workload fig2-reads --seed 7 --seconds 30 --trace 0

Every pass runs in a fresh interpreter (``worker.py``), one at a time.
Timed passes of the chosen workloads go round-robin, so drift hits all
of them alike, while each workload's next pass still fits in
``--seconds`` (at least one pass each). With ``--trace 1`` the timed
passes get half of that and one traced pass per workload follows. Each point's
result is checked: stacks must sum to the peak, passes must agree with
one another, and at seed 42 digests must equal ``fingerprints.json``.
Time metrics named ``ref_*``, and ``setup_s``, are scaled by the
reference loop timed next to the work, so that the shared host's drift
in speed cancels (``reference.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``. Metric names get a
``<workload>.`` prefix when more than one workload runs. The whole
record, every metric included, goes to ``bench/results/latest.json``.
The exit code is 0 only when every point was correct.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PINS = BENCH / "fingerprints.json"
RECORD = BENCH / "results" / "latest.json"

WORKLOADS = ("fig2-reads", "devices-writes", "qos-arbiters", "gap-kernels")
PINNED_SEED = 42
#: Extra interpreters per workload that only import, so setup_s is a
#: median over several starts even when few passes fit.
SETUP_PROBES = 3
#: A worker that runs longer than this is killed and its pass failed.
WORKER_TIMEOUT_S = 150

#: name -> (unit, end-to-end); the end-to-end ones are measured with
#: tracing off, the rest come from the traced pass.
METRICS = {
    "ref_wall_s": ("s", True),
    "ref_kreq_per_s": ("kreq/s", True),
    "wall_s": ("s", True),
    "setup_s": ("s", True),
    "peak_rss_mb": ("MB", True),
    "fail_frac": ("ratio", True),
    "workloads.self_s": ("s", False),
    "workloads.trace_items": ("count", False),
    "cpu.core.self_s": ("s", False),
    "cpu.core.calls": ("count", False),
    "cpu.core.instructions": ("count", False),
    "cpu.core.ns_per_instr": ("ns/instr", False),
    "cpu.system.self_s": ("s", False),
    "reliability.self_s": ("s", False),
    "reliability.calls": ("count", False),
    "dram.controller.self_s": ("s", False),
    "dram.controller.calls": ("count", False),
    "dram.controller.requests": ("count", False),
    "dram.controller.us_per_request": ("us/req", False),
    "dram.controller.page_hit_rate": ("ratio", False),
    "dram.controller.fallback_channels": ("count", False),
    "dram.system.self_s": ("s", False),
    "stacks.bandwidth.self_s": ("s", False),
    "stacks.bandwidth.calls": ("count", False),
    "stacks.bandwidth.log_events": ("count", False),
    "stacks.latency.self_s": ("s", False),
    "stacks.latency.calls": ("count", False),
    "stacks.latency.reads": ("count", False),
    "stacks.requester.self_s": ("s", False),
    "stacks.requester.calls": ("count", False),
    "other.self_s": ("s", False),
    "trace.overhead": ("ratio", False),
}

#: Printed, but left out of the JSON result line: wall_s drifts with the
#: shared host's speed far more than a regression bound can allow, and
#: ref_wall_s is its steady form; fail_frac is 0 on a healthy run and is
#: carried by ``failed``/``attempted`` instead; and these two layers do
#: no work at all on some workloads, so their self time would read
#: exactly 0 on every run there.
RESULT_LINE_EXCLUDED = (
    "wall_s", "fail_frac", "dram.system.self_s", "stacks.requester.self_s",
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", default=",".join(WORKLOADS),
        help="comma-separated workloads (default: all four)",
    )
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument(
        "--seconds", type=float, default=30.0,
        help="time budget of each workload, traced pass included",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=1,
        help="1: add one traced pass per workload for per-layer metrics",
    )
    parser.add_argument(
        "--repin", action="store_true",
        help=f"write this run's digests to {PINS.name} (seed "
             f"{PINNED_SEED} only)",
    )
    args = parser.parse_args(argv)
    args.workloads = [w for w in args.workload.split(",") if w]
    unknown = sorted(set(args.workloads) - set(WORKLOADS))
    if unknown or not args.workloads:
        parser.error(f"unknown workload(s) {unknown}; choose from "
                     f"{', '.join(WORKLOADS)}")
    if args.repin and args.seed != PINNED_SEED:
        parser.error(f"--repin pins seed {PINNED_SEED} only")
    return args


def spawn(mode: str, workload: str, seed: int) -> dict:
    """Run one worker to completion; its JSON report plus timings.

    A worker that fails, prints no report or overruns
    ``WORKER_TIMEOUT_S`` yields ``{"error": ...}``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH")))
    )
    command = [
        sys.executable, str(BENCH / "worker.py"), mode, workload, str(seed),
    ]
    started = time.monotonic()
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} worker exceeded {WORKER_TIMEOUT_S}s"}
    elapsed = time.monotonic() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"error": f"{mode} worker exited {done.returncode}: "
                         f"{done.stderr.strip()[-2000:]}"}
    report = json.loads(lines[-1])
    # Scaled by the reference loop, as ref_wall_s is.
    report["setup_s"] = (
        (report.pop("ready_at") - started)
        * reference.REFERENCE_S / report.pop("ready_loop_s")
    )
    report["elapsed_s"] = elapsed
    return report


class WorkloadRuns:
    """Every pass of one workload and the checks across them."""

    def __init__(self, name: str, seed: int, pins: dict[str, str] | None):
        self.name = name
        self.seed = seed
        self.pins = pins
        self.setups: list[float] = []
        self.timed: list[dict] = []
        self.traced: dict | None = None
        self.budget_used = 0.0
        self.errors: list[str] = []

    def probe_setup(self) -> None:
        for __ in range(SETUP_PROBES):
            report = spawn("setup", self.name, self.seed)
            if "error" in report:
                self.errors.append(report["error"])
            else:
                self.setups.append(report["setup_s"])

    def run_pass(self, mode: str) -> dict | None:
        report = spawn(mode, self.name, self.seed)
        self.budget_used += report.get("elapsed_s", 0.0)
        if "error" in report:
            self.errors.append(report["error"])
            return None
        self.setups.append(report["setup_s"])
        return report

    def wants_pass(self, seconds: float) -> bool:
        """Whether another timed pass fits in the budget (one always
        does)."""
        if not self.timed:
            return True
        return self.budget_used * (1 + 1 / len(self.timed)) <= seconds

    # ------------------------------------------------------------------
    def passes(self) -> list[dict]:
        return self.timed + ([self.traced] if self.traced else [])

    def point_failures(self) -> dict[str, str]:
        """label -> why the point failed, over every pass."""
        failures: dict[str, str] = {}
        reference: dict[str, dict] = {}
        for report in self.passes():
            for record in report["points"]:
                label = record["label"]
                if "error" in record:
                    failures.setdefault(label, record["error"])
                    continue
                seen = reference.setdefault(label, record)
                if (record["digest"], record["counts"]) != (
                    seen["digest"], seen["counts"]
                ):
                    failures.setdefault(
                        label, "passes disagree (digest or counts)"
                    )
                pinned = (self.pins or {}).get(label)
                if self.pins is not None and record["digest"] != pinned:
                    failures.setdefault(
                        label,
                        f"digest {record['digest'][:12]} != pinned "
                        f"{(pinned or 'none')[:12]}",
                    )
        return failures

    def point_seconds(self) -> dict[str, list[float]]:
        """label -> the point's time in each timed pass."""
        seconds: dict[str, list[float]] = {}
        for report in self.timed:
            for record in report["points"]:
                if "seconds" in record:
                    seconds.setdefault(record["label"], []).append(
                        record["seconds"]
                    )
        return seconds

    def attempted(self) -> int:
        """Points run over every pass, plus workers that died."""
        runs = sum(len(report["points"]) for report in self.passes())
        return runs + len(self.errors)

    def failed(self) -> int:
        bad = self.point_failures()
        failed = sum(
            record["label"] in bad
            for report in self.passes() for record in report["points"]
        )
        return failed + len(self.errors)

    def metrics(self) -> dict[str, dict]:
        """Every metric this workload's passes yield, with min/max/n."""
        out: dict[str, dict] = {}

        def put(name: str, samples: list[float]) -> None:
            if samples:
                out[name] = {
                    "value": statistics.median(samples),
                    "min": min(samples), "max": max(samples),
                    "n": len(samples), "unit": METRICS[name][0],
                }

        put("setup_s", self.setups)
        put("peak_rss_mb", [report["rss_mb"] for report in self.timed])
        if self.attempted():
            put("fail_frac", [self.failed() / self.attempted()])
        if not self.timed or self.point_failures():
            return out  # a partial point list has no comparable timing
        ref_walls = [ref_wall(report) for report in self.timed]
        requests = sum(
            r["counts"]["requests"] for r in self.timed[0]["points"]
        )
        put("ref_wall_s", ref_walls)
        put("ref_kreq_per_s", [requests / wall / 1e3 for wall in ref_walls])
        put("wall_s", [
            sum(r["seconds"] for r in report["points"])
            for report in self.timed
        ])
        if self.traced is not None:
            for name, value in self.layer_metrics(
                statistics.median(ref_walls)
            ).items():
                put(name, [value])
        return out

    def layer_metrics(self, untraced_ref_wall: float) -> dict[str, float]:
        traced = self.traced
        wall = sum(r["seconds"] for r in traced["points"])
        total: Counter[str] = Counter()
        for record in traced["points"]:
            total.update(record["counts"])
        self_s, calls = traced["self_s"], traced["calls"]
        cas = total["row_hits"] + total["row_misses"]
        metrics = {f"{layer}.self_s": s for layer, s in self_s.items()}
        metrics.update({
            "workloads.trace_items": total["trace_items"],
            "cpu.core.calls": calls["cpu.core"],
            "cpu.core.instructions": total["instructions"],
            "cpu.core.ns_per_instr": _ratio(
                self_s["cpu.core"] * 1e9, total["instructions"]
            ),
            "reliability.calls": calls["reliability"],
            "dram.controller.calls": calls["dram.controller"],
            "dram.controller.requests": total["requests"],
            "dram.controller.us_per_request": _ratio(
                self_s["dram.controller"] * 1e6, total["requests"]
            ),
            "dram.controller.page_hit_rate": _ratio(total["row_hits"], cas),
            "dram.controller.fallback_channels": total["fallback_channels"],
            "stacks.bandwidth.calls": calls["stacks.bandwidth"],
            "stacks.bandwidth.log_events": total["log_events"],
            "stacks.latency.calls": calls["stacks.latency"],
            "stacks.latency.reads": total["reads"],
            "stacks.requester.calls": calls["stacks.requester"],
            "other.self_s": wall - traced["top_s"],
            "trace.overhead": ref_wall(traced) / untraced_ref_wall - 1.0,
        })
        return metrics


def ref_wall(report: dict) -> float:
    """A pass's wall time scaled to a host on which a reference-loop
    chunk takes ``REFERENCE_S``: each point's time times that over the
    point's mean chunk time (``reference.py``)."""
    return sum(
        r["seconds"] * reference.REFERENCE_S / r["loop_s"]
        for r in report["points"]
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def measure(args: argparse.Namespace) -> list[WorkloadRuns]:
    pins = None
    if args.seed == PINNED_SEED and not args.repin:
        pins = json.loads(PINS.read_text())
    runs = [
        WorkloadRuns(name, args.seed,
                     None if pins is None else pins.get(name, {}))
        for name in args.workloads
    ]
    for workload in runs:
        workload.probe_setup()
    # The traced pass takes a timed pass's time and a bit more; with
    # tracing on it gets half of the budget.
    budget = args.seconds / (2 if args.trace else 1)
    pending = list(runs)
    while pending:
        for workload in list(pending):
            report = workload.run_pass("timed")
            if report is not None:
                workload.timed.append(report)
            if report is None or not workload.wants_pass(budget):
                pending.remove(workload)
    if args.trace:
        for workload in runs:
            workload.traced = workload.run_pass("traced")
    return runs


def repin(runs: list[WorkloadRuns]) -> None:
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    for workload in runs:
        pins[workload.name] = {
            record["label"]: record["digest"]
            for record in workload.timed[0]["points"]
        }
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")


def summarize(args: argparse.Namespace, runs: list[WorkloadRuns]) -> int:
    record = {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
        },
        "workloads": {},
    }
    line_metrics: dict[str, dict] = {}
    attempted = failed = 0
    for workload in runs:
        metrics = workload.metrics()
        failures = workload.point_failures()
        attempted += workload.attempted()
        failed += workload.failed()
        record["workloads"][workload.name] = {
            "metrics": metrics,
            "failures": failures,
            "worker_errors": workload.errors,
            "point_seconds": workload.point_seconds(),
            "digests": {
                r["label"]: r.get("digest")
                for report in workload.timed[:1] for r in report["points"]
            },
        }
        print(f"\n== {workload.name} (seed {args.seed})")
        for name, (unit, end_to_end) in METRICS.items():
            if name in metrics:
                m = metrics[name]
                print(f"  {name:<36} {m['value']:>14.6g} {unit:<9}"
                      f" min {m['min']:.6g}  max {m['max']:.6g}  n {m['n']}")
            if (
                name in metrics and end_to_end == (args.trace == 0)
                and name not in RESULT_LINE_EXCLUDED
            ):
                key = name if len(runs) == 1 else f"{workload.name}.{name}"
                line_metrics[key] = {
                    "value": metrics[name]["value"], "unit": unit,
                }
        for label, why in failures.items():
            print(f"  FAILED {label}: {why.strip().splitlines()[-1]}")
        for error in workload.errors:
            print(f"  WORKER ERROR: {error.strip().splitlines()[-1]}")
    RECORD.parent.mkdir(exist_ok=True)
    RECORD.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": line_metrics,
    }))
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    runs = measure(args)
    if args.repin and not any(w.failed() for w in runs):
        repin(runs)
    return summarize(args, runs)


if __name__ == "__main__":
    sys.exit(main())
