#!/usr/bin/env python
"""CI smoke test for the parallel execution service.

Runs a small synthetic grid on a 2-worker pool with a fresh result
cache and asserts the service's three headline contracts:

1. **Determinism** — the warm run's per-point fingerprints equal the
   cold run's (and both equal a serial in-process reference).
2. **Cache effectiveness** — the second invocation is served (almost)
   entirely from the cache: >= 90% hits, completing in a small
   fraction of the cold time.
3. **Kill and rerun** — a batch run in a child process that dies hard
   after its second point is resumed by rerunning it on the same
   cache: the rerun reads at least 2 hits and the serial fingerprints,
   and no worker of the killed batch is left alive.

Usage::

    PYTHONPATH=src python scripts/service_smoke.py [--jobs N]

Exit status 0 on success, 1 with a diagnostic on any violated contract.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time

from repro.experiments.config import ExperimentScale
from repro.experiments.sweep import grid, run_sweep

MIN_HIT_RATE = 0.90
#: Seconds the killed batch's workers get to notice and exit.
ORPHAN_GRACE_S = 3.0

#: The batch the kill-and-rerun contract kills. Run as ``python -c``
#: with the scripts directory, the worker count and the cache directory
#: as arguments, it prints its workers' pids after its second point and
#: dies without any cleanup.
KILLED_BATCH = """
import multiprocessing, os, sys
sys.path.insert(0, sys.argv[1])
from service_smoke import POINTS, SCALE, run_sweep
from repro.service import JobFinished

done = []

def on_event(event):
    if not isinstance(event, JobFinished):
        return
    done.append(event)
    if len(done) == 2:
        pids = [child.pid for child in multiprocessing.active_children()]
        print(" ".join(map(str, pids)), flush=True)
        os._exit(9)

run_sweep(POINTS, scale=SCALE, jobs=int(sys.argv[2]), cache=sys.argv[3],
          on_event=on_event)
"""

SCALE = ExperimentScale("smoke", synthetic_accesses=1_200)
POINTS = grid(
    patterns=("sequential", "random"),
    cores=(1, 2),
    page_policies=("open",),
)


def _alive(pid: int) -> bool:
    """True while `pid` runs (read from Linux ``/proc``); a zombie
    (exited, not yet reaped) is gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def kill_and_rerun(jobs: int, cache_dir: str, reference) -> list[str]:
    """The kill-and-rerun contract; returns the problems found."""
    scripts_dir = os.path.dirname(os.path.abspath(__file__))
    # Output goes to files, not pipes: waiting on a pipe would also wait
    # for any worker left behind holding it open.
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        child = subprocess.run(
            [sys.executable, "-c", KILLED_BATCH, scripts_dir, str(jobs),
             cache_dir],
            stdout=out,
            stderr=err,
            timeout=120,
        )
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
    if child.returncode != 9:
        return [
            f"killed batch exited {child.returncode}, expected 9: "
            f"{stderr.strip()[-400:]}"
        ]
    problems = []
    pids = [int(pid) for pid in stdout.split()]
    deadline = time.monotonic() + ORPHAN_GRACE_S
    while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.1)
    orphans = [pid for pid in pids if _alive(pid)]
    if orphans:
        problems.append(
            f"workers {orphans} of the killed batch still alive "
            f"{ORPHAN_GRACE_S:.0f}s after it died"
        )
    rerun = run_sweep(POINTS, scale=SCALE, jobs=jobs, cache=cache_dir)
    hits = sum(1 for record in rerun.records if record.cached)
    if not rerun.complete:
        problems.append(
            "rerun had failures: "
            + "; ".join(str(f) for f in rerun.failures)
        )
    elif [r.fingerprint for r in rerun.records] != reference:
        problems.append(
            "rerun fingerprints differ from the serial reference"
        )
    if hits < 2:
        problems.append(
            f"rerun read {hits} cache hit(s); the killed batch had "
            f"finished 2 points"
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs", type=int, default=2, metavar="N",
        help="worker processes for the smoke batch (default 2)",
    )
    args = parser.parse_args(argv)

    serial = run_sweep(POINTS, scale=SCALE)
    reference = [record.fingerprint for record in serial.records]

    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as cache_dir:
        cold_start = time.perf_counter()
        cold = run_sweep(
            POINTS, scale=SCALE, jobs=args.jobs, cache=cache_dir
        )
        cold_s = time.perf_counter() - cold_start
        warm_start = time.perf_counter()
        warm = run_sweep(
            POINTS, scale=SCALE, jobs=args.jobs, cache=cache_dir
        )
        warm_s = time.perf_counter() - warm_start

    problems = []
    for name, result in (("cold", cold), ("warm", warm)):
        if not result.complete:
            problems.append(
                f"{name} run had failures: "
                + "; ".join(str(f) for f in result.failures)
            )
    if not problems:
        for name, result in (("cold", cold), ("warm", warm)):
            fingerprints = [r.fingerprint for r in result.records]
            if fingerprints != reference:
                problems.append(
                    f"{name} parallel fingerprints differ from the "
                    f"serial reference — determinism contract broken"
                )
        hits = sum(1 for record in warm.records if record.cached)
        hit_rate = hits / len(POINTS)
        if hit_rate < MIN_HIT_RATE:
            problems.append(
                f"warm run hit rate {hit_rate:.0%} "
                f"({hits}/{len(POINTS)}) below the "
                f"{MIN_HIT_RATE:.0%} gate"
            )

    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as cache_dir:
        problems.extend(kill_and_rerun(args.jobs, cache_dir, reference))

    if problems:
        for problem in problems:
            print(f"service_smoke: FAIL — {problem}", file=sys.stderr)
        return 1
    print(
        f"service_smoke: OK — {len(POINTS)} points on {args.jobs} "
        f"workers, cold {cold_s:.1f}s, warm {warm_s:.1f}s "
        f"({sum(1 for r in warm.records if r.cached)}/{len(POINTS)} "
        f"cache hits); killed batch rerun from its cache, no worker "
        f"left behind"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
