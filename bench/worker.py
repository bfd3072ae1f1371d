"""One benchmark pass in a fresh interpreter.

Started by ``run.py``, one at a time, as::

    python bench/worker.py MODE WORKLOAD SEED

MODE is ``setup`` (import the simulator and stop), ``timed`` (run the
workload's point list with no instrumentation) or ``traced`` (the same
under :class:`spans.Tracer`). The last line of standard output is one
JSON object; ``ready_at`` is the ``time.monotonic()`` reading once the
imports are done, which ``run.py`` turns into the set-up time, and
``ready_loop_s`` the reference loop's chunk time right after, which
scales it.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

import points  # imports repro, its experiments and workloads
import reference
import repro
import repro.devices  # noqa: F401

READY_AT = time.monotonic()

#: Chunks of the reference loop timed right after the imports.
READY_SAMPLES = 10

SRC = Path(__file__).resolve().parent.parent / "src"


def run_pass(
    point_list: list[points.Point], gauge: reference.Gauge
) -> list[dict]:
    """Run every point in order; one record per point.

    Only ``point.run()`` is timed, on the gauge's clock, while the gauge
    samples the host's speed; it samples once more right after, and
    ``loop_s`` is the point's mean chunk time. Checks and the digest
    come after that. A point that raises is recorded with its error and
    the remaining points still run.
    """
    records = []
    for point in point_list:
        record: dict = {"label": point.label}
        gauge.samples = []
        try:
            with gauge.sampling():
                start = gauge.clock()
                built = point.run()
                seconds = gauge.clock() - start
            gauge.sample()
            points.check(built)
            record["digest"] = points.digest(built)
            record["counts"] = points.counts(built)
            record["seconds"] = seconds
            record["loop_s"] = gauge.take()
        except Exception:  # a failed point must not stop the pass
            record["error"] = traceback.format_exc(limit=-3)
        records.append(record)
        built = None  # free the result before the next point
    return records


def traced_pass(
    point_list: list[points.Point], gauge: reference.Gauge
) -> dict:
    """:func:`run_pass` with every layer entry point wrapped in spans,
    timed on the gauge's clock too."""
    from spans import Tracer

    tracer = Tracer(clock=gauge.clock)
    with tracer.installed():
        records = run_pass(point_list, gauge)
    return {
        "points": records,
        "self_s": tracer.self_s,
        "calls": tracer.calls,
        "top_s": tracer.top_s,
    }


def main(argv: list[str]) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if Path(repro.__file__).resolve().parent.parent != SRC:
        print(f"worker: repro imported from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    gauge = reference.Gauge()
    for __ in range(READY_SAMPLES):
        gauge.sample()
    out: dict = {"ready_at": READY_AT, "ready_loop_s": gauge.take()}
    if mode == "timed":
        out["points"] = run_pass(points.points(workload, seed), gauge)
    elif mode == "traced":
        out.update(traced_pass(points.points(workload, seed), gauge))
    elif mode != "setup":
        print(f"worker: unknown mode {mode!r}", file=sys.stderr)
        return 2
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
