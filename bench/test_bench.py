"""Self-tests of the benchmark harness.

Run from the root of the repository::

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import points
import reference
import run
import spans
import worker
from repro.experiments import fig2, fig7, figqos, figstd
from repro.experiments.config import ExperimentScale
from repro.experiments.runner import run_gap, run_qos, run_synthetic
from repro.reliability.fingerprint import qos_fingerprint, result_fingerprint
from repro.workloads.gap import GAP_KERNELS

TINY = ExperimentScale("t", synthetic_accesses=500, graph_scale=7)

#: The repository's long-standing golden digest of fig2's random
#: 2-core point at seed 42.
GOLDEN_RANDOM_2C = (
    "1d53c26b4b94ec61de0751886399ba5f98fd32ca9fe52124faa8d852efbfb649"
)


def tiny_point(workload: str, label: str, seed: int = 42) -> points.Point:
    (point,) = [
        p for p in points.points(workload, seed, TINY) if p.label == label
    ]
    return point


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_layer_self_times_sum_to_traced_wall():
    report = worker.traced_pass(
        [tiny_point("devices-writes", "ddr5-4800 ran 2c w20")],
        reference.Gauge(),
    )
    wall = report["points"][0]["seconds"]
    runs = run.WorkloadRuns("devices-writes", 42, pins=None)
    runs.traced = report
    metrics = runs.layer_metrics(untraced_ref_wall=run.ref_wall(report))
    layer_self = [metrics[f"{layer}.self_s"] for layer in spans.LAYERS]
    assert min(layer_self) >= 0.0
    assert 0.0 <= metrics["other.self_s"] < wall
    assert sum(layer_self) + metrics["other.self_s"] == pytest.approx(
        wall, abs=1e-3
    )
    assert metrics["trace.overhead"] == 0.0
    for layer in spans.LAYERS[:-1]:  # no requester accounting here
        assert report["calls"][layer] > 0, layer


def test_nested_calls_are_counted_once():
    tracer = spans.Tracer()
    with tracer.installed():
        tiny_point("devices-writes", "ddr5-4800 ran 2c w20").run()
    # The composite forwards to its channels and cores enqueue into it:
    # both nest, and the self times still add up to the top-level spans.
    assert tracer.edges["dram.system", "dram.controller"] > 0
    assert tracer.edges["cpu.core", "dram.system"] > 0
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.top_s)


def test_self_time_subtracts_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("dram.controller", lambda: None)
    outer = tracer.wrap("dram.system", lambda: inner())
    outer()
    assert tracer.self_s["dram.system"] == 8.0
    assert tracer.self_s["dram.controller"] == 2.0
    assert tracer.top_s == 10.0


# ----------------------------------------------------------------------
# Digests and the correctness gate
# ----------------------------------------------------------------------
def test_digest_equals_result_fingerprint():
    built = tiny_point("fig2-reads", "ran 2c").run()
    assert points.digest(built) == result_fingerprint(built.result)["digest"]


def test_digest_equals_qos_fingerprint():
    built = tiny_point("qos-arbiters", "wrr").run()
    assert points.digest(built) == qos_fingerprint(built.result)["digest"]


def test_failing_point_is_recorded_and_the_pass_goes_on():
    def broken():
        raise RuntimeError("boom")

    records = worker.run_pass([
        points.Point("broken", broken), tiny_point("fig2-reads", "seq 1c"),
    ], reference.Gauge())
    assert "boom" in records[0]["error"] and "seconds" not in records[0]
    assert "digest" in records[1] and records[1]["loop_s"] > 0


def _report(digest: str, loop_s: float = reference.REFERENCE_S) -> dict:
    counts = {"requests": 1}
    return {"points": [{"label": "a", "seconds": 1.0, "loop_s": loop_s,
                        "digest": digest, "counts": counts}], "rss_mb": 1.0}


def test_ref_wall_scales_time_by_the_reference_loop():
    runs = run.WorkloadRuns("fig2-reads", 7, pins=None)
    runs.timed = [_report("x", loop_s=2 * reference.REFERENCE_S)]
    metrics = runs.metrics()
    assert metrics["wall_s"]["value"] == 1.0
    assert metrics["ref_wall_s"]["value"] == pytest.approx(0.5)
    assert metrics["ref_kreq_per_s"]["value"] == pytest.approx(2e-3)


def test_gauge_samples_while_work_runs_and_its_clock_skips_them():
    gauge = reference.Gauge()
    start, clock_start = time.perf_counter(), gauge.clock()
    with gauge.sampling():
        while time.perf_counter() - start < 5 * reference.INTERVAL_S:
            pass
    elapsed = time.perf_counter() - start
    assert len(gauge.samples) >= 3
    assert gauge.clock() - clock_start == pytest.approx(
        elapsed - sum(gauge.samples), abs=1e-3
    )
    assert gauge.take() > 0 and gauge.samples == []


def test_pinned_digest_mismatch_fails_the_point():
    runs = run.WorkloadRuns("fig2-reads", 42, pins={"a": "x"})
    runs.timed = [_report("y")]
    assert "pinned" in runs.point_failures()["a"]
    assert runs.failed() == 1 and "ref_wall_s" not in runs.metrics()


def test_passes_that_disagree_fail_the_point():
    runs = run.WorkloadRuns("fig2-reads", 7, pins=None)
    runs.timed = [_report("x")]
    runs.traced = _report("y")
    assert "disagree" in runs.point_failures()["a"]


def test_pins_cover_every_point_and_keep_the_golden():
    pins = json.loads(run.PINS.read_text())
    assert pins["fig2-reads"]["ran 2c"] == GOLDEN_RANDOM_2C
    for workload in run.WORKLOADS:
        labels = [p.label for p in points.points(workload, 42)]
        assert sorted(pins[workload]) == sorted(labels)


# ----------------------------------------------------------------------
# Harness hygiene
# ----------------------------------------------------------------------
def test_timed_pass_leaves_wrapped_attributes_untouched():
    before = spans.wrapped_attributes()
    seen = []
    fig_point = tiny_point("fig2-reads", "seq 1c")

    def probe():
        seen.append(spans.wrapped_attributes())
        return fig_point.run()

    records = worker.run_pass(
        [points.Point("probe", probe)], reference.Gauge()
    )
    assert "digest" in records[0]
    assert seen == [before]
    assert spans.wrapped_attributes() == before
    with spans.Tracer().installed():
        assert spans.wrapped_attributes() != before
    assert spans.wrapped_attributes() == before


def test_point_lists_follow_the_figures():
    labels = {w: [p.label for p in points.points(w, 42)]
              for w in run.WORKLOADS}
    assert labels["fig2-reads"] == [
        f"{pattern[:3]} {cores}c"
        for pattern in fig2.PATTERNS for cores in fig2.CORE_COUNTS
    ]
    assert [label.split()[0] for label in labels["devices-writes"]] == [
        label for label, __ in figstd.STANDARDS for __ in range(2)
    ]
    assert labels["qos-arbiters"] == ["solo cpu", "solo agent"] + [
        label for label, __ in figqos.SCHEDULERS
    ]
    assert labels["gap-kernels"] == [
        f"{kernel} {cores}c"
        for kernel in GAP_KERNELS for cores in points.GAP_CORE_COUNTS
    ] + [f"bfs {fig7.CORES}c series"]


@pytest.mark.parametrize("workload, label, figure_run", [
    ("fig2-reads", "ran 2c",
     lambda: run_synthetic("random", cores=2, scale=TINY)),
    ("devices-writes", "ddr5-4800 ran 2c w20",
     lambda: run_synthetic(figstd.PATTERN, cores=figstd.CORES,
                           store_fraction=figstd.STORE_FRACTION,
                           scale=TINY, device="ddr5-4800")),
    ("qos-arbiters", "solo agent",
     lambda: run_qos(scheduling="fr-fcfs", scale=TINY, solo="agent")),
    # The first GAP point draws its graph from seed × GAP_GRAPHS_PER_SEED.
    ("gap-kernels", "bc 1c",
     lambda: run_gap("bc", cores=1, scale=TINY,
                     seed=42 * points.GAP_GRAPHS_PER_SEED)[0]),
])
def test_seed_42_points_equal_the_runner(workload, label, figure_run):
    built = tiny_point(workload, label).run()
    expected = result_fingerprint(figure_run())["digest"]
    assert result_fingerprint(built.result)["digest"] == expected


def test_qos_contention_point_equals_run_qos():
    built = tiny_point("qos-arbiters", "bank-reg").run()
    expected = run_qos(scheduling=dict(figqos.SCHEDULERS)["bank-reg"],
                       scale=TINY)
    assert points.digest(built) == qos_fingerprint(expected)["digest"]


def test_seed_changes_random_inputs():
    a = tiny_point("fig2-reads", "ran 1c", seed=42).run()
    b = tiny_point("fig2-reads", "ran 1c", seed=7).run()
    points.check(b)
    assert points.digest(a) != points.digest(b)


def test_result_line_carries_the_declared_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for section, end_to_end in (("end_to_end", True), ("per_layer", False)):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        printed = {
            name: unit for name, (unit, e2e) in run.METRICS.items()
            if e2e == end_to_end and name not in run.RESULT_LINE_EXCLUDED
        }
        assert declared == printed, section


def test_without_sources_it_fails_and_prints_no_result(tmp_path: Path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fig2-reads",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
