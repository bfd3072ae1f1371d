"""Command-line interface: ``dram-stacks``.

Subcommands:

* ``analyze`` — run a synthetic pattern or GAP kernel and print the
  bandwidth/latency/cycle stacks with the bottleneck advisor's findings.
* ``figure`` — regenerate one of the paper's figures (fig2..fig9), or
  the extension figures: QoS (``figqos``, see docs/qos.md) and
  cross-standard (``figstd``, see docs/devices.md).
* ``batch`` — run a configuration grid through the parallel execution
  service (worker pool + result cache) with live progress.
* ``trace`` — build a bandwidth stack from a stored command trace.
* ``specs`` — list the registered memory device presets
  (see :data:`repro.devices.DEVICES` and docs/devices.md).

Failures surface as one-line messages on stderr with distinct exit
codes per error family (see :data:`repro.errors.EXIT_CODES`), never as
tracebacks. The robustness-relevant codes (``docs/chaos.md``):
``10`` simulation timeout, ``12`` worker crash or a worker that could
not be spawned, ``14`` corrupt batch journal (``batch --journal ...
--resume``). A killed ``analyze`` run is rerun; a killed ``batch``
resumes from its journal.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.report import render_report
from repro.devices import DEVICES
from repro.dram import components
from repro.dram.address import SCHEMES
from repro.dram.controller import ENGINES
from repro.errors import ReproError, exit_code_for
from repro.experiments.runner import run_gap, run_synthetic
from repro.trace.io import read_trace_path
from repro.trace.offline import offline_bandwidth_stack
from repro.viz.ascii_art import render_stacks
from repro.workloads.gap.suite import GAP_KERNELS

_FIGURES = ("fig2", "fig3", "fig4", "fig6", "fig7", "fig8", "fig9",
            "figqos", "figstd")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dram-stacks",
        description="DRAM bandwidth and latency stacks (ISPASS 2022 "
        "reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", help="run a workload and print its stacks + findings"
    )
    analyze.add_argument(
        "workload",
        choices=(
            "sequential", "random", "strided", "pointer-chase",
            "streaming",
        ) + GAP_KERNELS,
        help="synthetic pattern or GAP kernel",
    )
    analyze.add_argument("--cores", type=int, default=1)
    analyze.add_argument("--stores", type=float, default=0.0,
                         help="store fraction (synthetic only)")
    analyze.add_argument("--page-policy",
                         choices=tuple(components.PAGE_POLICIES),
                         default=None)
    analyze.add_argument("--scheduling",
                         default="fr-fcfs", metavar="POLICY",
                         help="memory scheduling policy "
                         f"({', '.join(components.SCHEDULERS)}; "
                         "wrr and bank-reg take params, e.g. 'wrr:2,1' or "
                         "'bank-reg:period=1000,budget=4')")
    analyze.add_argument("--requesters", type=int, default=None,
                         metavar="N",
                         help="spread the cores over N requester QoS "
                         "domains (core i -> domain i %% N; synthetic "
                         "only, see docs/qos.md)")
    analyze.add_argument("--scheme", choices=sorted(SCHEMES),
                         default="default", help="bank indexing scheme")
    analyze.add_argument(
        "--device", default=None, metavar="NAME",
        help="memory device preset from the device registry "
        f"({', '.join(DEVICES.names())}; parameterizable, e.g. "
        "'ddr5-4800:subchannels=4' or 'hbm2:pseudo_channels=4'; "
        "default: the paper's DDR4-2400 — see `dram-stacks specs`)",
    )
    analyze.add_argument(
        "--engine", choices=sorted(ENGINES), default=None,
        help="controller stepping engine (default 'packed'; "
        "'reference' re-plans every step and is bit-identical — see "
        "docs/performance.md)",
    )
    analyze.add_argument("--scale", choices=("ci", "paper"), default="ci")
    analyze.add_argument(
        "--format", choices=("report", "csv", "json"), default="report",
        help="output format: human report, CSV table, or JSON",
    )
    analyze.add_argument(
        "--profile", default=None, metavar="PATH",
        help="profile the run with cProfile and dump pstats data to "
        "PATH (inspect with `python -m pstats PATH`)",
    )
    _add_reliability_args(analyze)

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("name", choices=_FIGURES)
    figure.add_argument("--scale", choices=("ci", "paper"), default="ci")
    figure.add_argument("--output-dir", default="results")

    batch = sub.add_parser(
        "batch",
        help="run a sweep grid on the parallel execution service",
        description="Cartesian sweep over synthetic-workload knobs, "
        "executed as independent jobs on a multiprocess worker pool "
        "with an optional fingerprint-keyed result cache.",
    )
    batch.add_argument(
        "--patterns", default="sequential,random", metavar="LIST",
        help="comma-separated patterns (default sequential,random)",
    )
    batch.add_argument(
        "--cores", default="1", metavar="LIST",
        help="comma-separated core counts (default 1)",
    )
    batch.add_argument(
        "--stores", default="0.0", metavar="LIST",
        help="comma-separated store fractions (default 0.0)",
    )
    batch.add_argument(
        "--page-policies", default="open", metavar="LIST",
        help="comma-separated page policies (default open)",
    )
    batch.add_argument(
        "--schemes", default="default", metavar="LIST",
        help="comma-separated bank-indexing schemes (default default)",
    )
    batch.add_argument(
        "--schedulings", default="fr-fcfs", metavar="LIST",
        help="semicolon-separated scheduling policies, params allowed "
        "(e.g. 'fr-fcfs;wrr:2,1;bank-reg:period=1000,budget=4' — "
        "semicolons because wrr weights contain commas; "
        "default fr-fcfs)",
    )
    batch.add_argument(
        "--requesters", default="1", metavar="LIST",
        help="comma-separated requester-domain counts (default 1)",
    )
    batch.add_argument(
        "--devices", default="ddr4-2400", metavar="LIST",
        help="semicolon-separated device selectors (parameterized "
        "selectors contain commas, e.g. "
        "'ddr4-2400;ddr5-4800:subchannels=4'; default ddr4-2400)",
    )
    batch.add_argument(
        "--engines", default="packed", metavar="LIST",
        help="semicolon-separated controller engines "
        f"({'; '.join(sorted(ENGINES))}; default packed — non-default "
        "engines get their own cache keys, the default stays warm)",
    )
    batch.add_argument("--scale", choices=("ci", "paper"), default="ci")
    batch.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (default 1: inline, in-process)",
    )
    batch.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache directory; unchanged points are served "
        "from cache",
    )
    batch.add_argument(
        "--jsonl", default=None, metavar="PATH",
        help="stream one JSON line per completed point to this file",
    )
    batch.add_argument(
        "--journal", default=None, metavar="PATH",
        help="write a crash-safe batch journal (append-only JSONL) to "
        "PATH; with --resume, finished points recorded there are "
        "replayed instead of recomputed",
    )
    batch.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted batch from the --journal file "
        "(recomputes only the unfinished points)",
    )
    batch.add_argument(
        "--csv", default=None, metavar="PATH",
        help="write the final sweep table as CSV",
    )
    batch.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-point wall-clock budget (seconds > 0)",
    )
    batch.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="extra attempts per failing point (default 0)",
    )
    batch.add_argument(
        "--quiet", action="store_true",
        help="suppress per-point progress lines",
    )

    phases = sub.add_parser(
        "phases", help="through-time phase analysis of a workload"
    )
    phases.add_argument(
        "workload",
        choices=(
            "sequential", "random", "strided", "pointer-chase", "phased",
        ) + GAP_KERNELS,
    )
    phases.add_argument("--cores", type=int, default=1)
    phases.add_argument("--scale", choices=("ci", "paper"), default="ci")
    phases.add_argument("--threshold", type=float, default=0.3)

    trace = sub.add_parser(
        "trace", help="bandwidth stack from a stored command trace"
    )
    trace.add_argument("path")

    sub.add_parser("specs", help="list built-in timing specs")
    return parser


def _add_reliability_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("reliability")
    group.add_argument(
        "--watchdog-cycles", type=int, default=None, metavar="N",
        help="stall threshold in memory cycles (default 200000)",
    )
    group.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget for the run (seconds > 0)",
    )
    group.add_argument(
        "--no-guard", action="store_true",
        help="disable all run-time guardrails",
    )


def _guard_from_args(args: argparse.Namespace):
    """Build the run's ReliabilityGuard from CLI flags.

    Returns False (run bare) for --no-guard, matching the sentinel
    :meth:`CpuSystem.run` accepts.
    """
    from repro.reliability.guard import ReliabilityGuard
    from repro.reliability.watchdog import (
        DEFAULT_STALL_THRESHOLD,
        ForwardProgressWatchdog,
    )

    if args.no_guard:
        return False
    watchdog = ForwardProgressWatchdog(
        DEFAULT_STALL_THRESHOLD if args.watchdog_cycles is None
        else args.watchdog_cycles
    )
    return ReliabilityGuard(watchdog=watchdog, wall_timeout_s=args.timeout)


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            status = _run_analyze(args)
        finally:
            profiler.disable()
            profiler.dump_stats(args.profile)
        print(
            f"profile written to {args.profile} "
            f"(inspect with `python -m pstats {args.profile}`)",
            file=sys.stderr,
        )
        return status
    return _run_analyze(args)


def _run_analyze(args: argparse.Namespace) -> int:
    guard = _guard_from_args(args)
    if args.workload in GAP_KERNELS:
        result, workload = run_gap(
            args.workload,
            cores=args.cores,
            page_policy=args.page_policy or "closed",
            scheduling=args.scheduling,
            address_scheme=args.scheme,
            scale=args.scale,
            guard=guard,
            device=args.device,
            engine=args.engine,
        )
        title = f"GAP {workload.describe()} on {args.cores} core(s)"
    else:
        result = run_synthetic(
            args.workload,
            cores=args.cores,
            store_fraction=args.stores,
            page_policy=args.page_policy or "open",
            scheduling=args.scheduling,
            address_scheme=args.scheme,
            scale=args.scale,
            guard=guard,
            requesters=args.requesters,
            device=args.device,
            engine=args.engine,
        )
        title = (
            f"{args.workload} w{int(args.stores * 100)} on "
            f"{args.cores} core(s)"
        )
    if args.device:
        title += f" [{args.device}]"
    if args.engine:
        title += f" <{args.engine}>"
    if args.requesters and args.requesters > 1:
        from repro.viz.ascii_art import render_stack_table

        rows = result.per_requester_bandwidth_stacks()
        print(render_stack_table(
            [rows[r] for r in sorted(rows)],
            title="per-requester bandwidth stacks (GB/s)",
        ))
        lat_rows = result.per_requester_latency_stacks()
        print(render_stack_table(
            [lat_rows[r] for r in sorted(lat_rows)],
            title="per-requester latency stacks (ns)",
        ))
    bandwidth = result.bandwidth_stack("bandwidth")
    latency = result.latency_stack("latency")
    cycles = result.cycle_stack("cycles")
    if args.format == "csv":
        from repro.viz.export import stacks_to_csv

        print(stacks_to_csv([bandwidth]), end="")
        print(stacks_to_csv([latency]), end="")
    elif args.format == "json":
        from repro.viz.export import stacks_to_json

        print(stacks_to_json([bandwidth, latency, cycles]))
    else:
        print(render_report(bandwidth, latency, cycles, title=title))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    import importlib

    module = importlib.import_module(f"repro.experiments.{args.name}")
    module.main(scale=args.scale, output_dir=args.output_dir)
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.core.events import EventBus
    from repro.errors import ConfigurationError
    from repro.experiments.sweep import grid, run_sweep
    from repro.service.events import JobFailed, JobFinished
    from repro.viz.live import BatchProgressMeter

    def _split(raw: str, convert=str, sep: str = ",") -> tuple:
        try:
            return tuple(
                convert(part.strip())
                for part in raw.split(sep) if part.strip()
            )
        except ValueError as error:
            raise ConfigurationError(
                f"bad list value {raw!r}: {error}"
            ) from error

    points = grid(
        patterns=_split(args.patterns),
        cores=_split(args.cores, int),
        store_fractions=_split(args.stores, float),
        page_policies=_split(args.page_policies),
        address_schemes=_split(args.schemes),
        # Scheduling specs and device selectors carry commas in their
        # params ("wrr:2,1", "ddr5-4800:subchannels=4"), so these axes
        # split on semicolons.
        schedulings=_split(args.schedulings, sep=";"),
        requesters=_split(args.requesters, int),
        devices=_split(args.devices, sep=";"),
        engines=_split(args.engines, sep=";"),
    )
    if not points:
        raise ConfigurationError("the requested grid is empty")

    if args.resume and not args.journal:
        raise ConfigurationError(
            "--resume requires --journal PATH (the journal to resume "
            "from)"
        )
    bus = EventBus()
    meter = BatchProgressMeter(total=len(points)).attach(bus)
    if not args.quiet:
        def _print_finished(event) -> None:
            marker = (
                "cache" if event.cached else f"{event.elapsed_s:.1f}s"
            )
            print(f"  [{meter.status_line()}] {event.label} ({marker})",
                  flush=True)

        def _print_failed(event) -> None:
            stage = "FAILED" if event.final else "retrying"
            print(
                f"  [{meter.status_line()}] {event.label} {stage}: "
                f"{event.error_type}: {event.message}",
                flush=True,
            )

        bus.subscribe(JobFinished, _print_finished)
        bus.subscribe(JobFailed, _print_failed)

    print(
        f"batch: {len(points)} point(s) at scale {args.scale!r} on "
        f"{args.jobs} worker(s)"
        + (f", cache {args.cache_dir}" if args.cache_dir else "")
        + (
            f", journal {args.journal}"
            + (" (resume)" if args.resume else "")
            if args.journal else ""
        )
    )
    result = run_sweep(
        points,
        scale=args.scale,
        timeout_s=args.timeout,
        retries=args.retries,
        jobs=args.jobs,
        cache=args.cache_dir,
        bus=bus,
        jsonl_path=args.jsonl,
        journal_path=args.journal,
        resume=args.resume,
    )
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(result.to_csv())
    print(f"batch: {meter.status_line()}")
    if result.records:
        best = result.best_bandwidth()
        print(
            f"best bandwidth: {best.point.label} "
            f"({best.achieved_gbps:.2f} GB/s); best latency: "
            f"{result.best_latency().point.label} "
            f"({result.best_latency().avg_latency_ns:.1f} ns)"
        )
    for failure in result.failures:
        print(f"failed: {failure}", file=sys.stderr)
    if not result.complete:
        return exit_code_for(result.failures[0].error)
    return 0


def _cmd_phases(args: argparse.Namespace) -> int:
    from repro.analysis.phases import describe_phases, detect_phases

    if args.workload in GAP_KERNELS:
        result, __ = run_gap(
            args.workload, cores=args.cores, scale=args.scale,
        )
    elif args.workload == "phased":
        from repro.cpu import CpuSystem
        from repro.experiments.config import get_scale, paper_system
        from repro.workloads.synthetic import PhasedWorkload, SyntheticConfig

        scale = get_scale(args.scale)
        workload = PhasedWorkload(config=SyntheticConfig(
            accesses_per_core=scale.synthetic_accesses,
        ))
        system = CpuSystem(paper_system(cores=args.cores, gap=True))
        result = system.run(workload.traces(args.cores))
    else:
        result = run_synthetic(
            args.workload, cores=args.cores, scale=args.scale,
        )
    bins = max(1000, result.total_cycles // 24)
    series = result.bandwidth_series(bins, args.workload)
    phases = detect_phases(series, threshold=args.threshold, min_bins=2)
    print(describe_phases(phases, ("read", "write", "bank_idle", "idle")))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    trace = read_trace_path(args.path)
    stack = offline_bandwidth_stack(trace, label=args.path)
    print(render_stacks([stack], title=f"bandwidth stack from {args.path}"))
    return 0


def _cmd_specs(args: argparse.Namespace) -> int:
    for name in DEVICES.names():
        preset = DEVICES.create(name)
        spec = preset.spec
        org = spec.organization
        channels = (
            f", {preset.channels} channels" if preset.channels > 1 else ""
        )
        print(
            f"{name}: {spec.transfer_rate_mts:.0f} MT/s, "
            f"{preset.peak_bandwidth_gbps:.1f} GB/s peak{channels}, "
            f"{org.bank_groups}x{org.banks_per_group} banks, "
            f"CL{spec.tCL} tRCD{spec.tRCD} tRP{spec.tRP}, "
            f"refresh {preset.refresh}"
        )
        if preset.description:
            print(f"  {preset.description}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    :class:`~repro.errors.ReproError` subclasses become one-line stderr
    messages with per-family exit codes (never tracebacks), so shell
    scripts and CI can branch on the failure kind.
    """
    args = _build_parser().parse_args(argv)
    handlers = {
        "analyze": _cmd_analyze,
        "figure": _cmd_figure,
        "batch": _cmd_batch,
        "phases": _cmd_phases,
        "trace": _cmd_trace,
        "specs": _cmd_specs,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(
            f"dram-stacks: {type(error).__name__}: {error}",
            file=sys.stderr,
        )
        return exit_code_for(error)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
