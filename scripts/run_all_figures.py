#!/usr/bin/env python3
"""Regenerate every paper figure at the requested scale.

Writes per-figure text to results/<fig>.txt and SVGs alongside; prints a
timing summary. Used to produce the numbers recorded in EXPERIMENTS.md.

Figures are independent jobs run on the execution service: inline at
``--jobs 1`` (the default), on N worker processes at ``--jobs N``, and
cached with ``--cache-dir DIR``: a re-run with an unchanged
configuration replays each figure's text from the cache instead of
resimulating. A figure that fails does not kill the batch silently —
its error is printed (with the traceback when it ran inline), the
remaining figures still run, and the script exits nonzero at the end.

With ``--journal PATH`` every finished figure is appended to a
crash-safe batch journal; add ``--resume`` after an interrupted run and
only the unfinished figures recompute (journaled ones replay their text
instantly). See docs/chaos.md.

Usage::

    PYTHONPATH=src python scripts/run_all_figures.py [scale] [output_dir]
        [--jobs N] [--cache-dir DIR] [--figures fig2,fig7]
        [--journal PATH [--resume]]
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

FIGURES = ("fig2", "fig3", "fig4", "fig6", "fig7", "fig8", "fig9",
           "figqos", "figstd")


def _write_text(output_dir: str, name: str, text: str) -> str:
    path = os.path.join(output_dir, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def run_service(
    figures, scale: str, output_dir: str, jobs: int,
    cache_dir: str | None,
    journal_path: str | None = None,
    resume: bool = False,
) -> list[str]:
    """Run figures through the execution service; returns failed names.

    The SVG files are written by the worker that (cold-)runs a figure;
    a cache or journal hit replays the tables but relies on the SVGs
    from the original run already being in ``output_dir``.
    """
    from repro.service import BatchJournal, ExecutionService, Job

    job_list = [
        Job(
            kind="figure",
            config={"name": name, "output_dir": output_dir},
            scale=scale,
            label=name,
        )
        for name in figures
    ]
    service = ExecutionService(workers=jobs, cache=cache_dir)

    def on_result(index, job, payload, cached):
        path = _write_text(output_dir, job.label, payload["text"])
        suffix = " (cached)" if cached else ""
        print(
            f"{job.label}: {payload['elapsed_s']:6.1f}s -> {path}{suffix}",
            flush=True,
        )

    journal = None
    if journal_path is not None:
        journal = BatchJournal(journal_path, resume=resume)
    try:
        batch = service.run(
            job_list, on_result=on_result, journal=journal
        )
    finally:
        if journal is not None:
            journal.close()
    for failure in batch.failures:
        print(f"{failure}", flush=True)
        traceback.print_exception(failure.error)
    return [failure.job.label for failure in batch.failures]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("scale", nargs="?", default="paper",
                        choices=("ci", "paper"))
    parser.add_argument("output_dir", nargs="?", default="results")
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (default 1: inline, in-process)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache directory (figures re-run only when their "
        "configuration changed)",
    )
    parser.add_argument(
        "--figures", default=None, metavar="LIST",
        help=f"comma-separated subset of {','.join(FIGURES)}",
    )
    parser.add_argument(
        "--journal", default=None, metavar="PATH",
        help="crash-safe batch journal; with --resume, finished "
        "figures recorded there replay instead of recomputing",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted run from the --journal file",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be at least 1, got {args.jobs}")
    if args.resume and not args.journal:
        parser.error("--resume requires --journal PATH")

    figures = FIGURES
    if args.figures:
        figures = tuple(name.strip() for name in args.figures.split(","))
        unknown = [name for name in figures if name not in FIGURES]
        if unknown:
            parser.error(f"unknown figures: {', '.join(unknown)}")

    os.makedirs(args.output_dir, exist_ok=True)
    failed = run_service(
        figures, args.scale, args.output_dir, args.jobs,
        args.cache_dir, args.journal, args.resume,
    )
    if failed:
        print(
            f"{len(failed)} figure(s) failed: {', '.join(failed)}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
