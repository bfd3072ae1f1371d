"""Tests for the dram-stacks CLI."""

import io

import pytest

from repro.cli import main
from repro.dram import ControllerConfig, MemoryController, Request, RequestType
from repro.trace.io import write_trace_path
from repro.trace.offline import capture_trace


class TestSpecs:
    def test_lists_builtin_specs(self, capsys):
        assert main(["specs"]) == 0
        out = capsys.readouterr().out
        assert "DDR4-2400" in out
        assert "19.2 GB/s" in out


class TestAnalyze:
    def test_synthetic_report(self, capsys):
        assert main(["analyze", "random", "--cores", "1"]) == 0
        out = capsys.readouterr().out
        assert "Bandwidth stack" in out
        assert "Findings" in out

    def test_gap_kernel(self, capsys):
        assert main(["analyze", "cc", "--cores", "2"]) == 0
        out = capsys.readouterr().out
        assert "gap:cc" in out

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["analyze", "bananas"])

    def test_scheme_flag(self, capsys):
        assert main([
            "analyze", "sequential", "--scheme", "interleaved",
            "--stores", "0.2",
        ]) == 0


class TestTrace:
    def test_offline_trace_stack(self, tmp_path, capsys):
        mc = MemoryController(ControllerConfig(keep_command_trace=True))
        for i in range(200):
            mc.enqueue(Request(RequestType.READ, i * 64, arrival=i * 8))
        mc.drain()
        mc.finalize()
        path = tmp_path / "example.trace"
        write_trace_path(capture_trace(mc), str(path))

        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "bandwidth stack" in out
        assert "legend" in out


class TestFigure:
    def test_requires_known_figure(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig999"])


class TestFormats:
    def test_csv_output(self, capsys):
        assert main(["analyze", "random", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("component,")
        assert "read," in out

    def test_json_output(self, capsys):
        import json

        assert main(["analyze", "random", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 3
        assert payload[0]["unit"] == "GB/s"


class TestPhases:
    def test_phased_workload_analysis(self, capsys):
        assert main(["phases", "phased", "--threshold", "0.35"]) == 0
        out = capsys.readouterr().out
        assert "phase(s):" in out


class TestBatch:
    def test_grid_runs_with_cache_and_exports(self, tmp_path, capsys):
        import json

        cache_dir = str(tmp_path / "cache")
        jsonl = tmp_path / "sweep.jsonl"
        csv = tmp_path / "sweep.csv"
        argv = [
            "batch", "--patterns", "sequential,random", "--cores", "1",
            "--scale", "ci", "--cache-dir", cache_dir,
            "--jsonl", str(jsonl), "--csv", str(csv),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "batch: 2 point(s)" in out
        assert "2/2 done" in out
        assert "best bandwidth:" in out

        lines = [
            json.loads(line) for line in jsonl.read_text().splitlines()
        ]
        assert len(lines) == 2
        assert all(line["kind"] == "record" for line in lines)
        assert all(len(line["fingerprint"]) == 64 for line in lines)
        assert csv.read_text().startswith("pattern,cores,")

        # Second invocation is served entirely from the cache.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "(cache)" in out
        warm = [
            json.loads(line) for line in jsonl.read_text().splitlines()
        ]
        assert all(line["cached"] for line in warm)
        assert [w["fingerprint"] for w in warm] == [
            c["fingerprint"] for c in lines
        ]

    def test_empty_grid_is_a_configuration_error(self, capsys):
        assert main(["batch", "--patterns", ""]) == 3
        assert "ConfigurationError" in capsys.readouterr().err

    def test_journal_then_resume_replays_finished_points(
        self, tmp_path, capsys
    ):
        import json

        journal = tmp_path / "batch.jsonl"
        argv = [
            "batch", "--patterns", "sequential", "--scale", "ci",
            "--journal", str(journal), "--quiet",
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "journal" in cold and "1/1 done" in cold
        kinds = [
            json.loads(line)["kind"]
            for line in journal.read_text().splitlines()
        ]
        assert kinds == ["open", "done"]
        # Resume: the finished point replays instead of recomputing.
        assert main(argv + ["--resume"]) == 0
        warm = capsys.readouterr().out
        assert "(resume)" in warm
        assert "1 cached" in warm

    def test_spawn_failure_exits_12(self, monkeypatch, capsys):
        from repro.errors import WorkerSpawnError
        from repro.service.pool import WorkerPool

        def refuse(self):
            raise WorkerSpawnError("injected spawn failure")

        monkeypatch.setattr(WorkerPool, "_spawn_worker", refuse)
        assert main([
            "batch", "--patterns", "sequential", "--jobs", "2",
            "--quiet",
        ]) == 12  # fails fast: no inline fallback
        assert "WorkerSpawnError" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_nonpositive_jobs_rejected(self, jobs, capsys):
        assert main([
            "batch", "--patterns", "sequential", "--jobs", jobs,
            "--quiet",
        ]) == 3
        assert "ConfigurationError" in capsys.readouterr().err

    def test_nonpositive_timeout_spawns_no_worker(
        self, monkeypatch, capsys
    ):
        from repro.errors import WorkerSpawnError
        from repro.service.pool import WorkerPool

        spawned = []

        def record(self):
            spawned.append(1)
            raise WorkerSpawnError("test: spawn attempted")

        monkeypatch.setattr(WorkerPool, "_spawn_worker", record)
        assert main([
            "batch", "--patterns", "sequential", "--timeout", "0",
            "--jobs", "2", "--quiet",
        ]) == 3
        assert "timeout_s" in capsys.readouterr().err
        assert spawned == []

    def test_quiet_suppresses_per_point_lines(self, tmp_path, capsys):
        assert main([
            "batch", "--patterns", "sequential", "--scale", "ci",
            "--quiet",
        ]) == 0
        out = capsys.readouterr().out
        assert "  [" not in out and "batch:" in out


class TestProfile:
    def test_analyze_profile_writes_loadable_pstats(
        self, tmp_path, capsys
    ):
        import pstats

        out_file = tmp_path / "run.pstats"
        assert main([
            "analyze", "random", "--cores", "1",
            "--profile", str(out_file),
        ]) == 0
        err = capsys.readouterr().err
        assert "profile written to" in err
        assert out_file.exists()
        stats = pstats.Stats(str(out_file))
        assert stats.total_calls > 0
        # The profile must cover the simulation itself, not just the CLI.
        assert any(
            "repro" in filename and "core.py" in filename
            for filename, __, __ in stats.stats
        )


class TestExitCodes:
    """ReproError subclasses map to distinct exit codes with one-line
    stderr messages — no tracebacks. Verified in-process and through a
    real subprocess (what shell scripts and CI actually see)."""

    def test_configuration_error_in_process(self, capsys):
        code = main(["analyze", "random", "--cores", "0"])
        assert code == 3
        err = capsys.readouterr().err
        assert "ConfigurationError" in err
        assert "cores" in err

    @pytest.mark.parametrize("cycles", ["0", "-5"])
    def test_nonpositive_watchdog_cycles_rejected(self, cycles, capsys):
        """0 reaches the watchdog (it is not "use the default")."""
        code = main([
            "analyze", "random", "--cores", "1",
            "--watchdog-cycles", cycles,
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "ConfigurationError" in err
        assert "threshold_cycles" in err

    def test_trace_format_error_in_process(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace"
        bad.write_text("DRAMTRACE v1 DDR4-2400 100\nREQ zero R 0x0 1\n")
        code = main(["trace", str(bad)])
        assert code == 4
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_documented_table_matches_exit_codes(self):
        """The table in docs/reliability.md lists every mapped code, and
        only those, besides 1 (other errors) and 2 (argparse)."""
        import re
        from pathlib import Path

        from repro.errors import EXIT_CODES

        doc = Path(__file__).resolve().parent.parent / "docs/reliability.md"
        table = {
            int(code): cell
            for code, cell in re.findall(
                r"^\| (\d+)\s+\| (.+?)\s*\|$", doc.read_text(), re.MULTILINE
            )
        }
        assert table == {
            1: "other `ReproError`",
            2: "usage error (argparse)",
            **{code: f"`{cls.__name__}`" for cls, code in EXIT_CODES.items()},
        }

    @pytest.mark.parametrize("argv", [
        ["resume", "x"],
        ["analyze", "random", "--checkpoint-dir", "d"],
    ])
    def test_checkpoint_surface_is_gone(self, argv, capsys):
        """A killed run is rerun, so neither form is a command."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("timeout", ["0", "-2", "nan"])
    def test_nonpositive_timeout_rejected(self, timeout, capsys):
        """0 and negatives would time out every run; NaN would be
        silently ignored."""
        code = main([
            "analyze", "sequential", "--timeout", timeout,
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "ConfigurationError" in err
        assert "wall_timeout_s" in err

    def test_corrupt_journal_exit_code(self, tmp_path, capsys):
        journal = tmp_path / "batch.jsonl"
        journal.write_text('{"kind": "done", "digest": "d"}\n')  # no header
        code = main([
            "batch", "--patterns", "sequential",
            "--journal", str(journal), "--resume", "--quiet",
        ])
        assert code == 14
        assert "JournalCorruptError" in capsys.readouterr().err

    def test_resume_requires_journal(self, capsys):
        code = main(["batch", "--patterns", "sequential", "--resume"])
        assert code == 3
        assert "--journal" in capsys.readouterr().err

    def test_inconsistent_stack_exits_7(self, monkeypatch, capsys):
        """A read whose latency split goes negative stops the run: no
        report ships with a wrong figure in it."""
        from repro.cpu.system import CpuSystem
        from repro.reliability.faults import corrupt_request

        finalize = CpuSystem._finalize

        def finalize_and_corrupt(self, guard, max_cycles):
            result = finalize(self, guard, max_cycles)
            corrupt_request(next(
                r for r in result.memory.completed_requests
                if r.is_read and not r.forwarded and r.arrival > 0
            ))
            return result

        monkeypatch.setattr(CpuSystem, "_finalize", finalize_and_corrupt)
        assert main(["analyze", "random"]) == 7
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("dram-stacks: AccountingError:")


def run_cli(args, cwd=None):
    import os
    import subprocess
    import sys

    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.path.join(root, "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=120,
    )


class TestSubprocess:
    def test_success_exit_zero(self):
        proc = run_cli(["specs"])
        assert proc.returncode == 0
        assert "DDR4-2400" in proc.stdout

    def test_configuration_error_exit_code(self):
        proc = run_cli(["analyze", "random", "--cores", "0"])
        assert proc.returncode == 3
        assert "ConfigurationError" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_corrupt_trace_exit_code(self, tmp_path):
        bad = tmp_path / "bad.trace"
        bad.write_text(
            "DRAMTRACE v1 DDR4-2400 100\n"
            "REQ 0 R 0x0 1\n"
            "CMD 1 XYZ 0 0 0 1\n"
        )
        proc = run_cli(["trace", str(bad)])
        assert proc.returncode == 4
        assert "line 3" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_usage_errors_keep_argparse_code(self):
        proc = run_cli(["analyze", "bananas"])
        assert proc.returncode == 2  # argparse's own exit code

