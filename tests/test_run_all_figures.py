"""Tests for scripts/run_all_figures.py failure reporting.

The historical bug: a figure raising inside ``redirect_stdout`` lost
both its captured output and its traceback, and the batch carried on as
if nothing happened. These tests pin the fix on the one batch path, the
execution service's inline mode — buffer printed, error and traceback
printed, remaining figures still run, nonzero exit.
"""

import sys
import types
from pathlib import Path

import pytest

from repro.experiments.config import get_scale

SCRIPTS_DIR = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture
def run_all_figures():
    sys.path.insert(0, str(SCRIPTS_DIR))
    try:
        import run_all_figures as module

        yield module
    finally:
        sys.path.remove(str(SCRIPTS_DIR))


@pytest.fixture
def fake_figures(monkeypatch):
    """Install tiny stand-in figure modules and shrink FIGURES to them."""

    def install(name, main):
        module = types.ModuleType(f"repro.experiments.{name}")
        module.main = main
        monkeypatch.setitem(sys.modules, module.__name__, module)

    def broken_main(scale, output_dir):
        print("partial table the figure printed before dying")
        raise ValueError("synthetic figure explosion")

    def healthy_main(scale, output_dir):
        # Figure jobs hand main() the resolved ExperimentScale.
        print(f"healthy figure at {get_scale(scale).name}")

    install("figbroken", broken_main)
    install("fighealthy", healthy_main)
    return ("figbroken", "fighealthy")


class TestSerialFailureReporting:
    """``--jobs 1``: the service runs the figures inline, one by one."""

    def test_failure_surfaces_buffer_and_traceback(
        self, run_all_figures, fake_figures, tmp_path, capsys
    ):
        failed = run_all_figures.run_service(
            fake_figures, "ci", str(tmp_path), 1, None
        )
        captured = capsys.readouterr()
        assert failed == ["figbroken"]
        # The output captured before the crash is not swallowed...
        assert "partial table the figure printed before dying" in captured.out
        assert "figbroken: WorkerCrashError" in captured.out
        # ...and neither is the traceback (on stderr).
        assert "ValueError: synthetic figure explosion" in captured.err
        assert "Traceback" in captured.err

    def test_remaining_figures_still_run(
        self, run_all_figures, fake_figures, tmp_path, capsys
    ):
        run_all_figures.run_service(
            fake_figures, "ci", str(tmp_path), 1, None
        )
        assert (tmp_path / "fighealthy.txt").read_text() == (
            "healthy figure at ci\n"
        )
        assert not (tmp_path / "figbroken.txt").exists()

    def test_healthy_batch_writes_all_texts(
        self, run_all_figures, fake_figures, tmp_path, capsys
    ):
        failed = run_all_figures.run_service(
            ("fighealthy",), "ci", str(tmp_path), 1, None
        )
        assert failed == []
        assert "fighealthy:" in capsys.readouterr().out


class TestMainExitCode:
    def test_nonzero_exit_and_stderr_summary(
        self, run_all_figures, fake_figures, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(run_all_figures, "FIGURES", fake_figures)
        code = run_all_figures.main(["ci", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "1 figure(s) failed: figbroken" in captured.err

    def test_zero_exit_when_all_pass(
        self, run_all_figures, fake_figures, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            run_all_figures, "FIGURES", ("fighealthy",)
        )
        assert run_all_figures.main(["ci", str(tmp_path)]) == 0

    def test_figures_subset_flag_rejects_unknown(
        self, run_all_figures, capsys
    ):
        with pytest.raises(SystemExit):
            run_all_figures.main(["ci", "--figures", "figbogus"])

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_nonpositive_jobs_is_a_usage_error(
        self, run_all_figures, tmp_path, jobs, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            run_all_figures.main(["ci", str(tmp_path), "--jobs", jobs])
        assert excinfo.value.code == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err
