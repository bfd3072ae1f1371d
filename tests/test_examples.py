"""Smoke tests for the runnable examples (the fast ones).

The longer examples (quickstart, graph_workload, capacity_planning) run
the full closed-loop pipeline and are exercised by the benchmark suite's
equivalent figures; here we verify the quick, self-contained scripts
execute cleanly from a fresh interpreter.
"""

import pathlib
import subprocess
import sys

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, timeout: int = 120) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=EXAMPLES.parent,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestFastExamples:
    def test_accounting_walkthrough(self):
        out = run_example("accounting_walkthrough.py")
        assert "Fig. 1 bandwidth stack" in out
        assert "74.00 cycles" in out  # exactness line
        assert "constraints" in out

    def test_offline_trace(self):
        out = run_example("offline_trace.py")
        assert "online vs offline" in out
        assert "DRAMTRACE v1" in out

    def test_examples_all_present(self):
        names = {p.name for p in EXAMPLES.glob("*.py")}
        assert "quickstart.py" in names
        assert len(names) >= 6
