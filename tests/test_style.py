"""Every line of the linted trees fits ``[tool.ruff] line-length``.

``scripts/ci_check.sh`` runs ruff only where it is installed; this
test holds its line-length rule (E501) in tier-1 everywhere.
"""

from __future__ import annotations

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
#: The trees ``ruff check`` covers in ``scripts/ci_check.sh``.
TREES = ("src", "tests", "scripts")


def test_lines_fit_ruff_line_length():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        limit = tomllib.load(handle)["tool"]["ruff"]["line-length"]
    too_long = [
        f"{path.relative_to(ROOT)}:{number}: {len(line)} characters"
        for tree in TREES
        for path in sorted((ROOT / tree).rglob("*.py"))
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1
        )
        if len(line) > limit
    ]
    assert not too_long, (
        f"{len(too_long)} lines longer than {limit}:\n" + "\n".join(too_long)
    )
