"""The linted trees keep two of ruff's rules: E501 and F401.

Every line fits ``[tool.ruff] line-length`` (E501), and every imported
name is used (F401). ``scripts/ci_check.sh`` runs ruff only where it is
installed; these tests hold both rules in tier-1 everywhere.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
#: The trees ``ruff check`` covers in ``scripts/ci_check.sh``.
TREES = ("src", "tests", "scripts")


def _python_files():
    for tree in TREES:
        yield from sorted((ROOT / tree).rglob("*.py"))


def test_lines_fit_ruff_line_length():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        limit = tomllib.load(handle)["tool"]["ruff"]["line-length"]
    too_long = [
        f"{path.relative_to(ROOT)}:{number}: {len(line)} characters"
        for path in _python_files()
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1
        )
        if len(line) > limit
    ]
    assert not too_long, (
        f"{len(too_long)} lines longer than {limit}:\n" + "\n".join(too_long)
    )


def _used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, string annotations included."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value))
    return used


def _exported_names(tree: ast.Module) -> set[str]:
    """The names a module-level ``__all__`` lists."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _unused_imports(path: Path) -> list[str]:
    """``path:line: name`` for each imported name the module never uses.

    A name listed in ``__all__`` or imported on a line that carries
    ``# noqa: F401`` counts as used.
    """
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    used = _used_names(tree) | _exported_names(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name in used or name == "*" or any(
                "noqa: F401" in lines[number - 1]
                for number in (node.lineno, alias.lineno)
            ):
                continue
            unused.append(
                f"{path.relative_to(ROOT)}:{alias.lineno}: {name}"
            )
    return unused


def test_every_import_is_used():
    """F401 outside package ``__init__.py`` files, which re-export."""
    unused = [
        entry
        for path in _python_files()
        if path.name != "__init__.py"
        for entry in _unused_imports(path)
    ]
    assert not unused, (
        f"{len(unused)} unused imports:\n" + "\n".join(unused)
    )
