"""Lint: every module of the package, the tests and perfbench uses what it imports.

A standard-library AST scan, so it runs wherever the tests run.  Package
``__init__.py`` files only re-export and ``from __future__`` imports bind
no name, so both are skipped.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of each imported name that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for name, line in bound.items() if name not in used]


def test_no_unused_imports():
    paths = sorted(
        [*ROOT.glob("src/chunkvox/*.py"), *ROOT.glob("tests/*.py"), *ROOT.glob("perfbench/*.py")]
    )
    assert len(paths) > 10
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in paths
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert unused == []


def test_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys.path\nfrom a import b as c\n"
    assert unused_imports(source + "sys.exit(c)\n") == [(2, "os")]
