"""Lint: every module of the package, the tests and perfbench uses what it
imports, no package module imports another's private names, and no package
dataclass wraps a single field.

A standard-library AST scan, so it runs wherever the tests run.  Package
``__init__.py`` files only re-export and ``from __future__`` imports bind
no name, so both are skipped.  Tests may import private names.
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


def private_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of each ``_``-prefixed name imported from chunkvox or
    from a relative module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "chunkvox"
        ):
            found += [(node.lineno, a.name) for a in node.names if a.name.startswith("_")]
    return found


def test_no_private_cross_module_imports():
    paths = sorted(ROOT.glob("src/chunkvox/*.py"))
    assert len(paths) > 5
    private = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in paths
        for line, name in private_imports(path.read_text(encoding="utf-8"))
    ]
    assert private == []


def test_scan_finds_a_private_import():
    source = (
        "from __future__ import annotations\nfrom os import _exit\n"
        "from .convs import ConvSpec, _conv_valid\nfrom chunkvox.decoder import _mha\n"
        "from . import _x\n"
    )
    assert private_imports(source) == [(3, "_conv_valid"), (4, "_mha"), (5, "_x")]


def single_field_dataclasses(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of each ``@dataclass`` class with exactly one field."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        names = {d.id if isinstance(d, ast.Name) else getattr(d, "attr", None) for d in decorators}
        fields = [stmt for stmt in node.body if isinstance(stmt, ast.AnnAssign)]
        if "dataclass" in names and len(fields) == 1:
            found.append((node.lineno, node.name))
    return found


def test_no_single_field_dataclasses():
    """A dataclass of one field only wraps a value its callers can hold."""
    paths = sorted(ROOT.glob("src/chunkvox/*.py"))
    assert len(paths) > 5
    wrappers = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in paths
        for line, name in single_field_dataclasses(path.read_text(encoding="utf-8"))
    ]
    assert wrappers == []


def test_scan_finds_a_single_field_dataclass():
    source = (
        "import dataclasses\nfrom dataclasses import dataclass\n"
        "@dataclass\nclass A:\n    x: int\n"
        "@dataclasses.dataclass(frozen=True)\nclass B:\n    \"\"\"Doc.\"\"\"\n    y: int = 0\n"
        "@dataclass\nclass Pair:\n    x: int\n    y: int\n"
        "class Plain:\n    x: int\n"
    )
    assert single_field_dataclasses(source) == [(4, "A"), (7, "B")]
