"""Every module of the package reads each name it imports, and every
private module-level function or class is used outside its definition.

The package root is left out of the import check: its imports are its
public exports.
"""

import ast
from pathlib import Path

import pytest

import prioclose

PACKAGE = Path(prioclose.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
PRIVATE_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read in the module."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"
                ):
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_an_unused_import():
    source = "from typing import Iterable, Sequence\n\ndef f(x: Iterable) -> None: ...\n"
    assert unused_imports(source) == ["Sequence (line 1)"]


def referenced_names(node: ast.AST) -> set[str]:
    """Names that ``node`` reads, as a bare name, an attribute or an import."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.split(".")[-1])
    return names


def unreferenced_private_defs(sources: dict[str, str]) -> list[str]:
    """Module-level functions and classes named with a leading underscore
    that no other top-level statement of any of the modules mentions."""
    defs = []
    mentions: list[tuple[str, int, set[str]]] = []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            mentions.append((module, stmt.lineno, referenced_names(stmt)))
            if isinstance(stmt, PRIVATE_DEFS) and stmt.name.startswith("_"):
                defs.append((module, stmt.lineno, stmt.name))
    return sorted(
        f"{module}.{name} (line {line})"
        for module, line, name in defs
        if not any(
            name in names
            for other, other_line, names in mentions
            if (other, other_line) != (module, line)
        )
    )


def test_every_private_helper_is_used():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_defs(sources) == []


def test_scan_finds_an_unused_helper():
    sources = {
        "a": "def _used():\n    return 1\n\ndef _dead():\n    return _dead()\n",
        "b": "from .a import _used\n\nclass _Kept:\n    pass\n\nx = _Kept()\n",
    }
    assert unreferenced_private_defs(sources) == ["a._dead (line 4)"]
