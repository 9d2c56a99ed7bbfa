"""Every module of the package reads each name it imports.

The package root is left out: its imports are its public exports.
"""

import ast
from pathlib import Path

import pytest

import prioclose

PACKAGE = Path(prioclose.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
