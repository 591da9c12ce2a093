"""Source hygiene checked with the standard library alone."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "doctrines"


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in read]


def test_scan_finds_unused_import():
    assert unused_imports("import os\nfrom x import a, b\nprint(b)\n") == \
        ["a (line 2)", "os (line 1)"]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"))
def test_no_unused_imports(path):
    """`__init__.py` is left out: its imports are the package's re-exports."""
    assert unused_imports((SRC / path).read_text()) == []
