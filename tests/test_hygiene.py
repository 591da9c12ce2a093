"""Source hygiene checked with the standard library alone."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "doctrines"


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


def definitions(source: str) -> list[tuple[str, int]]:
    """Top-level functions and the methods of top-level classes, dunder
    methods left out, with their lines."""
    out = []
    for node in ast.parse(source).body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        out += [(d.name, d.lineno) for d in body
                if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (d.name.startswith("__") and d.name.endswith("__"))]
    return out


def names_used(source: str) -> set[str]:
    """Every name a module reads or imports, or spells in a dotted string
    such as "fincat.product_cone", outside the body of the function or
    method it names.  Plain strings do not count: a file-format keyword
    such as "fiber" is not a use of a method of that name."""
    used: set[str] = set()

    def walk(node, inside: frozenset):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name):
            found = [node.id]
        elif isinstance(node, ast.Attribute):
            found = [node.attr]
        elif isinstance(node, ast.alias):
            found = [node.name.split(".")[-1]]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and re.fullmatch(r"\w+(\.\w+)+", node.value):
            found = node.value.split(".")
        else:
            found = []
        used.update(name for name in found if name not in inside)
        for child in ast.iter_child_nodes(node):
            walk(child, inside)

    walk(ast.parse(source), frozenset())
    return used


def test_scan_finds_unused_definition():
    source = ("def used():\n    return 1\n\n"
              "def recursive(n):\n    return recursive(n - 1)\n\n"
              "class K:\n    def __repr__(self):\n        return ''\n"
              "    def method(self):\n        return used()\n")
    unused = [(name, line) for name, line in definitions(source)
              if name not in names_used(source)]
    assert unused == [("recursive", 4), ("method", 10)]


# Definitions of the package that only the tests name, each with the reason
# it stays in the package.  A new one fails the scan until it is listed here.
TEST_ONLY = {
    "weak_subobject_poset": "the weak-subobject fiber of one object, compared "
                            "with the subobject fiber on exact bases",
    "psi_postcompose_exists": "the weak-subobject existential in closed form, "
                              "checked against the computed left adjoint",
    "doctrine_equal": "structural equality of presentations, the file-format "
                      "round-trip check",
    "v_poset": "fixture without a binary product, for the exactness verdict",
    "nofact_category": "fixture without image factorizations, for the exactness verdict",
    "noext": "fixture without a smallest transitive extension, for its error path",
    "is_monotone": "the monotonicity test of a map, which the adjoint-search "
                   "tests need before they ask for an adjoint",
    "homomorphism_violation": "names the first top or meet failure of a map",
    "check_adjunction": "unit and counit test of an adjoint pair",
}


def test_no_unused_definitions():
    """Every function and method of the package is named somewhere in the
    package or the benchmark, outside its own definition, or else named by
    the tests and listed in TEST_ONLY."""
    def used_in(*dirs):
        files = [p for d in dirs for p in sorted((ROOT / d).rglob("*.py"))]
        return set().union(*(names_used(p.read_text()) for p in files))

    package, tests = used_in("src", "benchmark"), used_in("tests")
    outside = [(f"{path.name}:{line}", name) for path in sorted(SRC.glob("*.py"))
               for name, line in definitions(path.read_text()) if name not in package]
    assert [f"{where} {name}" for where, name in outside if name not in tests] == []
    assert sorted(name for _, name in outside) == sorted(TEST_ONLY)
