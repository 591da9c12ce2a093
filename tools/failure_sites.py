"""List the failure sites of the package and whether the test suite runs them.

A failure site is a statement of `src/doctrines/*.py` that returns
`ValidationReport(False, ...)`, `CheckVerdict(False, ...)` or
`StructureFailure(...)`, that raises a subclass of `DoctrinesError`, or
that builds a harness `Check(..., FAIL, ...)`; a call `_status(...)` is a
site too, as it turns a harness verdict into PASS or FAIL, and so is a
call `guard(...)`, which refuses a size beyond its resource cap.  The sites
are found with `ast`; the suite then runs in this process under
`sys.settrace`, with line events turned on only in the functions that hold
a site.  A `_status` site counts as run when `_status` is called from its
line with a false argument, and a `guard` site when `guard` raises from
its line.  Tests that start the command line in a subprocess are not
traced, so a site reached only that way is listed as never run.

    PYTHONPATH=src python tools/failure_sites.py [PYTEST ARGS...]

Each site prints as `module:line  kind  run|never`, followed by the totals
per module.  The pytest arguments default to `-q -p no:cacheprovider`.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "doctrines"
VERDICTS = ("ValidationReport", "CheckVerdict")
STATUS = "_status"
GUARD = "guard"


def error_classes() -> set[str]:
    """DoctrinesError and the classes of errors.py derived from it."""
    tree = ast.parse((SRC / "errors.py").read_text())
    found = {"DoctrinesError"}
    grew = True
    while grew:
        grew = False
        for node in tree.body:
            if (isinstance(node, ast.ClassDef) and node.name not in found
                    and any(isinstance(b, ast.Name) and b.id in found for b in node.bases)):
                found.add(node.name)
                grew = True
    return found


def _called(node) -> str | None:
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _kind(node, errors: set[str]) -> str | None:
    if isinstance(node, ast.Call):
        name = _called(node)
        if name in (STATUS, GUARD):
            return name
        if (name == "Check" and len(node.args) > 1
                and isinstance(node.args[1], ast.Name) and node.args[1].id == "FAIL"):
            return "Check(FAIL)"
    if isinstance(node, ast.Raise):
        name = _called(node.exc) or (node.exc.id if isinstance(node.exc, ast.Name) else None)
        return f"raise {name}" if name in errors else None
    if isinstance(node, ast.Return):
        name = _called(node.value)
        if name == "StructureFailure":
            return name
        if (name in VERDICTS and node.value.args
                and isinstance(node.value.args[0], ast.Constant) and node.value.args[0].value is False):
            return f"{name}(False)"
    return None


def failure_sites() -> list[tuple[Path, int, int, str]]:
    """(file, line, first line of the enclosing function, kind) per site."""
    errors = error_classes()
    sites = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [n for n in ast.walk(tree)
                     if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            kind = _kind(node, errors)
            if kind is None:
                continue
            # the innermost function around the site runs it; its code object's
            # first line is that of its first decorator, if it has one
            around = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
            first = max((min([f.lineno] + [d.lineno for d in f.decorator_list])
                         for f in around), default=0)
            sites.append((path, node.lineno, first, kind))
    return sorted(sites, key=lambda s: (s[0].name, s[1]))


def run_suite(sites, pytest_args: list[str]) -> set[tuple[str, int]]:
    """Run pytest in this process; return the (file, line) sites executed."""
    import pytest

    lines = [(str(p), line, first) for p, line, first, kind in sites
             if kind not in (STATUS, GUARD)]
    wanted = {(p, line) for p, line, _ in lines}
    holders = {(p, first) for p, _, first in lines}
    calls = {kind: {(str(p), line) for p, line, _, k in sites if k == kind}
             for kind in (STATUS, GUARD)}
    hit: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line" and (frame.f_code.co_filename, frame.f_lineno) in wanted:
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def raised_at(site):
        """Line events as `local`, and the call site once `guard` raises."""
        def trace(frame, event, arg):
            local(frame, event, arg)
            if event == "exception":
                hit.add(site)
            return trace
        return trace

    def global_(frame, event, arg):
        code = frame.f_code
        if code.co_name in calls and code.co_filename.startswith(str(SRC)):
            caller = frame.f_back
            site = (caller.f_code.co_filename, caller.f_lineno)
            if code.co_name == GUARD:
                return raised_at(site) if site in calls[GUARD] else local
            if site in calls[STATUS] and not frame.f_locals[code.co_varnames[0]]:
                hit.add(site)
            return None
        return local if (code.co_filename, code.co_firstlineno) in holders else None

    sys.settrace(global_)
    threading.settrace(global_)
    try:
        pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return hit


def main(argv: list[str]) -> int:
    sites = failure_sites()
    hit = run_suite(sites, argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    per_module: Counter = Counter()
    never_per_module: Counter = Counter()
    print()
    for path, line, _, kind in sites:
        ran = (str(path), line) in hit
        per_module[path.stem] += 1
        never_per_module[path.stem] += not ran
        print(f"{path.stem}:{line}  {kind}  {'run' if ran else 'never'}")
    never = sum(never_per_module.values())
    print(f"\n{len(sites)} failure sites, {never} never run in-process")
    for module in sorted(per_module):
        print(f"  {module}: {per_module[module]} sites, {never_per_module[module]} never run")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
