"""Source hygiene checked with the standard library alone, and the traced
memory of a check of fs2."""

import ast
import re
import tracemalloc
from pathlib import Path

import pytest

from doctrines import fixtures
from doctrines.cli import check_report

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


def local_reimports(source: str) -> list[tuple[str, int]]:
    """Relative imports made inside a function from a module that the file
    already imports from at its top, as (module, line)."""
    tree = ast.parse(source)
    top = {node.module for node in tree.body
           if isinstance(node, ast.ImportFrom) and node.level}
    return sorted({(node.module, node.lineno)
                   for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)
                   if isinstance(node, ast.ImportFrom) and node.level
                   and node.module in top})


def test_scan_finds_local_reimport():
    source = ("from .a import x\nfrom .b import y\n\n"
              "def f():\n    from .a import z\n    from .c import w\n"
              "    def g():\n        from .b import v\n    return x, y, z, w, g\n")
    assert local_reimports(source) == [("a", 5), ("b", 8)]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")))
def test_no_local_reimports(path):
    """A module already imported at the top is imported from there."""
    assert local_reimports((SRC / path).read_text()) == []


def name_lookups(source: str) -> list[str]:
    """Each read of a category's name table, `obj_index` or `arr_index`, by
    subscript or by `.get`, as its source text."""
    def is_table(node) -> bool:
        return (isinstance(node, ast.Name) and node.id in ("obj_index", "arr_index")
                or isinstance(node, ast.Attribute) and node.attr in ("obj_index", "arr_index"))

    return [ast.unparse(node) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Subscript) and is_table(node.value)
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get" and is_table(node.func.value)]


def test_scan_finds_name_lookups():
    source = ("def f(C, P, obj_index):\n"
              "    a = C.obj_index['x'] + P.cat.arr_index.get('f', -1)\n"
              "    return a, obj_index[a], C.objects[a], len(C.arr_index)\n")
    assert sorted(name_lookups(source)) == \
        ["C.obj_index['x']", "P.cat.arr_index.get('f', -1)", "obj_index[a]"]


# The one name lookup left outside the parser: the demo names a built-in
# fixture's object.
NAME_LOOKUPS = {"cli.py": ["P2.cat.obj_index['2']"]}


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "fileformat.py"))
def test_names_resolved_only_by_the_parser(path):
    """Everything past the parser holds indices, so no module but the
    parser turns a name back into an index."""
    assert name_lookups((SRC / path).read_text()) == NAME_LOOKUPS.get(path, [])


def definitions(source: str) -> list[tuple[str, int, bool]]:
    """Top-level classes and functions and the methods of top-level
    classes, dunder methods left out, with their lines and whether each is
    a method."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append((node.name, node.lineno, False))
        if isinstance(node, ast.ClassDef):
            out += [(d.name, d.lineno, True) for d in node.body
                    if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (d.name.startswith("__") and d.name.endswith("__"))]
    return out


def names_used(source: str) -> tuple[set[str], set[str]]:
    """The names a module reads or imports, and the names it reads as an
    attribute or spells in a dotted string such as "fincat.product_cone",
    each outside the body of the class, function or method it names.  Plain
    strings do not count: a file-format keyword such as "fiber" is not a
    use of a method of that name."""
    names: set[str] = set()
    attributes: set[str] = set()

    def walk(node, inside: frozenset):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name):
            names.update({node.id} - inside)
        elif isinstance(node, ast.alias):
            names.update({node.name.split(".")[-1]} - inside)
        elif isinstance(node, ast.Attribute):
            attributes.update({node.attr} - inside)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and re.fullmatch(r"\w+(\.\w+)+", node.value):
            attributes.update(set(node.value.split(".")) - inside)
        for child in ast.iter_child_nodes(node):
            walk(child, inside)

    walk(ast.parse(source), frozenset())
    return names, attributes


def unused_definitions(source: str, names: set[str], attributes: set[str]) -> list[tuple[str, int]]:
    """The definitions of `source` that `names_used` sets do not use.  A
    method counts as used only through an attribute or a dotted string: a
    local variable that shares its name, such as `key`, is not a use."""
    return [(name, line) for name, line, method in definitions(source)
            if name not in attributes and (method or name not in names)]


def test_scan_finds_unused_definition():
    source = ("def used():\n    key = 1\n    return key\n\n"
              "def recursive(n):\n    return recursive(n - 1)\n\n"
              "class K:\n    def __repr__(self):\n        return ''\n"
              "    def method(self):\n        return used()\n"
              "    def key(self):\n        return 0\n")
    assert unused_definitions(source, *names_used(source)) == \
        [("recursive", 5), ("K", 8), ("method", 11), ("key", 13)]


def uses_in(paths) -> tuple[set[str], set[str]]:
    """The union of the files' `names_used` sets.  A package's
    `__init__.py` is left out: a re-export names what it exports, and does
    not use it."""
    found = [names_used(p.read_text()) for p in paths if p.name != "__init__.py"]
    return set().union(*(n for n, _ in found)), set().union(*(a for _, a in found))


def test_scan_reports_a_definition_only_reexported(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import exported, used\n")
    (tmp_path / "a.py").write_text("def exported():\n    return 0\n\n"
                                   "def used():\n    return 1\n")
    (tmp_path / "b.py").write_text("from .a import used\n")
    assert unused_definitions((tmp_path / "a.py").read_text(),
                              *uses_in(sorted(tmp_path.glob("*.py")))) == [("exported", 1)]


# Definitions of the package that only the tests name, each with the reason
# it stays in the package.  A new one fails the scan until it is listed here.
TEST_ONLY = {
    "rel_opposite": "the opposite relation, an operation of the allegory whose "
                    "laws the tests check against the oracles",
}


def test_no_unused_definitions():
    """Every class, function and method of the package is used somewhere in
    the package or the benchmark, outside its own definition and the
    package's re-exports, or else used by the tests and listed in
    TEST_ONLY."""
    def used_in(*dirs):
        return uses_in(p for d in dirs for p in sorted((ROOT / d).rglob("*.py")))

    package, tests = used_in("src", "benchmark"), used_in("tests")
    test_only, unused = [], []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        not_in_tests = unused_definitions(source, *tests)
        for name, line in unused_definitions(source, *package):
            test_only.append(name)
            if (name, line) in not_in_tests:
                unused.append(f"{path.name}:{line} {name}")
    assert unused == []
    assert sorted(test_only) == sorted(TEST_ONLY)


def unread_options(source: str) -> dict[str, list[str]]:
    """For each subcommand of an argparse command line, the destinations of
    the options it accepts that its handler never reads as `args.<dest>`.
    A subcommand's options are its own `add_argument` calls and those of a
    helper called on its parser, such as `common(p)`; its handler is the
    function named in its `set_defaults(fn=...)`."""
    tree = ast.parse(source)
    calls = [c for c in ast.walk(tree) if isinstance(c, ast.Call)]
    functions = {f.name: f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)}

    def method_calls(node, method: str, receiver: str) -> list[ast.Call]:
        return [c for c in ast.walk(node) if isinstance(c, ast.Call)
                and isinstance(c.func, ast.Attribute) and c.func.attr == method
                and isinstance(c.func.value, ast.Name) and c.func.value.id == receiver]

    def dests(node, parser: str) -> list[str]:
        out = []
        for c in method_calls(node, "add_argument", parser):
            flags = [a.value for a in c.args]
            name = next((f for f in flags if f.startswith("--")), flags[0])
            out += [k.value.value for k in c.keywords if k.arg == "dest"] \
                or [name.lstrip("-").replace("-", "_")]
        return out

    helpers = {name: dests(f, f.args.args[0].arg)
               for name, f in functions.items() if f.args.args}
    parsers = {node.targets[0].id: node.value.args[0].value for node in ast.walk(tree)
               if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
               and isinstance(node.value.func, ast.Attribute)
               and node.value.func.attr == "add_parser"}
    out = {}
    for var, command in parsers.items():
        accepted = dests(tree, var) + [
            opt for c in calls if isinstance(c.func, ast.Name) and c.func.id in helpers
            and c.args and isinstance(c.args[0], ast.Name) and c.args[0].id == var
            for opt in helpers[c.func.id]]
        (fn,) = [k.value.id for c in method_calls(tree, "set_defaults", var)
                 for k in c.keywords if k.arg == "fn"]
        handler = functions[fn]
        args = handler.args.args[0].arg
        read = {a.attr for a in ast.walk(handler) if isinstance(a, ast.Attribute)
                and isinstance(a.value, ast.Name) and a.value.id == args}
        if unread := sorted(set(accepted) - read):
            out[command] = unread
    return out


def test_scan_finds_unread_options():
    source = ("def cmd_a(args):\n    return args.path, args.cap\n\n"
              "def cmd_b(ns):\n    return ns.path\n\n"
              "def cmd_c(args):\n    return 0\n\n"
              "def main(argv):\n"
              "    def common(p):\n        p.add_argument('path')\n"
              "        p.add_argument('--cap', type=int)\n\n"
              "    p_a = sub.add_parser('a')\n    common(p_a)\n"
              "    p_a.set_defaults(fn=cmd_a)\n"
              "    p_b = sub.add_parser('b')\n    common(p_b)\n"
              "    p_b.add_argument('--out-file')\n"
              "    p_b.add_argument('-k', '--kind')\n"
              "    p_b.add_argument('-s', dest='sort')\n"
              "    p_b.set_defaults(fn=cmd_b)\n"
              "    p_c = sub.add_parser('c')\n    p_c.set_defaults(fn=cmd_c)\n")
    assert unread_options(source) == {"b": ["cap", "kind", "out_file", "sort"]}


def test_every_option_is_read_by_its_handler():
    """A subcommand accepts no option that its handler ignores."""
    assert unread_options((SRC / "cli.py").read_text()) == {}


def table_builds(source: str) -> list[str]:
    """Each direct `FinCat(...)` call and each `np.full` of a square shape,
    `(n, n)` or `n * n`, as "function: call" with the enclosing function's
    dotted name."""
    def square(shape) -> bool:
        sides = (shape.elts if isinstance(shape, ast.Tuple)
                 else [shape.left, shape.right]
                 if isinstance(shape, ast.BinOp) and isinstance(shape.op, ast.Mult) else [])
        return len(sides) == 2 and ast.dump(sides[0]) == ast.dump(sides[1])

    out = []

    def walk(node, where: str):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}".lstrip(".")
        if isinstance(node, ast.Call):
            func = ast.unparse(node.func)
            if func == "FinCat" or func == "np.full" and node.args and square(node.args[0]):
                out.append(f"{where}: {func}")
        for child in ast.iter_child_nodes(node):
            walk(child, where)

    walk(ast.parse(source), "")
    return out


def test_scan_finds_table_builds():
    source = ("class K:\n    @staticmethod\n    def make(n, m):\n"
              "        a = np.full(n * n, -1)\n"
              "        return FinCat(np.full((n, n), -1), np.full((n, m), 0), np.full(n, 0))\n\n"
              "def build(C):\n    def inner(k):\n"
              "        return np.full((C.n_arrows, C.n_arrows), -1)\n"
              "    return FinCat.from_indices(inner(0))\n")
    assert table_builds(source) == ["K.make: np.full", "K.make: FinCat", "K.make: np.full",
                                    "build.inner: np.full"]


# The places that build a category's composition table: the one assembler,
# the full subcategory that slices its parent's table, and the fs2 window
# that fills its table a block at a time.
TABLE_BUILDERS = {"fincat.py": {"FinCat.from_indices", "full_subcategory"},
                  "fixtures.py": {"finset_window"}}


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")))
def test_categories_are_assembled_in_one_place(path):
    """Every other category is built by `FinCat.from_indices`, which sizes
    its table against the cap before allocating it."""
    builders = TABLE_BUILDERS.get(path, set())
    assert [b for b in table_builds((SRC / path).read_text())
            if b.split(":")[0] not in builders] == []


def callers(source: str, callee: str) -> list[str]:
    """The dotted name of the function around each call of `callee`, by
    name or as an attribute, in source order ("" at module level)."""
    out = []

    def walk(node, where: str):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}".lstrip(".")
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == callee:
            out.append(where)
        for child in ast.iter_child_nodes(node):
            walk(child, where)

    walk(ast.parse(source), "")
    return out


def test_scan_finds_callers():
    source = ("x = Cap(1)\n\ndef guard(n):\n    raise Cap(n)\n\n"
              "class K:\n    def f(self):\n        return errors.Cap(2), CapX(3)\n")
    assert callers(source, "Cap") == ["", "guard", "K.f"]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")))
def test_resource_caps_raised_only_by_guard(path):
    """Every size is compared with its cap by `errors.guard`, the one place
    that builds a ResourceCap."""
    assert callers((SRC / path).read_text(), "ResourceCap") == \
        (["guard"] if path == "errors.py" else [])


def attributes_set(source: str, cls: str, method: str) -> set[str]:
    """The attributes of `self` that a method of a top-level class assigns."""
    (fn,) = [d for node in ast.parse(source).body
             if isinstance(node, ast.ClassDef) and node.name == cls
             for d in node.body if isinstance(d, ast.FunctionDef) and d.name == method]
    targets = [t for node in ast.walk(fn)
               for t in (node.targets if isinstance(node, ast.Assign)
                         else [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign))
                         else [])]
    while any(isinstance(t, (ast.Tuple, ast.List)) for t in targets):
        targets = [e for t in targets
                   for e in (t.elts if isinstance(t, (ast.Tuple, ast.List)) else [t])]
    return {t.attr for t in targets if isinstance(t, ast.Attribute)
            and isinstance(t.value, ast.Name) and t.value.id == "self"}


def test_scan_finds_attributes_set():
    source = ("class K:\n    def reset(self, t):\n        self.a = self.b = 0\n"
              "        self.c: int = 1\n        self.d += 1\n        t.flags.w = False\n"
              "        self.e[0] = 2\n        x, self.f = 1, 2\n"
              "    def other(self):\n        self.g = 3\n")
    assert attributes_set(source, "K", "reset") == {"a", "b", "c", "d", "f"}


def test_category_keeps_derived_data_in_one_store():
    """Besides the hom, into and out-of tables of the inner loops, a
    category keeps what it derives only in the store read by `kept`."""
    assert attributes_set((SRC / "fincat.py").read_text(), "FinCat", "_derive") == \
        {"_hom", "_into", "_outof", "_kept"}


def running_totals(source: str) -> list[str]:
    """Each `guard(...)` call whose size is a name that an augmented
    assignment changes in the same function, as `function:name`."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        changed = {node.target.id for node in ast.walk(fn)
                   if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name)}
        out += [f"{fn.name}:{node.args[1].id}" for node in ast.walk(fn)
                if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "guard"
                and len(node.args) > 1 and isinstance(node.args[1], ast.Name)
                and node.args[1].id in changed]
    return out


def test_scan_finds_running_totals():
    source = ("def f(xs, cap):\n    total = 1\n    for x in xs:\n        total *= x\n"
              "        guard('a', total, cap)\n    n = len(xs)\n    guard('b', n, cap)\n\n"
              "def g(xs, cap):\n    size = sum(xs)\n    errors.guard('c', size, cap)\n"
              "    size += 1\n")
    assert running_totals(source) == ["f:total", "g:size"]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")))
def test_caps_compare_full_sizes(path):
    """A cap carries the full size of the work it stops: no guard is
    handed a total that grows as the work goes."""
    assert running_totals((SRC / path).read_text()) == []


def module_memos(source: str) -> list[str]:
    """Module-level memos: `functools.cache` or `lru_cache` applied at
    module scope (as a decorator of a top-level function or method, or in
    a module-level assignment), and each module-global dict written inside
    a function, by item assignment or by a method that changes it."""
    tree = ast.parse(source)

    def is_cache(node) -> bool:
        node = node.func if isinstance(node, ast.Call) else node
        return ast.unparse(node).split(".")[-1] in ("cache", "lru_cache")

    top = [d for node in tree.body
           for d in (node.body if isinstance(node, ast.ClassDef) else [node])
           if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))]
    out = [f"@{ast.unparse(dec)} {d.name}" for d in top for dec in d.decorator_list
           if is_cache(dec)]
    dicts = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            names = [t.id for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
                     if isinstance(t, ast.Name)]
            if isinstance(node.value, ast.Call) and is_cache(node.value):
                out += [f"{name} = {ast.unparse(node.value.func)}(...)" for name in names]
            elif isinstance(node.value, (ast.Dict, ast.DictComp)) or \
                    isinstance(node.value, ast.Call) and ast.unparse(node.value.func) == "dict":
                dicts.update(names)
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, ast.AugAssign) else []
            written = [t.value.id for t in targets if isinstance(t, ast.Subscript)
                       and isinstance(t.value, ast.Name)]
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.attr in ("setdefault", "update", "__setitem__"):
                written.append(node.func.value.id)
            out += [f"{fn.name}: {name}" for name in written if name in dicts]
    return sorted(set(out))


def test_scan_finds_module_memos():
    source = ("import functools\nfrom functools import lru_cache\n\n"
              "TABLE = {'a': 1}\n_MEMO: dict = {}\nSEEN = dict()\n"
              "squares = functools.cache(lambda n: n * n)\n\n"
              "@functools.cache\ndef f(n):\n    return n\n\n"
              "class K:\n    @lru_cache(maxsize=None)\n    def g(self):\n"
              "        local = {}\n        local['x'] = 1\n        return TABLE['a']\n\n"
              "def h(n):\n    inner = functools.cache(abs)\n    _MEMO[n] = inner(n)\n"
              "    SEEN.setdefault(n, 0)\n    return _MEMO\n")
    assert module_memos(source) == ["@functools.cache f", "@lru_cache(maxsize=None) g",
                                    "h: SEEN", "h: _MEMO", "squares = functools.cache(...)"]


# The one module-level memo: the built-in fs2 fixture, which the commands,
# the tests and the benchmark read many times, is built once per process;
# the benchmark clears it by name to time a fresh build.
MODULE_MEMOS = {"fixtures.py": ["fs2: _FS2_CACHE", "fs2_base: _FS2_CACHE"]}


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")))
def test_no_module_level_memos(path):
    """What the package derives is kept on the object it is derived from,
    and freed with it, not in a module-level table."""
    assert module_memos((SRC / path).read_text()) == MODULE_MEMOS.get(path, [])


# the functions that may write a store: its reader and the code that starts one
STORE_WRITERS = {"kept", "_derive", "__post_init__", "__setstate__"}


def store_writes(source: str) -> list[str]:
    """Each write of a `_kept` store outside the functions that may write
    one, as "function: statement": an assignment to the attribute or to an
    item of it, or a call of a method that changes it."""
    def is_store(node) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "_kept"

    out = []

    def walk(node, where: str):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else []
        written = any(is_store(t) or isinstance(t, ast.Subscript) and is_store(t.value)
                      for t in targets) or \
            isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and is_store(node.func.value) and node.func.attr in (
                "setdefault", "update", "pop", "popitem", "clear", "__setitem__")
        if written and where not in STORE_WRITERS:
            out.append(f"{where}: {ast.unparse(node)}")
        for child in ast.iter_child_nodes(node):
            walk(child, where)

    walk(ast.parse(source), "")
    return out


def test_scan_finds_store_writes():
    source = ("class K:\n    def _derive(self):\n        self._kept = {}\n"
              "    def kept(self, key, derive):\n        self._kept[key] = derive()\n"
              "    def other(self, P):\n        P._kept[1] = 2\n        P._kept.clear()\n"
              "        return P._kept.get(1)\n\n"
              "def inject(P):\n    P._kept.update({})\n    P._kept: dict = {}\n")
    assert store_writes(source) == ["other: P._kept[1] = 2", "other: P._kept.clear()",
                                    "inject: P._kept.update({})", "inject: P._kept: dict = {}"]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")))
def test_stores_are_written_only_by_their_reader(path):
    """A store is written only by `kept` and by the code that starts it, so
    nothing outside a derivation can put a value in it."""
    assert store_writes((SRC / path).read_text()) == []


# the strings that mark a check a hypothesis or withdraw its claim
CLAIM_MARKERS = {"hypothesis-", "context", "claimed"}


def claim_marker_reads(source: str) -> list[str]:
    """Each read of a claim marker, as its source text: a comparison with
    it, a string method or a `.get` called with it, or a subscript by it.
    Writing one (a dict literal, `setdefault`) is no read."""
    def marker(node) -> bool:
        return isinstance(node, ast.Constant) and node.value in CLAIM_MARKERS

    return [ast.unparse(node) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Compare) and any(map(marker, [node.left, *node.comparators]))
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("get", "pop", "startswith", "endswith", "removeprefix")
            and any(map(marker, node.args))
            or isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
            and marker(node.slice)]


def test_scan_finds_claim_marker_reads():
    source = ("def f(c, rep):\n"
              "    c.data.setdefault('claimed', False)\n"
              "    rep.add(Check('x', 'pass', data={'context': 'hypothesis'}))\n"
              "    a = c.name.startswith('hypothesis-') or c.data.get('context') == 'hypothesis'\n"
              "    b = 'claimed' in c.data and c.data['claimed']\n"
              "    return c.name.removeprefix('hypothesis-'), c.data.get('reason')\n")
    assert sorted(claim_marker_reads(source)) == [
        "'claimed' in c.data", "c.data.get('context')", "c.data['claimed']",
        "c.name.removeprefix('hypothesis-')", "c.name.startswith('hypothesis-')"]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py") if p.name != "report.py"))
def test_claims_are_read_only_by_the_report(path):
    """Which checks are hypotheses and which are claimed is decided in one
    place, `Report.classified`; every other module reads its kinds or the
    state `Report.state` makes of them."""
    assert claim_marker_reads((SRC / path).read_text()) == []


def literal_block_sizes(source: str) -> list[str]:
    """Each block step written with a literal size of 2^10 or more (`1 << k`
    or a number): the step of a `range` call, or the value of a name that
    says step, chunk or block, as `function:range`, `function:name` or, at
    module level, `name`."""
    def literal(node) -> bool:
        return any((isinstance(n, ast.BinOp) and isinstance(n.op, ast.LShift)
                    and isinstance(n.left, ast.Constant) and n.left.value == 1
                    and isinstance(n.right, ast.Constant) and 10 <= n.right.value < 30)
                   or (isinstance(n, ast.Constant) and type(n.value) is int and n.value >= 1 << 10)
                   for n in ast.walk(node))

    out = []

    def walk(node, where: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, f"{child.name}:")
                continue
            if (isinstance(child, ast.Call) and ast.unparse(child.func) == "range"
                    and len(child.args) == 3 and literal(child.args[2])):
                out.append(f"{where}range")
            if isinstance(child, ast.Assign) and literal(child.value):
                out.extend(f"{where}{n.id}" for t in child.targets for n in ast.walk(t)
                           if isinstance(n, ast.Name) and re.search("step|chunk|block", n.id, re.I))
            walk(child, where)

    walk(ast.parse(source), "")
    return out


def test_scan_finds_literal_block_sizes():
    source = ("STEP = 1 << 16\nBLOCK_BYTES = 1 << 19\nCAP = 1 << 20\n\n"
              "def f(n):\n    chunk = max(1, (1 << 22) // n)\n    step = block_rows(n)\n"
              "    for lo in range(0, n, 1 << 14):\n        pass\n"
              "    for lo in range(0, n, 4096):\n        pass\n"
              "    width, blocks = 1 << 12, [1 << 8]\n"
              "    def g(m):\n        out, step = [], 65536 // m\n        return out, step\n"
              "    return range(0, n, step), g\n")
    assert literal_block_sizes(source) == ["STEP", "BLOCK_BYTES", "f:chunk", "f:range",
                                           "f:range", "f:blocks", "g:step"]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")))
def test_blocks_are_sized_by_the_one_budget(path):
    """Every blocked kernel takes its step from `fincat.block_rows`; the
    budget constant is the one literal block size."""
    assert literal_block_sizes((SRC / path).read_text()) == \
        (["BLOCK_BYTES"] if path == "fincat.py" else [])


# tracemalloc's peak for a fresh fs2 built and checked: 10.0 MB in blocks of
# BLOCK_BYTES, 17.1 MB with the former whole-table temporaries
CHECK_FS2_TRACED_PEAK = 10.0 * 2**20


def test_checking_a_fresh_fs2_keeps_its_traced_peak(monkeypatch):
    """An n² temporary that comes back into the law checks, or into building
    fs2, fails here: the traced peak stays within 25% of its pinned value."""
    monkeypatch.setattr(fixtures, "_FS2_CACHE", {})
    tracemalloc.start()
    try:
        _, ok = check_report(fixtures.fs2())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok and peak <= 1.25 * CHECK_FS2_TRACED_PEAK
