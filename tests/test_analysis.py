"""The store of a doctrine: every reader, the analysis, the harnesses and a
direct call of a public construction, gets the same verdicts, each part is
derived once per doctrine, and no report can change what is kept."""

import copy
import dataclasses
import gc
import pickle
import sys
import threading
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from doctrines import cli, compare, completions, fincat, fixtures
from doctrines.cli import check_report, main
from doctrines.compare import (analysis, eed_checks, verify_axc, verify_converse_axc,
                               verify_cthn, verify_fulc, verify_universal)
from doctrines.completions import Caps, build_erp, build_gr, build_qp, build_tp, functor_L
from doctrines.doctrine import DoctrineData, exists_along, sub_doctrine, validate_doctrine
from doctrines.errors import MalformedPresentation, ResourceCap
from doctrines.fileformat import emit_doctrine
from doctrines.fincat import WindowScope
from doctrines.report import FAIL, PASS, Check
from doctrines.semilattice import MonotoneMap, left_adjoints
from doctrines.structure import (ElementaryWitness, ExistentialWitness, check_rule_of_choice,
                                 comprehension_table, discover_elementary,
                                 discover_existential)

GOLDEN = Path(__file__).parent / "data" / "golden"
HARNESSES = (verify_cthn, verify_fulc, verify_axc, verify_converse_axc)


def _count_calls(monkeypatch, name):
    """Count the calls of `name` through the bindings `compare` and `cli`
    hold, keyed by the id of the first argument."""
    calls = Counter()
    for mod in (compare, cli):
        original = getattr(mod, name, None)
        if original is None:
            continue

        def counted(first, *args, _original=original, **kwargs):
            calls[id(first)] += 1
            return _original(first, *args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    return calls


def _count_derived(monkeypatch):
    """Count what each doctrine derives into its store and keeps, by (id of
    the doctrine, key); a derivation that raises keeps nothing and is not
    counted."""
    derived = Counter()
    kept = DoctrineData.kept

    def counted(self, key, derive):
        def counting():
            value = derive()
            derived[id(self), key] += 1
            return value
        return kept(self, key, counting)
    monkeypatch.setattr(DoctrineData, "kept", counted)
    return derived


def test_check_file_validates_each_law_once(tmp_path, monkeypatch, capsys):
    tp = analysis(fixtures.fs2()).tp()
    path = tmp_path / "fs2-tp.dtn"
    path.write_text(emit_doctrine(sub_doctrine(tp.cat, tp.pc, WindowScope(tp.scope.core))))
    category = _count_calls(monkeypatch, "validate_category")
    products = _count_calls(monkeypatch, "validate_products")
    assert main(["check", str(path)]) in (0, 1)
    assert "category-laws" in capsys.readouterr().out
    assert sum(category.values()) == 1
    assert sum(products.values()) == 1


def _calls_of(fn, run) -> int:
    """How often `fn` runs while `run()` does, through any binding."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is fn.__code__:
            calls.append(frame.f_code)
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return len(calls)


def test_building_and_checking_fs2_validates_its_products_once(monkeypatch, capsys):
    """The fixture builder leaves the verdict to the analysis, and the
    Window derives the pairing table without validating."""
    monkeypatch.setattr(fixtures, "_FS2_CACHE", {})
    assert _calls_of(fincat.validate_products, lambda: main(["check", "fs2"])) == 1
    assert "chosen-products" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["triv", "chain", "fs2"])
def test_completions_do_not_validate_products(name):
    """The completions' chosen products are searched (tp, er, qp) or carried
    by a lemma (gr), and their pairing tables come from the Window."""
    P = fixtures.BUILTIN_FIXTURES[name]()
    _, E, X = analysis(P).eed()
    builds = [lambda: build_tp(P, E, X), lambda: build_erp(P, E, build_tp(P, E, X)),
              lambda: build_qp(P, E, X)]
    if name != "fs2":                 # fs2's points category is over the arrow cap
        builds.append(lambda: build_gr(P))
    for build in builds:
        assert _calls_of(fincat.validate_products, build) == 0


def test_demo_builds_each_relation_completion_once(monkeypatch, capsys):
    """`demo` asks for each relation completion more than once (its line,
    the harnesses, the universal property), and builds each once."""
    monkeypatch.setattr(fixtures, "_FS2_CACHE", {})
    asked = _count_calls(monkeypatch, "build_tp")
    derived = _count_derived(monkeypatch)
    assert main(["demo"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "demo.txt").read_text()
    builds = [n for (_, key), n in derived.items() if key[0] == "tp"]
    assert len(builds) == 3 and max(builds) == 1
    assert sum(asked.values()) > sum(builds)


def test_demo_decides_exactness_once_per_completion(monkeypatch, capsys):
    """`demo` prints the exactness of each relation completion and checks it
    again as the universal property's hypothesis; the verdict kept on the
    category serves the second read."""
    decided = Counter()
    kept = []
    original = fincat._exactness_verdict

    def counted(C, core):
        kept.append(C)
        decided[(id(C), core)] += 1
        return original(C, core)
    monkeypatch.setattr(fincat, "_exactness_verdict", counted)
    asked = _count_calls(monkeypatch, "check_exact")
    assert main(["demo"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "demo.txt").read_text()
    assert decided and max(decided.values()) == 1
    assert sum(asked.values()) > sum(decided.values())


def test_caps_share_the_parts_no_cap_reaches(monkeypatch, capsys):
    """Under a cap other than the default, `complete` reads the eed verdict
    that `check_report` kept: the doctrine laws and structure are decided
    once per doctrine, only the completions once per cap."""
    monkeypatch.setattr(fixtures, "_FS2_CACHE", {})
    derived = _count_derived(monkeypatch)
    assert main(["complete", "fs2", "--kind", "tp", "--cap-enum", "2000000"]) == 0
    assert capsys.readouterr().out.startswith("complete --kind tp\n")
    assert [n for (_, key), n in derived.items() if key == ("eed",)] == [1]
    assert [key[:2] for (_, key) in derived if key[0] == "tp"] == [("tp", 2000000)]


@pytest.mark.parametrize("name", ["triv", "chain", "nochoice"])
def test_reports_same_cold_and_warm(name):
    make = fixtures.BUILTIN_FIXTURES[name]
    cold = [h(make()).to_json() for h in HARNESSES]
    P = make()
    check_report(P)
    for h in HARNESSES:
        h(P)
    assert [h(P).to_json() for h in HARNESSES] == cold


def test_reports_never_change_kept_checks():
    """nochoice is not elementary existential, so verify_cthn marks every
    check it reports unclaimed, the points doctrine's eed tree included;
    the trees the analyses keep stay unmarked."""
    P = fixtures.nochoice()
    before = check_report(P)[0].to_json()
    rep = verify_cthn(P)
    eed = next(c for c in rep.checks if c.name == "eed")
    assert all(c.data.get("claimed") is False for c in eed.walk())
    hat = analysis(P).gr().doctrine
    for doctrine in (P, hat):
        tree, _, _ = analysis(doctrine).eed()
        assert all("claimed" not in c.data for c in tree.walk())
    assert check_report(P)[0].to_json() == before


def test_errors_are_not_kept(monkeypatch):
    """A part whose derivation raises is derived again on the next read,
    which raises the same error; the store keeps nothing under its key."""
    tried, per_objects = [], completions.per_objects
    monkeypatch.setattr(completions, "per_objects", lambda P: tried.append(P) or per_objects(P))
    P = fixtures.chain_fixture()
    with pytest.raises(ResourceCap) as first:
        analysis(P, Caps(enum=1)).tp()
    with pytest.raises(ResourceCap) as again:
        analysis(P, Caps(enum=1)).er()
    assert again.value is not first.value
    assert (str(again.value), again.value.size, again.value.cap) == \
        (str(first.value), first.value.size, first.value.cap)
    assert len(tried) == 2 and not [key for key in P._kept if key[0] in ("tp", "er")]
    analysis(P).tp()
    assert [key[:2] for key in P._kept if key[0] == "tp"] == [("tp", Caps().enum)]


@pytest.mark.parametrize("part", ["tp", "er", "L", "rule_of_choice", "qp"])
def test_parts_need_the_discovered_structure(part):
    """mixedfail has no elementary structure: every part built on it raises
    an error that names the failed discovery, on every read."""
    an = analysis(fixtures.mixedfail())
    assert an.eed()[1] is None
    with pytest.raises(MalformedPresentation) as first:
        getattr(an, part)()
    with pytest.raises(MalformedPresentation) as again:
        getattr(an, part)()
    assert "needs the elementary structure, whose discovery failed" in str(first.value)
    assert again.value is not first.value and str(again.value) == str(first.value)


@pytest.mark.parametrize("name", ["chain", "nochoice"])
def test_analysis_is_freed_with_its_doctrine(name):
    """Nothing the store keeps refers back to the doctrine, so dropping the
    doctrine frees it without waiting for the cycle collector."""
    P = fixtures.BUILTIN_FIXTURES[name]()
    for h in HARNESSES:
        h(P)
    gone = weakref.ref(P)
    gc.disable()
    try:
        del P
        assert gone() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# the store: shared by every caller, never masking a fault, copied empty
# ---------------------------------------------------------------------------

# the kept constructions of a doctrine, the public functions that read them
KEPT = (compare._eed_checks, *(fn.__wrapped__ for fn in (
    validate_doctrine, discover_elementary, discover_existential, comprehension_table,
    check_rule_of_choice, build_tp, build_erp, build_qp, functor_L)))


def _bodies_run(fns, run) -> Counter:
    """How often the body of each of `fns` runs while `run()` does, by
    (name, id of the first argument); `sub_doctrine`'s by its core too."""
    names = {fn.__code__: fn.__name__ for fn in fns}
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            first = frame.f_locals[frame.f_code.co_varnames[0]]
            scope = frame.f_locals.get("scope")
            calls[names[frame.f_code], id(first), scope and scope.core] += 1
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("name", ["triv", "chain", "fs2"])
def test_every_caller_shares_each_construction(name, monkeypatch):
    """Direct calls of the constructions, as the benchmark makes them, then
    the four harnesses and the universal property, which ask for the same
    constructions again: each body runs once per doctrine (and per core for
    the subobject doctrine of a category)."""
    monkeypatch.setattr(fixtures, "_FS2_CACHE", {})
    P, caps = fixtures.BUILTIN_FIXTURES[name](), Caps()

    def run():
        _, E, X = eed_checks(P)
        comprehension_table(P)
        check_rule_of_choice(P, X)
        tp = build_tp(P, E, X, caps=caps)
        er, q = build_erp(P, E, tp, caps), build_qp(P, E, X, caps)
        functor_L(P, E, X, q, er)
        sub = sub_doctrine(tp.cat, tp.pc, WindowScope(tp.scope.core))
        for h in HARNESSES:
            h(P, caps=caps)
        verify_universal(P, tp.cat, tp.pc, tp.scope, caps)
        assert sub_doctrine(tp.cat, tp.pc, tp.scope) is sub

    bodies = _bodies_run([*KEPT, sub_doctrine.__wrapped__], run)
    ran = {fn for fn, first, _ in bodies if first == id(P)}
    assert ran == {fn.__name__ for fn in KEPT} - {"validate_doctrine"}
    assert max(bodies.values()) == 1


def test_structure_not_kept_gets_a_fresh_answer():
    """An altered equality, made as the benchmark makes it, or a crafted
    existential witness with the kept one's adjoints, is not the structure
    the doctrine keeps: every construction on it is derived afresh, and
    nothing new is kept."""
    P = fixtures.chain_fixture()
    _, E, X = eed_checks(P)
    tp, q = build_tp(P, E, X), build_qp(P, E, X)
    er = build_erp(P, E, tp)
    L, choice = functor_L(P, E, X, q, er), check_rule_of_choice(P, X)
    one = next(iter(E.delta))
    altered = ElementaryWitness({**E.delta, one: 1 - E.delta[one]})
    crafted_X = ExistentialWitness(dict(X.adjoints), X.instances)
    before = dict(P._kept)
    for derive, kept in ((lambda: build_tp(P, E, crafted_X), tp),
                         (lambda: build_qp(P, altered, X), q),
                         (lambda: build_erp(P, altered, tp), er),
                         (lambda: functor_L(P, E, crafted_X, q, er), L),
                         (lambda: check_rule_of_choice(P, crafted_X), choice)):
        fresh = derive()
        assert fresh is not kept and derive() is not fresh
    assert P._kept == before


def test_a_changed_verdict_tree_leaves_the_next_read_unchanged():
    P = fixtures.chain_fixture()
    root, _, _ = eed_checks(P)
    want = _tree(root)
    for tree in (root, analysis(P).eed()[0]):
        tree.status = FAIL
        tree.children[0].data["claimed"] = False
        tree.children[0].children.append(Check("added", PASS))
        tree.children.append(Check("added", PASS))
    for tree in (eed_checks(P)[0], analysis(P).eed()[0]):
        assert _tree(tree) == want


def _tree(c: Check):
    return (c.name, c.status, c.witness, dict(c.data), [_tree(x) for x in c.children])


def test_a_dropped_doctrine_is_freed_and_its_sub_doctrine_after_one_collection():
    """The subobject doctrine kept on a completion's category refers to
    that category, the one cycle a store makes: it lives until the cycle
    collector runs once."""
    P = fixtures.chain_fixture()
    tp = analysis(P).tp()
    sub = sub_doctrine(tp.cat, tp.pc, tp.scope)
    verify_universal(P, tp.cat, tp.pc, tp.scope)
    doctrine, kept = weakref.ref(P), weakref.ref(sub)
    gc.disable()
    try:
        del P
        assert doctrine() is None
        del tp, sub
        assert kept() is not None
        gc.collect()
        assert kept() is None
    finally:
        gc.enable()


def _constant_top_along_m(P: DoctrineData) -> list[MonotoneMap]:
    m = P.reindex[P.cat.arr_index["m"]]
    reindex = list(P.reindex)
    reindex[P.cat.arr_index["m"]] = MonotoneMap(m.dom, m.cod,
                                                np.full(m.dom.n, m.cod.top, dtype=np.int32))
    return reindex


def test_a_copy_starts_with_an_empty_store():
    """chain with the reindexing along m replaced by the constant-top map:
    a copy made by `dataclasses.replace` derives its own adjoint along m
    and its own verdict, where it once read chain's."""
    P = fixtures.chain_fixture()
    m = P.cat.arr_index["m"]
    assert exists_along(P, m).table.tolist() == [0, 1]
    assert eed_checks(P)[0].status == PASS
    Q = dataclasses.replace(P, reindex=_constant_top_along_m(P))
    assert Q._kept == {}
    assert exists_along(Q, m).table.tolist() == [0, 0]
    assert analysis(Q).eed()[0].status == FAIL
    for R in (copy.copy(P), copy.deepcopy(P), pickle.loads(pickle.dumps(P))):
        assert R._kept == {} and P._kept
        assert exists_along(R, m).table.tolist() == [0, 1]


def test_a_replaced_scope_gets_its_own_window():
    """The window is kept in the store, so a copy with another scope builds
    its window over that scope, not over the one it was copied from."""
    P = fixtures.chain_fixture()
    assert P.window.scope.core == (0, 1)
    Q = dataclasses.replace(P, scope=WindowScope((0,)))
    assert Q.window.scope.core == (0,)
    assert P.window.scope.core == (0, 1) and Q.window is not P.window


@pytest.mark.parametrize("owner", [lambda P: P, lambda P: P.cat, lambda P: P.fibers[0]],
                         ids=["doctrine", "category", "lattice"])
def test_a_copy_leaves_out_a_kept_value_it_cannot_copy(owner):
    """A lock cannot be deep-copied or pickled; kept in a store, it is left
    out of the copy, which starts with an empty store."""
    O = owner(fixtures.chain_fixture())
    O.kept(("lock",), threading.Lock)
    for R in (copy.deepcopy(O), pickle.loads(pickle.dumps(O))):
        assert R._kept == {} and ("lock",) in O._kept


def test_a_product_choice_copies_alike_before_and_after_its_window(monkeypatch):
    """The pairing table lives in the category's store, read by each
    Window: reading fs2's window leaves its product choice, and so the cost
    of a deep copy of it, byte for byte as it was."""
    monkeypatch.setattr(fixtures, "_FS2_CACHE", {})
    P = fixtures.fs2()
    before = pickle.dumps(copy.deepcopy(P.products))
    assert len(P.window.pairing) == 3623
    assert pickle.dumps(copy.deepcopy(P.products)) == before
    assert [f.name for f in dataclasses.fields(P.products)] == ["terminal", "binary"]


def test_a_lattice_keeps_its_adjoint_order_and_copies_start_without_it():
    P = fixtures.chain_fixture()
    L, M = P.fibers
    table = P.reindex[P.cat.arr_index["m"]].table
    assert left_adjoints(M, L, table[None]).tolist() == [[0, 1]]
    assert list(M._kept) == [("by_up",)]
    for R in (copy.copy(M), copy.deepcopy(M), pickle.loads(pickle.dumps(M)),
              dataclasses.replace(M)):
        assert R._kept == {}
        assert left_adjoints(R, L, table[None]).tolist() == [[0, 1]]
