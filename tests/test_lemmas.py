"""The completion chain's lemmas, its kept failure sites and the law gate.

`completions.py` states as lemmas, in the docstrings of the builders, the
facts that the doctrine laws imply, and no longer tests them on each build.
The former checked builders in `oracles.py` still test every one of them;
the builders must give their results, in order, on the fixtures and on
random sub-doctrines of fs2.  The failure sites that no lemma removes are
reached here by broken witnesses, each checked for its message.  The
lemmas need the laws, so `complete`, `compare` and `universal` stop with
the law witness when they fail."""

import copy
import dataclasses
import itertools
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings

import crafted
import oracles
from doctrines import completions as builders
from doctrines import fixtures
from doctrines.cli import _doctrine_laws_hold, main
from doctrines.compare import analysis
from doctrines.completions import (build_erp, build_gr, build_qp, build_tp, functor_D,
                                   functor_L, iota_iso, tp_sub_restriction,
                                   transitive_extension)
from doctrines.doctrine import DoctrineData
from doctrines.errors import FormulaMismatch, MalformedPresentation
from doctrines.fileformat import emit_doctrine
from doctrines.fincat import validate_products
from doctrines.semilattice import MonotoneMap
from test_laws import NO_SHRINK, window_doctrines


def _cat(C):
    return (C.objects, C.arrows, C.src.tolist(), C.tgt.tolist(), C.id_arr.tolist(),
            C.comp.tolist())


def _pc(pc):
    return None if pc is None else (pc.terminal, pc.binary)


def _functor(F):
    return (F.source.objects, F.target.objects, F.obj_map.tolist(), F.arr_map.tolist())


def _chain(chain, P, E, X, tp):
    """Objects, classes in order, composition, descent elements, reindex
    tables, functor maps, form comparisons and skips of er, qp, D and L."""
    er = chain.build_erp(P, E, tp)
    q = chain.build_qp(P, E, X)
    L = chain.functor_L(P, E, X, q, er)
    return {"er": (er.objects, _cat(er.cat), _pc(er.pc), er.scope.core),
            "qp": (q.objects, q.classes, _cat(q.cat), _pc(q.pc), q.scope.core,
                   q.des_elements, [fib.elements for fib in q.doctrine.fibers],
                   [m.table.tolist() for m in q.doctrine.reindex]),
            "D": _functor(chain.functor_D(P, E, er)),
            "L": (_functor(L.functor), L.form_comparisons, L.skipped)}


def _products_are_valid(*pcs_of):
    """Each choice is one of products, which neither `choose_products` nor
    `build_gr` validates."""
    for cat, pc in pcs_of:
        assert pc is None or validate_products(cat, pc).ok


@pytest.mark.parametrize("name", ["triv", "chain", "fs2"])
def test_chain_matches_checked_builders_on_fixtures(name, witnesses):
    P, E, X = witnesses[name]
    tp = build_tp(P, E, X)
    assert _chain(builders, P, E, X, tp) == _chain(oracles, P, E, X, tp)
    er, q = build_erp(P, E, tp), build_qp(P, E, X)
    _products_are_valid((tp.cat, tp.pc), (er.cat, er.pc), (q.cat, q.pc))


def test_qp_matches_checked_builder_on_nochoice(witnesses):
    """The relation completion of nochoice stops at a composite that is not
    a functional relation, a site that stays; its quotient completion
    needs no relation completion."""
    P, E, X = witnesses["nochoice"]
    with pytest.raises(MalformedPresentation, match="is not a functional relation"):
        build_tp(P, E, X)
    new, old = build_qp(P, E, X), oracles.build_qp(P, E, X)
    assert (new.objects, new.classes, _cat(new.cat), new.des_elements) == \
        (old.objects, old.classes, _cat(old.cat), old.des_elements)
    assert [m.table.tolist() for m in new.doctrine.reindex] == \
        [m.table.tolist() for m in old.doctrine.reindex]


def test_nofrobenius_breaks_the_laws_the_lemmas_assume(capsys):
    """Discovery succeeds on nofrobenius but functoriality fails, so the
    arrow identification is no congruence there: the checked quotient
    builder finds a composite of representatives in no class.  The law
    gate stops every command that builds before it gets there."""
    P = crafted.nofrobenius()
    _, E, X = analysis(P).eed()
    assert E is not None and X is not None
    assert not _doctrine_laws_hold(P)
    assert capsys.readouterr().err == (
        "violation: doctrine laws fail at ('a2_2_1', 'a2_2_1', 'lo'): "
        "reindex(g∘f) != reindex(f)∘reindex(g)\n")
    with pytest.raises(KeyError):
        oracles.build_qp(P, E, X)


@settings(max_examples=25, phases=NO_SHRINK)
@given(window_doctrines())
def test_chain_matches_checked_builders(Q):
    """On the sub-doctrines whose structure is discovered."""
    _, E, X = analysis(Q).eed()
    assume(E is not None and X is not None)
    tp = build_tp(Q, E, X)
    assert _chain(builders, Q, E, X, tp) == _chain(oracles, Q, E, X, tp)
    _products_are_valid((tp.cat, tp.pc))


@pytest.mark.parametrize("name", ["triv", "chain", "nochoice"])
def test_points_products_are_products(name, witnesses):
    gr = build_gr(witnesses[name][0])
    _products_are_valid((gr.cat, gr.pc))


# ---------------------------------------------------------------------------
# the failure sites that stay, reached by broken witnesses
# ---------------------------------------------------------------------------


def test_relation_completion_not_a_category(witnesses, monkeypatch):
    """The composite of an arrow phi with the identity of its source, one
    of the relational compositions `build_tp` makes in its loop order,
    replaced by another arrow of phi's type.  The build runs on a copy of
    fs2, whose store is empty, so the patched composition is reached."""
    P, E, X = witnesses["fs2"]
    tp = build_tp(P, E, X)
    P = copy.copy(P)
    phi = next(i for i, (xi, yi, _) in enumerate(tp.arrows)
               if xi != yi and len(tp.cat.hom(xi, yi)) > 1)
    xi, yi, _ = tp.arrows[phi]
    other = next(tp.arrows[int(k)][2] for k in tp.cat.hom(xi, yi) if int(k) != phi)
    pairs = [(i, j) for i, (_, y, _) in enumerate(tp.arrows)
             for j, (y2, _, _) in enumerate(tp.arrows) if y2 == y]
    broken_call = pairs.index((int(tp.cat.id_arr[xi]), phi))
    calls = itertools.count()
    compose = builders.rel_compose

    def broken(P, th, ze):
        r = compose(P, th, ze)
        return dataclasses.replace(r, el=other) if next(calls) == broken_call else r
    monkeypatch.setattr(builders, "rel_compose", broken)
    with pytest.raises(MalformedPresentation, match=re.escape(
            "relation completion is not a category: f∘id != f at "
            f"{(tp.cat.arrows[phi],)}")):
        build_tp(P, E, X)


def _without(er, key):
    """er with one functional relation missing from its arrow table."""
    return dataclasses.replace(er, arr_of={k: v for k, v in er.arr_of.items() if k != key})


def test_graph_not_a_functional_relation(completions):
    P, E, X, tp, er, q = completions["fs2"]
    C = P.cat
    f = next(int(f) for f in C.hom(C.obj_index["1"], C.obj_index["2"]))
    a, b = int(C.src[f]), int(C.tgt[f])
    graph = int(P.r(P.window.times(f, int(C.id_arr[b]))).table[E.delta[b]])
    key = (tp.obj_of[(a, E.delta[a])], tp.obj_of[(b, E.delta[b])], graph)
    broken = _without(er, key)
    with pytest.raises(MalformedPresentation,
                       match=rf"graph of {C.arrows[f]} is not a functional relation"):
        functor_D(P, E, broken)


def test_comparison_image_not_a_functional_relation(completions):
    P, E, X, tp, er, q = completions["fs2"]
    ci = len(q.classes) - 1
    xi, yi, members = q.classes[ci]
    (a, rho), (b, sig) = q.objects[xi], q.objects[yi]
    val = builders._l_value(P, a, b, rho, sig, members[0])
    broken = _without(er, (tp.obj_of[(a, rho)], tp.obj_of[(b, sig)], val))
    with pytest.raises(MalformedPresentation, match=re.escape(
            f"comparison image of {q.cat.arrows[ci]} is not a functional relation")):
        functor_L(P, E, X, q, broken)


def test_published_forms_disagree():
    """A wrong existential along <p1, f∘p2>, sending everything to top, for
    the identity class of the equality on 2: the second form, which reads
    it, then gives the full relation instead of the equality."""
    P0 = fixtures.fs2()
    an = analysis(P0)
    _, E, X = an.eed()
    q, er = an.qp(), an.er()
    win = P0.window
    a = P0.cat.obj_index["2"]
    ci = int(q.cat.id_arr[q.obj_of[(a, E.delta[a])]])
    members = q.classes[ci][2]
    _, a1, a2 = win.prod(a, a)
    graph = win.pair(a1, P0.cat.compose(members[0], a2))
    m = P0.reindex[graph]
    # a copy starts with an empty store: the wrong adjoint is kept there
    # first, and the structure of P0 is not the copy's, so the comparison
    # functor is derived afresh on the copy
    P = copy.copy(P0)
    P.kept(("exists_along", graph),
           lambda: MonotoneMap(m.cod, m.dom, np.full(m.cod.n, m.dom.top, dtype=np.int32)))
    with pytest.raises(FormulaMismatch,
                       match=re.escape(f"published forms disagree on {q.cat.arrows[ci]}")):
        functor_L(P, E, X, q, er)


def test_transitive_extension_of_a_non_reflexive_relation(witnesses):
    P, E, _ = witnesses["fs2"]
    two = P.cat.obj_index["2"]
    fib = P.fibers[P.window.prod(two, two)[0]]
    bottom = int(np.flatnonzero(fib.leq.all(axis=1))[0])
    with pytest.raises(MalformedPresentation, match="relation is not reflexive"):
        transitive_extension(P, two, bottom, E.delta[two])


def test_subobjects_need_a_terminal(completions):
    _, _, _, tp, er, _ = completions["triv"]
    with pytest.raises(MalformedPresentation, match="completion has no terminal"):
        tp_sub_restriction(dataclasses.replace(tp, pc=None), er)


@pytest.fixture
def iota_inputs(completions):
    """triv's completions, the subobjects of its reflexive part, and the
    first element whose restricted equality is not the equality itself."""
    P, E, X, tp, er, _ = completions["triv"]
    a = P.scope.core[0]
    aa, p1, p2 = P.window.prod(a, a)
    fib_aa = P.fibers[aa]
    rho = next(r for r in (fib_aa.meet_all([E.delta[a], int(P.r(p1).table[al]),
                                            int(P.r(p2).table[al])])
                           for al in range(P.fibers[a].n)) if r != E.delta[a])
    return P, E, tp, er, tp_sub_restriction(tp, er), a, rho


def test_iota_restricted_equality_not_an_object(iota_inputs):
    P, E, tp, er, sub_er, a, rho = iota_inputs
    broken = dataclasses.replace(tp, obj_of={k: v for k, v in tp.obj_of.items()
                                             if k != (a, rho)})
    with pytest.raises(MalformedPresentation, match="restricted equality of .* is not an object"):
        iota_iso(P, E, broken, sub_er, er)


def test_iota_restricted_equality_not_an_arrow(iota_inputs):
    P, E, tp, er, sub_er, a, rho = iota_inputs
    broken = _without(tp, (tp.obj_of[(a, rho)], tp.obj_of[(a, E.delta[a])], rho))
    with pytest.raises(MalformedPresentation, match="restricted equality of .* is not an arrow"):
        iota_iso(P, E, broken, sub_er, er)


def test_iota_restricted_equality_not_monic(iota_inputs, monkeypatch):
    P, E, tp, er, sub_er, _, _ = iota_inputs
    monkeypatch.setattr(builders, "is_mono", lambda C, f: False)
    with pytest.raises(MalformedPresentation, match="restricted equality of .* is not monic"):
        iota_iso(P, E, tp, sub_er, er)


@pytest.mark.parametrize("classes, message", [
    (lambda cls: np.zeros_like(cls), "is not bijective"),
    (lambda cls: cls.max() - cls, "is not an order iso"),
])
def test_iota_comparison_broken(iota_inputs, monkeypatch, classes, message):
    """Subobject classes collapsed to one, or numbered in reverse, which
    turns triv's diamond upside down."""
    P, E, tp, er, sub_er, a, _ = iota_inputs
    poset = builders.subobject_poset

    def broken(C, obj):
        *rest, cls = poset(C, obj)
        return (*rest, classes(np.asarray(cls)))
    monkeypatch.setattr(builders, "subobject_poset", broken)
    with pytest.raises(MalformedPresentation,
                       match=f"canonical comparison at {P.cat.objects[a]} {message}"):
        iota_iso(P, E, tp, sub_er, er)


# ---------------------------------------------------------------------------
# the law gate of the commands that build
# ---------------------------------------------------------------------------


LAW_VIOLATION = ("violation: doctrine laws fail at ('a4_8_3575', 's94', 's95'): "
                 "meet not preserved\n")


@pytest.fixture(scope="module")
def lawless_file(tmp_path_factory):
    """fs2 with one reindex value along an arrow 4 -> 8 changed: the laws
    fail at that arrow, and the equality and existentials are still
    discovered."""
    P = fixtures.fs2()
    C = P.cat
    f = C.arr_index["a4_8_3575"]
    m = P.reindex[f]
    table = m.table.copy()
    x = m.dom.index["s94"]
    table[x] = (table[x] + 1) % m.cod.n
    reindex = list(P.reindex)
    reindex[f] = MonotoneMap(m.dom, m.cod, table)
    bad = DoctrineData(C, P.products, P.scope, P.fibers, reindex)
    _, E, X = analysis(bad).eed()
    assert E is not None and X is not None
    path = tmp_path_factory.mktemp("lawless") / "fs2-lawless.dtn"
    path.write_text(emit_doctrine(bad))
    return path


@pytest.mark.parametrize("command", ["complete", "universal"])
def test_commands_stop_when_the_laws_fail(lawless_file, tmp_path, capsys, command):
    out = tmp_path / "emitted.dtn"
    options = ["--kind", "tp", "--out", str(out)] if command == "complete" else []
    assert main([command, str(lawless_file), *options]) == 1
    assert capsys.readouterr().err == LAW_VIOLATION
    assert not out.exists()
