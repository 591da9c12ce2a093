"""The relational calculus against the per-element loops it replaced.

Relation objects and smallest transitive extensions are masks over the
triple product (`allegory.transitive_mask`), and the comparison functor's
value is one relational composition.  Each must give the former loops'
results in `oracles.py`, element lists in order, on the fixtures and on
random sub-doctrines of fs2 (with a corrupted reindexing value for the
masks, which read the same tables as the loops)."""

import numpy as np
import pytest
from hypothesis import given, settings

import crafted
import oracles
from doctrines import fixtures
from doctrines.allegory import triple_product
from doctrines.compare import eed_checks
from doctrines.completions import (_l_value, build_erp, build_qp, build_tp, functor_L, per_objects,
                                   transitive_extension)
from doctrines.doctrine import DoctrineData
from doctrines.errors import MalformedPresentation
from doctrines.semilattice import NoAdjoint
from test_laws import NO_SHRINK, window_doctrines

FIXTURES = ["triv", "chain", "fs2", "nochoice"]


def _extensions(extend, P, delta):
    """The smallest transitive extension of every element above delta[c],
    for every object c that delta names."""
    out = []
    for c, d in delta.items():
        fib = P.fibers[P.window.prod(c, c)[0]]
        out.append([extend(P, c, z, d) for z in range(fib.n) if fib.le(d, z)])
    return out


def _l_values(value, P, pairs):
    return [value(P, a, b, rho, sig, f) for a, b, rho, sig, f in pairs]


def _per_pairs(P):
    """(A, B, rho, sigma, f) for every pair of relation objects and every
    arrow f: A -> B."""
    objs = per_objects(P)
    return [(a, b, rho, sig, int(f)) for a, rho in objs for b, sig in objs
            for f in P.cat.hom(a, b)]


@pytest.mark.parametrize("name", FIXTURES)
def test_relation_objects_and_extensions_match_oracle_on_fixtures(name, witnesses):
    P, E, _ = witnesses[name]
    assert per_objects(P) == oracles.per_objects(P)
    assert _extensions(transitive_extension, P, E.delta) == \
        _extensions(oracles.transitive_extension, P, E.delta)


def test_missing_extension_matches_oracle():
    P, names = crafted.noext()
    c = P.cat.obj_index["2"]
    delta = {c: P.fibers[P.window.prod(c, c)[0]].index[names["delta"]]}
    assert _extensions(transitive_extension, P, delta) == \
        _extensions(oracles.transitive_extension, P, delta)


def test_l_value_is_one_composition_on_every_class_member(witnesses):
    """The 32 members of the arrow classes of the four quotient completions,
    and every arrow between relation objects."""
    members = 0
    for name in FIXTURES:
        P, E, X = witnesses[name]
        q = build_qp(P, E, X)
        pairs = [(q.objects[xi][0], q.objects[yi][0], q.objects[xi][1], q.objects[yi][1], f)
                 for xi, yi, mem in q.classes for f in mem]
        members += len(pairs)
        pairs += _per_pairs(P)
        assert _l_values(_l_value, P, pairs) == _l_values(oracles.l_value, P, pairs)
    assert members == 32


@settings(max_examples=40, phases=NO_SHRINK)
@given(window_doctrines(corrupt=True))
def test_relation_objects_and_extensions_match_oracle(Q):
    """Against the least element of each fiber, so that every element has a
    transitive extension to compare."""
    assert per_objects(Q) == oracles.per_objects(Q)
    least = {c: int(np.flatnonzero(Q.fibers[Q.window.prod(c, c)[0]].leq.all(axis=1))[0])
             for c in Q.scope.core}
    assert _extensions(transitive_extension, Q, least) == \
        _extensions(oracles.transitive_extension, Q, least)


@settings(max_examples=25, phases=NO_SHRINK)
@given(window_doctrines())
def test_l_value_matches_oracle(Q):
    pairs = _per_pairs(Q)
    assert _l_values(_l_value, Q, pairs) == _l_values(oracles.l_value, Q, pairs)


# the comparison functor's form comparisons and skips, as the second form's
# former computation over A×B×B gave them
FORMS_BEFORE = {"triv": (1, []), "chain": (3, []), "fs2": (18, [])}


def _functor_L(P, E, X):
    """The comparison functor of P, its reflexive relations built first."""
    er = build_erp(P, E, build_tp(P, E, X))
    return functor_L(P, E, X, build_qp(P, E, X), er)


@pytest.mark.parametrize("name", FIXTURES)
def test_functor_L_form_comparisons_unchanged(name, witnesses):
    P, E, X = witnesses[name]
    if name == "nochoice":
        with pytest.raises(MalformedPresentation, match=r"composite of \(\(u\|a\)~\(v\|v1\)\|a\) "
                           r"and \(\(v\|v1\)~\(u\|b\)\|b\) is not a functional relation"):
            _functor_L(P, E, X)
        return
    res = _functor_L(P, E, X)
    assert (res.form_comparisons, res.skipped) == FORMS_BEFORE[name]


@pytest.mark.parametrize("missing", ["graph", "outer projection"])
def test_functor_L_skips_missing_second_form_existential(missing):
    """A missing existential along <p1, f∘p2>, or along <p1, p3> of A×B×B
    (one the first form does not use), skips the second form for exactly
    the classes that need it and raises nothing."""
    P0 = fixtures.fs2()
    _, E, X = eed_checks(P0)
    q, er = build_qp(P0, E, X), build_erp(P0, E, build_tp(P0, E, X))
    win = P0.window
    # the missing adjoint is kept first in the store of a fresh doctrine on
    # fs2's tables, which derives the comparison functor afresh
    P = DoctrineData(P0.cat, P0.products, P0.scope, P0.fibers, P0.reindex)

    def needs(ci):
        xi, yi, members = q.classes[ci]
        a, b = q.objects[xi][0], q.objects[yi][0]
        if missing == "graph":
            _, a1, a2 = win.prod(a, a)
            return win.pair(a1, P.cat.compose(members[0], a2))
        return triple_product(P, a, b, b).legs[2]

    first_form = {triple_product(P, q.objects[xi][0], q.objects[xi][0], q.objects[yi][0]).legs[2]
                  for xi, yi, _ in q.classes}
    arrow = next(needs(ci) for ci in range(len(q.classes)) if needs(ci) not in first_form)
    P.kept(("exists_along", arrow), lambda: NoAdjoint("injected", ()))
    res = functor_L(P, E, X, q, er)
    want = [q.cat.arrows[ci] for ci in range(len(q.classes)) if needs(ci) == arrow]
    assert want and res.skipped == want
    assert res.form_comparisons == FORMS_BEFORE["fs2"][0] - len(want)
