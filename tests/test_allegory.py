import itertools

import pytest

from doctrines.allegory import RelArrow, rel_compose, rel_opposite
from doctrines.errors import MalformedPresentation

from oracles import (bool_matmul, bool_matrix, classify, compose_rel, is_per, mask_from_rel,
                     rel_from_mask, rel_from_matrix, transpose_rel)


def _rel2(P, mask):
    two = P.cat.obj_index["2"]
    return RelArrow(two, two, mask)


def test_compose_triv(witnesses):
    P, E, X = witnesses["triv"]
    fib = P.fibers[0]
    r = rel_compose(P, RelArrow(0, 0, fib.index["a"]), RelArrow(0, 0, fib.index["b"]))
    assert fib.elements[r.el] == "bot"


def test_identity_laws_exhaustive(witnesses, completions):
    """Equality is a two-sided unit for relational composition."""
    for name in ("triv", "chain", "fs2"):
        P, E, X = witnesses[name]
        for a in P.scope.core:
            for b in P.scope.core:
                ab = P.window.prod(a, b)[0]
                for th in range(P.fibers[ab].n):
                    rel = RelArrow(a, b, th)
                    left = rel_compose(P, RelArrow(a, a, E.delta[a]), rel)
                    right = rel_compose(P, rel, RelArrow(b, b, E.delta[b]))
                    assert left.el == th
                    assert right.el == th


def test_compose_matches_boolean_matrices(witnesses):
    """All 256 composable pairs over the 2-carrier agree with the matrix
    product oracle."""
    P, E, X = witnesses["fs2"]
    count = 0
    for m1 in range(16):
        for m2 in range(16):
            got = rel_compose(P, _rel2(P, m1), _rel2(P, m2)).el
            r1 = rel_from_mask(m1, 2, 2)
            r2 = rel_from_mask(m2, 2, 2)
            want = rel_from_matrix(bool_matmul(bool_matrix(r1, 2, 2),
                                               bool_matrix(r2, 2, 2)))
            assert got == mask_from_rel(want, 2, 2)
            count += 1
    assert count == 256


def test_opposite_is_transpose(witnesses):
    P, E, X = witnesses["fs2"]
    for m in range(16):
        got = rel_opposite(P, _rel2(P, m)).el
        assert got == mask_from_rel(transpose_rel(rel_from_mask(m, 2, 2)), 2, 2)
        # involution
        assert rel_opposite(P, _rel2(P, got)).el == m
    # the graph of the singleton inclusion transposes to its converse
    C = P.cat
    one, two = C.obj_index["1"], C.obj_index["2"]
    graph = RelArrow(one, two, 2)  # {(0, 1)} over 1×2 is bit 1
    op = rel_opposite(P, graph)
    assert op.src == two and op.tgt == one
    assert rel_from_mask(op.el, 2, 1) == transpose_rel(rel_from_mask(2, 1, 2))


def test_opposite_fixes_symmetric(witnesses):
    P, E, X = witnesses["fs2"]
    for m in range(16):
        if is_per(rel_from_mask(m, 2, 2), 2):
            assert rel_opposite(P, _rel2(P, m)).el == m


def test_associativity_exhaustive_on_two_carrier(witnesses):
    P, E, X = witnesses["fs2"]
    rels = [_rel2(P, m) for m in range(16)]
    for t1, t2, t3 in itertools.product(rels, repeat=3):
        lhs = rel_compose(P, rel_compose(P, t1, t2), t3).el
        rhs = rel_compose(P, t1, rel_compose(P, t2, t3)).el
        assert lhs == rhs


def test_associativity_mixed_carriers(witnesses):
    """Composable triples across all core carriers of the finite-set window."""
    P, E, X = witnesses["fs2"]
    C = P.cat
    objs = P.scope.core
    for a, b, c, d in itertools.product(objs, repeat=4):
        fab = P.fibers[P.window.prod(a, b)[0]]
        fbc = P.fibers[P.window.prod(b, c)[0]]
        fcd = P.fibers[P.window.prod(c, d)[0]]
        for m1 in range(0, fab.n, 3):
            for m2 in range(0, fbc.n, 3):
                for m3 in range(0, fcd.n, 3):
                    t1, t2, t3 = RelArrow(a, b, m1), RelArrow(b, c, m2), RelArrow(c, d, m3)
                    lhs = rel_compose(P, rel_compose(P, t1, t2), t3).el
                    rhs = rel_compose(P, t1, rel_compose(P, t2, t3)).el
                    assert lhs == rhs


def test_associativity_poset_fixtures(witnesses):
    for name in ("triv", "chain"):
        P, E, X = witnesses[name]
        objs = P.scope.core
        for a, b, c, d in itertools.product(objs, repeat=4):
            for m1 in range(P.fibers[P.window.prod(a, b)[0]].n):
                for m2 in range(P.fibers[P.window.prod(b, c)[0]].n):
                    for m3 in range(P.fibers[P.window.prod(c, d)[0]].n):
                        t1 = RelArrow(a, b, m1)
                        t2 = RelArrow(b, c, m2)
                        t3 = RelArrow(c, d, m3)
                        lhs = rel_compose(P, rel_compose(P, t1, t2), t3).el
                        rhs = rel_compose(P, t1, rel_compose(P, t2, t3)).el
                        assert lhs == rhs


def test_anti_homomorphism(witnesses):
    P, E, X = witnesses["fs2"]
    for m1 in range(16):
        for m2 in range(16):
            lhs = rel_opposite(P, rel_compose(P, _rel2(P, m1), _rel2(P, m2))).el
            rhs = rel_compose(P, rel_opposite(P, _rel2(P, m2)),
                              rel_opposite(P, _rel2(P, m1))).el
            assert lhs == rhs


def test_monotone_in_both_arguments(witnesses):
    P, E, X = witnesses["fs2"]
    two = P.cat.obj_index["2"]
    fib = P.fibers[P.window.prod(two, two)[0]]
    for m1 in range(16):
        for m2 in range(16):
            if not fib.le(m1, m2):
                continue
            for other in (0, 5, 9, 15):
                assert fib.le(rel_compose(P, _rel2(P, m1), _rel2(P, other)).el,
                              rel_compose(P, _rel2(P, m2), _rel2(P, other)).el)
                assert fib.le(rel_compose(P, _rel2(P, other), _rel2(P, m1)).el,
                              rel_compose(P, _rel2(P, other), _rel2(P, m2)).el)


def test_classify_equality_is_map(witnesses):
    for name in ("triv", "chain", "fs2"):
        P, E, X = witnesses[name]
        for a, d in E.delta.items():
            cls = classify(P, E, RelArrow(a, a, d))
            assert cls.is_symmetric_idempotent
            assert cls.is_map


def test_classify_all_two_carrier_relations(witnesses):
    """Symmetric idempotents are the symmetric transitive relations; maps are
    the graphs of functions."""
    P, E, X = witnesses["fs2"]
    for m in range(16):
        r = rel_from_mask(m, 2, 2)
        cls = classify(P, E, _rel2(P, m))
        assert cls.is_symmetric_idempotent == (
            is_per(r, 2) and compose_rel(r, r) == r)
        total = all(any(x == a for a, _ in r) for x in range(2))
        single = all(b == d for a, b in r for c, d in r if a == c)
        assert cls.is_map == (total and single)
    # the graph of the swap is a map
    swap_mask = mask_from_rel({(0, 1), (1, 0)}, 2, 2)
    assert classify(P, E, _rel2(P, swap_mask)).is_map


def test_relations_must_be_composable(witnesses):
    """th: 2 -> 2 then ze: 1 -> 2 is refused: th ends where ze does not start."""
    P = witnesses["fs2"][0]
    one, two = P.cat.obj_index["1"], P.cat.obj_index["2"]
    with pytest.raises(MalformedPresentation, match="^relations not composable$"):
        rel_compose(P, RelArrow(two, two, 0), RelArrow(one, two, 0))
