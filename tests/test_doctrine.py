import copy

import numpy as np
import pytest
from hypothesis import given, settings

import crafted
import oracles
from doctrines import fincat, fixtures
from doctrines.compare import analysis
from doctrines.doctrine import (DoctrineData, box_product, sub_doctrine, subobject_poset,
                                validate_doctrine, weak_sub_doctrine, weak_subobject_poset)
from doctrines.errors import DoctrinesError, MalformedPresentation, NoWeakPullback
from doctrines.fincat import ProductChoice, WindowScope
from doctrines.semilattice import MonotoneMap, chain as chain_lattice

from oracles import preimage, set_from_mask
from test_laws import concrete_categories


def test_validate_all_fixtures(triv, chain, fs2, nochoice):
    for P in (triv, chain, fs2, nochoice):
        assert validate_doctrine(P).ok


def test_validate_rejects_top_violation(chain):
    """Truncating the reindex to send the top to a non-top is caught."""
    bad = fixtures.chain_fixture()
    fu, fv = bad.fibers
    bad.reindex[bad.cat.arr_index["m"]] = MonotoneMap(
        fv, fu, np.array([0, 1, 0], dtype=np.int32))
    rep = validate_doctrine(bad)
    assert not rep.ok
    assert rep.law == "Homomorphism"
    assert rep.witness[0] == "m"


def test_validate_rejects_functoriality_break():
    bad = fixtures.chain_fixture()
    # identity reindex doctored on idv
    fv = bad.fibers[1]
    bad.reindex[bad.cat.arr_index["idv"]] = MonotoneMap(
        fv, fv, np.array([0, 0, 2], dtype=np.int32))
    rep = validate_doctrine(bad)
    assert not rep.ok


def test_reindex_is_preimage_on_sets(fs2):
    C = fs2.cat
    lk = fixtures.fs2_base()[3]
    vals = {C.arr_index[nm]: v for (a, b, v), nm in lk.items()}
    rng = np.random.default_rng(7)
    for f in rng.choice(C.n_arrows, size=40, replace=False):
        f = int(f)
        a, b = int(C.src[f]), int(C.tgt[f])
        sa, sb = int(C.objects[a]), int(C.objects[b])
        fn = vals[f]
        for mask in (0, 1, (1 << sb) - 1, 5 % (1 << sb)):
            got = int(fs2.r(f).table[mask])
            want = preimage(fn, set_from_mask(mask, sb))
            assert set_from_mask(got, sa) == want


def test_box_product_triv(triv):
    fib = triv.fibers[0]
    obj, el = box_product(triv, 0, 0, fib.index["a"], 0, 0, fib.index["b"])
    assert fib.elements[el] == "bot"
    obj, el = box_product(triv, 0, 0, fib.top, 0, 0, fib.top)
    assert el == fib.top


def test_box_product_top_and_monotone(chain):
    u, v = chain.cat.obj_index["u"], chain.cat.obj_index["v"]
    fu, fv = chain.fibers[u], chain.fibers[v]
    # tensor of the two equalities lands at top of the fiber over u
    obj, el = box_product(chain, u, u, fu.top, v, v, fv.top)
    assert obj == u and el == fu.top
    # order-preserving in each argument
    for a1 in range(fu.n):
        for a2 in range(fu.n):
            if not fu.le(a1, a2):
                continue
            for b in range(fv.n):
                _, e1 = box_product(chain, u, u, a1, v, v, b)
                _, e2 = box_product(chain, u, u, a2, v, v, b)
                assert chain.fibers[u].le(e1, e2)


def test_sub_doctrine_fs2_core_fibers(fs2):
    S = sub_doctrine(fs2.cat, fs2.products, fs2.scope)
    assert S.fibers[S.cat.obj_index["2"]].n == 4
    assert S.fibers[S.cat.obj_index["1"]].n == 2
    assert S.fibers[S.cat.obj_index["0"]].n == 1
    assert validate_doctrine(S).ok


def test_sub_doctrine_deterministic(fs2):
    S1 = sub_doctrine(fs2.cat, fs2.products, fs2.scope)
    S2 = sub_doctrine(fs2.cat, fs2.products, fs2.scope)
    for a in range(fs2.cat.n_objects):
        assert S1.fibers[a].elements == S2.fibers[a].elements


def test_sub_doctrine_poset_base(chain, triv):
    S = sub_doctrine(chain.cat, chain.products, chain.scope)
    assert S.fibers[S.cat.obj_index["v"]].n == 2   # the inclusion of u and the identity
    assert S.fibers[S.cat.obj_index["u"]].n == 1
    T = sub_doctrine(triv.cat, triv.products, triv.scope)
    assert T.fibers[T.cat.obj_index["T"]].n == 1


def test_weak_subobjects_match_subobjects_on_core(fs2):
    """Every arrow into a small set factors through its image, so the slice
    reflection and the mono classes give isomorphic posets on the core."""
    C = fs2.cat
    for a in fs2.scope.core:
        psi = weak_subobject_poset(C, a)[0]
        sub = subobject_poset(C, a)[0]
        assert psi.n == sub.n
        # counts per rank agree
        assert sorted(int(psi.leq[:, i].sum()) for i in range(psi.n)) == \
            sorted(int(sub.leq[:, j].sum()) for j in range(sub.n))


def test_weak_subobject_counts(fs2):
    C = fs2.cat
    assert weak_subobject_poset(C, C.obj_index["2"])[0].n == 4
    assert weak_subobject_poset(C, C.obj_index["0"])[0].n == 1


def test_weak_sub_doctrine_on_poset(chain):
    Psi = weak_sub_doctrine(chain.cat, chain.products, chain.scope)
    assert validate_doctrine(Psi).ok
    # classes of arrows into the top of a chain: one per object below it
    assert Psi.fibers[Psi.cat.obj_index["v"]].n == 2
    assert Psi.fibers[Psi.cat.obj_index["u"]].n == 1


def test_weak_sub_doctrine_postcomposition_is_existential(chain):
    """The existential structure of the weak-subobject doctrine along core
    projections is post-composition: it agrees with the computed adjoint."""
    from doctrines.doctrine import psi_postcompose_exists
    from doctrines.semilattice import left_adjoint
    C = chain.cat
    Psi = weak_sub_doctrine(C, chain.products, chain.scope)
    for a in chain.scope.core:
        for b in chain.scope.core:
            _, p1, p2 = Psi.window.prod(a, b)
            for pr in (p1, p2):
                adj = left_adjoint(Psi.r(pr))
                post = psi_postcompose_exists(Psi, pr)
                assert np.array_equal(adj.table, post.table)


def test_weak_pullback_missing_witness():
    """A cospan with no cone at all has no weak pullback; the constructor
    raises with the cospan as witness."""
    cat = crafted.build(
        ["A", "B", "T"],
        [("idA", "A", "A"), ("idB", "B", "B"), ("idT", "T", "T"),
         ("a1", "A", "T"), ("a2", "A", "T"), ("b", "B", "T")],
        {"A": "idA", "B": "idB", "T": "idT"},
        {("idA", "idA"): "idA", ("idB", "idB"): "idB", ("idT", "idT"): "idT",
         ("a1", "idA"): "a1", ("idT", "a1"): "a1",
         ("a2", "idA"): "a2", ("idT", "a2"): "a2",
         ("b", "idB"): "b", ("idT", "b"): "b"})
    from doctrines.fincat import weak_pullback
    assert weak_pullback(cat, cat.arr_index["a1"], cat.arr_index["b"]) is None
    with pytest.raises(NoWeakPullback):
        weak_sub_doctrine(cat, crafted.choice(cat, "T", {}), WindowScope((0, 1)))   # A, B


def _poset_isomorphic(p, q) -> bool:
    """Exhaustive order-isomorphism search for small posets."""
    if p.n != q.n:
        return False
    import itertools as it
    for perm in it.permutations(range(q.n)):
        if all(bool(p.leq[i, j]) == bool(q.leq[perm[i], perm[j]])
               for i in range(p.n) for j in range(p.n)):
            return True
    return False


def test_weak_and_strict_subobjects_order_isomorphic(fs2):
    """The slice reflection and the mono-class poset are order isomorphic on
    every core object of the finite-set window."""
    C = fs2.cat
    for a in fs2.scope.core:
        psi = weak_subobject_poset(C, a)[0]
        sub = subobject_poset(C, a)[0]
        assert _poset_isomorphic(psi, sub)


def _constructed(build, C):
    """The fiber elements and orders and the reindex tables of a
    constructor's doctrine on C, or the type, payload and message of the
    error it raises."""
    try:
        D = build(C, ProductChoice(0, {}), WindowScope(tuple(range(C.n_objects))))
    except DoctrinesError as e:
        return type(e).__name__, vars(e), str(e)
    return ([(fib.elements, fib.leq.tolist()) for fib in D.fibers],
            [m.table.tolist() for m in D.reindex])


@settings(max_examples=300)
@given(concrete_categories())
def test_sub_doctrine_matches_oracle(sample):
    """The one reindexing formula against the former per-representative loop,
    window-closure witnesses included (a few of these examples have a
    missing pullback)."""
    C = sample[0]
    assert _constructed(sub_doctrine, C) == _constructed(oracles.sub_doctrine, C)


@settings(max_examples=100)
@given(concrete_categories())
def test_weak_sub_doctrine_matches_oracle(sample):
    """The one reindexing formula against the former per-cospan weak pullback
    search with its choice-independence check, missing-weak-pullback
    witnesses included."""
    C = sample[0]
    assert _constructed(weak_sub_doctrine, C) == _constructed(oracles.weak_sub_doctrine, C)


@pytest.mark.parametrize("name", ["triv", "chain", "fs2"])
def test_constructors_match_oracles_on_fixtures(name, request):
    """Both constructors on the tp completion, and the subobject one on the
    fixture itself (the former weak pullback search takes most of a minute
    on fs2)."""
    P = request.getfixturevalue(name)
    tp = analysis(P).tp()
    assert _constructed(sub_doctrine, P.cat) == _constructed(oracles.sub_doctrine, P.cat)
    for build, oracle in ((sub_doctrine, oracles.sub_doctrine),
                          (weak_sub_doctrine, oracles.weak_sub_doctrine)):
        assert _constructed(build, tp.cat) == _constructed(oracle, tp.cat)


def _with_identities(objects, arrows, compose):
    """crafted.build with identities named id<object> and their composites."""
    ids = {o: f"id{o}" for o in objects}
    compose = dict(compose)
    for name, s, t in arrows:
        compose[(name, ids[s])] = compose[(ids[t], name)] = name
    for o in objects:
        compose[(ids[o], ids[o])] = ids[o]
    return crafted.build(objects, [(ids[o], o, o) for o in objects] + arrows, ids, compose)


def test_weak_pullback_missing_at_reindexing():
    """Every fiber is a lattice and [idA] is the greatest class of arrows g
    into A with f∘g factoring through m, yet no cone over (f, m) is a weak
    pullback: (A, idA, q1) and (A, idA, q2) do not factor through each
    other, and the cone (Z, z, w) cannot be factored by both."""
    cat = _with_identities(
        ["Z", "A", "B", "T"],
        [("z", "Z", "A"), ("f", "A", "T"), ("m", "B", "T"), ("q1", "A", "B"),
         ("q2", "A", "B"), ("w", "Z", "B"), ("fz", "Z", "T")],
        {("m", "q1"): "f", ("m", "q2"): "f", ("q1", "z"): "w", ("q2", "z"): "w",
         ("f", "z"): "fz", ("m", "w"): "fz"})
    assert cat.is_category()
    for a in range(cat.n_objects):     # no fiber lacks a meet, so none raises
        weak_subobject_poset(cat, a)
    assert _constructed(weak_sub_doctrine, cat) == _constructed(oracles.weak_sub_doctrine, cat)
    with pytest.raises(NoWeakPullback) as raised:
        weak_sub_doctrine(cat, crafted.choice(cat, "T", {}), WindowScope((1, 2)))   # A, B
    assert raised.value.cospan == ("f", "m")


def test_weak_sub_doctrine_on_fs2(fs2, monkeypatch):
    """Built on fs2's base: 41,597 cospans (f, m), m a class representative,
    each with a weak pullback whose first leg is the representative of its
    class, so the batch settles them all and no cospan is searched one by
    one.  Its fibers have the sizes of the subobject fibers, 1, 2, 4, 12
    and 50."""
    searched = []
    monkeypatch.setattr(fincat, "weak_pullback",
                        lambda C, f, m: searched.append((f, m)) or oracles.weak_pullback(C, f, m))
    Psi = weak_sub_doctrine(copy.deepcopy(fs2.cat), fs2.products, fs2.scope)
    assert searched == []
    assert [fib.n for fib in Psi.fibers] == [1, 2, 4, 12, 50]
    assert [fib.n for fib in Psi.fibers] == \
        [fib.n for fib in sub_doctrine(fs2.cat, fs2.products, fs2.scope).fibers]


def test_weak_pullback_beyond_the_class_representative(monkeypatch):
    """Finite sets A = 1 and B = 4 with the point x = 2 of B, the constant
    c = x∘! and g = (1, 2, 2, 2).  Over the cospan (x, g) the greatest class
    of first legs is {idA, !}, represented by idA, but the cone (A, idA, x)
    misses the cone (!, g) at B; the later member ! has the weak pullback
    (B, !, g).  The constructor finds it by the full search and goes on to
    the cospan (c, g), whose six cones at B outnumber hom(B, B): no weak
    pullback there, the former per-cospan search's witness."""
    cat = _with_identities(
        ["A", "B"],
        [("x", "A", "B"), ("bang", "B", "A"), ("c", "B", "B"), ("g", "B", "B")],
        {("bang", "x"): "idA", ("x", "bang"): "c", ("c", "x"): "x", ("g", "x"): "x",
         ("bang", "c"): "bang", ("bang", "g"): "bang", ("c", "c"): "c", ("c", "g"): "c",
         ("g", "c"): "c", ("g", "g"): "c"})
    assert cat.is_category()
    x, g, ida, bang = (cat.arr_index[a] for a in ("x", "g", "idA", "bang"))
    assert weak_subobject_poset(cat, cat.obj_index["A"])[1] == [ida]
    assert not any(oracles.is_weak_pullback(cat, x, g, 0, ida, int(q)) for q in cat.hom(0, 1)
                   if cat.comp[x, ida] == cat.comp[g, int(q)])
    assert fincat.weak_pullback(cat, x, g) == (1, bang, g)
    searched = []
    monkeypatch.setattr(fincat, "weak_pullback",
                        lambda C, f, m: searched.append((f, m)) or oracles.weak_pullback(C, f, m))
    assert _constructed(weak_sub_doctrine, cat) == _constructed(oracles.weak_sub_doctrine, cat)
    assert (x, g) in searched
    with pytest.raises(NoWeakPullback) as raised:
        weak_sub_doctrine(cat, crafted.choice(cat, "A", {}), WindowScope((0, 1)))   # A, B
    assert raised.value.cospan == ("c", "g")


@pytest.mark.parametrize("name", ["triv", "chain", "fs2"])
def test_sub_and_weak_sub_agree_on_exact_completion(name, request):
    """On an exact category every arrow factors through a mono, so sending a
    mono class to its class in the slice reflection is an order isomorphism
    from Sub(a) to Psi(a) that commutes with reindexing along every arrow."""
    tp = analysis(request.getfixturevalue(name)).tp()
    C = tp.cat
    S = sub_doctrine(C, tp.pc, WindowScope(tuple(range(C.n_objects))))
    Psi = weak_sub_doctrine(C, tp.pc, WindowScope(tuple(range(C.n_objects))))
    iso = []
    for a in range(C.n_objects):
        sub_reps = subobject_poset(C, a)[1]
        psi_cls = weak_subobject_poset(C, a)[3]
        table = psi_cls[sub_reps]
        fsets, psi_reps = oracles.factor_classes(C, C.into(a).tolist())
        assert table.tolist() == [oracles.class_of(fsets, psi_reps, m) for m in sub_reps]
        assert sorted(table.tolist()) == list(range(Psi.fibers[a].n))
        assert np.array_equal(S.fibers[a].leq, Psi.fibers[a].leq[np.ix_(table, table)])
        iso.append(table)
    for f in range(C.n_arrows):
        a, b = int(C.src[f]), int(C.tgt[f])
        assert np.array_equal(iso[a][S.r(f).table], Psi.r(f).table[iso[b]])


# ---------------------------------------------------------------------------
# input guards, each reached by a fault and checked for its witness
# ---------------------------------------------------------------------------


def _outcome(build):
    """The report a check returns, or the error a guard raises."""
    try:
        rep = build()
    except DoctrinesError as exc:
        return type(exc).__name__, str(exc)
    return rep.ok, rep.law, rep.witness, rep.message


def _chain_with(n_fibers: int = 2, n_reindex: int = 3, m=None) -> DoctrineData:
    """The chain fixture (2 objects, 3 arrows) with its fiber and reindex
    tables cut short, or with the reindexing along m: u -> v replaced by
    `m(map)`."""
    P = fixtures.chain_fixture()
    reindex = P.reindex[:n_reindex]
    if m is not None:
        f = P.cat.arr_index["m"]
        reindex[f] = m(reindex[f])
    return DoctrineData(P.cat, P.products, P.scope, P.fibers[:n_fibers], reindex)


@pytest.mark.parametrize("build, outcome", [
    pytest.param(lambda: validate_doctrine(_chain_with(n_fibers=1)),
                 (False, "MalformedPresentation", (), "fiber table incomplete"), id="fibers"),
    pytest.param(lambda: validate_doctrine(_chain_with(n_reindex=2)),
                 (False, "MalformedPresentation", (), "reindex table incomplete"), id="reindex"),
    pytest.param(lambda: validate_doctrine(_chain_with(m=lambda r: MonotoneMap(r.cod, r.dom,
                                                                               r.table[:2]))),
                 (False, "Reindex", ("m",), "reindex map badly typed"), id="typing"),
    pytest.param(lambda: validate_doctrine(_chain_with(m=lambda r: MonotoneMap(r.dom, r.cod,
                                                                               r.table[:2]))),
                 (False, "Reindex", ("m",), "reindex table has wrong length"), id="length"),
    pytest.param(lambda: sub_doctrine(crafted.meet_not_pullback(), ProductChoice(0, {}),   # A
                                      WindowScope((0,))),
                 ("WindowClosure", "window closure violated: missing product A "
                                   "(subobject meet of [m1], [m2] is not their pullback)"),
                 id="subobject-meet"),
])
def test_input_guards(build, outcome):
    assert _outcome(build) == outcome
