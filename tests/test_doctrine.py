import numpy as np
import pytest
from hypothesis import given, settings

import crafted
import oracles
from doctrines import fixtures
from doctrines.compare import analysis
from doctrines.doctrine import DoctrineData, box_product, sub_doctrine, validate_doctrine
from doctrines.errors import DoctrinesError
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


@pytest.mark.parametrize("name", ["triv", "chain", "fs2"])
def test_constructors_match_oracles_on_fixtures(name, request):
    """The subobject constructor on the fixture and on its tp completion."""
    P = request.getfixturevalue(name)
    for C in (P.cat, analysis(P).tp().cat):
        assert _constructed(sub_doctrine, C) == _constructed(oracles.sub_doctrine, C)


@pytest.mark.parametrize("name, window", [
    ("triv", "tp"), ("chain", "tp"), ("fs2", "tp"),
    ("triv", "base"), ("chain", "base"), ("nochoice", "base"), ("mixedfail", "base")])
def test_sub_doctrine_is_the_weak_subobject_doctrine(name, window, request):
    """The paper's exact completion of a category with weak pullbacks reads
    the weak-subobject doctrine: the poset reflection of the slices,
    reindexed by weak pullback.  By the lemma in `sub_doctrine` it is the
    subobject doctrine; on these windows the former weak-subobject
    constructor gives the same element names, orders and reindex tables.
    fs2's base is left out: the former search takes most of a minute."""
    P = fixtures.mixedfail() if name == "mixedfail" else request.getfixturevalue(name)
    C = analysis(P).tp().cat if window == "tp" else P.cat
    assert _constructed(sub_doctrine, C) == _constructed(oracles.weak_sub_doctrine, C)


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
