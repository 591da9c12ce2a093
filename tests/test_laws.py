"""The category and doctrine law checks against plain-loop oracles.

`validate_category` decides associativity by Light's test over a generating
set, and `validate_doctrine` decides the homomorphism clause and
functoriality over the same set; both fall back to the exhaustive scan for
the witness.  Random small categories of finite maps, some with corrupted
table entries, and their powerset doctrines must get the same report as the
oracles in `oracles.py`; faults injected into fs2 must be caught by the
reduced checks and named by the exhaustive scan.  The blocked kernels give
the same reports in blocks of one row (`fincat.BLOCK_BYTES` patched down)
as at the default budget."""

import copy
import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as strat

import crafted
import oracles
from doctrines import fincat, fixtures
from doctrines.compare import enumerate_fiber_homs
from doctrines.doctrine import DoctrineData, _laws_scan, _reindex_stacks, validate_doctrine
from doctrines.fincat import (FinCat, ProductChoice, WindowScope, _associativity_scan,
                              _typing_violation, validate_category)
from doctrines.semilattice import (FinInfSL, MonotoneMap, diamond, left_adjoints, meets_from_leq,
                                   powerset)

MAX_ARROWS = 40


def _report(rep):
    return (rep.ok, rep.law, rep.witness, rep.message)


def _plain_category(C: FinCat):
    return (list(C.objects), list(C.arrows), C.src.tolist(), C.tgt.tolist(),
            C.id_arr.tolist(), C.comp.tolist())


def _plain_doctrine(P: DoctrineData):
    fibers = [(fib.elements, fib.leq.tolist(), fib.top, fib.meet.tolist())
              for fib in P.fibers]
    reindex = [(m.dom.elements, m.cod.elements, m.table.tolist()) for m in P.reindex]
    return _plain_category(P.cat), fibers, reindex


def _compose(g, f):
    """g after f, for maps given as value tuples."""
    return tuple(g[x] for x in f)


def _closure(maps: set) -> set:
    """Close a set of (src, tgt, map) triples under composition."""
    maps = set(maps)
    while True:
        new = {(f[0], g[1], _compose(g[2], f[2]))
               for g in maps for f in maps if f[1] == g[0]} - maps
        if not new:
            return maps
        maps |= new


def _concrete(sizes, arrows) -> FinCat:
    """The category of the listed maps (closed under composition), in that
    id order, between sets of the given sizes."""
    index = {m: i for i, m in enumerate(arrows)}
    n = len(arrows)
    comp = np.full((n, n), -1, dtype=np.int32)
    for g in arrows:
        for f in arrows:
            if f[1] == g[0]:
                comp[index[g], index[f]] = index[(f[0], g[1], _compose(g[2], f[2]))]
    return FinCat(tuple(f"o{o}" for o in range(len(sizes))),
                  tuple(f"m{i}" for i in range(n)),
                  np.array([m[0] for m in arrows], dtype=np.int32),
                  np.array([m[1] for m in arrows], dtype=np.int32),
                  np.array([index[(o, o, tuple(range(s)))] for o, s in enumerate(sizes)],
                           dtype=np.int32),
                  comp)


@strat.composite
def concrete_categories(draw):
    """A category of maps between small finite sets: the composition closure
    of random maps, with the arrows in a random id order.  Returns the
    FinCat, each arrow's (src, tgt, map) and the set sizes."""
    sizes = draw(strat.lists(strat.sampled_from([2, 3, 1]), min_size=1, max_size=3))
    maps = {(o, o, tuple(range(s))) for o, s in enumerate(sizes)}
    for _ in range(draw(strat.integers(2, 8))):
        a = draw(strat.integers(0, len(sizes) - 1))
        b = draw(strat.integers(0, len(sizes) - 1))
        fn = tuple(draw(strat.integers(0, sizes[b] - 1)) for _ in range(sizes[a]))
        closed = _closure(maps | {(a, b, fn)})
        if len(closed) <= MAX_ARROWS:
            maps = closed
    arrows = draw(strat.permutations(sorted(maps)))
    return _concrete(sizes, arrows), arrows, sizes


@settings(max_examples=100)
@given(concrete_categories())
def test_generators_generate_greedily(sample):
    """Identities and generators compose to every arrow, and no generator is
    a composite of the identities and the generators before it."""
    C = sample[0]
    plain = C.comp.tolist()

    def closure(arrows):
        reached = set(arrows)
        while True:
            new = {plain[g][f] for g in reached for f in reached if plain[g][f] >= 0} - reached
            if not new:
                return reached
            reached |= new

    gens = C.generators().tolist()
    ids = set(C.id_arr.tolist())
    assert gens == sorted(gens)
    assert closure(ids | set(gens)) == set(range(C.n_arrows))
    for k, g in enumerate(gens):
        assert g not in closure(ids | set(gens[:k]))


@settings(max_examples=100)
@given(concrete_categories())
def test_generators_match_former_closure(sample):
    assert sample[0].generators().tolist() == oracles.generators(sample[0])


def test_generators_match_former_closure_on_fs2_and_tp(completions):
    assert fixtures.fs2().cat.generators().tolist() == oracles.generators(fixtures.fs2().cat)
    for name, (_, _, _, tp, _, _) in completions.items():
        assert tp.cat.generators().tolist() == oracles.generators(tp.cat), name


def _with_comp(C: FinCat, comp, id_arr=None) -> FinCat:
    return FinCat(C.objects, C.arrows, C.src, C.tgt,
                  C.id_arr if id_arr is None else id_arr, comp)


def _one_row_blocks():
    """Every blocked kernel in blocks of one row: a budget below any row."""
    return mock.patch.object(fincat, "BLOCK_BYTES", 1)


def _at_both_budgets(report):
    """report() at the default budget, asserted equal in blocks of one row.
    `report` builds what it checks afresh, so that no store holds a verdict."""
    default = report()
    with _one_row_blocks():
        assert report() == default
    return default


def _fresh(P):
    """A fresh copy of a category, or of a doctrine over a fresh copy of
    its base: its stores start empty."""
    if isinstance(P, FinCat):
        return _with_comp(P, P.comp)
    return dataclasses.replace(P, cat=_fresh(P.cat))


def _non_identity(C: FinCat) -> list[int]:
    ids = set(C.id_arr.tolist())
    return [f for f in range(C.n_arrows) if f not in ids]


def _repoint(draw, C: FinCat, comp) -> None:
    """Re-point one composite of two non-identity arrows at another arrow of
    its type, where there is one: the fault only associativity can catch."""
    pairs = [(g, f, k) for g in _non_identity(C) for f in _non_identity(C) if comp[g, f] >= 0
             for k in C.hom(int(C.src[comp[g, f]]), int(C.tgt[comp[g, f]]))
             if k != comp[g, f]]
    if pairs:
        g, f, k = draw(strat.sampled_from(pairs))
        comp[g, f] = k


@strat.composite
def corrupted_categories(draw):
    """A concrete category with up to two corrupted entries: a composite
    re-pointed at an arrow of the same type (the case only associativity
    catches) or at any arrow, a composite removed, one defined on a
    non-composable pair, or an identity re-pointed."""
    C = draw(concrete_categories())[0]
    comp, id_arr = C.comp.copy(), C.id_arr.copy()
    n = C.n_arrows
    for _ in range(draw(strat.sampled_from([1, 1, 2, 0]))):
        kind = draw(strat.sampled_from(["same-type", "same-type", "same-type", "any",
                                        "remove", "extra", "identity"]))
        g, f = draw(strat.integers(0, n - 1)), draw(strat.integers(0, n - 1))
        if kind == "same-type":
            _repoint(draw, C, comp)
        elif kind == "identity":
            id_arr[draw(strat.integers(0, C.n_objects - 1))] = g
        elif kind == "extra":
            comp[g, f] = draw(strat.integers(0, n - 1))
        elif comp[g, f] < 0:
            continue
        elif kind == "remove":
            comp[g, f] = -1
        else:
            comp[g, f] = draw(strat.integers(0, n - 1))
    return _with_comp(C, comp, id_arr)


@settings(max_examples=150)
@given(corrupted_categories())
def test_validate_category_matches_oracle(C):
    """At the default budget and in blocks of one row."""
    want = oracles.category_laws(*_plain_category(C))
    assert _report(validate_category(C)) == want
    with _one_row_blocks():
        assert _report(validate_category(_fresh(C))) == want


def _powerset_doctrine(C: FinCat, arrows, sizes) -> DoctrineData:
    """Subsets with preimage reindexing, over a concrete category."""
    fibers = [powerset(s) for s in sizes]
    reindex = []
    for a, b, fn in arrows:
        table = np.array([sum(1 << x for x in range(sizes[a]) if (mask >> fn[x]) & 1)
                          for mask in range(1 << sizes[b])], dtype=np.int32)
        reindex.append(MonotoneMap(fibers[b], fibers[a], table))
    return DoctrineData(C, ProductChoice(0, {}), WindowScope(()), fibers, reindex)


@strat.composite
def corrupted_doctrines(draw, base_faults=("repoint",)):
    """A powerset doctrine with up to two corrupted entries: a reindex value
    of a non-identity arrow, the reindexing of a non-identity arrow replaced
    by that of another arrow of its type (a homomorphism, so only
    functoriality can fail), a meet of a fiber, or (for the fallback over a
    non-category) a composite of the base changed by one of `base_faults`:
    re-pointed within its type ("repoint"), removed ("remove") or
    re-pointed at an arrow of another type ("mistype").  The last two leave
    a base whose composites are not typed and total."""
    C, arrows, sizes = draw(concrete_categories())
    P = _powerset_doctrine(C, arrows, sizes)
    for _ in range(draw(strat.sampled_from([1, 1, 2, 0]))):
        kind = draw(strat.sampled_from(["reindex", "reindex", "reindex", "borrow", "borrow",
                                        "meet", *base_faults]))
        if kind == "borrow":
            f = draw(strat.sampled_from(_non_identity(C) or [0]))
            g = draw(strat.sampled_from(C.hom(int(C.src[f]), int(C.tgt[f])).tolist()))
            P.reindex[f] = MonotoneMap(P.reindex[f].dom, P.reindex[f].cod, P.reindex[g].table)
        elif kind == "reindex":
            f = draw(strat.sampled_from(_non_identity(C) or [0]))
            m = P.reindex[f]
            table = m.table.copy()
            table[draw(strat.integers(0, m.dom.n - 1))] = draw(strat.integers(0, m.cod.n - 1))
            P.reindex[f] = MonotoneMap(m.dom, m.cod, table)
        elif kind == "meet":
            o = draw(strat.integers(0, C.n_objects - 1))
            fib = P.fibers[o]
            meet = fib.meet.copy()
            i, j = draw(strat.integers(0, fib.n - 1)), draw(strat.integers(0, fib.n - 1))
            meet[i, j] = draw(strat.integers(0, fib.n - 1))
            P.fibers[o] = FinInfSL(fib.elements, fib.leq, fib.top, meet)
        elif kind == "repoint":
            comp = C.comp.copy()
            _repoint(draw, C, comp)
            C = P.cat = _with_comp(C, comp)
        else:
            comp = C.comp.copy()
            defined = np.argwhere(comp >= 0).tolist()
            if not defined:
                continue
            g, f = draw(strat.sampled_from(defined))
            other = [k for k in range(C.n_arrows)
                     if (C.src[k], C.tgt[k]) != (C.src[f], C.tgt[g])]
            if kind == "remove":
                comp[g, f] = -1
            elif other:
                comp[g, f] = draw(strat.sampled_from(other))
            C = P.cat = _with_comp(C, comp)
    return P


@settings(max_examples=150)
@given(corrupted_doctrines(base_faults=("repoint", "remove", "mistype")))
def test_validate_doctrine_matches_oracle(P):
    """At the default budget and in blocks of one row."""
    want = oracles.doctrine_laws(*_plain_doctrine(P))
    assert _report(validate_doctrine(P)) == want
    with _one_row_blocks():
        assert _report(validate_doctrine(_fresh(P))) == want


@settings(max_examples=150)
@given(corrupted_doctrines())
def test_adjoint_clause_matches_former_meet_pairs(P):
    """The lemma the generator check rests on: with valid fibers and
    reindex values inside them, every generator has a left adjoint exactly
    when every generator preserves top and all pairs of meets."""
    C = P.cat
    if any(fib.validate() for fib in P.fibers) or not C.is_category():
        return
    gens = C.generators().tolist()
    adjoints = all((left_adjoints(P.fibers[int(C.tgt[g])], P.fibers[int(C.src[g])],
                                  P.reindex[g].table[None]) >= 0).all() for g in gens)
    assert adjoints == oracles.meets_at_generators(P)


def test_oracles_pass_a_concrete_doctrine():
    sizes = [1, 2, 3]
    seeds = {(1, 2, (0, 2)), (2, 1, (1, 0, 1)), (2, 2, (1, 2, 2)), (0, 1, (1,))}
    arrows = sorted(_closure({(o, o, tuple(range(s))) for o, s in enumerate(sizes)} | seeds))
    C = _concrete(sizes, arrows)
    assert C.n_arrows > 2 * len(C.generators())
    assert oracles.category_laws(*_plain_category(C)) == oracles.PASSED
    P = _powerset_doctrine(C, arrows, sizes)
    assert oracles.doctrine_laws(*_plain_doctrine(P)) == oracles.PASSED
    assert validate_doctrine(P).ok


def test_functoriality_witness_is_first_by_source_object():
    """The sets 1 and 2 with every map between them, the endomaps of 2
    first in id order, and the swap s of 2 reindexed as the constant map
    c0, a homomorphism.  In the block of g = s, the pairs (s, f) fail for
    f = p0: 1 -> 2 and for f = s and c0: 2 -> 2, which have smaller ids; the
    canonical witness takes the source object of f before the arrow ids."""
    sizes = [1, 2]
    arrows = [(1, 1, (0, 1)), (1, 1, (1, 0)), (1, 1, (0, 0)), (1, 1, (1, 1)),
              (0, 0, (0,)), (0, 1, (0,)), (0, 1, (1,)), (1, 0, (0, 0))]
    P = _powerset_doctrine(_concrete(sizes, arrows), arrows, sizes)
    P.reindex[1] = MonotoneMap(P.reindex[1].dom, P.reindex[1].cod, P.reindex[2].table)
    want = (False, "Functoriality", ("m1", "m5", "s1"), "reindex(g∘f) != reindex(f)∘reindex(g)")
    assert oracles.doctrine_laws(*_plain_doctrine(P)) == want
    assert _report(validate_doctrine(P)) == want


def _generated_sub_doctrine(gens) -> DoctrineData:
    """The least sub-doctrine of fs2 whose fibers hold the given (object,
    subset) elements: the fibers are closed under meets, top and reindexing
    along every arrow, so it is a doctrine with fs2's products."""
    P = fixtures.fs2()
    C = P.cat
    keep = [np.zeros(fib.n, dtype=bool) for fib in P.fibers]
    for o, fib in enumerate(P.fibers):
        keep[o][fib.top] = True
    for o, el in gens:
        keep[o][el] = True
    grown = True
    while grown:
        grown = False
        for o, fib in enumerate(P.fibers):
            idx = np.flatnonzero(keep[o])
            meets = fib.meet[np.ix_(idx, idx)].ravel()
            grown |= not keep[o][meets].all()
            keep[o][meets] = True
        for f in range(C.n_arrows):
            pulled = P.r(f).table[keep[int(C.tgt[f])]]
            grown |= not keep[int(C.src[f])][pulled].all()
            keep[int(C.src[f])][pulled] = True
    elems = [np.flatnonzero(k) for k in keep]
    pos = [np.cumsum(k) - 1 for k in keep]
    fibers = [FinInfSL(tuple(fib.elements[i] for i in e), fib.leq[np.ix_(e, e)],
                       int(p[fib.top]), p[fib.meet[np.ix_(e, e)]].astype(np.int32))
              for fib, e, p in zip(P.fibers, elems, pos)]
    reindex = [MonotoneMap(fibers[int(C.tgt[f])], fibers[int(C.src[f])],
                           pos[int(C.src[f])][P.r(f).table[elems[int(C.tgt[f])]]].astype(np.int32))
               for f in range(C.n_arrows)]
    return DoctrineData(C, P.products, P.scope, fibers, reindex)


# the phases of a test that draws window_doctrines: a failing example is
# reported as found, not shrunk, since every shrink step rebuilds the
# closure of a sub-doctrine over fs2's 949 arrows (6-8 minutes a failure)
NO_SHRINK = [Phase.explicit, Phase.reuse, Phase.generate, Phase.target]


@strat.composite
def window_doctrines(draw, corrupt: bool = False):
    """A sub-doctrine of fs2 generated by one to three random subsets of the
    objects 2, 4 and 8.  With `corrupt`, one value of the reindexing along a
    leg <p_i, p_j> of a core cube A×A×A may be re-pointed, so the result may
    break the laws; the relation masks must still match the loops there."""
    C = fixtures.fs2().cat
    gens = []
    for _ in range(draw(strat.integers(1, 3))):
        o = draw(strat.sampled_from([2, 3, 4]))
        gens.append((o, draw(strat.integers(0, (1 << int(C.objects[o])) - 1))))
    Q = _generated_sub_doctrine(gens)
    if corrupt and draw(strat.booleans()):
        W = Q.window
        c = draw(strat.sampled_from(Q.scope.core))
        _, (p1, p2, p3) = W.prod3(c, c, c)
        f = W.pair(*draw(strat.sampled_from([(p1, p2), (p2, p3), (p1, p3)])))
        m = Q.reindex[f]
        table = m.table.copy()
        table[draw(strat.integers(0, m.dom.n - 1))] = draw(strat.integers(0, m.cod.n - 1))
        Q.reindex[f] = MonotoneMap(m.dom, m.cod, table)
    return Q


# ---------------------------------------------------------------------------
# faults injected into copies of fs2
# ---------------------------------------------------------------------------

POSITIONS = (0.0, 0.37, 0.71, 0.98)


def _fs2_comp_fault(C: FinCat, position) -> np.ndarray:
    """A copy of fs2's table with a composite of two non-identity arrows
    re-pointed at another arrow of its type, at a place in the table."""
    ids = set(C.id_arr.tolist())
    gi, fi = np.nonzero(C.comp >= 0)
    pairs = [(g, f) for g, f in zip(gi.tolist(), fi.tolist())
             if g not in ids and f not in ids
             and len(C.hom(int(C.src[f]), int(C.tgt[g]))) > 1]
    g, f = pairs[int(position * (len(pairs) - 1))]
    h = int(C.comp[g, f])
    comp = C.comp.copy()
    comp[g, f] = next(int(k) for k in C.hom(int(C.src[h]), int(C.tgt[h])) if k != h)
    return comp


@pytest.mark.parametrize("position", POSITIONS)
def test_fs2_comp_fault_caught_with_scan_witness(position):
    """A composite of two non-identity arrows re-pointed at another arrow of
    its type, at several places in the table."""
    C = fixtures.fs2().cat
    comp = _fs2_comp_fault(C, position)
    bad = _with_comp(C, comp)
    assert not bad.is_category()
    rep = validate_category(bad)
    assert _report(rep) == _report(_associativity_scan(bad))
    x, y, z = (bad.arr_index[a] for a in rep.witness)
    assert comp[comp[x, y], z] != comp[x, comp[y, z]]
    assert validate_category(C).ok


def _fs2_reindex_fault(P: DoctrineData, fault) -> tuple[int, np.ndarray]:
    """(arrow, new table).  At a position: one value of the reindexing
    along a non-identity arrow moved up by one, cyclically.  "meet": along
    the first generator g: 4 -> 8, a coatom x with P(g)(x) below top sent to
    top, which keeps P(g) monotone but breaks a meet.  "top": along that
    generator, the top of P(8) sent to bottom.  "second", "last": the
    second non-identity arrow 4 -> 8 given the table of the first, or the
    last given the table of the one before it, a homomorphism, so that only
    functoriality fails."""
    C = P.cat
    ids = set(C.id_arr.tolist())
    if fault in ("second", "last"):
        H = [f for f in C.hom(C.obj_index["4"], C.obj_index["8"]).tolist() if f not in ids]
        f, g = (H[1], H[0]) if fault == "second" else (H[-1], H[-2])
        return f, P.reindex[g].table.copy()
    if fault in ("meet", "top"):
        f = next(int(g) for g in C.generators()
                 if (C.objects[int(C.src[g])], C.objects[int(C.tgt[g])]) == ("4", "8"))
        m = P.reindex[f]
        table = m.table.copy()
        if fault == "meet":
            x = next(x for x in range(m.dom.n) if m.dom.leq[x].sum() == 2
                     and table[x] != m.cod.top)
            table[x] = m.cod.top
        else:
            table[m.dom.top] = m.cod.meet_all(range(m.cod.n))
        return f, table
    arrows = [f for f in range(C.n_arrows) if f not in ids and P.reindex[f].cod.n > 1]
    f = arrows[int(fault * (len(arrows) - 1))]
    m = P.reindex[f]
    table = m.table.copy()
    x = int(fault * (m.dom.n - 1))
    table[x] = (table[x] + 1) % m.cod.n
    return f, table


def _with_reindex(P: DoctrineData, f: int, table) -> DoctrineData:
    """A copy of P with the reindexing along f given by `table`."""
    m = P.reindex[f]
    reindex = list(P.reindex)
    reindex[f] = MonotoneMap(m.dom, m.cod, table)
    return DoctrineData(P.cat, P.products, P.scope, P.fibers, reindex)


def _fails_at_generators(P: DoctrineData) -> bool:
    stacks, pos = _reindex_stacks(P)
    stacks = [tables.astype(np.int16) for tables in stacks]
    return not _laws_scan(P, stacks, pos, P.cat.generators()).ok


# the reports the former exhaustive scan gave, kept as the canonical ones
MEET = "meet not preserved"
FUNCTOR = "reindex(g∘f) != reindex(f)∘reindex(g)"
REINDEX_FAULT_REPORTS = {
    0.0: ("Homomorphism", ("a1_2_0", "s0", "s2"), MEET),
    0.37: ("Homomorphism", ("a4_8_3575", "s94", "s95"), MEET),
    0.71: ("Homomorphism", ("a8_8_14233563", "s8", "s181"), MEET),
    0.98: ("Homomorphism", ("a8_8_4941567", "s4", "s249"), MEET),
    "meet": ("Homomorphism", ("a4_8_1672", "s8", "s247"), MEET),
    "top": ("Homomorphism", ("a4_8_1672",), "top not preserved"),
    "second": ("Functoriality", ("a2_8_8", "a4_2_12", "s1"), FUNCTOR),
    "last": ("Functoriality", ("a1_8_7", "a4_1_0", "s64"), FUNCTOR),
}


@pytest.mark.parametrize("position", POSITIONS + ("meet", "top", "second", "last"))
def test_fs2_reindex_fault_caught_with_scan_witness(position):
    """One value of the reindexing along a non-identity arrow changed, at
    several arrows and elements, two homomorphism faults on a generator
    into the 256-element fiber, and two faults only functoriality catches:
    the scan at the generators fails and the scan over every arrow names
    the pinned witness.  On the generator the adjoint kernel finds the
    homomorphism faults, and so does the former meet-pair clause."""
    P = fixtures.fs2()
    f, table = _fs2_reindex_fault(P, position)
    bad = _with_reindex(P, f, table)
    assert _fails_at_generators(bad)
    assert _report(validate_doctrine(bad)) == (False, *REINDEX_FAULT_REPORTS[position])
    if position == "meet":
        assert oracles.is_monotone(bad.reindex[f])
    if position in ("meet", "top"):
        m = P.reindex[f]
        assert (left_adjoints(m.dom, m.cod, table[None]) < 0).any()
        assert not oracles.meets_at_generators(bad)
    assert validate_doctrine(P).ok


@pytest.mark.parametrize("name, obj", [("chain", "v"), ("fs2", "0")])
def test_missing_composite_named_before_the_laws(request, name, obj):
    """id∘id removed from the base: the doctrine laws would read the
    missing composite, so the report is the base's, as validate_category
    names it, not a pass or an IndexError."""
    P = request.getfixturevalue(name)
    C = P.cat
    i = int(C.id_arr[C.obj_index[obj]])
    comp = C.comp.copy()
    comp[i, i] = -1
    bad = DoctrineData(_with_comp(C, comp), P.products, P.scope, P.fibers, P.reindex)
    want = (False, "MissingEntry", (f"id{obj}", f"id{obj}"), "composable pair has no composite")
    assert _report(validate_category(bad.cat)) == want
    assert _report(validate_doctrine(bad)) == want


@pytest.mark.parametrize("obj, i, j, value, message", [
    ("8", 200, 77, 255, "meet(s200, s77) is not a lower bound"),
    ("8", 77, 200, 64, "meet(s77, s200) is not above lower bound s8"),
    ("2", 1, 3, 0, "meet(s1, s3) is not above lower bound s1"),
])
def test_fs2_meet_fault_named(obj, i, j, value, message):
    """One meet entry of a fiber of fs2 changed: the Fiber witness and the
    message the row-by-row fiber check names."""
    P = fixtures.fs2()
    o = P.cat.obj_index[obj]
    fib = P.fibers[o]
    meet = fib.meet.copy()
    meet[i, j] = value
    fibers = list(P.fibers)
    fibers[o] = FinInfSL(fib.elements, fib.leq, fib.top, meet)
    rep = validate_doctrine(DoctrineData(P.cat, P.products, P.scope, fibers, P.reindex))
    assert _report(rep) == (False, "Fiber", (obj,), message)
    assert oracles.fiber_validate(fibers[o]) == message


def test_fs2_comp_fault_in_8_8_8_block_named():
    """g∘f re-pointed for two arrows 8 -> 8: the associativity witness
    the exhaustive scan names."""
    C = fixtures.fs2().cat
    H = C.hom(C.obj_index["8"], C.obj_index["8"]).tolist()
    g, f = H[100], H[300]
    comp = C.comp.copy()
    comp[g, f] = H[(H.index(int(comp[g, f])) + 1) % len(H)]
    assert (C.arrows[g], C.arrows[f], C.arrows[comp[g, f]]) == \
        ("a8_8_4527185", "a8_8_7070252", "a8_8_14111825")
    assert _report(validate_category(_with_comp(C, comp))) == (
        False, "AssociativityOrTyping", ("a2_8_17", "a8_2_170", "a8_8_7070252"),
        "(h∘g)∘f != h∘(g∘f)")


@pytest.mark.parametrize("value", ["past the end", "negative"])
@pytest.mark.parametrize("base", ["category", "not a category"])
def test_out_of_range_reindex_value_named(chain, value, base):
    """A reindex value outside its codomain fiber is a Reindex witness, on
    a base that is a category (the generator check follows) and on one that
    is not (the exhaustive scan follows), not an IndexError or a silent
    wrap-around."""
    C = chain.cat
    f = _non_identity(C)[0]
    m = chain.reindex[f]
    table = m.table.copy()
    table[0] = m.cod.n + 3 if value == "past the end" else -1
    reindex = list(chain.reindex)
    reindex[f] = MonotoneMap(m.dom, m.cod, table)
    comp = C.comp.copy()
    if base == "not a category":
        comp[f, C.id_arr[C.src[f]]] = -1
    bad = DoctrineData(_with_comp(C, comp), chain.products, chain.scope, chain.fibers, reindex)
    assert bad.cat.is_category() == (base == "category")
    rep = validate_doctrine(bad)
    want = (False, "Reindex", (C.arrows[f], m.dom.elements[0]),
            f"value {int(table[0])} is outside the fiber of {C.objects[int(C.src[f])]}")
    assert _report(rep) == want
    assert oracles.doctrine_laws(*_plain_doctrine(bad)) == want
    assert validate_doctrine(chain).ok


def test_fs2_tables_are_read_only():
    P = fixtures.fs2()
    C = P.cat
    for table in (C.src, C.tgt, C.id_arr, C.comp, P.fibers[0].leq, P.fibers[0].meet,
                  P.reindex[0].table):
        with pytest.raises(ValueError):
            table[0] = table[0]
    copied = copy.deepcopy(C)
    assert not copied.comp.flags.writeable
    assert copied.generators() is not C.generators()


# ---------------------------------------------------------------------------
# blocked kernels: blocks of one row give the reports of the default budget
# ---------------------------------------------------------------------------


# the reports of the former whole-table kernels
FS2_FAULT_REPORTS = {
    ("comp", 0.37): ("AssociativityOrTyping", ("a8_8_13314665", "a2_8_53", "a4_2_3")),
    ("comp", 0.98): ("AssociativityOrTyping", ("a8_8_12057471", "a4_8_3409", "a8_4_47889")),
    **{("reindex", p): REINDEX_FAULT_REPORTS[p][:2] for p in (0.37, "top", "last")},
}


@pytest.mark.parametrize("fault", list(FS2_FAULT_REPORTS))
def test_fs2_faults_named_alike_in_blocks_of_one_row(fault):
    """fs2 with one re-pointed composite, or one altered reindex entry: the
    witness the former kernels named, in blocks of one row as well."""
    P = fixtures.fs2()
    kind, position = fault
    if kind == "comp":
        bad = _with_comp(P.cat, _fs2_comp_fault(P.cat, position))
        check = validate_category
    else:
        bad = _with_reindex(P, *_fs2_reindex_fault(P, position))
        check = validate_doctrine
    assert _at_both_budgets(lambda: _report(check(_fresh(bad))))[1:3] == FS2_FAULT_REPORTS[fault]


CRAFTED_REPORTS = {
    "v_poset": (True, "", (), ""),
    "nofact_category": (True, "", (), ""),
    "meet_not_pullback": (True, "", (), ""),
    "noext": (False, "Homomorphism", ("a8_4_60996", "t1", "t2"), MEET),
    "nofrobenius": (False, "Functoriality", ("a2_2_1", "a2_2_1", "lo"), FUNCTOR),
    "mixedfail": (False, "Homomorphism", ("m",), "top not preserved"),
}


@pytest.mark.parametrize("name", list(CRAFTED_REPORTS))
def test_crafted_reports_alike_in_blocks_of_one_row(name):
    """The crafted categories and doctrines, and mixedfail, whose reindexing
    into the diamond fiber is monotone but no homomorphism: the reports of
    the former kernels, in blocks of one row as well."""
    doctrines = {"noext": lambda: crafted.noext()[0], "nofrobenius": crafted.nofrobenius,
                 "mixedfail": fixtures.mixedfail}
    if name in doctrines:
        build, check = doctrines[name], validate_doctrine
    else:
        build, check = getattr(crafted, name), validate_category
    assert _at_both_budgets(lambda: _report(check(build()))) == CRAFTED_REPORTS[name]


def test_lattice_and_limit_kernels_alike_in_blocks_of_one_row():
    """The fiber check, meets from an order, left adjoints, fiber
    homomorphisms and generators on fs2's tables."""
    P = fixtures.fs2()
    C, big = P.cat, P.fibers[P.cat.obj_index["8"]]
    meet = big.meet.copy()
    meet[77, 200] = 64
    tables = np.stack([P.reindex[f].table for f in C.hom(C.obj_index["4"], C.obj_index["8"])])
    assert _at_both_budgets(lambda: (
        FinInfSL(big.elements, big.leq, big.top, meet).validate(),
        [x.tolist() for x in meets_from_leq(big.elements, big.leq)[1:]],
        left_adjoints(big, P.fibers[C.obj_index["4"]], tables).tolist(),
        enumerate_fiber_homs(diamond(), powerset(2), 1 << 10).tolist(),
        _fresh(C).generators().tolist()))[0] == "meet(s77, s200) is not above lower bound s8"


def _typing_faults(C: FinCat, kinds) -> np.ndarray:
    """A copy of C's table with a fault of each kind in `kinds`, each in its
    own row of g: "mistyped" (a composable pair re-pointed at an arrow of
    another type) near the top, "missing" (a composable pair without
    composite) in the middle, "defined" (a composite on a pair that is not
    composable) near the end."""
    comp = C.comp.copy()
    for kind in kinds:
        g = {"mistyped": C.n_arrows // 50, "missing": C.n_arrows // 2,
             "defined": C.n_arrows - 2}[kind]
        f = int(np.flatnonzero((C.tgt == C.src[g]) != (kind == "defined"))[-1])
        comp[g, f] = {"missing": -1, "defined": 0}.get(kind) or next(
            k for k in range(C.n_arrows) if (C.src[k], C.tgt[k]) != (C.src[f], C.tgt[g]))
    return comp


@pytest.mark.parametrize("kinds, message", [
    (("mistyped",), "composite has wrong source or target"),
    (("missing",), "composable pair has no composite"),
    (("defined",), "composition defined on a non-composable pair"),
    (("mistyped", "missing"), "composable pair has no composite"),
    (("mistyped", "missing", "defined"), "composition defined on a non-composable pair"),
])
def test_typing_witness_is_the_int64_formulas(kinds, message):
    """Each of the three typing witnesses, alone and behind a fault in an
    earlier row that it comes before: the report of the former int64
    formula, in blocks of one row as well."""
    C = fixtures.fs2().cat
    bad = _with_comp(C, _typing_faults(C, kinds))
    want = oracles.typing_formula(bad)
    assert want.message == message
    assert _at_both_budgets(lambda: _report(_typing_violation(bad))) == _report(want)
    assert _report(validate_category(bad)) == _report(want)
