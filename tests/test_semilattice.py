import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as strat

from doctrines.errors import MalformedPresentation
from doctrines.fileformat import _transitive_closure
from doctrines.semilattice import (FinInfSL, MonotoneMap, NoAdjoint, chain, diamond,
                                   identity_map, lattice_from_leq, left_adjoint,
                                   left_adjoints, meets_from_leq, powerset, sub_semilattice)

import oracles
from oracles import check_adjunction, homomorphism_violation, is_monotone, min_of_upper_set


def test_chain_shape():
    c = chain(("a", "b", "c"))
    assert c.validate() is None
    assert c.top == 2
    assert c.meet_of(0, 2) == 0
    assert c.le(0, 2) and not c.le(2, 0)


def test_diamond_meets():
    d = diamond()
    assert d.validate() is None
    assert d.meet_of(d.index["a"], d.index["b"]) == d.index["bot"]
    assert d.meet_of(d.index["a"], d.index["top"]) == d.index["a"]


def test_powerset_is_boolean():
    p = powerset(3)
    assert p.validate() is None
    assert p.n == 8
    assert p.top == 7
    assert p.meet_of(0b101, 0b110) == 0b100


def test_lattice_from_leq_rejects_no_meet():
    # two incomparable elements below a top but with no common lower bound
    leq = np.eye(3, dtype=bool)
    leq[0, 2] = leq[1, 2] = True
    with pytest.raises(MalformedPresentation):
        lattice_from_leq(("x", "y", "t"), leq)


def _random_semilattice(draw):
    """A random inf-semilattice: the meet-closure of random subsets of a
    powerset, keeping determinism inside hypothesis."""
    k = draw(strat.integers(min_value=1, max_value=4))
    n = 1 << k
    subset = draw(strat.sets(strat.integers(min_value=0, max_value=n - 1),
                             min_size=1, max_size=6))
    elems = set(subset) | {n - 1}
    changed = True
    while changed:
        changed = False
        for a in list(elems):
            for b in list(elems):
                if (a & b) not in elems:
                    elems.add(a & b)
                    changed = True
    idxs = sorted(elems)
    parent = powerset(k)
    return sub_semilattice(parent, idxs)


@given(strat.data())
@settings(max_examples=60, deadline=None)
def test_vectorized_meets_match_search(data):
    lat = _random_semilattice(data.draw)
    top, meet = meets_from_leq(lat.elements, lat.leq)
    assert top == lat.top
    assert np.array_equal(meet, lat.meet)
    # force the vectorized path on an inflated copy when small
    if lat.n <= 64:
        big = powerset(7)
        top2, meet2 = meets_from_leq(big.elements, big.leq)
        assert top2 == big.top and np.array_equal(meet2, big.meet)


@given(strat.data())
@settings(max_examples=40, deadline=None)
def test_left_adjoint_galois_inequalities(data):
    """When an adjoint comes back, both unit and counit hold exhaustively."""
    L = _random_semilattice(data.draw)
    M = _random_semilattice(data.draw)
    table = np.array([data.draw(strat.integers(0, M.n - 1)) for _ in range(L.n)],
                     dtype=np.int32)
    h = MonotoneMap(L, M, table)
    if not is_monotone(h):
        return
    e = left_adjoint(h)
    if isinstance(e, NoAdjoint):
        # the witness element really has no least upper-set member
        leq_pairs = {(L.elements[i], L.elements[j])
                     for i in range(L.n) for j in range(L.n) if L.le(i, j)}
        a = M.index[e.witness]
        upper = [b for b in range(L.n) if M.le(a, int(h.table[b]))]
        assert not any(all(L.le(b, c) for c in upper) for b in upper)
        return
    assert check_adjunction(e, h)
    # uniqueness: recomputation agrees elementwise
    e2 = left_adjoint(h)
    assert np.array_equal(e.table, e2.table)


def test_left_adjoint_identity_is_identity():
    d = diamond()
    e = left_adjoint(identity_map(d))
    assert np.array_equal(e.table, np.arange(4))


def test_no_adjoint_diamond_to_chain():
    """Collapsing the two midpoints of the diamond onto the top of a 2-chain
    leaves the upper set of 1 without a least element."""
    d = diamond()
    c = chain(("0", "1"))
    h = MonotoneMap(d, c, np.array([0, 1, 1, 1], dtype=np.int32))
    assert is_monotone(h) and not h.is_homomorphism()
    res = left_adjoint(h)
    assert isinstance(res, NoAdjoint)
    assert res.witness == "1"
    assert set(res.upper_set) == {"a", "b", "top"}


def test_adjoint_agrees_with_upper_set_oracle():
    d = diamond()
    c = chain(("0", "1", "2"))
    h = MonotoneMap(c, d, np.array([d.index["bot"], d.index["a"], d.index["top"]],
                                   dtype=np.int32))
    e = left_adjoint(h)
    d_leq = {(i, j) for i in range(d.n) for j in range(d.n) if d.le(i, j)}
    c_leq = {(i, j) for i in range(c.n) for j in range(c.n) if c.le(i, j)}
    for alpha in range(d.n):
        want = min_of_upper_set(d_leq, c_leq, range(c.n), list(h.table), alpha)
        if isinstance(e, NoAdjoint):
            assert want is None
        else:
            assert want == int(e.table[alpha])


def test_left_adjoint_refuses_swap_on_two_chain():
    """The swap on the 2-chain is not monotone.  1 <= h(b) only at b = 0,
    and ↑0 is the whole chain, so e(1) <= b ⇔ 1 <= h(b) fails at b = 1,
    whatever e(1) is.  The former search returned e = [0, 0]."""
    c = chain(("0", "1"))
    h = MonotoneMap(c, c, np.array([1, 0], dtype=np.int32))
    assert left_adjoint(h) == NoAdjoint("1", ("0",))
    assert np.array_equal(oracles.left_adjoint(h).table, [0, 0])


@strat.composite
def tabled_maps(draw):
    """A map h: L -> M between random inf-semilattices: a homomorphism into
    a powerset, b ↦ {i : k_i <= b}, which has a left adjoint; a monotone
    map b ↦ ∧{r(c) : b <= c}; or any table; the first two sometimes with
    one entry changed."""
    L = _random_semilattice(draw)
    kind = draw(strat.sampled_from(["homomorphism", "monotone", "any"]))
    if kind == "homomorphism":
        ks = draw(strat.lists(strat.integers(0, L.n - 1), min_size=1, max_size=3))
        M = powerset(len(ks))
        table = [sum(1 << i for i, k in enumerate(ks) if L.le(k, b)) for b in range(L.n)]
    else:
        M = _random_semilattice(draw)
        r = [draw(strat.integers(0, M.n - 1)) for _ in range(L.n)]
        table = r if kind == "any" else [M.meet_all(r[c] for c in range(L.n) if L.le(b, c))
                                         for b in range(L.n)]
    if kind != "any" and draw(strat.booleans()):
        table[draw(strat.integers(0, L.n - 1))] = draw(strat.integers(0, M.n - 1))
    return MonotoneMap(L, M, np.array(table, dtype=np.int32))


@settings(max_examples=300)
@given(tabled_maps())
def test_left_adjoints_match_former_search(h):
    """At each a the kernel gives the least member c of {b : a <= h(b)}
    when that set is ↑c, else -1, by the oracle's search over sets of pairs.
    On a monotone map `left_adjoint` gives the former search's table, or
    its NoAdjoint witness and upper set; on any other map the same table,
    or a NoAdjoint where the former table fails the Galois test."""
    L, M = h.dom, h.cod
    row = left_adjoints(L, M, h.table[None])[0]
    L_leq = {(i, j) for i in range(L.n) for j in range(L.n) if L.le(i, j)}
    M_leq = {(i, j) for i in range(M.n) for j in range(M.n) if M.le(i, j)}
    for a in range(M.n):
        c = min_of_upper_set(M_leq, L_leq, range(L.n), list(h.table), a)
        upper = {b for b in range(L.n) if (a, int(h.table[b])) in M_leq}
        assert row[a] == (c if c is not None and upper == {b for b in range(L.n)
                                                           if (c, b) in L_leq} else -1)
    new, old = left_adjoint(h), oracles.left_adjoint(h)
    if is_monotone(h) or isinstance(new, MonotoneMap):
        assert new == old
    else:
        assert isinstance(old, NoAdjoint) or not oracles.is_left_adjoint(
            old.table, L.leq, M.leq, h.table)


def test_homomorphism_flags():
    d = diamond()
    ok = identity_map(d)
    assert ok.is_homomorphism()
    bad = MonotoneMap(d, d, np.array([0, 3, 2, 3], dtype=np.int32))
    assert is_monotone(bad)
    assert not bad.is_homomorphism()
    assert "meet not preserved" in homomorphism_violation(bad)


@settings(max_examples=300)
@given(tabled_maps())
def test_homomorphism_matches_top_and_meet_comparison(h):
    """Adjoint existence decides the homomorphism clause: the same verdict
    as comparing top and every pair of meets."""
    assert h.is_homomorphism() == (homomorphism_violation(h) is None)


def test_sub_semilattice_requires_meet_closure():
    d = diamond()
    with pytest.raises(MalformedPresentation):
        sub_semilattice(d, [d.index["a"], d.index["b"], d.index["top"]])


@strat.composite
def transitive_relations(draw):
    """A transitive relation on 48 to 80 elements, either side of the former
    meet builder's 64-element branch point: the inclusion preorder of
    subsets of a 6-element set with the whole set among them (meet-closed
    or not, with repeated subsets as ties, in shuffled order, some
    singletons made irreflexive), or the
    transitive closure of random edges, with or without a top."""
    n = draw(strat.integers(48, 80))
    kind = draw(strat.sampled_from(["meet-closed", "subsets", "edges"]))
    if kind == "edges":
        leq = np.zeros((n, n), dtype=bool)
        for _ in range(draw(strat.integers(0, 4 * n))):
            leq[draw(strat.integers(0, n - 1)), draw(strat.integers(0, n - 1))] = True
        if draw(strat.booleans()):
            leq[:, draw(strat.integers(0, n - 1))] = True
        return _transitive_closure(leq)
    family = set(draw(strat.lists(strat.integers(0, 63), min_size=1, max_size=n))) | {63}
    if kind == "meet-closed":
        while len(closed := family | {a & b for a in family for b in family}) > len(family):
            family = closed
    family = sorted(family)[:n]
    masks = family + [family[draw(strat.integers(0, len(family) - 1))]
                      for _ in range(n - len(family))]
    masks = np.array(draw(strat.permutations(masks)))
    leq = (masks[:, None] & ~masks[None, :]) == 0
    for i in draw(strat.sets(strat.integers(0, n - 1), max_size=3)):
        if (masks == masks[i]).sum() == 1:       # no twin forces i <= i
            leq[i, i] = False
    return leq


def _meets_or_message(build, elements, leq):
    try:
        top, meet = build(elements, leq)
    except MalformedPresentation as exc:
        return str(exc)
    return top, meet.dtype, meet.tolist()


@settings(max_examples=60)
@given(transitive_relations())
def test_meets_match_former_builder(leq):
    """The down-set lookup gives the (top, meet) table, or the message, of
    the former per-pair search on both sides of its branch point."""
    elements = tuple(f"e{i}" for i in range(len(leq)))
    assert (_meets_or_message(meets_from_leq, elements, leq)
            == _meets_or_message(oracles.meets_from_leq, elements, leq))


def test_validate_names_transitivity_gap_over_256_elements():
    """Bottom, 256 atoms, top, with bottom <= top dropped: exactly 256
    elements lie between them, and the gap is named."""
    names = ("b",) + tuple(f"a{i}" for i in range(256)) + ("t",)
    leq = np.eye(258, dtype=bool)
    leq[0, :] = leq[:, 257] = True
    full = lattice_from_leq(names, leq)
    assert full.validate() is None
    leq = full.leq.copy()
    leq[0, 257] = False
    broken = FinInfSL(names, leq, full.top, full.meet.copy())
    assert broken.validate() == "order not transitive: missing b <= t"


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: FinInfSL(("x", "x"), np.ones((2, 2), dtype=bool), 0,
                                  np.zeros((2, 2), dtype=np.int32)),
                 "duplicate element names in fiber", id="duplicate-elements"),
    pytest.param(lambda: sub_semilattice(diamond(), [0, 1, 2]),
                 "subset has no top element", id="no-top"),
])
def test_input_guards(build, message):
    """Two elements named alike; the bottom and the two incomparable
    midpoints of the diamond, closed under meets with no greatest one."""
    with pytest.raises(MalformedPresentation, match=f"^{message}$"):
        build()


@strat.composite
def corrupted_lattices(draw):
    """A meet-closed family of subsets, a chain or the diamond, with one to
    three entries of its meet table changed or of its order table flipped."""
    kind = draw(strat.sampled_from(["family", "family", "chain", "diamond"]))
    if kind == "family":
        lat = _random_semilattice(draw)
    elif kind == "chain":
        lat = chain(tuple(f"c{i}" for i in range(draw(strat.integers(1, 6)))))
    else:
        lat = diamond()
    leq, meet = lat.leq.copy(), lat.meet.copy()
    for _ in range(draw(strat.integers(1, 3))):
        i, j = draw(strat.integers(0, lat.n - 1)), draw(strat.integers(0, lat.n - 1))
        if draw(strat.sampled_from(["meet", "meet", "meet", "leq"])) == "meet":
            meet[i, j] = draw(strat.integers(0, lat.n - 1))
        else:
            leq[i, j] = not leq[i, j]
    return FinInfSL(lat.elements, leq, lat.top, meet)


@settings(max_examples=200)
@given(corrupted_lattices())
def test_validate_matches_former_loop(lat):
    """The down-set test names the fault, or passes, exactly as the former
    row-by-row meet check does."""
    assert lat.validate() == oracles.fiber_validate(lat)


@pytest.mark.parametrize("size, i, j, value, message", [
    (4, 1, 2, 3, "meet(a, b) is not a lower bound"),
    (4, 1, 3, 0, "meet(a, top) is not above lower bound a"),
    (512, 300, 5, 300, "meet(s300, s5) is not a lower bound"),
    (512, 301, 300, 256, "meet(s301, s300) is not above lower bound s4"),
])
def test_validate_reaches_both_meet_messages(size, i, j, value, message):
    """On the diamond, and past the first block of rows of a 512-element
    powerset."""
    lat = diamond() if size == 4 else powerset(9)
    meet = lat.meet.copy()
    meet[i, j] = value
    broken = FinInfSL(lat.elements, lat.leq, lat.top, meet)
    assert broken.validate() == message
    assert oracles.fiber_validate(broken) == message


def test_meets_from_leq_past_the_first_block():
    """A 512-element powerset gets its own meets, and without the subset
    {0, 1, 8} the first pair without a meet lies past the first block."""
    lat = powerset(9)
    top, meet = meets_from_leq(lat.elements, lat.leq)
    assert top == lat.top and np.array_equal(meet, lat.meet)
    keep = [x for x in range(512) if x != 0b100000011]
    with pytest.raises(MalformedPresentation, match="^elements s263, s267 have no meet$"):
        meets_from_leq(tuple(lat.elements[x] for x in keep), lat.leq[np.ix_(keep, keep)])
