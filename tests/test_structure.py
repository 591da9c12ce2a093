import numpy as np

import crafted
import oracles
from doctrines import fixtures
from doctrines.structure import (StructureFailure, check_beck_chevalley,
                                 check_delta_product_law, check_frobenius,
                                 check_rule_of_choice, comprehension_of,
                                 comprehension_table, discover_elementary,
                                 discover_existential, elementary_candidates,
                                 verify_comprehension_arrow)

from oracles import direct_image, preimage, set_from_mask, mask_from_set


def _delta_names(P, E):
    return {P.cat.objects[a]: P.fibers[P.window.prod(a, a)[0]].elements[d]
            for a, d in E.delta.items()}


def test_discover_elementary_values(witnesses):
    P, E, X = witnesses["triv"]
    assert _delta_names(P, E) == {"T": "top"}
    P, E, X = witnesses["chain"]
    assert _delta_names(P, E) == {"u": "u1", "v": "v2"}
    P, E, X = witnesses["fs2"]
    # the diagonal subset of the 2-carrier square: pairs (0,0) and (1,1)
    assert _delta_names(P, E) == {"0": "s0", "1": "s1", "2": "s9"}
    assert mask_from_set({0 * 2 + 0, 1 * 2 + 1}, 4) == 9


def test_delta_candidates_unique(witnesses):
    for name in ("triv", "chain", "fs2"):
        P, E, X = witnesses[name]
        for a in P.scope.core:
            assert len(elementary_candidates(P, a)) == 1


def test_elementary_candidates_match_former_search():
    """Reading the candidates off the computed adjoints keeps exactly the
    elements the former per-element Galois test kept, on every built-in
    fixture; mixedfail's object v has none."""
    for name, build in fixtures.BUILTIN_FIXTURES.items():
        P = build()
        for a in P.scope.core:
            assert elementary_candidates(P, a) == oracles.elementary_candidates(P, a), name
    P = fixtures.mixedfail()
    assert elementary_candidates(P, P.cat.obj_index["v"]) == []


def test_delta_unit_inequality(witnesses):
    """top <= P_diag(delta) at every core object."""
    for name in ("triv", "chain", "fs2"):
        P, E, X = witnesses[name]
        for a, d in E.delta.items():
            dg = P.r(P.window.diag(a)).table
            assert int(dg[d]) == P.fibers[a].top


def test_discover_existential_chain_tables(witnesses):
    P, E, X = witnesses["chain"]
    C = P.cat
    u, v = C.obj_index["u"], C.obj_index["v"]
    _, pr1, pr2 = P.window.prod(u, v)
    # the second projection of u×v is the embedding; its adjoint truncates
    e = X.adjoints[pr2]
    fu, fv = P.fibers[u], P.fibers[v]
    assert fv.elements[int(e.table[fu.index["u0"]])] == "v0"
    assert fv.elements[int(e.table[fu.index["u1"]])] == "v1"


def test_existential_failure_witness():
    M = fixtures.mixedfail()
    res = discover_existential(M)
    assert isinstance(res, StructureFailure)
    assert res.kind == "existential"
    assert res.witness[0] == "a"


def test_adjoint_unit_counit(witnesses):
    for name in ("triv", "chain", "fs2"):
        P, E, X = witnesses[name]
        for pr, e in X.adjoints.items():
            r = P.r(pr)
            big, small = r.dom, r.cod
            for al in range(small.n):
                assert small.le(al, int(r.table[e.table[al]]))
            for be in range(big.n):
                assert big.le(int(e.table[r.table[be]]), be)


def test_beck_chevalley_counts(witnesses):
    for name, squares in (("triv", 0), ("chain", 2), ("fs2", 24)):
        P, E, X = witnesses[name]
        v = check_beck_chevalley(P, X)
        assert v.ok
        assert v.checked == squares


def test_beck_chevalley_fails_on_nochoice(witnesses):
    P, E, X = witnesses["nochoice"]
    v = check_beck_chevalley(P, X)
    assert not v.ok


def test_existential_is_direct_image_on_sets(witnesses):
    """The adjoints along finite-set projections are direct images."""
    P, E, X = witnesses["fs2"]
    C = P.cat
    lk = fixtures.fs2_base()[3]
    vals = {C.arr_index[nm]: v for (a, b, v), nm in lk.items()}
    for inst in X.instances:
        for pr, tgt in ((inst.pr1, inst.a1), (inst.pr2, inst.a2)):
            fn = vals[pr]
            st = int(C.objects[tgt])
            sp = int(C.objects[inst.prod])
            e = X.adjoints[pr]
            for mask in range(P.fibers[inst.prod].n):
                want = direct_image(fn, set_from_mask(mask, sp)) if sp else frozenset()
                assert set_from_mask(int(e.table[mask]), st) == want


def test_frobenius_all_fixtures(witnesses):
    for name in ("triv", "chain", "fs2"):
        P, E, X = witnesses[name]
        assert check_frobenius(P, X).ok


def test_frobenius_matches_set_oracle(witnesses):
    """Projecting a meet with a preimage equals meeting with the image."""
    P, E, X = witnesses["fs2"]
    C = P.cat
    lk = fixtures.fs2_base()[3]
    vals = {C.arr_index[nm]: v for (a, b, v), nm in lk.items()}
    inst = [i for i in X.instances
            if C.objects[i.a1] == "2" and C.objects[i.a2] == "2"][0]
    fn = vals[inst.pr1]
    for amask in range(4):
        for bmask in range(16):
            a_set = set_from_mask(amask, 2)
            b_set = set_from_mask(bmask, 4)
            lhs = direct_image(fn, preimage(fn, a_set) & b_set)
            rhs = a_set & direct_image(fn, b_set)
            assert lhs == rhs


def test_comprehension_examples(witnesses):
    P, E, X = witnesses["chain"]
    C = P.cat
    # top elements are comprehended by identities, strictly
    top_u = comprehension_of(P, C.obj_index["u"], P.fibers[P.cat.obj_index["u"]].top)
    assert top_u.kind == "strict" and top_u.arrow == C.arr_index["idu"]
    # the bottom of the fiber over v has no comprehension at all
    none_v = comprehension_of(P, C.obj_index["v"], P.fibers[P.cat.obj_index["v"]].index["v0"])
    assert none_v.kind == "none"
    # the middle element restricts along the embedding
    mid = comprehension_of(P, C.obj_index["v"], P.fibers[P.cat.obj_index["v"]].index["v1"])
    assert mid.kind == "strict" and mid.arrow == C.arr_index["m"]


def test_comprehension_fs2_singleton(witnesses):
    P, E, X = witnesses["fs2"]
    C = P.cat
    two = C.obj_index["2"]
    ent = comprehension_of(P, two, P.fibers[two].index["s1"])
    assert ent.kind == "strict"
    assert C.objects[int(C.src[ent.arrow])] == "1"
    ct = comprehension_table(P)
    assert ct.strict_complete and ct.full


def test_comprehension_fullness_antisymmetry(witnesses):
    """On the finite-set window, mutual factorization of comprehensions
    forces equality of the elements."""
    P, E, X = witnesses["fs2"]
    C = P.cat
    for a in P.scope.core:
        fib = P.fibers[a]
        ents = {el: comprehension_of(P, a, el) for el in range(fib.n)}
        for e1 in range(fib.n):
            for e2 in range(fib.n):
                c1 = ents[e1].arrow
                c2 = ents[e2].arrow
                fw = any(int(C.comp[c2, int(g)]) == c1
                         for g in C.hom(int(C.src[c1]), int(C.src[c2])))
                bw = any(int(C.comp[c1, int(g)]) == c2
                         for g in C.hom(int(C.src[c2]), int(C.src[c1])))
                if fw and bw:
                    assert e1 == e2


def test_verify_comprehension_arrow(witnesses):
    P, E, X = witnesses["chain"]
    C = P.cat
    v = C.obj_index["v"]
    assert verify_comprehension_arrow(P, v, P.fibers[v].index["v1"],
                                      C.arr_index["m"], strict=True)
    assert not verify_comprehension_arrow(P, v, P.fibers[v].index["v0"],
                                          C.arr_index["m"], strict=True)


def test_rule_of_choice(witnesses):
    for name in ("triv", "chain", "fs2"):
        P, E, X = witnesses[name]
        assert check_rule_of_choice(P, X).ok
    P, E, X = witnesses["nochoice"]
    v = check_rule_of_choice(P, X)
    assert not v.ok
    assert v.witness == ("v", "u", "a")


def test_delta_product_law(witnesses):
    for name in ("triv", "chain"):
        P, E, X = witnesses[name]
        v = check_delta_product_law(P, E)
        assert bool(v) and not v.skipped
    P, E, X = witnesses["fs2"]
    v = check_delta_product_law(P, E)
    assert bool(v) and v.skipped  # a verdict with listed skips holds
    assert ("1", "1") in v.checked and ("1", "2") in v.checked
    assert any(s[:2] == ("2", "2") for s in v.skipped)


def test_delta_product_law_fails_with_witness(witnesses):
    """Moving fs2's equality at 1 to the other element of P(1×1) breaks the
    tensor law; the verdict names the first pair and both fiber elements."""
    from doctrines.structure import ElementaryWitness
    P, E, X = witnesses["fs2"]
    one = P.cat.obj_index["1"]
    assert P.fibers[P.window.prod(one, one)[0]].n == 2
    delta = dict(E.delta)
    delta[one] = 1 - delta[one]
    v = check_delta_product_law(P, ElementaryWitness(delta))
    assert not v.ok and not bool(v)
    assert v.witness == ("1", "2", "s9", "s0")


def test_weak_comprehension_classification():
    """A restriction along which every factorization exists but is never
    unique (a nontrivial automorphism over it) is weak, not strict."""
    import numpy as np
    from doctrines.doctrine import DoctrineData
    from doctrines.fincat import WindowScope, validate_products
    from doctrines.semilattice import MonotoneMap, chain as chain_lattice, lattice_from_leq
    cat = crafted.build(
        ["W", "A"],
        [("idW", "W", "W"), ("e", "W", "W"), ("idA", "A", "A"), ("c", "W", "A")],
        {"W": "idW", "A": "idA"},
        {("idW", "idW"): "idW", ("e", "idW"): "e", ("idW", "e"): "e",
         ("e", "e"): "idW", ("idA", "idA"): "idA",
         ("c", "idW"): "c", ("c", "e"): "c", ("idA", "c"): "c"})
    pc = crafted.choice(cat, "A", {("A", "A"): ("A", "idA", "idA")})
    assert validate_products(cat, pc).ok
    fW = lattice_from_leq(("w",), np.ones((1, 1), dtype=bool))
    fA = chain_lattice(("bot", "top"))
    P = DoctrineData(cat, pc, WindowScope((1,)),                 # A
                     [fW, fA],
                     [MonotoneMap(fW, fW, np.array([0], dtype=np.int32)),
                      MonotoneMap(fW, fW, np.array([0], dtype=np.int32)),
                      MonotoneMap(fA, fA, np.arange(2, dtype=np.int32)),
                      MonotoneMap(fA, fW, np.array([0, 0], dtype=np.int32))])
    from doctrines.doctrine import validate_doctrine
    assert validate_doctrine(P).ok
    ent = comprehension_of(P, cat.obj_index["A"], fA.index["bot"])
    assert ent.kind == "weak"
    assert ent.arrow == cat.arr_index["c"]


def test_reciprocity_failure_names_a_genuine_witness():
    """On a doctrine whose left adjoint along the first projection 4 -> 2
    breaks reciprocity, the witness (projection, alpha, beta) is the first
    failing instance, and both sides recomputed there differ."""
    P = crafted.nofrobenius()
    X = discover_existential(P)
    assert not isinstance(X, StructureFailure)
    v = check_frobenius(P, X)
    assert (v.ok, v.detail) == (False, "reciprocity failed")
    arrow, al, be = v.witness
    two = P.cat.obj_index["2"]
    assert (arrow, al, be) == (P.cat.arrows[P.products.binary[two, two][1]], "mid", "yes")
    pr = P.cat.arr_index[arrow]
    fib_a, fib_p = P.fibers[int(P.cat.tgt[pr])], P.fibers[int(P.cat.src[pr])]
    e = X.adjoints[pr]
    assert oracles.check_adjunction(e, P.r(pr))
    lhs = int(e.table[fib_p.meet_of(int(P.r(pr).table[fib_a.index[al]]), fib_p.index[be])])
    rhs = fib_a.meet_of(fib_a.index[al], int(e.table[fib_p.index[be]]))
    assert (fib_a.elements[lhs], fib_a.elements[rhs]) == ("lo", "mid")
    # every other projection satisfies reciprocity: the witness is the only failure
    others = {i.pr1 for i in X.instances} | {i.pr2 for i in X.instances}
    for q in others - {pr}:
        fib_q = P.fibers[int(P.cat.src[q])]
        for x in range(P.fibers[int(P.cat.tgt[q])].n):
            assert (X.adjoints[q].table[fib_q.meet[P.r(q).table[x]]]
                    == P.fibers[int(P.cat.tgt[q])].meet[x, X.adjoints[q].table]).all()
