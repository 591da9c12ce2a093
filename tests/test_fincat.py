import random

import numpy as np
import pytest

import crafted
from doctrines import compare, fixtures
from doctrines.doctrine import sub_doctrine
from doctrines.errors import DoctrinesError
from doctrines.fincat import (FinCat, FunctorData, ProductChoice, ValidationReport, Window,
                              WindowScope, check_equivalence, check_exact, equalizer,
                              full_subcategory, image_factorization, is_iso, is_mono,
                              is_regular_epi, iso_classes, pullback, validate_category,
                              validate_functor, validate_products)

import oracles
from oracles import enumerate_pullbacks




def test_validate_triv(triv):
    assert validate_category(triv.cat).ok


def test_validate_chain(chain):
    assert validate_category(chain.cat).ok


def test_wrong_source_composite_is_caught():
    # assign g∘f an arrow with the wrong source
    cat = crafted.build(
        ["A", "B"],
        [("idA", "A", "A"), ("idB", "B", "B"), ("f", "A", "B"), ("g", "B", "B")],
        {"A": "idA", "B": "idB"},
        {("idA", "idA"): "idA", ("idB", "idB"): "idB",
         ("f", "idA"): "f", ("idB", "f"): "f",
         ("g", "f"): "g",  # wrong: source of g is B, should be A
         ("g", "idB"): "g", ("idB", "g"): "g", ("g", "g"): "g"})
    rep = validate_category(cat)
    assert not rep.ok
    assert rep.law == "AssociativityOrTyping"
    assert rep.witness == ("g", "f")


def test_products_triv_chain(triv, chain):
    assert validate_products(triv.cat, triv.products).ok
    assert validate_products(chain.cat, chain.products).ok


def test_products_fs2_against_set_oracle(fs2):
    """Chosen mediators are the set-theoretic tuple maps."""
    pairing = fs2.window.pairing
    assert len(pairing) > 0
    C = fs2.cat
    # the mediator of the cone (pr1, pr2) is the identity of the product
    for p, p1, p2 in fs2.products.binary.values():
        assert pairing[(p1, p2)] == int(C.id_arr[p])


def test_pullback_chain_is_meet(chain):
    C = chain.cat
    m = C.arr_index["m"]
    cones = enumerate_pullbacks(C, m, m)
    assert len(cones) == 1
    u = C.obj_index["u"]
    assert cones[0].apex == u
    assert cones[0].legs == (int(C.id_arr[u]), int(C.id_arr[u]))


def test_pullback_triv_identity(triv):
    C = triv.cat
    i = int(C.id_arr[0])
    cones = enumerate_pullbacks(C, i, i)
    assert len(cones) >= 1 and cones[0].apex == 0


def test_pullback_fs2_kernel_of_collapse(fs2):
    """Pulling the map 2 -> 1 back along itself gives the 4-element product
    with the two cartesian projections."""
    C = fs2.cat
    bang = [f for f in C.hom(C.obj_index["2"], C.obj_index["1"])][0]
    cones = enumerate_pullbacks(C, int(bang), int(bang))
    assert cones, "no pullback found"
    apexes = {C.objects[c.apex] for c in cones}
    assert "4" in apexes
    four = [c for c in cones if C.objects[c.apex] == "4"][0]
    two = C.obj_index["2"]
    _, p1, p2 = fs2.products.binary[two, two]
    assert set(four.legs) == {p1, p2}


def test_pullback_cones_pairwise_isomorphic(chain, fs2):
    """Any two limiting cones over the same cospan compare by a unique iso."""
    for P in (chain, fs2):
        C = P.cat
        seen = 0
        for f in range(min(C.n_arrows, 12)):
            for g in range(min(C.n_arrows, 12)):
                if int(C.tgt[f]) != int(C.tgt[g]):
                    continue
                cones = enumerate_pullbacks(C, f, g)
                assert pullback(C, f, g) == (cones[0] if cones else None)
                seen += len(cones)
                for c1 in cones:
                    for c2 in cones:
                        med = [int(m) for m in C.hom(c1.apex, c2.apex)
                               if int(C.comp[c2.legs[0], int(m)]) == c1.legs[0]
                               and int(C.comp[c2.legs[1], int(m)]) == c1.legs[1]]
                        assert len(med) == 1
                        assert is_iso(C, med[0])
        assert seen > 0


def test_poset_arrows_all_mono_and_regular_epis_iso(chain):
    C = chain.cat
    for f in range(C.n_arrows):
        assert is_mono(C, f)
        if is_regular_epi(C, f):
            assert is_iso(C, f)


def test_factorization_poset_trivial(chain):
    C = chain.cat
    m = C.arr_index["m"]
    fact = image_factorization(C, m)
    assert fact is not None
    assert int(C.comp[fact.mono, fact.epi]) == m


def test_factorization_unavailable():
    C = crafted.nofact_category()
    assert validate_category(C).ok
    f = C.arr_index["f"]
    assert not is_mono(C, f)
    assert not is_regular_epi(C, f)
    assert image_factorization(C, f) is None


def test_factorization_in_relation_completion(completions):
    """The quotient arrow from equality to the full relation on the
    2-carrier factors as a regular epi followed by an identity mono."""
    P, E, X, tp, er, q = completions["fs2"]
    C = tp.cat
    src = tp.obj_of[(P.cat.obj_index["2"],
                     P.fibers[P.window.prod(2, 2)[0]].index["s9"])]
    tgt = tp.obj_of[(P.cat.obj_index["2"],
                     P.fibers[P.window.prod(2, 2)[0]].index["s15"])]
    qarr = [int(a) for a in C.hom(src, tgt)]
    assert len(qarr) == 1
    # the arrow itself is a regular epi, so it factors with the identity mono
    assert is_regular_epi(C, qarr[0])
    assert is_mono(C, int(C.id_arr[tgt]))
    fact = image_factorization(C, qarr[0])
    assert fact is not None
    assert is_regular_epi(C, fact.epi) and is_mono(C, fact.mono)
    assert int(C.comp[fact.mono, fact.epi]) == qarr[0]
    # the found image lies in the target's isomorphism class
    classes = [{C.obj_index[o] for o in cl} for cl in iso_classes(C)]
    target_class = next(cl for cl in classes if tgt in cl)
    assert fact.image in target_class


def test_check_exact_chain_base(chain):
    v = check_exact(chain.cat)
    assert v.finitely_complete and v.regular and v.exact


def test_check_exact_vposet_counterexample():
    v = check_exact(crafted.v_poset())
    assert not v.finitely_complete
    assert tuple(v.witness["finitely_complete"]) == ("a", "b")
    assert not v.regular and not v.exact


def test_check_exact_monotone(completions):
    for name in ("triv", "chain", "fs2"):
        P, E, X, tp, er, q = completions[name]
        v = check_exact(tp.cat, WindowScope(tp.scope.core))
        assert v.exact
        assert v.regular and v.finitely_complete  # monotone verdict


def test_equivalence_identity(triv):
    F = FunctorData(triv.cat, triv.cat, [0], [0])
    assert validate_functor(F).ok
    eq = check_equivalence(F)
    assert eq.faithful and eq.full and eq.essentially_surjective


def test_equivalence_embedding_misses_object(chain):
    one = crafted.build(["X"], [("idX", "X", "X")], {"X": "idX"},
                        {("idX", "idX"): "idX"})
    F = crafted.functor(one, chain.cat, {"X": "u"}, {"idX": "idu"})
    assert validate_functor(F).ok
    eq = check_equivalence(F)
    assert not eq.essentially_surjective
    assert eq.witness["essentially_surjective"] == "v"


def test_equivalence_witnesses_of_index_functors(chain):
    """Functors given by index with one fault each: collapsing nofact's s
    to idA is neither faithful nor full at (A, A), and sending the discrete
    category on A, B to u, v misses m.  The witnesses are those the former
    name-keyed functor data gave for the same faults."""
    T = crafted.nofact_category()       # arrows idA, idB, idC, s, f, c
    eq = check_equivalence(FunctorData(T, T, [0, 1, 2], [0, 1, 2, 0, 4, 5]))
    assert (eq.faithful, eq.full, eq.essentially_surjective) == (False, False, True)
    assert (eq.witness["faithful"], eq.witness["full"]) == (("A", "A", ("idA", "s")),
                                                            ("A", "A", "s"))
    S = crafted.build(["A", "B"], [("idA", "A", "A"), ("idB", "B", "B")],
                      {"A": "idA", "B": "idB"}, {("idA", "idA"): "idA", ("idB", "idB"): "idB"})
    F = FunctorData(S, chain.cat, [0, 1], [0, 1])      # u, v and idu, idv
    assert validate_functor(F).ok
    eq = check_equivalence(F)
    assert (eq.faithful, eq.full, eq.essentially_surjective) == (True, False, True)
    assert eq.witness["full"] == ("A", "B", "m") and "faithful" not in eq.witness


def _typed_functors(S, T, rng, count):
    """Random functor data S -> T that send identities to identities and
    every other arrow into the hom-set of its mapped ends, so that only
    composition can fail."""
    out = []
    while len(out) < count:
        omap = [rng.randrange(T.n_objects) for _ in range(S.n_objects)]
        homs = [T.hom(omap[int(S.src[f])], omap[int(S.tgt[f])]) for f in range(S.n_arrows)]
        if all(len(h) for h in homs):
            amap = [int(T.id_arr[omap[int(S.src[f])]]) if f in S.id_arr
                    else int(rng.choice(list(h))) for f, h in enumerate(homs)]
            out.append(FunctorData(S, T, omap, amap))
    return out


def test_functor_composition_matches_former_loop(triv, chain, fs2, completions, monkeypatch):
    """The composition clause of validate_functor, decided for all typed
    pairs at once, names the former loop's first failing pair: on random
    functor data between the bases and relation completions of triv and
    chain, from them into fs2, and from fs2's core into itself and fs2;
    and on every candidate that enumerate_functors validates from
    triv and chain into the bases of triv and chain and into the subobject
    doctrine of their own relation completion."""
    rng = random.Random(5)
    cats = [triv.cat, chain.cat, completions["triv"][3].cat, completions["chain"][3].cat]
    core = full_subcategory(fs2.cat, [0, 1, 2]).source
    cases = [F for S in cats for T in cats + [fs2.cat] for F in _typed_functors(S, T, rng, 25)]
    cases += _typed_functors(core, core, rng, 50) + _typed_functors(core, fs2.cat, rng, 50)
    seen = []

    def both(F, products=None):
        got, want = validate_functor(F, products), oracles.functor_composition_violation(F)
        assert got == want if want is not None else got.message != "composition not preserved"
        seen.append(want is None)
        return got

    monkeypatch.setattr(compare, "validate_functor", both)
    for P in (triv, chain):
        tp = completions["triv" if P is triv else "chain"][3]
        for R in (triv, chain, sub_doctrine(tp.cat, tp.pc, tp.scope)):
            compare.enumerate_functors(P.cat, P.products, R.cat, R.products, 1 << 20)
    for F in cases:
        want = oracles.functor_composition_violation(F)
        assert validate_functor(F) == (ValidationReport(True) if want is None else want)
        seen.append(want is None)
    assert True in seen and False in seen
    witnesses = {validate_functor(F).witness for F in cases} - {()}
    assert len(witnesses) > 10


def test_iso_classes_relation_completion(completions):
    P, E, X, tp, er, q = completions["fs2"]
    classes = iso_classes(tp.cat)
    assert len(classes) == 3
    assert sorted(len(c) for c in classes) == [1, 3, 4]


def test_pairing_postcomposition(chain, fs2):
    """Every mediator postcomposes with the projections back to its cone."""
    for P in (chain, fs2):
        C = P.cat
        assert P.window.pairing
        for (f, g), m in P.window.pairing.items():
            _, p1, p2 = P.products.binary[int(C.tgt[f]), int(C.tgt[g])]
            assert int(C.comp[p1, m]) == f
            assert int(C.comp[p2, m]) == g


def test_fs2_mediators_are_tuple_maps(fs2):
    """Set-theoretic oracle: the mediator of a cone into a cartesian product
    is the pointwise tuple map."""
    C = fs2.cat
    lk = fixtures.fs2_base()[3]
    vals = {C.arr_index[nm]: v for (a, b, v), nm in lk.items()}
    checked = 0
    for (f, g), m in list(fs2.window.pairing.items())[::7]:
        a, b = int(C.tgt[f]), int(C.tgt[g])
        _, p1, p2 = fs2.products.binary[a, b]
        sb = int(C.objects[b])
        if int(C.objects[a]) == 0 or sb == 0:
            continue
        fn, gn, mn = vals[f], vals[g], vals[m]
        # decode against the chosen projections rather than guessing layout
        pr1v, pr2v = vals[p1], vals[p2]
        for z in range(len(mn)):
            assert pr1v[mn[z]] == fn[z]
            assert pr2v[mn[z]] == gn[z]
        checked += 1
    assert checked > 20


def test_window_closure_violation_is_reported(chain):
    from doctrines.fincat import ProductChoice, Window, WindowScope, validate_products
    pc = ProductChoice(chain.products.terminal, dict(chain.products.binary))
    v = chain.cat.obj_index["v"]
    del pc.binary[v, v]
    assert validate_products(chain.cat, pc).ok
    win = Window(chain.cat, pc, chain.scope)
    missing = win.check_closure()
    assert ("v", "v") in missing


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


def _on_nofact(fn, *arrows: str):
    """fn on nofact_category and the named arrows."""
    C = crafted.nofact_category()
    return fn(C, *(C.arr_index[a] for a in arrows))


def _nofact_with(g: str, f: str, h: str) -> FinCat:
    """nofact_category with the composite g∘f set to h."""
    C = crafted.nofact_category()
    comp = C.comp.copy()
    comp[C.arr_index[g], C.arr_index[f]] = C.arr_index[h]
    return FinCat(C.objects, C.arrows, C.src, C.tgt, C.id_arr, comp)


def _nofact_functor(source: FinCat | None = None, drop: str = "", **arrows) -> FunctorData:
    """The identity of nofact_category, from `source` (its objects and arrow
    names), with one name left out of the maps and some arrows re-pointed."""
    T = crafted.nofact_category()
    S = source or T
    return crafted.functor(S, T, {o: o for o in S.objects if o != drop},
                           {a: arrows.get(a, a) for a in S.arrows if a != drop})


def _v_window(core=(2,)) -> Window:
    """A window on v_poset, whose object 2 is t, with the given core."""
    C = crafted.v_poset()
    return Window(C, crafted.choice(C, "t", {}), WindowScope(core))


def _v_pair(f: str, g: str) -> int:
    """<f, g> in v_poset's window, which chooses no binary product."""
    W = _v_window()
    return W.pair(W.C.arr_index[f], W.C.arr_index[g])


def _comparison_without_mediator():
    """The one-object category, with its product (X, X), sent onto t of
    v_poset, whose chosen (t, t) product, the apex a with at twice,
    mediates no cone out of t: the functor and both product choices."""
    S = crafted.build(["X"], [("idX", "X", "X")], {"X": "idX"}, {("idX", "idX"): "idX"})
    T = crafted.v_poset()
    return crafted.functor(S, T, {"X": "t"}, {"idX": "idt"}), (
        crafted.choice(S, "X", {("X", "X"): ("X", "idX", "idX")}),
        crafted.choice(T, "t", {("t", "t"): ("a", "at", "at")}))


@pytest.mark.parametrize("build, outcome", [
    pytest.param(lambda: FinCat(("A", "A"), ("idA", "idB"), np.array([0, 1]), np.array([0, 1]),
                                np.array([0, 1]), np.full((2, 2), -1)),
                 ("MalformedPresentation", "duplicate object identifiers"), id="objects"),
    pytest.param(lambda: FinCat(("A",), ("idA", "idA"), np.zeros(2, np.int32),
                                np.zeros(2, np.int32), np.zeros(1, np.int32), np.full((2, 2), -1)),
                 ("MalformedPresentation", "duplicate arrow identifiers"), id="arrows"),
    pytest.param(lambda: _on_nofact(FinCat.compose, "f", "c"),
                 ("MalformedPresentation", "arrows not composable: f after c"), id="compose"),
    pytest.param(lambda: validate_category(_nofact_with("s", "idA", "idA")),
                 (False, "Identity", ("s",), "f∘id != f"), id="right-identity"),
    # v_poset has the objects a, b, t and the arrows ida, idb, idt, at, bt: index 3
    # is no object, and a product of (a, b) with the apex 3 names an unknown id
    pytest.param(lambda: validate_products(crafted.v_poset(), ProductChoice(3, {})),
                 (False, "MissingEntry", (3,), "unknown terminal"), id="terminal"),
    pytest.param(lambda: validate_products(crafted.v_poset(),
                                           ProductChoice(2, {(0, 1): (3, 3, 4)})),
                 (False, "MissingEntry", (3,), "unknown id in product entry"),
                 id="product-entry"),
    pytest.param(lambda: _v_window((3,)),
                 ("MalformedPresentation", "core object 3 not in category"), id="core"),
    pytest.param(lambda: _v_pair("at", "bt"),
                 ("WindowClosure", "window closure violated: missing product txt "
                                   "(no mediator for cone (at, bt))"), id="mediator"),
    pytest.param(lambda: _on_nofact(pullback, "f", "c"),
                 ("MalformedPresentation", "pullback of arrows with different targets"),
                 id="pullback"),
    pytest.param(lambda: _on_nofact(equalizer, "f", "c"),
                 ("MalformedPresentation", "equalizer of a non-parallel pair"), id="equalizer"),
    pytest.param(lambda: validate_functor(_nofact_functor(drop="A")),
                 (False, "Functor", ("A",), "object map incomplete"), id="functor-objects"),
    pytest.param(lambda: validate_functor(_nofact_functor(drop="s")),
                 (False, "Functor", ("s",), "arrow map incomplete"), id="functor-arrows"),
    pytest.param(lambda: validate_functor(_nofact_functor(s="f")),
                 (False, "Functor", ("s",), "arrow map badly typed"), id="functor-typing"),
    pytest.param(lambda: validate_functor(_nofact_functor(idA="s")),
                 (False, "Functor", ("A",), "identity not preserved"), id="functor-identity"),
    pytest.param(lambda: validate_functor(_nofact_functor(_nofact_with("s", "s", "s"))),
                 (False, "Functor", ("s", "s"), "composition not preserved"),
                 id="functor-composition"),
    pytest.param(lambda: validate_functor(*_comparison_without_mediator()),
                 ("WindowClosure", "window closure violated: missing product txt "
                                   "(no mediator for cone (idt, idt))"), id="functor-comparison"),
])
def test_input_guards(build, outcome):
    assert _outcome(build) == outcome


@pytest.mark.parametrize("sizes, core", [([0, 1, 2, 4, 8], [0, 1, 2]), ([1, 2, 4], [2])])
def test_finset_window_matches_former_builder(sizes, core):
    """Names, arrow order, tables, chosen products and lookup of the
    blockwise window build against the former per-arrow one."""
    cat, pc, scope, lookup = fixtures.finset_window(sizes, core)
    cat0, pc0, scope0, lookup0 = oracles.finset_window(sizes, core)
    assert (cat.objects, cat.arrows) == (cat0.objects, cat0.arrows)
    for table in ("src", "tgt", "id_arr", "comp"):
        assert np.array_equal(getattr(cat, table), getattr(cat0, table)), table
    assert (pc.terminal, pc.binary, scope) == (pc0.terminal, pc0.binary, scope0)
    assert list(lookup.items()) == list(lookup0.items())


def test_fs2_matches_former_builder():
    P = fixtures.fs2()
    cat0, pc0, scope0, lookup0 = oracles.finset_window([0, 1, 2, 4, 8], [0, 1, 2])
    assert P.cat.arrows == cat0.arrows and np.array_equal(P.cat.comp, cat0.comp)
    assert P.products.binary == pc0.binary and P.scope == scope0
    assert fixtures.fs2_base()[3] == lookup0
    for f, table in enumerate(oracles.fs2_reindex(cat0, lookup0)):
        m = P.reindex[f]
        assert m.dom is P.fibers[int(P.cat.tgt[f])] and m.cod is P.fibers[int(P.cat.src[f])]
        assert m.table.dtype == table.dtype and np.array_equal(m.table, table), P.cat.arrows[f]
