
import numpy as np
import pytest

import crafted
from doctrines import fixtures
from doctrines.completions import (Caps, NoExtension, build_erp, build_gr,
                                   build_qp, build_tp, functor_D, functor_L,
                                   transitive_extension)
from doctrines.doctrine import exists_along, sub_doctrine
from doctrines.errors import ResourceCap
from doctrines.fincat import (WindowScope, check_equivalence, check_exact,
                              iso_classes, validate_category, validate_functor)
from doctrines.structure import discover_elementary, discover_existential

import oracles
from oracles import (compose_rel, functional_relation_oracle, mask_from_rel, pers_on,
                     rel_from_mask, transitive_closure)


# ---------------------------------------------------------------------------
# the relation completion
# ---------------------------------------------------------------------------


def test_tp_triv_is_the_diamond_poset(completions):
    """Four objects; a unique arrow rho -> sigma exactly when rho <= sigma."""
    P, E, X, tp, er, q = completions["triv"]
    fib = P.fibers[0]
    assert len(tp.objects) == 4
    assert tp.cat.n_arrows == 9
    for (xi, yi, el) in tp.arrows:
        rho = tp.objects[xi][1]
        sig = tp.objects[yi][1]
        assert fib.le(rho, sig)
        assert el == rho          # the arrow is the source relation
    for rho in range(fib.n):
        for sig in range(fib.n):
            hom = tp.cat.hom(tp.obj_of[(0, rho)], tp.obj_of[(0, sig)])
            assert len(hom) == (1 if fib.le(rho, sig) else 0)


def test_tp_identity_is_the_relation(completions):
    for name in ("triv", "chain", "fs2"):
        P, E, X, tp, er, q = completions[name]
        for oi, (a, rel) in enumerate(tp.objects):
            ident = int(tp.cat.id_arr[oi])
            assert tp.arrows[ident] == (oi, oi, rel)


def test_tp_objects_against_per_oracle(completions):
    """Objects over the 2-carrier are exactly the symmetric transitive
    relations enumerated set-theoretically."""
    P, E, X, tp, er, q = completions["fs2"]
    two = P.cat.obj_index["2"]
    ours = sorted(rel for (a, rel) in tp.objects if a == two)
    oracle = sorted(mask_from_rel(r, 2, 2) for r in pers_on(2))
    assert ours == oracle
    assert len(tp.objects) == 8
    counts = {}
    for a, rel in tp.objects:
        counts[P.cat.objects[a]] = counts.get(P.cat.objects[a], 0) + 1
    assert counts == {"0": 1, "1": 2, "2": 5}


def test_tp_arrows_against_condition_oracle(completions):
    """Hom sets over the 2-carrier match the brute-force enumeration of the
    five conditions on set relations."""
    P, E, X, tp, er, q = completions["fs2"]
    two = P.cat.obj_index["2"]
    pers = [rel for (a, rel) in tp.objects if a == two]
    for rho in pers:
        for sig in pers:
            got = sorted(el for (xi, yi, el) in tp.arrows
                         if tp.objects[xi] == (two, rho) and tp.objects[yi] == (two, sig))
            want = sorted(
                m for m in range(16)
                if functional_relation_oracle(rel_from_mask(m, 2, 2),
                                              rel_from_mask(rho, 2, 2),
                                              rel_from_mask(sig, 2, 2), 2, 2))
            assert got == want


def test_tp_composition_is_relation_composition(completions):
    P, E, X, tp, er, q = completions["fs2"]
    C = tp.cat
    for i, (xi, yi, el1) in enumerate(tp.arrows):
        if P.cat.objects[tp.objects[xi][0]] != "2":
            continue
        for j, (yj, zi, el2) in enumerate(tp.arrows):
            if yj != yi or P.cat.objects[tp.objects[zi][0]] != "2":
                continue
            if P.cat.objects[tp.objects[yi][0]] != "2":
                continue
            comp = int(C.comp[j, i])
            want = compose_rel(rel_from_mask(el1, 2, 2), rel_from_mask(el2, 2, 2))
            assert tp.arrows[comp][2] == mask_from_rel(want, 2, 2)


def test_tp_validates_and_counts(completions):
    for name, n_obj, n_cls in (("triv", 4, 4), ("chain", 5, 3), ("fs2", 8, 3)):
        P, E, X, tp, er, q = completions[name]
        assert validate_category(tp.cat).ok
        assert tp.cat.n_objects == n_obj
        assert len(iso_classes(tp.cat)) == n_cls


def test_tp_exactness_scoped(completions):
    P, E, X, tp, er, q = completions["fs2"]
    v = check_exact(tp.cat, WindowScope(tp.scope.core))
    assert v.exact
    assert len(v.core) == 7  # the square of the two-point equality is outside


def test_relation_as_endoarrow_is_idempotent(completions):
    for name in ("triv", "chain", "fs2"):
        P, E, X, tp, er, q = completions[name]
        C = tp.cat
        for oi in range(len(tp.objects)):
            e = int(C.id_arr[oi])
            assert int(C.comp[e, e]) == e


# ---------------------------------------------------------------------------
# reflexive subcategory, graph embedding
# ---------------------------------------------------------------------------


def test_er_objects(completions):
    P, E, X, tp, er, q = completions["triv"]
    assert len(er.objects) == 1
    P, E, X, tp, er, q = completions["fs2"]
    names = sorted(er.cat.objects)
    assert names == ["(0|s0)", "(1|s1)", "(2|s15)", "(2|s9)"]


def test_er_totality_reduction(completions):
    """Between reflexive objects the totality condition against the source
    relation coincides with plain totality of the projection image."""
    P, E, X, tp, er, q = completions["fs2"]
    from doctrines.completions import functional_relations
    win = P.window
    for x in er.objects:
        for y in er.objects:
            (a, rho), (b, sig) = x, y
            ab, pr1, _ = win.prod(a, b)
            e1 = exists_along(P, pr1)
            for el in functional_relations(P, X, x, y):
                assert int(e1.table[el]) == P.fibers[a].top


def test_inclusion_equivalence_fs2(completions):
    P, E, X, tp, er, q = completions["fs2"]
    eq = check_equivalence(er.inclusion)
    assert eq.faithful and eq.full and eq.essentially_surjective
    assert len(er.objects) == 4 and len(tp.objects) == 8


def test_functor_D_values(completions):
    P, E, X, tp, er, q = completions["fs2"]
    D = functor_D(P, E, er)
    assert validate_functor(D).ok
    C = P.cat
    arr_map = crafted.functor_names(D)[1]
    # identities go to the equalities
    for a in P.scope.core:
        img = arr_map[C.arrows[int(C.id_arr[a])]]
        _, _, el = er.tp.arrows[er.tp.cat.arr_index[img]]
        assert el == E.delta[a]
    # the graph of the singleton inclusion
    one, two = C.obj_index["1"], C.obj_index["2"]
    inc = [int(f) for f in C.hom(one, two)][0]
    img = arr_map[C.arrows[inc]]
    el = er.tp.arrows[er.tp.cat.arr_index[img]][2]
    lk = fixtures.fs2_base()[3]
    vals = {C.arr_index[nm]: v for (a, b, v), nm in lk.items()}
    fn = vals[inc]
    assert rel_from_mask(el, 1, 2) == frozenset({(0, fn[0])})


def test_D_formula_agreement_every_core_arrow(completions):
    """Both published computations of the graph relation agree: the value
    of the functor, the reindexed equality, is the existential image of top
    along the graph, arrow by arrow."""
    for name in ("triv", "chain", "fs2"):
        P, E, X, tp, er, q = completions[name]
        D = functor_D(P, E, er)
        C = P.cat
        for fname, img in crafted.functor_names(D)[1].items():
            f = C.arr_index[fname]
            a = int(C.src[f])
            e = exists_along(P, P.window.pair(int(C.id_arr[a]), f))
            assert tp.arrows[tp.cat.arr_index[img]][2] == int(e.table[P.fibers[a].top])


# ---------------------------------------------------------------------------
# quotient completion
# ---------------------------------------------------------------------------


def test_qp_counts_and_classes(completions):
    P, E, X, tp, er, q = completions["triv"]
    assert len(q.objects) == 1 and q.cat.n_arrows == 1
    P, E, X, tp, er, q = completions["fs2"]
    assert len(q.objects) == 4
    # all four base endomaps of the 2-carrier collapse into one class into
    # the full relation
    src = q.obj_of[(P.cat.obj_index["2"], 9)]
    tgt = q.obj_of[(P.cat.obj_index["2"], 15)]
    hom = q.cat.hom(src, tgt)
    assert len(hom) == 1
    ci = int(hom[0])
    assert len(q.classes[ci][2]) == 4


def test_qp_descent_fibers(completions):
    P, E, X, tp, er, q = completions["fs2"]
    tgt = q.obj_of[(P.cat.obj_index["2"], 15)]
    fib = q.doctrine.fibers[tgt]
    assert fib.n == 2  # only bottom and top survive descent along the full relation
    names = set(fib.elements)
    assert names == {"s0", "s3"}
    src = q.obj_of[(P.cat.obj_index["2"], 9)]
    assert q.doctrine.fibers[src].n == 4  # equality keeps the whole fiber


def test_qp_hom_cardinalities_match_er(completions):
    P, E, X, tp, er, q = completions["fs2"]
    for xi, pair_x in enumerate(q.objects):
        for yi, pair_y in enumerate(q.objects):
            qh = len(q.cat.hom(xi, yi))
            eh = len(er.cat.hom(er.obj_of[pair_x], er.obj_of[pair_y]))
            assert qh == eh


def test_functor_L_is_equivalence(completions):
    for name in ("triv", "chain", "fs2"):
        P, E, X, tp, er, q = completions[name]
        lres = functor_L(P, E, X, q, er)
        assert validate_functor(lres.functor).ok
        assert not lres.skipped
        assert lres.form_comparisons == q.cat.n_arrows
        eq = check_equivalence(lres.functor)
        assert eq.faithful and eq.full


def test_functor_L_swap_class(completions):
    """The class of the swap on the two-point equality goes to the graph of
    the swap."""
    P, E, X, tp, er, q = completions["fs2"]
    lres = functor_L(P, E, X, q, er)
    C = P.cat
    two = C.obj_index["2"]
    delta2 = q.obj_of[(two, 9)]
    lk = fixtures.fs2_base()[3]
    swap_name = lk[(2, 2, (1, 0))]
    swap = C.arr_index[swap_name]
    ci = [i for i, (xi, yi, mem) in enumerate(q.classes)
          if xi == delta2 and yi == delta2 and swap in mem][0]
    assert q.classes[ci][2] == (swap,)
    img = er.cat.arrows[lres.functor.arr_map[ci]]
    el = er.tp.arrows[er.tp.cat.arr_index[img]][2]
    assert rel_from_mask(el, 2, 2) == frozenset({(0, 1), (1, 0)})


# ---------------------------------------------------------------------------
# transitive extensions
# ---------------------------------------------------------------------------


def test_transitive_extension_already_transitive(completions):
    P, E, X, tp, er, q = completions["fs2"]
    two = P.cat.obj_index["2"]
    assert transitive_extension(P, two, 9, E.delta[two]) == 9


def test_transitive_extension_full_relation(completions):
    """The reflexive symmetric generators close to the full relation, and
    minimality is verified by exhausting the transitive elements above."""
    P, E, X, tp, er, q = completions["fs2"]
    two = P.cat.obj_index["2"]
    zeta = mask_from_rel({(0, 0), (1, 1), (0, 1), (1, 0)}, 2, 2)
    assert zeta == 15
    got = transitive_extension(P, two, zeta, E.delta[two])
    want = transitive_closure(rel_from_mask(zeta, 2, 2), 2)
    assert got == mask_from_rel(want, 2, 2) == 15
    fib = P.fibers[P.window.prod(two, two)[0]]
    above = [m for m in range(16)
             if fib.le(zeta, m)
             and transitive_closure(rel_from_mask(m, 2, 2), 2) == rel_from_mask(m, 2, 2)]
    assert all(fib.le(got, m) for m in above)


def test_transitive_extension_matches_closure_oracle(completions):
    P, E, X, tp, er, q = completions["fs2"]
    two = P.cat.obj_index["2"]
    fib = P.fibers[P.window.prod(two, two)[0]]
    for zeta in range(16):
        if not fib.le(E.delta[two], zeta):
            continue
        got = transitive_extension(P, two, zeta, E.delta[two])
        want = transitive_closure(rel_from_mask(zeta, 2, 2), 2)
        assert not isinstance(got, NoExtension)
        assert got == mask_from_rel(want, 2, 2)
        # symmetry is preserved
        sw = P.r(P.window.swap(two, two)).table
        if int(sw[zeta]) == zeta:
            assert int(sw[got]) == got


def test_transitive_extension_missing():
    P, names = crafted.noext()
    two = P.cat.obj_index["2"]
    fib = P.fibers[P.window.prod(two, two)[0]]
    res = transitive_extension(P, two, fib.index["zeta"], fib.index["delta"])
    assert isinstance(res, NoExtension)
    assert set(res.witness_antichain) == {"t1", "t2"}


# ---------------------------------------------------------------------------
# the subobject doctrine of a window-exact base recovers itself
# ---------------------------------------------------------------------------


def test_base_equivalent_to_completion_of_its_subobjects(fs2):
    """Graph embedding then inclusion: the finite-set window is equivalent to
    the relation completion of its own subobject doctrine (three isomorphism
    classes on each side)."""
    S = sub_doctrine(fs2.cat, fs2.products, fs2.scope)
    E = discover_elementary(S)
    X = discover_existential(S)
    tp = build_tp(S, E, X)
    er = build_erp(S, E, tp)
    D = functor_D(S, E, er)
    assert validate_functor(D).ok
    from doctrines.compare import compose_functors
    full = compose_functors(D, er.inclusion)
    eq = check_equivalence(full)
    assert eq.faithful and eq.full and eq.essentially_surjective
    assert len(iso_classes(tp.cat)) == 3
    core = S.scope.core
    base_core_classes = set()
    from doctrines.fincat import isomorphic
    reps = []
    for x in core:
        if not any(isomorphic(S.cat, x, r) is not None for r in reps):
            reps.append(x)
    assert len(reps) == 3


# ---------------------------------------------------------------------------
# the category of points
# ---------------------------------------------------------------------------


def test_gr_counts(witnesses):
    P, E, X = witnesses["chain"]
    gr = build_gr(P)
    assert gr.cat.n_objects == 5
    P, E, X = witnesses["triv"]
    gr = build_gr(P)
    assert gr.cat.n_objects == 4
    fib = gr.doctrine.fibers[gr.obj_of[(0, P.fibers[0].index["a"])]]
    assert set(fib.elements) == {"bot", "a"}


def test_oversized_points_category_is_refused_before_any_composite(monkeypatch):
    """One object whose fiber is a 100-element chain: its points category has
    5,050 arrows, more than the 4,096 whose table the table cap admits, and
    is refused on that count, in arrows, before the assembler asks for a
    single composite."""
    from doctrines import completions
    from doctrines.fileformat import parse_doctrine
    els = [f"e{i}" for i in range(100)]
    P = parse_doctrine("\n".join(
        ["base {", "  objects A ;", "  arrow idA A A", "  identity A = idA",
         "  compose idA idA = idA", "  terminal A", "  product A A = A idA idA", "}",
         "fiber A {", "  elements " + " ".join(els) + " ;", f"  top {els[-1]}",
         *(f"  leq {x} {y}" for x, y in zip(els, els[1:])), "}",
         "reindex idA {", *(f"  {e} -> {e}" for e in els), "}"]) + "\n")
    asked, assemble = [], completions._assemble

    def counted(objects, arrows, src, tgt, identity, compose):
        return assemble(objects, arrows, src, tgt, identity,
                        lambda g, f: asked.append((g, f)) or compose(g, f))

    monkeypatch.setattr(completions, "_assemble", counted)
    with pytest.raises(ResourceCap) as exc:
        build_gr(P)
    assert (exc.value.what, exc.value.size, exc.value.cap) == ("points category arrows", 5050, 4096)
    assert asked == []


@pytest.mark.parametrize("n", [128, 512, 513])
def test_relation_completion_is_refused_before_any_candidate(monkeypatch, n):
    """One object whose fiber is an n-element chain: n relation objects, each
    pair with n candidate relations, refused on the n³ total before a single
    candidate is decided."""
    from doctrines import completions
    from doctrines.fileformat import parse_doctrine
    P = parse_doctrine(crafted.chain_file(n))
    E, X = discover_elementary(P), discover_existential(P)
    decided, decide = [], completions.functional_relations
    monkeypatch.setattr(completions, "functional_relations",
                        lambda *args: decided.append(args) or decide(*args))
    with pytest.raises(ResourceCap) as exc:
        build_tp(P, E, X)
    assert (exc.value.what, exc.value.size) == ("hom candidates", n ** 3)
    assert decided == []


def test_relation_completion_stops_deciding_past_the_table_arrows(monkeypatch):
    """One object whose fiber is a 101-element chain: 1,030,301 candidates,
    under the enumeration cap, for a completion of 5,151 arrows, more than
    the 4,096 whose table the table cap admits.  The build stops after the
    pair whose arrows pass that bound, and names the arrows it has decided
    as a lower bound."""
    from doctrines import completions
    from doctrines.fileformat import parse_doctrine
    P = parse_doctrine(crafted.chain_file(101))
    E, X = discover_elementary(P), discover_existential(P)
    decided, decide = [], completions.functional_relations
    monkeypatch.setattr(completions, "functional_relations",
                        lambda *args: decided.append(args) or decide(*args))
    with pytest.raises(ResourceCap) as exc:
        build_tp(P, E, X)
    assert (exc.value.what, exc.value.size, exc.value.cap) == \
        ("relation completion arrows", 4097, 4096)
    assert str(exc.value) == ("resource cap exceeded: relation completion arrows"
                              " needs at least 4097 > cap 4096")
    assert len(decided) == 5637 < 101 * 101


def test_quotient_completion_is_refused_on_its_table_cells(monkeypatch):
    """The quotient completion's arrow classes are known only once decided,
    so its table is sized in cells by the assembler, before a composite is
    asked for: here chain's 3 classes under a table cap of 8 cells."""
    from doctrines import completions
    P = fixtures.chain_fixture()
    E, X = discover_elementary(P), discover_existential(P)
    asked, assemble = [], completions._assemble

    def counted(objects, arrows, src, tgt, identity, compose):
        return assemble(objects, arrows, src, tgt, identity,
                        lambda g, f: asked.append((g, f)) or compose(g, f))

    monkeypatch.setattr(completions, "_assemble", counted)
    monkeypatch.setattr(completions, "TABLE_CELL_CAP", 8)
    with pytest.raises(ResourceCap) as exc:
        build_qp(P, E, X)
    assert (exc.value.what, exc.value.size, exc.value.cap) == ("composition table cells", 9, 8)
    assert asked == []


@pytest.mark.parametrize("name", ["triv", "chain", "nochoice"])
def test_gr_category_against_definition(witnesses, name):
    """Objects, arrows, ends, identities and every composite of the points
    category are those of its definition."""
    P = witnesses[name][0]
    gr = build_gr(P)
    C, obj, arr = gr.cat, gr.obj_of, gr.arr_of
    objects, arrows, identity, composite = oracles.points_category(P)
    assert sorted(obj, key=obj.get) == objects
    over = sorted(arr, key=arr.get)
    assert sorted(over) == sorted(arrows)
    assert C.n_objects == len(objects) and C.n_arrows == len(arrows)
    for i, (f, a, b) in enumerate(over):
        assert (C.src[i], C.tgt[i]) == (obj[(P.cat.src[f], a)], obj[(P.cat.tgt[f], b)])
    assert [over[h] for h in C.id_arr] == [identity[o] for o in objects]
    expected = np.full((len(arrows), len(arrows)), -1)
    for (g, f), h in composite.items():
        expected[arr[g], arr[f]] = arr[h]
    assert np.array_equal(C.comp, expected)


def test_gr_embedding_reindexes_like_base(witnesses):
    P, E, X = witnesses["chain"]
    gr = build_gr(P)
    C = P.cat
    for f in range(C.n_arrows):
        gidx = gr.embed.arr_map[f]
        assert np.array_equal(gr.doctrine.reindex[gidx].table, P.reindex[f].table)


def test_gr_resource_cap(fs2):
    with pytest.raises(ResourceCap):
        build_gr(fs2)


def test_descent_components_are_fiber_inclusions(completions):
    """Descent fibers are sub-semilattices of the base fibers elementwise."""
    for name in ("triv", "chain", "fs2"):
        P, E, X, tp, er, q = completions[name]
        for oi, (a, rho) in enumerate(q.objects):
            fib = q.doctrine.fibers[oi]
            parent = P.fibers[a]
            assert set(fib.elements) <= set(parent.elements)
            assert fib.elements[fib.top] == parent.elements[parent.top]


def test_hom_candidates_cap(witnesses):
    """The completion is refused when its candidate relations, the elements
    of P(T×T) for each of the 4 × 4 pairs of relation objects, outnumber
    the cap."""
    P, E, X = witnesses["triv"]
    with pytest.raises(ResourceCap) as raised:
        build_tp(P, E, X, caps=Caps(enum=3))
    assert (raised.value.what, raised.value.size, raised.value.cap) == ("hom candidates", 64, 3)
