import copy
import dataclasses
import itertools
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

import crafted
import oracles
from doctrines import compare, fincat, fixtures
from doctrines.compare import (analysis, verify_axc, verify_cthn, verify_converse_axc,
                               verify_fulc, verify_universal)
from doctrines.completions import Caps, build_gr, build_qp, build_tp, tp_sub_restriction
from doctrines.doctrine import sub_doctrine
from doctrines.errors import ResourceCap
from doctrines.fincat import (FunctorData, ProductChoice, WindowScope, check_exact, inverse_of,
                              is_iso, validate_functor)
from doctrines.report import CAPPED, FAIL, NOT_APPLICABLE, PASS
from doctrines.semilattice import MonotoneMap, chain as chain_lattice
from doctrines.structure import (ElementaryWitness, discover_elementary,
                                 discover_existential)


def _check(rep, name):
    return next(c for c in rep.walk() if c.name == name)


def _statuses(rep) -> set[str]:
    return {c.status for c in rep.walk()}


# ---------------------------------------------------------------------------
# comprehension completion
# ---------------------------------------------------------------------------


def test_cthn_chain(chain):
    rep = verify_cthn(chain)
    assert FAIL not in _statuses(rep)
    assert rep.summary["objects"] == 5
    assert _check(rep, "comprehensions-full").status == PASS
    assert _check(rep, "comprehension-carried-by-identity").status == PASS
    gained = _check(rep, "comprehensions-gained").data["previously-missing"]
    assert "v:v0" in gained
    for name in ("embedding-preserves-fibers-meets-top",
                 "embedding-preserves-equality",
                 "embedding-preserves-existentials"):
        assert _check(rep, name).status == PASS


def test_cthn_triv(triv):
    rep = verify_cthn(triv)
    assert FAIL not in _statuses(rep)
    assert rep.summary["objects"] == 4


def test_cthn_detects_injected_meet_fault(triv):
    """Corrupting one restricted-fiber action breaks meet preservation with a
    concrete witness."""
    from doctrines.completions import build_gr
    from doctrines.doctrine import validate_doctrine
    gr = build_gr(fixtures.triv())
    hat = gr.doctrine
    # the identity-carried endo arrow on the top object acts on the diamond;
    # send the a-element to top, which is monotone but breaks a ∧ b
    top_obj = gr.obj_of[(0, 3)]
    arrow = int(hat.cat.id_arr[top_obj])
    fib = hat.fibers[top_obj]
    t = hat.reindex[arrow].table.copy()
    t[fib.index["a"]] = fib.top
    hat.reindex[arrow] = MonotoneMap(fib, fib, t)
    rep = validate_doctrine(hat)
    assert not rep.ok
    assert rep.law in ("Homomorphism", "Functoriality")
    if rep.law == "Homomorphism":
        assert "meet not preserved" in rep.message


def test_cthn_names_the_embedding_faults(monkeypatch):
    """The points completion of a fresh chain with its embedding re-pointed
    at m, to the arrow over m out of (u|u0) instead of (u|u1): the functor
    check names m as badly typed, and the existentials check names m, the
    first projection whose existential the embedding does not preserve."""
    build = compare.build_gr

    def doctored(P, caps):
        gr = build(P, caps)
        m, u0, v2 = P.cat.arr_index["m"], P.fibers[0].index["u0"], P.fibers[1].top
        arr_map = gr.embed.arr_map.copy()
        arr_map[m] = gr.arr_of[m, u0, v2]
        return dataclasses.replace(gr, embed=FunctorData(P.cat, gr.cat, gr.embed.obj_map,
                                                         arr_map))

    monkeypatch.setattr(compare, "build_gr", doctored)
    rep = verify_cthn(fixtures.chain_fixture())
    failed = {c.name: c.witness for c in rep.walk() if c.status == FAIL}
    assert failed == {"embedding-functor": ("m", "arrow map badly typed"),
                      "embedding-preserves-existentials": "m"}


@pytest.mark.parametrize("make, arrow", [
    (fixtures.mixedfail, "(m|top|v1)"),          # top is not preserved along m
    (crafted.nofrobenius, "(id2|mid|lo)"),       # a composite the laws would provide
])
def test_cthn_reports_a_points_category_the_laws_do_not_give(make, arrow):
    """On a lawless doctrine an arrow of the points category can be missing;
    the harness reports the build not applicable, naming that arrow."""
    rep = verify_cthn(make())
    assert [(c.name, c.status) for c in rep.checks] == \
        [("base-is-eed", FAIL), ("build", NOT_APPLICABLE)]
    assert _check(rep, "build").witness == \
        f"{arrow} is not an arrow of the points category: the doctrine laws fail"


def test_eed_fails_on_broken_equality_tensor_law(fs2, monkeypatch):
    """A discovered equality that breaks the equality-tensor law (fs2's at 1
    moved to the other element of P(1×1)) fails the eed verdict, though
    stability and reciprocity, which read only the existentials, pass.  The
    verdict is derived on a copy of fs2, whose store is empty."""
    one = fs2.cat.obj_index["1"]
    delta = dict(discover_elementary(fs2).delta)
    delta[one] = 1 - delta[one]
    monkeypatch.setattr(compare, "discover_elementary", lambda P: ElementaryWitness(delta))
    root, _, _ = compare.eed_checks(copy.copy(fs2))
    law = next(c for c in root.children if c.name == "equality-tensor-law")
    assert law.status == FAIL and law.witness == ("1", "2", "s9", "s0")
    assert all(c.status == PASS for c in root.children if c is not law)
    assert root.status == FAIL


# ---------------------------------------------------------------------------
# inclusion equivalence
# ---------------------------------------------------------------------------


def test_fulc_fs2(fs2):
    rep = verify_fulc(fs2)
    assert FAIL not in _statuses(rep)
    assert rep.summary["relation-objects"] == 8
    assert rep.summary["reflexive-objects"] == 4
    assert rep.summary["iso-classes"] == 3
    ess = _check(rep, "inclusion-essentially-surjective")
    assert ess.status == PASS
    assert len(ess.data["iso-witnesses"]) == 8
    assert _check(rep, "image-of-top-identity").status == PASS


def test_fulc_chain_not_applicable(chain):
    rep = verify_fulc(chain)
    na = _check(rep, "full-comprehensions")
    assert na.status == NOT_APPLICABLE
    assert ("v", "v0") in [tuple(w) for w in na.witness]


def test_fulc_applies_to_the_points_doctrine(chain):
    """The restricted-downset doctrine over the points of the chain has full
    comprehensions, and there the inclusion is an equivalence."""
    gr = build_gr(chain)
    rep = verify_fulc(gr.doctrine)
    assert _check(rep, "full-comprehensions").status == PASS
    assert FAIL not in _statuses(rep)
    assert _check(rep, "inclusion-essentially-surjective").status == PASS


def test_fulc_names_an_element_its_comprehension_does_not_give():
    """The points doctrine of a fresh chain with the comprehension of its
    first non-top element, u0 over (u|u1), pointed at the identity of
    (u|u1): the image of top along it is u1, so the proof identity fails
    there."""
    P = build_gr(fixtures.chain_fixture()).doctrine
    ent = next(e for e in analysis(P).comprehensions().entries
               if e.element != P.fibers[e.obj].top)
    ent.arrow = int(P.cat.id_arr[ent.obj])
    ident = _check(verify_fulc(P), "image-of-top-identity")
    assert (ident.status, tuple(ident.witness)) == (FAIL, ("(u|u1)", "u0"))
    assert ident.data["instances"] == 9


def _constant(F: FunctorData) -> FunctorData:
    """The functor with F's source and target that sends every object to
    the target's first object and every arrow to its identity: a functor,
    and no equivalence."""
    return FunctorData(F.source, F.target, np.zeros(F.source.n_objects, dtype=np.intp),
                       np.full(F.source.n_arrows, F.target.id_arr[0]))


def test_fulc_names_an_inclusion_that_is_no_equivalence(fs2, monkeypatch):
    """fs2's reflexive completion with its inclusion made constant at
    (0|s0): it identifies the two arrows (1|s1) -> (2|s9), misses the
    identity of (0|s0) from the empty hom (1|s1) -> (0|s0), and (1|s1) is
    isomorphic to no image.  On a copy of fs2, whose store is empty."""
    real = compare.Analysis.er
    monkeypatch.setattr(compare.Analysis, "er", lambda an: dataclasses.replace(
        real(an), inclusion=_constant(real(an).inclusion)))
    rep = verify_fulc(copy.copy(fs2))
    assert {c.name: (c.status, c.witness) for c in rep.checks if c.status == FAIL} == {
        "inclusion-faithful": (FAIL, ("(1|s1)", "(2|s9)", ("((1|s1)~(2|s9)|s1)",
                                                           "((1|s1)~(2|s9)|s2)"))),
        "inclusion-full": (FAIL, ("(1|s1)", "(0|s0)", "((0|s0)~(0|s0)|s0)")),
        "inclusion-essentially-surjective": (FAIL, "(1|s1)")}


# ---------------------------------------------------------------------------
# quotient comparison
# ---------------------------------------------------------------------------


def test_axc_fs2(fs2):
    rep = verify_axc(fs2)
    assert FAIL not in _statuses(rep)
    assert _check(rep, "hypothesis-weak-full-comprehensions").status == PASS
    assert _check(rep, "hypothesis-rule-of-choice").status == PASS
    concl = _check(rep, "conclusion-comparison-equivalence")
    assert concl.data["claimed"] is True
    assert concl.data["measured"] == "pass"
    homs = concl.data["hom-cardinalities"]
    assert len(homs) == 16
    assert all(tuple(v)[0] == tuple(v)[1] for v in homs.values())
    assert tuple(homs["(2|s9)->(2|s15)"]) == (1, 1)


def test_axc_nochoice_unclaimed(nochoice):
    rep = verify_axc(nochoice)
    roc = _check(rep, "hypothesis-rule-of-choice")
    assert roc.status == FAIL
    assert tuple(roc.witness) == ("v", "u", "a")
    concl = _check(rep, "conclusion-comparison-equivalence")
    assert concl.data["claimed"] is False
    assert concl.status in (NOT_APPLICABLE, "info")


def test_axc_triv_hypothesis_reporting(triv):
    """Only the top element has a comprehension, so the hypothesis fails and
    the (true) conclusion is reported unclaimed."""
    rep = verify_axc(triv)
    hyp = _check(rep, "hypothesis-weak-full-comprehensions")
    assert hyp.status == FAIL
    concl = _check(rep, "conclusion-comparison-equivalence")
    assert concl.data["claimed"] is False
    assert concl.data["measured"] == "pass"


def test_axc_fails_a_claimed_comparison_that_is_not_full(fs2, monkeypatch):
    """Every hypothesis holds on fs2, so the conclusion is claimed; with the
    comparison functor made constant at (0|s0) it is not full, and the
    claimed conclusion fails with the first missed arrow.  On a copy of
    fs2, whose store is empty."""
    real = compare.Analysis.L
    monkeypatch.setattr(compare.Analysis, "L", lambda an: dataclasses.replace(
        real(an), functor=_constant(real(an).functor)))
    concl = _check(verify_axc(copy.copy(fs2)), "conclusion-comparison-equivalence")
    assert (concl.status, concl.witness) == (FAIL, ("(1|s1)", "(0|s0)", "((0|s0)~(0|s0)|s0)"))
    assert {k: concl.data[k] for k in ("claimed", "measured", "faithful", "full")} == \
        {"claimed": True, "measured": "fail", "faithful": False, "full": False}


# ---------------------------------------------------------------------------
# converse derivation
# ---------------------------------------------------------------------------


def test_converse_fs2(fs2):
    rep = verify_converse_axc(fs2)
    assert FAIL not in _statuses(rep)
    assert _check(rep, "extensions-exist").status == PASS
    dc = _check(rep, "derived-choice")
    assert dc.status == PASS
    assert dc.data["totals"] == 17
    assert _check(rep, "agreement-with-direct-verdict").status == PASS


def test_converse_triv(triv):
    rep = verify_converse_axc(triv)
    dc = _check(rep, "derived-choice")
    assert dc.status == PASS
    assert dc.data["claimed"] is False  # comprehensions incomplete
    assert _check(rep, "agreement-with-direct-verdict").status == PASS


def test_converse_fails_on_the_points_doctrine(chain):
    """The points doctrine of chain has full comprehensions, yet its
    comparison functor is no equivalence, and the derivation fails at a
    genuine total relation, unclaimed; the direct verdict fails too."""
    rep = verify_converse_axc(build_gr(chain).doctrine)
    assert _check(rep, "comparison-is-equivalence").status == FAIL
    dc = _check(rep, "derived-choice")
    assert (dc.status, tuple(dc.witness)) == (FAIL, ("(v|v0)", "(u|u0)", "u0"))
    assert (dc.data["claimed"], dc.data["totals"], dc.data["skipped"]) == (False, 17, [])
    agree = _check(rep, "agreement-with-direct-verdict")
    assert (agree.status, agree.data["direct"]) == (PASS, "fail")


def test_converse_skips_a_relation_whose_image_has_no_comprehension():
    """A fresh chain with the comprehension of v1 over v marked missing: the
    derivation for the total relation u1 over u×v restricts along that
    entry, so it skips the relation and says why, and the skip breaks the
    agreement with the direct verdict."""
    P = fixtures.chain_fixture()
    v, v1 = 1, 1
    ent = next(e for e in analysis(P).comprehensions().entries if (e.obj, e.element) == (v, v1))
    ent.kind = "none"
    rep = verify_converse_axc(P)
    assert _check(rep, "derived-choice").data["skipped"] == ["uxv:u1: image has no comprehension"]
    assert _check(rep, "agreement-with-direct-verdict").status == FAIL


def test_converse_noext_not_applicable():
    P, names = crafted.noext()
    rep = verify_converse_axc(P)
    na = _check(rep, "extensions-exist")
    assert na.status == NOT_APPLICABLE
    assert set(na.witness[2]) == {"t1", "t2"}


# ---------------------------------------------------------------------------
# universal property
# ---------------------------------------------------------------------------


def test_universal_triv_confirmed(triv):
    E = discover_elementary(triv)
    X = discover_existential(triv)
    tp = build_tp(triv, E, X)
    rep = verify_universal(triv, tp.cat, tp.pc, tp.scope)
    assert not _statuses(rep) & {FAIL, CAPPED}
    assert rep.summary["morphisms-from-base"] == 25
    assert rep.summary["morphisms-from-completion"] == 25
    for reading in ("existential", "comprehension-preserving"):
        assert _check(rep, f"{reading}:essentially-surjective").status == PASS
        assert _check(rep, f"{reading}:fully-faithful-on-2-cells").status == PASS


def test_universal_terminal_target(triv):
    """Against the terminal category both sides collapse."""
    from doctrines.fincat import validate_products
    one = crafted.build(["X"], [("idX", "X", "X")], {"X": "idX"},
                       {("idX", "idX"): "idX"})
    pc = crafted.choice(one, "X", {("X", "X"): ("X", "idX", "idX")})
    assert validate_products(one, pc).ok
    rep = verify_universal(triv, one, pc)
    assert not _statuses(rep) & {FAIL, CAPPED}
    assert rep.summary["morphisms-from-base"] == rep.summary["morphisms-from-completion"]


def test_universal_fs2_caps(fs2):
    E = discover_elementary(fs2)
    X = discover_existential(fs2)
    tp = build_tp(fs2, E, X)
    rep = verify_universal(fs2, tp.cat, tp.pc, tp.scope)
    assert CAPPED in _statuses(rep)
    assert FAIL not in _statuses(rep)
    capped = [c for c in rep.walk() if c.status == CAPPED]
    assert capped and "cap" in capped[0].data


def test_universal_reports_an_unsubobjectable_target_not_applicable(triv):
    """The V poset is exact on its terminal core {t}, but its subobjects
    over every object have no meets: the harness says so instead of
    raising."""
    X = crafted.v_poset()
    pc = crafted.choice(X, "t", {("t", "t"): ("t", "idt", "idt")})
    rep = verify_universal(triv, X, pc, WindowScope((X.obj_index["t"],)))
    assert [(c.name, c.status, c.witness, c.data) for c in rep.checks] == [
        ("target-exact", PASS, None, {"core": ["t"]}),
        ("enumeration", NOT_APPLICABLE, "elements [at], [bt] have no lower bound", {})]
    assert CAPPED not in _statuses(rep)


def test_universal_reports_a_window_closure_not_applicable(triv):
    """A meet of subobjects that is not their pullback is a structural
    restriction of the target, reported with the product it misses, not a
    cap."""
    X = crafted.meet_not_pullback()
    pc = crafted.choice(X, "A", {("A", "A"): ("A", "idA", "idA")})
    rep = verify_universal(triv, X, pc, WindowScope((X.obj_index["A"],)))
    assert [(c.name, c.status, c.witness, c.data) for c in rep.checks] == [
        ("target-exact", PASS, None, {"core": ["A"]}),
        ("enumeration", NOT_APPLICABLE, "window closure violated: missing product A"
         " (subobject meet of [m1], [m2] is not their pullback)", {"missing": ("A",)})]
    assert CAPPED not in _statuses(rep)


def test_universal_reports_a_base_window_not_applicable(chain):
    """A base with objects outside its core restricts the enumeration: the
    harness says so after enumerating from the base."""
    P = dataclasses.replace(chain, scope=WindowScope(chain.scope.core[:1]))
    tp = analysis(chain).tp()
    rep = verify_universal(P, tp.cat, tp.pc, tp.scope)
    assert (rep.checks[-1].name, rep.checks[-1].status, rep.checks[-1].witness) == \
        ("base-window", NOT_APPLICABLE, "base has non-core objects; enumeration restricted")
    assert CAPPED not in _statuses(rep)


def test_universal_fails_a_target_that_is_not_exact(triv):
    """The V poset over its whole window: a and b have no product, so the
    target is not finitely complete, and the harness stops there."""
    rep = verify_universal(triv, crafted.v_poset(), None)
    assert [(c.name, c.status, c.witness, c.data) for c in rep.checks] == [
        ("target-exact", FAIL, ("a", "b"), {"core": ["a", "b", "t"]})]


def _universal_sides(P):
    """The subobject doctrine of P's relation completion, and the doctrine
    morphisms into it from P and from the completion's reflexive part, as
    `verify_universal` enumerates them."""
    an = analysis(P)
    E_P = an.eed()[1]
    tp, er = an.tp(), an.er()
    sub_x = sub_doctrine(tp.cat, tp.pc, tp.scope)
    sub_er = tp_sub_restriction(tp, er)
    E_SX = discover_elementary(sub_x)
    return sub_x, [(S, compare.enumerate_morphisms(S, sub_x, E, E_SX, Caps().enum))
                   for S, E in ((P, E_P), (sub_er, discover_elementary(sub_er)))]


@pytest.mark.parametrize("name", ["triv", "chain"])
def test_functors_match_former_enumeration(request, completions, triv, chain, name):
    """From triv and chain into both bases and into the subobject doctrines
    of P's base and of its relation completion: the same functors, in the
    same order, as the former name-keyed loop."""
    P = request.getfixturevalue(name)
    tp = completions[name][3]
    counts = []
    for R in (triv, chain, sub_doctrine(P.cat, P.products, P.scope),
              sub_doctrine(tp.cat, tp.pc, tp.scope)):
        got = compare.enumerate_functors(P.cat, P.products, R.cat, R.products, Caps().enum)
        assert [crafted.functor_names(F) for F in got] == \
            oracles.enumerate_functors(P.cat, P.products, R.cat, R.products, Caps().enum)
        counts.append(len(got))
    assert min(counts) >= 1 and max(counts) > 1


@pytest.mark.parametrize("name", ["triv", "chain"])
def test_2cells_match_former_loop(request, name):
    """For every ordered pair of morphisms from the base and from the
    completion, the table's 2-cells in the former loop's order, its
    name-keyed cells read as arrow ids by source object."""
    P = request.getfixturevalue(name)
    sub_x, sides = _universal_sides(P)
    T = sub_x.cat
    sizes = Counter()
    for S, mors in sides:
        assert len(mors) == 25
        table = compare.TwoCellTable(S, sub_x, mors)
        for (i, m1), (j, m2) in itertools.product(enumerate(mors), repeat=2):
            cells = table(i, j)
            assert cells == [tuple(T.arr_index[theta[o]] for o in S.cat.objects)
                             for theta in oracles.valid_2cells(S, sub_x, m1, m2)]
            sizes[len(cells)] += 1
    assert sizes[0] and sizes[1]


def test_2cells_reject_lax_unnatural_combinations(chain, completions, monkeypatch):
    """Chain's 48 functors into the subobjects of fs2's relation completion,
    each with its components constant at bottom: the table matches the
    former loop on all 2,304 ordered pairs, where naturality rejects lax
    combinations and many pairs have more than one cell, also when the
    combinations are decided a few at a time; and its iso test
    matches the former one, which finds some pairs invertible only through
    cells that are not identities."""
    tp = completions["fs2"][3]
    R = sub_doctrine(tp.cat, tp.pc, tp.scope)
    functors = compare.enumerate_functors(chain.cat, chain.products, R.cat, R.products,
                                          Caps().enum)
    assert len(functors) == 48
    mors = []
    for F in functors:
        bottom = [R.fibers[F.obj_map[o]] for o in range(chain.cat.n_objects)]
        mors.append(compare.DoctrineMorphism(F, tuple(
            MonotoneMap(chain.fibers[o], fib,
                        np.full(chain.fibers[o].n, int(np.flatnonzero(fib.leq.all(axis=1))[0]),
                                dtype=np.int32))
            for o, fib in enumerate(bottom))))
    table = compare.TwoCellTable(chain, R, mors)
    cells = {(i, j): oracles.lax_filtered_2cells(chain, R, m1, m2)
             for (i, m1), (j, m2) in itertools.product(enumerate(mors), repeat=2)}
    rejected = multiple = 0
    for (i, j), former in cells.items():
        assert table(i, j) == former
        rejected += int(table.sizes[i * len(mors) + j]) - len(former)
        multiple += len(former) > 1
    assert (rejected, multiple) == (384, 297)
    # blocks of 7 combinations, which split pairs
    monkeypatch.setattr(fincat, "BLOCK_BYTES", 7 * np.dtype(np.intp).itemsize * chain.cat.n_arrows)
    assert compare.TwoCellTable(chain, R, mors).cells == table.cells
    T = R.cat
    through_isos = 0
    for (i, j), former in cells.items():
        invertible = [cell for cell in former if all(is_iso(T, c) for c in cell)
                      and tuple(inverse_of(T, c) for c in cell) in cells[j, i]]
        assert table.invertible(i, j) == bool(invertible)
        through_isos += bool(invertible) and all(
            any(c != int(T.id_arr[T.src[c]]) for c in cell) for cell in invertible)
    assert through_isos


@pytest.mark.parametrize("name", ["triv", "chain"])
def test_whiskering_matches_former_loop(request, name):
    """The one comparison of whiskered cells against the former per-pair
    sorted comparison: the completion's table against itself read at every
    object, and at its objects reversed, and against the base's table read
    at its first object.  On chain some pair has as many cells on each side
    but not the same ones."""
    P = request.getfixturevalue(name)
    sub_x, ((S, mor_p), (Q, mor_q)) = _universal_sides(P)
    above = compare.TwoCellTable(Q, sub_x, mor_q)
    objects = list(range(Q.cat.n_objects))
    same_count_only = 0
    for below, at in ((above, objects), (above, objects[::-1]),
                      (compare.TwoCellTable(S, sub_x, mor_p), [0] * S.cat.n_objects)):
        agree = compare.whiskering_agrees(above, below, at)
        for a, b in itertools.product(range(len(mor_q)), repeat=2):
            up, dn = above(a, b), below(a, b)
            assert agree[a, b] == (sorted(tuple(c[d] for d in at) for c in up) == sorted(dn))
            same_count_only += len(up) == len(dn) and not agree[a, b]
    assert bool(same_count_only) == (name == "chain")


def test_whiskering_sorts_the_cells_it_reads():
    """One pair whose two cells, read at the objects swapped, are the cells
    below in the other order."""
    def table(rows):
        return SimpleNamespace(n=1, first=np.array([0, len(rows)]), array=np.array(rows))

    above = table([(0, 5), (1, 4)])
    assert compare.whiskering_agrees(above, table([(4, 1), (5, 0)]), [1, 0]).tolist() == [[True]]
    assert compare.whiskering_agrees(above, table([(4, 1), (5, 1)]), [1, 0]).tolist() == [[False]]


def _moved_equality(R, E_R) -> ElementaryWitness:
    """R's equality with the last object's moved to the bottom of its
    fiber, which only the equality condition on components sees."""
    last = max(E_R.delta)
    pairs = R.fibers[R.window.prod(last, last)[0]]
    return ElementaryWitness({**E_R.delta, last: int(np.flatnonzero(pairs.leq.all(axis=1))[0])})


@pytest.mark.parametrize("name", ["triv", "chain"])
def test_morphism_checks_match_former_checks(request, name):
    """`validate_doctrine_morphisms` and `preserve_comprehensions` against
    the former per-morphism checks (the functor, each component a
    homomorphism, `oracles.preserves_eed`; the strict reading), on the
    morphisms into the completion's subobjects with one component entry
    changed, on every functor with every combination of component
    homomorphisms, and on one with an object moved, against the target's equality
    and against it moved: some fail only as homomorphisms, some only the
    equality and existential conditions, and some break comprehensions."""
    P = request.getfixturevalue(name)
    sub_x, ((_, mors), _) = _universal_sides(P)
    E_P, E_SX = analysis(P).eed()[1], discover_elementary(sub_x)
    cases = []
    for m in mors:
        for o, comp in enumerate(m.components):
            for x, y in itertools.product(range(comp.dom.n), range(comp.cod.n)):
                table = comp.table.copy()
                table[x] = y
                cases.append(compare.DoctrineMorphism(m.F, tuple(
                    MonotoneMap(c.dom, c.cod, table if k == o else c.table)
                    for k, c in enumerate(m.components))))
    preserving = compare.preserve_comprehensions(P, sub_x, cases)
    assert preserving == [oracles.morphism_preserves_comprehensions(P, sub_x, case)
                          for case in cases]
    assert not all(preserving)
    for F in compare.enumerate_functors(P.cat, P.products, sub_x.cat, sub_x.products,
                                        Caps().enum):
        homs = [[MonotoneMap(P.fibers[o], sub_x.fibers[F.obj_map[o]], t)
                 for t in compare.enumerate_fiber_homs(P.fibers[o], sub_x.fibers[F.obj_map[o]],
                                                       Caps().enum)]
                for o in range(P.cat.n_objects)]
        cases.extend(compare.DoctrineMorphism(F, combo) for combo in itertools.product(*homs))
    F = mors[0].F
    moved = F.obj_map.copy()
    moved[0] = next(o for o in range(sub_x.cat.n_objects) if o != F.obj_map[0])
    cases.append(compare.DoctrineMorphism(FunctorData(P.cat, sub_x.cat, moved, F.arr_map),
                                          mors[0].components))
    kinds = Counter()
    for E_R in (E_SX, _moved_equality(sub_x, E_SX)):
        for case, valid in zip(cases, compare.validate_doctrine_morphisms(P, sub_x, cases,
                                                                          E_P, E_R)):
            kind = (validate_functor(case.F, (P.products, sub_x.products)).ok,)
            if kind[0]:
                kind += (all(c.is_homomorphism() for c in case.components),
                         oracles.preserves_eed(P, sub_x, case, E_P, E_R))
            assert valid == all(kind)
            kinds[kind] += 1
    assert kinds[False,] == 2
    assert kinds[True, True, True] and kinds[True, False, True] and kinds[True, True, False]


@pytest.mark.parametrize("name", ["triv", "chain"])
def test_eed_conditions_match_former_test(request, name):
    """Every functor and every combination of component homomorphisms from
    the base and from the completion into the completion's subobjects: the
    per-functor conditions decide what the former whole-morphism test
    decided, also against a target equality with one object's missing,
    where some functors have no conditions at all, and with one object's
    moved to bottom, which only the equality condition sees."""
    P = request.getfixturevalue(name)
    sub_x, _ = _universal_sides(P)
    E_SX = discover_elementary(sub_x)
    short = ElementaryWitness({o: d for o, d in E_SX.delta.items() if o != max(E_SX.delta)})
    moved = _moved_equality(sub_x, E_SX)
    an = analysis(P)
    sub_er = tp_sub_restriction(an.tp(), an.er())
    verdicts = Counter()
    for (S, E), E_R in itertools.product(
            ((P, an.eed()[1]), (sub_er, discover_elementary(sub_er))), (E_SX, short, moved)):
        for F in compare.enumerate_functors(S.cat, S.products, sub_x.cat, sub_x.products,
                                            Caps().enum):
            cond = compare.eed_conditions(S, sub_x, F, E, E_R)
            homs = [compare.enumerate_fiber_homs(S.fibers[o], sub_x.fibers[F.obj_map[o]],
                                                 Caps().enum)
                    for o in range(S.cat.n_objects)]
            held = set(cond.hold(homs)) if cond is not None else set()
            for idx in itertools.product(*(range(len(h)) for h in homs)):
                mor = compare.DoctrineMorphism(F, tuple(
                    MonotoneMap(S.fibers[o], sub_x.fibers[F.obj_map[o]], homs[o][k])
                    for o, k in enumerate(idx)))
                assert (idx in held) == oracles.preserves_eed(S, sub_x, mor, E, E_R)
                verdicts[E_R is E_SX, "none" if cond is None else idx in held] += 1
    assert verdicts[True, True] == 50 and verdicts[True, "none"] == 0
    assert verdicts[False, "none"] and verdicts[False, False]
    assert bool(verdicts[True, False]) == (name == "chain")


def test_universal_computes_2cells_once_per_pair(chain, monkeypatch):
    """One `verify_universal` call builds one 2-cell table per side, below
    over the 25 precomposed and the 25 base morphisms, above over the 25
    completion morphisms, and decides each lax combination of each ordered
    pair once, though both readings, the iso test and the fully-faithful
    test read them."""
    tables, decided = [], Counter()

    class Counted(compare.TwoCellTable):
        def __init__(self, S, R, mors):
            tables.append(self)
            super().__init__(S, R, mors)

        def _natural(self, ranks):
            decided.update((len(tables), r) for r in ranks.tolist())
            return super()._natural(ranks)

    monkeypatch.setattr(compare, "TwoCellTable", Counted)
    tp = analysis(chain).tp()
    rep = verify_universal(chain, tp.cat, tp.pc, tp.scope)
    assert not _statuses(rep) & {FAIL, CAPPED}
    assert [t.n for t in tables] == [50, 25]
    assert len(decided) == sum(int(t.sizes.sum()) for t in tables)
    assert max(decided.values()) == 1


def test_morphisms_validate_each_functor_once(chain, monkeypatch):
    """`enumerate_morphisms` validates each candidate functor once, inside
    `enumerate_functors`, and tests no combination of components for
    functoriality or for being homomorphisms again; chain has more morphisms
    into its completion's subobjects than functors."""
    sub_x, _ = _universal_sides(chain)
    E_P, E_SX = analysis(chain).eed()[1], discover_elementary(sub_x)
    calls, kept = Counter(), []
    real = compare.validate_functor

    def counted(F, products=None):
        kept.append(F)
        calls[id(F)] += 1
        return real(F, products)

    monkeypatch.setattr(compare, "validate_functor", counted)
    functors = compare.enumerate_functors(chain.cat, chain.products, sub_x.cat,
                                          sub_x.products, Caps().enum)
    candidates = sum(calls.values())
    calls.clear()
    monkeypatch.setattr(MonotoneMap, "is_homomorphism",
                        lambda self: pytest.fail("component tested again"))
    mors = compare.enumerate_morphisms(chain, sub_x, E_P, E_SX, Caps().enum)
    assert sum(calls.values()) == candidates and max(calls.values()) == 1
    assert len(mors) == 25 > len(functors)


def _reversed_iota(real):
    """Each canonical fiber comparison with its table reversed: a permutation
    that moves the top."""
    return lambda *args: {o: MonotoneMap(m.dom, m.cod, m.table[::-1].copy())
                          for o, m in real(*args).items()}


def _top_iota(real):
    """Each canonical fiber comparison replaced by the constant map to top:
    a homomorphism, but no isomorphism."""
    return lambda *args: {o: MonotoneMap(m.dom, m.cod,
                                         np.full(m.dom.n, m.cod.top, dtype=np.int32))
                          for o, m in real(*args).items()}


def _completion_side_short(real, P):
    """The morphisms out of the completion without the last one."""
    return lambda S, R, *rest: real(S, R, *rest)[:-1] if S is not P else real(S, R, *rest)


# the witnesses the former 2-cell loop gave for the same faults
_UNIVERSAL_FAULTS = [
    ("triv", "iota_iso", _reversed_iota,
     {"precomposition-well-defined": (FAIL, None),
      "essentially-surjective": (FAIL, "[('T', '(T|a)')]"),
      "fully-faithful-on-2-cells": (PASS, None)}),
    ("chain", "iota_iso", _reversed_iota,
     {"precomposition-well-defined": (FAIL, None),
      "essentially-surjective": (FAIL, "[('u', '(u|u0)'), ('v', '(u|u1)')]"),
      "fully-faithful-on-2-cells": (PASS, None)}),
    ("triv", "enumerate_morphisms", _completion_side_short,
     {"precomposition-well-defined": (PASS, None),
      "essentially-surjective": (FAIL, "[('T', '(T|top)')]"),
      "fully-faithful-on-2-cells": (PASS, None)}),
    ("chain", "enumerate_morphisms", _completion_side_short,
     {"precomposition-well-defined": (PASS, None),
      "essentially-surjective": (FAIL, "[('u', '(v|v2)'), ('v', '(v|v2)')]"),
      "fully-faithful-on-2-cells": (PASS, None)}),
    ("triv", "iota_iso", _top_iota,
     {"precomposition-well-defined": (PASS, None),
      "essentially-surjective": (FAIL, "[('T', '(T|a)')]"),
      "fully-faithful-on-2-cells": (FAIL, (2, 1, 0, 1))}),
    ("chain", "iota_iso", _top_iota,
     {"precomposition-well-defined": (FAIL, None),
      "essentially-surjective": (FAIL, "[('u', '(u|u0)'), ('v', '(u|u1)')]"),
      "fully-faithful-on-2-cells": (FAIL, (6, 5, 0, 1))}),
]


@pytest.mark.parametrize("name, target, fault, expected", _UNIVERSAL_FAULTS,
                         ids=[f"{n}-{f.__name__.strip('_')}" for n, _, f, _ in _UNIVERSAL_FAULTS])
def test_universal_faults_fail_with_witness(request, monkeypatch, name, target, fault,
                                            expected):
    """Each clause of the universal property fails on an injected fault,
    with the witness the former loops gave, under both readings."""
    P = request.getfixturevalue(name)
    real = getattr(compare, target)
    monkeypatch.setattr(compare, target,
                        fault(real, P) if fault is _completion_side_short else fault(real))
    tp = analysis(P).tp()
    rep = verify_universal(P, tp.cat, tp.pc, tp.scope)
    for reading in ("existential", "comprehension-preserving"):
        assert {clause: (_check(rep, f"{reading}:{clause}").status,
                         _check(rep, f"{reading}:{clause}").witness)
                for clause in expected} == expected


# ---------------------------------------------------------------------------
# determinism of evidence
# ---------------------------------------------------------------------------


def test_reports_reproduce_bit_for_bit(fs2, chain):
    for P in (chain, fs2):
        a = verify_axc(P).to_json()
        b = verify_axc(P).to_json()
        assert a == b
        c = verify_fulc(P).to_json()
        d = verify_fulc(P).to_json()
        assert c == d


def test_harnesses_agree_with_direct_equivalence(completions):
    """No harness-private logic: the verdicts match direct functor checks."""
    from doctrines.completions import functor_L
    from doctrines.fincat import check_equivalence
    P, E, X, tp, er, q = completions["fs2"]
    direct_incl = check_equivalence(er.inclusion)
    rep = verify_fulc(P)
    by = {c.name: c for c in rep.walk()}
    assert (by["inclusion-faithful"].status == PASS) == direct_incl.faithful
    assert (by["inclusion-full"].status == PASS) == direct_incl.full
    assert (by["inclusion-essentially-surjective"].status == PASS) == \
        direct_incl.essentially_surjective
    lres = functor_L(P, E, X, q, er)
    direct_l = check_equivalence(lres.functor)
    rep2 = verify_axc(P)
    concl = next(c for c in rep2.walk()
                 if c.name == "conclusion-comparison-equivalence")
    assert (concl.data["measured"] == "pass") == (
        direct_l.faithful and direct_l.full and direct_l.essentially_surjective)


# ---------------------------------------------------------------------------
# enumeration caps: each guard names what it counted, the count and the cap
# ---------------------------------------------------------------------------


def _capped(call) -> tuple[str, int, int]:
    with pytest.raises(ResourceCap) as raised:
        call()
    return raised.value.what, raised.value.size, raised.value.cap


def test_functor_enumeration_work_cap(chain):
    """Chain's 4 object maps into itself, each charged with one check of
    every composable pair, refused before any is listed."""
    C, pc = chain.cat, chain.products
    assert _capped(lambda: compare.enumerate_functors(C, pc, C, pc, 3)) == \
        ("functor enumeration work", 4 * int((C.comp >= 0).sum()), 3)


def test_functor_arrow_maps_cap(chain, fs2):
    """The cap admits chain's 25 object maps into fs2 and their work
    estimate; the first object map whose hom set for chain's one
    non-identity arrow is larger than the cap is refused."""
    S, T = chain.cat, fs2.cat
    cap = T.n_objects ** S.n_objects * int((S.comp >= 0).sum())
    size = next(n for x, y in itertools.product(range(T.n_objects), repeat=2)
                if (n := len(T.hom(x, y))) > cap)
    assert _capped(lambda: compare.enumerate_functors(S, chain.products, T, fs2.products, cap)) \
        == ("functor arrow maps", size, cap)


def test_functor_arrow_maps_are_sized_in_full(fs2):
    """The V poset into fs2's sets 2 and 8, under the cap of its work
    estimate, 2^3 object maps by 7 composable pairs: the first object map
    with more arrow maps sends a and b to 2 and t to 8, and is refused with
    all 64 · 64 of them, not with the 64 of its first arrow."""
    S = crafted.v_poset()
    T = fincat.full_subcategory(fs2.cat, [fs2.cat.obj_index["2"], fs2.cat.obj_index["8"]]).source
    pc = crafted.choice(S, "t", {("t", "t"): ("t", "idt", "idt")})
    assert _capped(lambda: compare.enumerate_functors(S, pc, T, ProductChoice(0, {}), 56)) == \
        ("functor arrow maps", 64 * 64, 56)


def test_equivalence_relation_candidates_cap(chain):
    """check_exact counts the spans (r1, r2) into each core object before
    it reads its verdict, kept or not: Σ_z |hom(z, x)|² over core x."""
    tp = analysis(chain).tp()
    C, core = tp.cat, tp.scope.core
    size = sum(len(C.hom(z, x)) ** 2 for x in core for z in range(C.n_objects))
    assert size == 17
    assert check_exact(C, tp.scope, size).exact
    assert _capped(lambda: check_exact(C, tp.scope, size - 1)) == \
        ("equivalence relation candidates", size, size - 1)


@pytest.mark.parametrize("name, size", [("chain", 3), ("fs2", 79)])
def test_arrow_class_candidates_cap(request, name, size):
    """build_qp counts the pairs of base arrows it may compare, |hom(A, B)|²
    for each pair of its objects over carriers A and B, before it decides
    any class."""
    P, E, X = request.getfixturevalue("witnesses")[name]
    q = build_qp(P, E, X, Caps(size))
    assert sum(len(P.cat.hom(a, b)) ** 2 for a, _ in q.objects for b, _ in q.objects) == size
    assert _capped(lambda: build_qp(P, E, X, Caps(size - 1))) == \
        ("arrow class candidates", size, size - 1)


def test_fiber_homomorphisms_cap(triv):
    L = triv.fibers[0]
    assert _capped(lambda: compare.enumerate_fiber_homs(L, L, 63)) == \
        ("fiber homomorphisms", 4 ** 3, 63)


def test_fiber_homomorphisms_match_former_loop(triv, chain, nochoice, fs2):
    """The blockwise adjoint test against the former loop over candidate
    tables, in order: chain(6) -> chain(6), whose 252 homomorphisms are the
    maps that fix the top and are monotone, C(10, 5) of them, and every
    pair of fixture fibers within the cap, diamond and powerset fibers
    among them."""
    six = chain_lattice(tuple("abcdef"))
    homs = compare.enumerate_fiber_homs(six, six, 1 << 20)
    assert len(homs) == 252
    assert [h.tolist() for h in homs] == \
        [h.tolist() for h in oracles.enumerate_fiber_homs(six, six, 1 << 20)]
    fibers = [fib for P in (triv, chain, nochoice, fs2) for fib in P.fibers if fib.n <= 16]
    for L, M in itertools.product(fibers, repeat=2):
        if M.n ** (L.n - 1) <= 1 << 16:
            assert [h.tolist() for h in compare.enumerate_fiber_homs(L, M, 1 << 16)] == \
                [h.tolist() for h in oracles.enumerate_fiber_homs(L, M, 1 << 16)]


def test_morphism_components_cap(witnesses):
    """chain -> triv has one functor; its components on u and v are each
    within the cap, their combinations are not."""
    P, E_P, _ = witnesses["chain"]
    R, E_R, _ = witnesses["triv"]
    homs = [len(compare.enumerate_fiber_homs(fib, R.fibers[0], 1 << 20)) for fib in P.fibers]
    assert homs == [4, 9]
    assert _capped(lambda: compare.enumerate_morphisms(P, R, E_P, E_R, 20)) == \
        ("morphism components", 36, 20)
