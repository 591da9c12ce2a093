"""Theorem harnesses: executable verdicts on concrete finite instances.

Each harness re-verifies its hypotheses from raw doctrine data (never
trusting construction flags), carries machine-checkable evidence, and never
claims a conclusion whose hypotheses failed: the measured truth value is
still reported, labeled unclaimed.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .allegory import RelArrow, rel_compose, triple_product
from .completions import (Caps, ERCompletion, LFunctorResult, NoExtension, QCompletion,
                          TCompletion, _l_value, build_erp, build_gr, build_qp, build_tp,
                          functor_D, functor_L, iota_iso, tp_sub_restriction,
                          transitive_extension)
from .doctrine import DoctrineData, exists_along, sub_doctrine, validate_doctrine
from .errors import (FormulaMismatch, MalformedPresentation,
                     ResourceCap, WindowClosure, guard)
from .fincat import (FinCat, FunctorData, ProductChoice, WindowScope, block_rows,
                     check_equivalence, check_exact, hom_sizes, inverse_of, iso_classes,
                     validate_category, validate_functor)
from .report import CAPPED, FAIL, HYPOTHESIS, INFO, NOT_APPLICABLE, PASS, Check, Report
from .semilattice import FinInfSL, MonotoneMap, NoAdjoint, left_adjoints
from .structure import (ComprehensionEntry, ElementaryWitness, ExistentialWitness,
                        StructureFailure, check_beck_chevalley, check_delta_product_law,
                        check_frobenius, check_rule_of_choice, comprehension_table,
                        discover_elementary, discover_existential,
                        verify_comprehension_arrow)

# the completion chain cannot be built on this input: the harness reports
# why instead of claiming anything about it
_NOT_COMPUTABLE = (MalformedPresentation, FormulaMismatch, WindowClosure)


def _status(ok: bool) -> str:
    return PASS if ok else FAIL


def eed_checks(P: DoctrineData) -> tuple[Check, ElementaryWitness | None,
                                         ExistentialWitness | None]:
    """Discovery plus stability, reciprocity and the equality-tensor law,
    bundled as one verdict that fails when any of them fails: kept on P,
    and the tree handed out is a copy a report may change."""
    root, E, X = P.kept(("eed",), lambda: _eed_checks(P))
    return root.copy(), E, X


def _eed_checks(P: DoctrineData) -> tuple:
    root = Check("eed", PASS)
    E = discover_elementary(P)
    if isinstance(E, StructureFailure):
        root.children.append(Check("elementary", FAIL, E.where + E.witness))
        root.status = FAIL
        return root, None, None
    root.children.append(Check("elementary", PASS, data={
        "delta": {P.cat.objects[a]: P.fibers[P.window.prod(a, a)[0]].elements[d]
                  for a, d in E.delta.items()}}))
    X = discover_existential(P)
    if isinstance(X, StructureFailure):
        root.children.append(Check("existential", FAIL, X.where + X.witness))
        root.status = FAIL
        return root, E, None
    root.children.append(Check("existential", PASS,
                               data={"projections": len(X.adjoints)}))
    bc = check_beck_chevalley(P, X)
    root.children.append(Check("stability", _status(bc.ok), bc.witness or None,
                               {"squares": bc.checked}))
    fr = check_frobenius(P, X)
    root.children.append(Check("reciprocity", _status(fr.ok), fr.witness or None,
                               {"instances": fr.checked}))
    dl = check_delta_product_law(P, E)
    root.children.append(Check("equality-tensor-law", _status(bool(dl)),
                               dl.witness or None,
                               {"checked": dl.checked, "skipped": dl.skipped}))
    if not (bc.ok and fr.ok and dl):
        root.status = FAIL
    return root, E, X


# ---------------------------------------------------------------------------
# doctrine morphisms and 2-cells
# ---------------------------------------------------------------------------


@dataclass
class DoctrineMorphism:
    F: FunctorData
    components: tuple[MonotoneMap, ...]   # fiber map per source object, by index


@dataclass
class EEDConditions:
    """What the components of a doctrine morphism P -> R over a fixed
    functor F must satisfy to preserve equality and existentials along core
    projections: per core A, the component at A×A sends δ_A to the value of
    `equality`; per core A, B and projection pr: A×B -> C, the component at
    C after ∃_pr is ∃_F(pr) after the component at A×B."""
    equality: list[tuple[int, int, int]]               # (A×A, δ_A, R(<F pr1, F pr2>)(δ_FA))
    existentials: list[tuple[int, int, np.ndarray, np.ndarray]]   # (A×B, C, ∃_pr, ∃_F(pr))

    def hold(self, stacks: list[np.ndarray]) -> Iterator[tuple[int, ...]]:
        """The combinations of candidate components, one stack of tables
        per source object, that satisfy the conditions, as index tuples in
        `itertools.product` order.  Each condition is tabled once over its
        one or two stacks, so a combination costs only lookups."""
        equality = [(aa, (stacks[aa][:, d] == want).tolist())
                    for aa, d, want in self.equality]
        existentials = [(c, ab, (stacks[c][:, e_p][:, None] == e_r[stacks[ab]][None])
                         .all(axis=2).tolist())
                        for ab, c, e_p, e_r in self.existentials]
        for idx in itertools.product(*(range(len(s)) for s in stacks)):
            if (all(ok[idx[aa]] for aa, ok in equality)
                    and all(ok[idx[c]][idx[ab]] for c, ab, ok in existentials)):
                yield idx


def eed_conditions(P: DoctrineData, R: DoctrineData, F: FunctorData,
                   E_P: ElementaryWitness, E_R: ElementaryWitness) -> EEDConditions | None:
    """The conditions on components over F, or None when F alone breaks
    them: FA×FA is not a chosen product of R or has no equality, or an
    existential is missing.  R's chosen products are products, so the
    pairing table holds the comparison <F pr1, F pr2>: F(A×A) -> FA×FA."""
    winP, winR = P.window, R.window
    ob, ar = F.obj_map.tolist(), F.arr_map.tolist()
    equality = []
    for a in P.scope.core:
        aa, p1, p2 = winP.prod(a, a)
        fa = ob[a]
        if (fa, fa) not in R.products.binary or fa not in E_R.delta:
            return None
        cmp_arrow = winR.pair(ar[p1], ar[p2])
        equality.append((aa, E_P.delta[a], int(R.r(cmp_arrow).table[E_R.delta[fa]])))
    existentials = []
    for a in P.scope.core:
        for b in P.scope.core:
            ab, p1, p2 = winP.prod(a, b)
            for pr, tgt in ((p1, a), (p2, b)):
                eP = exists_along(P, pr)
                eR = exists_along(R, ar[pr])
                if isinstance(eP, NoAdjoint) or isinstance(eR, NoAdjoint):
                    return None
                existentials.append((ab, tgt, eP.table, eR.table))
    return EEDConditions(equality, existentials)


def validate_doctrine_morphisms(P: DoctrineData, R: DoctrineData,
                                mors: list[DoctrineMorphism],
                                E_P: ElementaryWitness, E_R: ElementaryWitness) -> list[bool]:
    """Which of the morphisms are doctrine morphisms: a product-preserving
    functor, homomorphisms as components, and the `eed_conditions` of the
    functor, each functor (by identity) decided once.  `enumerate_morphisms`
    has the first two from its enumerations; precomposition's
    well-definedness claims all three."""
    conditions: dict[int, EEDConditions | None] = {}
    valid = []
    for m in mors:
        if id(m.F) not in conditions:
            conditions[id(m.F)] = (eed_conditions(P, R, m.F, E_P, E_R)
                                   if validate_functor(m.F, (P.products, R.products)).ok
                                   else None)
        cond = conditions[id(m.F)]
        valid.append(cond is not None and all(c.is_homomorphism() for c in m.components)
                     and any(cond.hold([c.table[None] for c in m.components])))
    return valid


def preserve_comprehensions(P: DoctrineData, R: DoctrineData,
                            mors: list[DoctrineMorphism]) -> list[bool]:
    """Strict reading, for each morphism: the functor image of every
    comprehension arrow is a comprehension of the component image of its
    element.  Each (object, element, arrow, strictness) of R is verified
    once."""
    entries = [(e.obj, e.element, e.arrow, e.kind == "strict")
               for e in comprehension_table(P).entries if e.kind != "none"]
    verified = functools.cache(functools.partial(verify_comprehension_arrow, R))
    return [all(verified(int(m.F.obj_map[a]), int(m.components[a].table[el]),
                         int(m.F.arr_map[c]), strict)
                for a, el, c, strict in entries) for m in mors]


class TwoCellTable:
    """The 2-cells between every ordered pair of a list of doctrine
    morphisms S -> R: natural transformations between their functors whose
    components h are lax against the fiber maps, b_i(x) <= R(h)(b_j(x)).

    Laxness depends on each component alone.  So per source object a, and
    per image u = F_i a, one broadcast decides it for every morphism i with
    that image, every candidate h out of u and every morphism j with
    F_j a = cod h, and the lax triples are kept sparse, by pair and then in
    hom order.  The cells of a pair are the combinations of its lax lists
    in `itertools.product` order, kept when natural on every arrow of S; a
    pair with an empty list at some object has none.  `_natural` decides
    a block of combinations at once, each decoded from its rank.  The lax lists ascend, so each pair's cells are listed in
    ascending order: in `cells` as tuples and in `array` as rows, from
    `first[i*n + j]` on.  The inverses of R's arrows are tabled once, for
    `invertible`."""

    def __init__(self, S: DoctrineData, R: DoctrineData, mors: list[DoctrineMorphism]):
        C, T = S.cat, R.cat
        n = self.n = len(mors)
        self.T, self.src, self.tgt = T, C.src, C.tgt
        self.inverse = [-1 if (g := inverse_of(T, f)) is None else g for f in range(T.n_arrows)]
        self.arrows = np.array([m.F.arr_map for m in mors], dtype=np.intp).reshape(n, C.n_arrows)
        obs = np.array([m.F.obj_map for m in mors], dtype=np.intp).reshape(n, C.n_objects)
        # R's reindexing tables end to end: R(h) starts at offset[h]
        sizes = np.array([R.r(h).table.shape[0] for h in range(T.n_arrows)], dtype=np.intp)
        flat = np.concatenate([R.r(h).table for h in range(T.n_arrows)])
        offset = np.cumsum(sizes) - sizes
        # per source object a: the lax candidates of pair i*n + j, from starts[a]
        self.counts = np.ones((C.n_objects, n * n), dtype=np.intp)
        self.starts = np.zeros((C.n_objects, n * n), dtype=np.intp)
        self.cands = [np.zeros(0, dtype=np.intp)] * C.n_objects
        for a in range(C.n_objects if n else 0):
            ob = obs[:, a]
            tables = np.stack([m.components[a].table for m in mors])
            keys, cands = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
            for u in np.flatnonzero(np.bincount(ob)).tolist():
                I, H = np.flatnonzero(ob == u), T.outof(u)
                h, j = np.nonzero(T.tgt[H][:, None] == ob[None, :])     # h: u -> F_j a
                after = flat[offset[H[h]][:, None] + tables[j]]
                i, k = np.nonzero(R.fibers[u].leq[tables[I][:, None, :], after[None]].all(axis=2))
                keys.append(I[i] * n + j[k])
                cands.append(H[h[k]])
            key, cand = np.concatenate(keys), np.concatenate(cands)
            self.counts[a] = np.bincount(key, minlength=n * n)
            self.starts[a] = np.cumsum(self.counts[a]) - self.counts[a]
            self.cands[a] = cand[np.argsort(key, kind="stable")]     # h ascends within a pair
        self.sizes = self.counts.prod(axis=0)            # combinations per pair
        self.ends = np.cumsum(self.sizes)
        pairs, cells = [np.zeros(0, dtype=np.intp)], [np.zeros((0, C.n_objects), dtype=np.intp)]
        total = int(self.sizes.sum())
        step = block_rows(np.dtype(np.intp).itemsize * C.n_arrows)   # a row per combination
        for lo in range(0, total, step):
            pair, natural = self._natural(np.arange(lo, min(total, lo + step)))
            pairs.append(pair)
            cells.append(natural)
        self.array = np.concatenate(cells)
        self.cells = [tuple(c) for c in self.array.tolist()]
        found = np.bincount(np.concatenate(pairs), minlength=n * n)
        self.first = np.concatenate([[0], np.cumsum(found)])
        self._first = self.first.tolist()

    def __call__(self, i: int, j: int) -> list[tuple[int, ...]]:
        k = i * self.n + j
        return self.cells[self._first[k]:self._first[k + 1]]

    def invertible(self, i: int, j: int) -> bool:
        """Whether some cell i -> j has iso components whose inverses are a
        cell j -> i.  An arrow without an inverse reads -1, in no cell."""
        back = self(j, i)
        return bool(back) and any(tuple(self.inverse[c] for c in cell) in back
                                  for cell in self(i, j))

    def _natural(self, ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Of the combinations numbered `ranks`, over all pairs in pair order
        and within a pair in the order of `itertools.product`, the natural
        ones, each with its pair."""
        n, T = self.n, self.T
        pair = np.searchsorted(self.ends, ranks, side="right")
        rank = ranks - (self.ends[pair] - self.sizes[pair])
        combos = np.empty((len(pair), len(self.cands)), dtype=np.intp)
        for a in reversed(range(len(self.cands))):      # the last object varies fastest
            c = self.counts[a, pair]
            combos[:, a] = self.cands[a][self.starts[a, pair] + rank % c]
            rank = rank // c
        natural = (T.comp[combos[:, self.tgt], self.arrows[pair // n]]
                   == T.comp[self.arrows[pair % n], combos[:, self.src]]).all(axis=1)
        return pair[natural], combos[natural]


def enumerate_functors(S: FinCat, Spc: ProductChoice, T: FinCat, Tpc: ProductChoice,
                       cap: int) -> list[FunctorData]:
    """All product-preserving functors S -> T, exhaustively (cap-guarded);
    the guard charges every candidate object map with the cost of one full
    functoriality validation, so oversized instances abort up front.  The
    arrow maps of an object map (identities go to identities, each other
    arrow to a candidate) are counted from the hom sizes before any is listed."""
    guard("functor enumeration work",
          T.n_objects ** S.n_objects * max(1, int((S.comp >= 0).sum())), cap)
    non_id = np.flatnonzero(np.arange(S.n_arrows) != S.id_arr[S.src])
    ends, sizes = list(zip(S.src[non_id].tolist(), S.tgt[non_id].tolist())), hom_sizes(T).tolist()
    out = []
    for omap in itertools.product(range(T.n_objects), repeat=S.n_objects):
        maps = math.prod(sizes[omap[s]][omap[t]] for s, t in ends)
        guard("functor arrow maps", maps, cap)
        if not maps:
            continue
        amap = T.id_arr[np.array(omap, dtype=np.intp)[S.src]].astype(np.intp)
        for combo in itertools.product(*(T.hom(omap[s], omap[t]).tolist() for s, t in ends)):
            amap[non_id] = combo
            F = FunctorData(S, T, omap, amap)
            if validate_functor(F, (Spc, Tpc)).ok:
                out.append(F)
    return out


def enumerate_fiber_homs(L: FinInfSL, M: FinInfSL, cap: int) -> np.ndarray:
    """The homomorphisms L -> M, one table a row, their values off the top
    in the order of `itertools.product`: decoded in blocks from an index
    range, each block decided by one `left_adjoints` call (between finite
    lattices a map preserves top and meets iff it has a left adjoint)."""
    est = M.n ** max(0, L.n - 1)
    guard("fiber homomorphisms", est, cap)
    non_top = [i for i in range(L.n) if i != L.top]
    radix = M.n ** np.arange(len(non_top) - 1, -1, -1, dtype=np.int64)
    out, step = [], block_rows(np.dtype(np.int64).itemsize * L.n)
    for lo in range(0, est, step):
        index = np.arange(lo, min(est, lo + step), dtype=np.int64)
        tables = np.full((len(index), L.n), M.top, dtype=np.int32)
        tables[:, non_top] = index[:, None] // radix % M.n
        out.append(tables[(left_adjoints(L, M, tables) >= 0).all(axis=1)])
    return np.concatenate(out)


def enumerate_morphisms(P: DoctrineData, R: DoctrineData,
                        E_P: ElementaryWitness, E_R: ElementaryWitness,
                        cap: int) -> list[DoctrineMorphism]:
    """The doctrine morphisms P -> R.  `enumerate_functors` has validated
    each functor against the chosen products, and every component that
    `enumerate_fiber_homs` returns is a homomorphism, so each combination
    of components is tested only against the functor's `eed_conditions`."""
    out = []
    fiber_homs = functools.cache(lambda o, fo: enumerate_fiber_homs(P.fibers[o], R.fibers[fo], cap))
    for F in enumerate_functors(P.cat, P.products, R.cat, R.products, cap):
        ob = F.obj_map.tolist()
        hom_lists = [fiber_homs(o, ob[o]) for o in range(P.cat.n_objects)]
        guard("morphism components", math.prod(map(len, hom_lists)), cap)
        cond = eed_conditions(P, R, F, E_P, E_R)
        if cond is None:
            continue
        out.extend(DoctrineMorphism(F, tuple(
            MonotoneMap(P.fibers[o], R.fibers[ob[o]], hom_lists[o][k])
            for o, k in enumerate(idx))) for idx in cond.hold(hom_lists))
    return out


# ---------------------------------------------------------------------------
# comprehension completion theorem
# ---------------------------------------------------------------------------


def _claims_only_on_hypotheses(harness):
    """A report whose hypothesis failed keeps its measured results visible,
    but none of them is a claim."""
    @functools.wraps(harness)
    def run(*args, **kwargs) -> Report:
        rep = harness(*args, **kwargs)
        kinds = list(rep.classified())
        if any(kind == HYPOTHESIS and c.status == FAIL for kind, c in kinds):
            for c in [c for kind, c in kinds if kind != HYPOTHESIS]:
                c.data.setdefault("claimed", False)
        return rep
    return run


def _guarded(rep: Report, check: str, compute, data: dict | None = None):
    """compute(), or None after adding the check, with data, that says why
    it cannot be had: not applicable or capped."""
    try:
        return compute()
    except _NOT_COMPUTABLE as exc:
        rep.add(Check(check, NOT_APPLICABLE, str(exc), data or {}))
    except ResourceCap as exc:
        rep.add(Check(check, CAPPED, str(exc), data or {}))
    return None


def _relations(P: DoctrineData, E: ElementaryWitness, X: ExistentialWitness,
               caps: Caps) -> tuple[TCompletion, ERCompletion]:
    """The relation completion and its reflexive part."""
    tp = build_tp(P, E, X, caps)
    return tp, build_erp(P, E, tp, caps)


def _comparison(P: DoctrineData, E: ElementaryWitness, X: ExistentialWitness,
                caps: Caps) -> tuple[ERCompletion, QCompletion, LFunctorResult]:
    """er, qp and the comparison functor L between them, built in that
    order: a failure to build er is reported before one of qp."""
    er = _relations(P, E, X, caps)[1]
    q = build_qp(P, E, X, caps)
    return er, q, functor_L(P, E, X, q, er)


@_claims_only_on_hypotheses
def verify_cthn(P: DoctrineData, caps: Caps = Caps()) -> Report:
    """The category of points carries a full-comprehension existential
    doctrine and the top-element embedding preserves all the structure.

    The embedding is compared only once the points doctrine passes its laws,
    so each of its reindexing maps preserves top and binary meets between
    finite inf-semilattices, hence all meets, and has a left adjoint (lemma):
    the existentials along the embedded projections exist."""
    rep = Report("comprehension-completion")
    base_eed, E_P, X_P = eed_checks(P)
    rep.add(Check("base-is-eed", base_eed.status, data={"context": "hypothesis"}))
    gr = _guarded(rep, "build", lambda: build_gr(P, caps))
    if gr is None:
        return rep
    hat = gr.doctrine
    rep.summary["objects"] = gr.cat.n_objects
    rep.summary["arrows"] = gr.cat.n_arrows
    v = validate_category(hat.cat)
    rep.add(Check("category-laws", _status(v.ok), v.witness or None))
    v2 = validate_doctrine(hat)
    rep.add(Check("doctrine-laws", _status(v2.ok),
                  (v2.witness + (v2.message,)) if not v2.ok else None))
    if not (v.ok and v2.ok):
        return rep
    eed, E_hat, X_hat = eed_checks(hat)
    rep.add(eed)
    if E_hat is None or X_hat is None:
        return rep
    ct = comprehension_table(hat)
    rep.add(Check("comprehensions-full", _status(ct.strict_complete and ct.full),
                  ct.full_witness or (ct.missing(hat) or None),
                  {"entries": len(ct.entries)}))
    # every element of a restricted fiber is comprehended by the arrow the
    # identity carries
    carried_ok = True
    carried_witness = None
    base = P.cat
    for (o, el), gi in gr.obj_of.items():
        fib = hat.fibers[gi]
        for pos, parent_el in enumerate(P.fibers[o].downset(el)):
            c = gr.arr_of.get((int(base.id_arr[o]), parent_el, el))
            if c is None or not verify_comprehension_arrow(hat, gi, pos, c, strict=True):
                carried_ok = False
                carried_witness = (gr.cat.objects[gi], fib.elements[pos])
                break
        if not carried_ok:
            break
    rep.add(Check("comprehension-carried-by-identity", _status(carried_ok),
                  carried_witness))
    # comprehensions the base lacked
    base_ct = comprehension_table(P)
    gained = [f"{o}:{e}" for (o, e) in base_ct.missing(P)]
    rep.add(Check("comprehensions-gained", INFO, data={"previously-missing": gained}))
    # the embedding is a product-preserving functor whose fiber components
    # are identities: fibers, equality, meets/top and existentials transfer
    vf = validate_functor(gr.embed, (P.products, gr.pc))
    rep.add(Check("embedding-functor", _status(vf.ok),
                  (vf.witness + (vf.message,)) if not vf.ok else None))
    fib_ok, witness = True, None
    for a in range(base.n_objects):
        gi = gr.obj_of[(a, P.fibers[a].top)]
        if P.fibers[a] != hat.fibers[gi]:
            fib_ok = False
            witness = base.objects[a]
            break
    rep.add(Check("embedding-preserves-fibers-meets-top", _status(fib_ok), witness))
    delta_ok, dwitness = True, None
    if E_P is not None:
        for a in P.scope.core:
            gi = gr.obj_of[(a, P.fibers[a].top)]
            d_hat = E_hat.delta.get(gi)
            aa = P.window.prod(a, a)[0]
            pair_obj = hat.window.prod(gi, gi)[0]
            if d_hat is None or hat.fibers[pair_obj].elements[d_hat] != \
                    P.fibers[aa].elements[E_P.delta[a]]:
                delta_ok = False
                dwitness = base.objects[a]
                break
    rep.add(Check("embedding-preserves-equality", _status(delta_ok), dwitness))
    # the first projection whose existential the embedding does not carry
    ex_witness = None
    if X_P is not None:
        embedded = gr.embed.arr_map.tolist()
        ex_witness = next((base.arrows[pr] for inst in X_P.instances
                           for pr in (inst.pr1, inst.pr2)
                           if not np.array_equal(X_P.adjoints[pr].table,
                                                 exists_along(hat, embedded[pr]).table)), None)
    rep.add(Check("embedding-preserves-existentials", _status(ex_witness is None), ex_witness))
    return rep


# ---------------------------------------------------------------------------
# the inclusion of reflexive relations is an equivalence (full comprehensions)
# ---------------------------------------------------------------------------


@_claims_only_on_hypotheses
def verify_fulc(P: DoctrineData, caps: Caps = Caps()) -> Report:
    """With full comprehensions, every relation object is isomorphic to a
    reflexive one, so the inclusion is an equivalence; the proof identity
    (every element is the existential image of top along its comprehension)
    is verified elementwise."""
    rep = Report("reflexive-inclusion-equivalence")
    ct = comprehension_table(P)
    if not (ct.strict_complete and ct.full):
        rep.add(Check("full-comprehensions", NOT_APPLICABLE,
                      ct.missing(P) or ct.full_witness,
                      {"reason": "base lacks full comprehensions"}))
        return rep
    rep.add(Check("full-comprehensions", PASS, data={"entries": len(ct.entries)}))
    eed, E, X = eed_checks(P)
    rep.add(Check("base-is-eed", eed.status, data={"context": "hypothesis"}))
    if E is None or X is None:
        return rep
    got = _guarded(rep, "inclusion-faithful", lambda: _relations(P, E, X, caps))
    if got is None:
        return rep
    tp, er = got
    rep.summary["relation-objects"] = len(tp.objects)
    rep.summary["reflexive-objects"] = len(er.objects)
    rep.summary["iso-classes"] = len(iso_classes(tp.cat))
    eq = check_equivalence(er.inclusion)
    rep.add(Check("inclusion-faithful", _status(eq.faithful),
                  eq.witness.get("faithful")))
    rep.add(Check("inclusion-full", _status(eq.full), eq.witness.get("full")))
    rep.add(Check("inclusion-essentially-surjective", _status(eq.essentially_surjective),
                  eq.witness.get("essentially_surjective"),
                  {"iso-witnesses": eq.witness.get("iso_witnesses", {})}))
    # proof identity: el = exists_{comprehension}(top)
    ident_ok, ident_witness, count = True, None, 0
    for ent in ct.entries:
        e_c = exists_along(P, ent.arrow)
        if isinstance(e_c, NoAdjoint):
            continue
        count += 1
        w = int(P.cat.src[ent.arrow])
        if int(e_c.table[P.fibers[w].top]) != ent.element:
            ident_ok = False
            ident_witness = (P.cat.objects[ent.obj], P.fibers[ent.obj].elements[ent.element])
    rep.add(Check("image-of-top-identity", _status(ident_ok), ident_witness,
                  {"instances": count}))
    return rep


# ---------------------------------------------------------------------------
# the comparison functor is an equivalence under choice
# ---------------------------------------------------------------------------


def verify_axc(P: DoctrineData, caps: Caps = Caps()) -> Report:
    """Hypotheses (weak full comprehensions, rule of choice) are verified and
    reported; the conclusion (the comparison functor is full and faithful) is
    measured regardless but claimed only when every hypothesis holds."""
    rep = Report("quotient-comparison-equivalence")
    eed, E, X = eed_checks(P)
    rep.add(Check("base-is-eed", eed.status, data={"context": "hypothesis"}))
    if E is None or X is None:
        rep.add(Check("hypothesis-weak-full-comprehensions", NOT_APPLICABLE,
                      "structure discovery failed"))
        rep.add(Check("hypothesis-rule-of-choice", NOT_APPLICABLE,
                      "structure discovery failed"))
        return rep
    ct = comprehension_table(P)
    hyp1 = ct.complete and ct.full
    rep.add(Check("hypothesis-weak-full-comprehensions", _status(hyp1),
                  None if hyp1 else (ct.missing(P) or ct.full_witness)))
    roc = check_rule_of_choice(P, X)
    rep.add(Check("hypothesis-rule-of-choice", _status(roc.ok),
                  roc.witness or None, {"totals-checked": roc.checked}))
    claimed = hyp1 and roc.ok and eed.status == PASS
    got = _guarded(rep, "conclusion-comparison-equivalence",
                   lambda: _comparison(P, E, X, caps),
                   {"claimed": claimed, "measured": "not-computable"})
    if got is None:
        return rep
    er, q, lres = got
    vf = validate_functor(lres.functor)
    eq = check_equivalence(lres.functor)
    hom_table = {}
    for xi in range(len(q.objects)):
        for yi in range(len(q.objects)):
            hom_table[f"{q.cat.objects[xi]}->{q.cat.objects[yi]}"] = (
                len(q.cat.hom(xi, yi)),
                len(er.cat.hom(er.obj_of[q.objects[xi]], er.obj_of[q.objects[yi]])))
    concl_ok = vf.ok and eq.is_equivalence
    rep.add(Check("conclusion-comparison-equivalence",
                  _status(concl_ok) if claimed else INFO,
                  None if concl_ok else (eq.witness.get("full")
                                         or eq.witness.get("faithful")),
                  {"claimed": claimed,
                   "measured": "pass" if concl_ok else "fail",
                   "faithful": eq.faithful, "full": eq.full,
                   "objects-identical": eq.essentially_surjective,
                   "form-comparisons": lres.form_comparisons,
                   "form-comparisons-skipped": lres.skipped,
                   "hom-cardinalities": hom_table}))
    rep.summary["quotient-objects"] = len(q.objects)
    rep.summary["reflexive-objects"] = len(er.objects)
    return rep


# ---------------------------------------------------------------------------
# converse: an equivalence yields the rule of choice, via smallest
# transitive extensions
# ---------------------------------------------------------------------------


def verify_converse_axc(P: DoctrineData, caps: Caps = Caps()) -> Report:
    """When every reflexive relation has a smallest transitive extension and
    the comparison functor is an equivalence, a choice arrow is derived for
    every total relation and cross-checked against the direct verdict."""
    rep = Report("choice-from-equivalence")
    eed, E, X = eed_checks(P)
    rep.add(Check("base-is-eed", eed.status, data={"context": "hypothesis"}))
    if E is None or X is None:
        rep.add(Check("extensions-exist", NOT_APPLICABLE, "structure discovery failed"))
        return rep
    ct = comprehension_table(P)
    hyp_comp = ct.strict_complete and ct.full
    rep.add(Check("hypothesis-full-comprehensions", _status(hyp_comp),
                  None if hyp_comp else (ct.missing(P) or ct.full_witness)))
    # every reflexive element over the core must have a smallest transitive
    # extension; otherwise the construction does not apply
    for c in P.scope.core:
        cc = P.window.prod(c, c)[0]
        fib = P.fibers[cc]
        for z in range(fib.n):
            if not fib.le(E.delta[c], z):
                continue
            tr = transitive_extension(P, c, z, E.delta[c])
            if isinstance(tr, NoExtension):
                rep.add(Check("extensions-exist", NOT_APPLICABLE,
                              (P.cat.objects[c], fib.elements[z],
                               tr.witness_antichain)))
                return rep
    rep.add(Check("extensions-exist", PASS))
    got = _guarded(rep, "comparison-is-equivalence", lambda: _comparison(P, E, X, caps))
    if got is None:
        return rep
    er, q, lres = got
    eq = check_equivalence(lres.functor)
    l_equiv = eq.is_equivalence
    rep.add(Check("comparison-is-equivalence", _status(l_equiv),
                  data={"context": "hypothesis"}))
    win = P.window
    C = P.cat
    derived_all, witness = True, None
    instances = 0
    skipped: list[str] = []
    entries = {(e.obj, e.element): e for e in ct.entries}
    for a in P.scope.core:
        for b in P.scope.core:
            ab, pr1, _ = win.prod(a, b)
            e1 = X.adjoints[pr1]
            fib_ab = P.fibers[ab]
            for al in range(fib_ab.n):
                if int(e1.table[al]) != P.fibers[a].top:
                    continue
                instances += 1
                got = _derive_choice(P, E, X, q, er, a, b, al, entries, skipped)
                if got is None:
                    continue
                if not got:
                    derived_all = False
                    witness = witness or (C.objects[a], C.objects[b],
                                          fib_ab.elements[al])
    rep.add(Check("derived-choice", _status(derived_all), witness,
                  {"totals": instances, "skipped": skipped,
                   "claimed": hyp_comp and l_equiv}))
    roc = check_rule_of_choice(P, X)
    agree = (derived_all and not skipped) == roc.ok if instances else True
    rep.add(Check("agreement-with-direct-verdict", _status(agree),
                  None if agree else roc.witness,
                  {"direct": "pass" if roc.ok else "fail"}))
    return rep


def _derive_choice(P, E, X, q, er, a: int, b: int, al: int,
                   entries: dict[tuple[int, int], ComprehensionEntry],
                   skipped: list[str]) -> bool | None:
    """Derive a graphed arrow for the total element al in P(A×B) through the
    quotient completion; None means the instance was skipped (reported).

    The element is first made total on both sides (restricting the target
    along a comprehension when needed), spanned against itself and closed
    transitively; its saturation against the closure is an arrow out of
    equality into the closure, fullness of the comparison functor yields a
    class with that value, and the class members are searched for one whose
    graph lies inside the original element.

    A and B are core objects, so the existential along pr2 is the one the
    discovery kept in X (lemma), and the comprehension of the image is the
    entry of the comprehension table, `entries`.  The product A×W is in the window: it is
    A×B when W = B, and `win.times` has read it when W is the source of the
    comprehension."""
    C = P.cat
    win = P.window
    ab, pr1, pr2 = win.prod(a, b)
    e2 = X.adjoints[pr2]
    label = f"{C.objects[a]}x{C.objects[b]}:{P.fibers[ab].elements[al]}"
    if int(e2.table[al]) == P.fibers[b].top:
        w_obj, c_arrow, alp = b, int(C.id_arr[b]), al
    else:
        # restrict the target along the comprehension of the image
        img = int(e2.table[al])
        ent = entries[b, img]
        if ent.kind == "none":
            skipped.append(f"{label}: image has no comprehension")
            return None
        c_arrow = ent.arrow
        w_obj = int(C.src[c_arrow])
        try:
            idxc = win.times(int(C.id_arr[a]), c_arrow)   # id×c: A×W -> A×B
        except WindowClosure:
            skipped.append(f"{label}: restricted product outside window")
            return None
        alp = int(P.r(idxc).table[al])
    aw, q1, q2 = win.prod(a, w_obj)
    e1p = exists_along(P, q1)
    e2p = exists_along(P, q2)
    if isinstance(e1p, NoAdjoint) or isinstance(e2p, NoAdjoint):
        skipped.append(f"{label}: restricted existentials missing")
        return None
    if int(e1p.table[alp]) != P.fibers[a].top or \
            int(e2p.table[alp]) != P.fibers[w_obj].top:
        skipped.append(f"{label}: restriction is not total both ways")
        return None
    # span the relation against itself and close transitively
    try:
        win.prod3(a, w_obj, w_obj)
    except WindowClosure:
        skipped.append(f"{label}: triple outside window")
        return None
    fib3, legs, r12, _, r13 = triple_product(P, a, w_obj, w_obj)
    lifted = fib3.meet_of(int(r12[alp]), int(r13[alp]))
    ez = exists_along(P, legs[1])                   # drops the source
    if isinstance(ez, NoAdjoint):
        skipped.append(f"{label}: no existential dropping the source")
        return None
    zeta = int(ez.table[lifted])
    ww = win.prod(w_obj, w_obj)[0]
    if w_obj in E.delta:
        delta_w = E.delta[w_obj]
    else:
        skipped.append(f"{label}: no equality at the restricted target")
        return None
    fib_ww = P.fibers[ww]
    if not fib_ww.le(delta_w, zeta):
        skipped.append(f"{label}: spanned relation is not reflexive")
        return None
    sw = P.r(win.swap(w_obj, w_obj)).table
    if int(sw[zeta]) != zeta:
        skipped.append(f"{label}: spanned relation is not symmetric")
        return None
    tr = transitive_extension(P, w_obj, zeta, delta_w)
    if isinstance(tr, NoExtension):
        skipped.append(f"{label}: no transitive extension")
        return None
    # saturate against the closure: this, not the raw element, is the arrow
    # out of equality into the closure
    phi = rel_compose(P, RelArrow(a, w_obj, alp), RelArrow(w_obj, w_obj, tr)).el
    src_pair = (a, E.delta[a])
    tgt_pair = (w_obj, tr)
    if src_pair not in er.obj_of or tgt_pair not in er.obj_of:
        skipped.append(f"{label}: endpoints missing from the completion")
        return None
    key = (er.tp.obj_of[src_pair], er.tp.obj_of[tgt_pair], phi)
    if key not in er.tp.arr_of:
        return False
    # fullness of the comparison yields a class whose value is the saturation
    xi = q.obj_of[src_pair]
    yi = q.obj_of[tgt_pair]
    members = None
    for ci, (cx, cy, mem) in enumerate(q.classes):
        if (cx, cy) != (xi, yi):
            continue
        if _l_value(P, a, w_obj, E.delta[a], tr, mem[0]) == phi:
            members = mem
            break
    if members is None:
        return False
    # extract a member whose graph lies inside the original element
    for wp in members:
        graph = win.pair(int(C.id_arr[a]), int(C.comp[c_arrow, wp]))
        if int(P.r(graph).table[al]) == P.fibers[a].top:
            return True
    return False


# ---------------------------------------------------------------------------
# universal property at desk scale
# ---------------------------------------------------------------------------


def compose_functors(F: FunctorData, G: FunctorData) -> FunctorData:
    """G after F."""
    return FunctorData(F.source, G.target, G.obj_map[F.obj_map], G.arr_map[F.arr_map])


def whiskering_agrees(above: TwoCellTable, below: TwoCellTable, at: list[int]) -> np.ndarray:
    """Per pair (a, b) of the morphisms of `above`, whether its cells, read
    at the objects `at` and sorted, are the cells of the pair (a, b) of
    `below`, which lists them sorted: all pairs in one comparison."""
    n = above.n
    count = np.diff(above.first)
    pairs = (np.arange(n)[:, None] * below.n + np.arange(n)).ravel()
    first = below.first[pairs]
    agree = count == below.first[pairs + 1] - first
    pair = np.repeat(np.flatnonzero(agree), count[agree])
    rank = np.arange(len(pair)) - np.repeat(np.cumsum(count[agree]) - count[agree], count[agree])
    read = above.array[above.first[pair] + rank][:, at]
    read = read[np.lexsort([*read.T[::-1], pair])]
    agree[pair[(read != below.array[first[pair] + rank]).any(axis=1)]] = False
    return agree.reshape(n, n)


def essential_equivalence(rep: Report, P: DoctrineData, Q: DoctrineData,
                          R: DoctrineData, D: FunctorData, iota: dict[int, MonotoneMap],
                          mor_p: list[DoctrineMorphism], mor_q: list[DoctrineMorphism],
                          E_P: ElementaryWitness, E_R: ElementaryWitness) -> None:
    """Add to `rep` whether precomposition with the embedding D: P -> Q,
    whose fiber comparison at each object o of P is iota[o]: P(o) -> Q(D o),
    is an essential equivalence from the morphisms Q -> R (`mor_q`) to the
    morphisms P -> R (`mor_p`): well defined, surjective up to an invertible
    2-cell, and bijective on 2-cells, which D whiskers.  Both readings of
    the morphism notion are checked: plain existential morphisms, and those
    preserving comprehensions strictly.

    Well-definedness is decided once for all precomposites
    (`validate_doctrine_morphisms`).  The 2-cells come from one
    `TwoCellTable` per side: below, over the precomposed morphisms then
    `mor_p`; above, over `mor_q`.  The iso test reads the table below
    (`invertible`), and `whiskering_agrees` compares the two tables at
    once.  Each reading reads them for its filtered indices."""
    at_D = D.obj_map.tolist()

    composites: dict[int, FunctorData] = {}     # D then F, once per functor F

    def precompose(m: DoctrineMorphism) -> DoctrineMorphism:
        if id(m.F) not in composites:
            composites[id(m.F)] = compose_functors(D, m.F)
        return DoctrineMorphism(composites[id(m.F)], tuple(
            MonotoneMap(P.fibers[o], m.components[d].cod,
                        m.components[d].table[iota[o].table])
            for o, d in enumerate(at_D)))

    # the morphisms out of P: the precomposed ones, then mor_p
    down = [precompose(m) for m in mor_q] + mor_p
    n = len(mor_q)
    well_defined = validate_doctrine_morphisms(P, R, down[:n], E_P, E_R)
    cells_down, cells_up = TwoCellTable(P, R, down), TwoCellTable(Q, R, mor_q)
    agree = whiskering_agrees(cells_up, cells_down, at_D)

    for reading, strict_comp in (("existential", False),
                                 ("comprehension-preserving", True)):
        keep_p = preserve_comprehensions(P, R, mor_p) if strict_comp else [True] * len(mor_p)
        keep_q = preserve_comprehensions(Q, R, mor_q) if strict_comp else [True] * n
        mp = [n + k for k, keep in enumerate(keep_p) if keep]
        mq = [i for i, keep in enumerate(keep_q) if keep]
        rep.add(Check(f"{reading}:precomposition-well-defined",
                      _status(all(well_defined[i] for i in mq))))
        sw = next((str(sorted(zip(P.cat.objects, map(R.cat.objects.__getitem__,
                                                      down[k].F.obj_map.tolist()))))
                   for k in mp if not any(cells_down.invertible(i, k) for i in mq)), None)
        rep.add(Check(f"{reading}:essentially-surjective", _status(sw is None), sw,
                      {"base-side": len(mp), "completion-side": len(mq)}))
        keep = np.array(mq, dtype=np.intp)
        bad = np.argwhere(~agree[np.ix_(keep, keep)])
        fw = None
        if len(bad):
            i, j = map(int, bad[0])
            fw = (i, j, len(cells_up(mq[i], mq[j])), len(cells_down(mq[i], mq[j])))
        rep.add(Check(f"{reading}:fully-faithful-on-2-cells", _status(fw is None), fw))


def verify_universal(P: DoctrineData, X: FinCat, Xpc: ProductChoice | None,
                     Xscope: WindowScope | None = None,
                     caps: Caps = Caps()) -> Report:
    """Enumerate doctrine morphisms into the subobject doctrine of an exact
    category, from the base doctrine and from the subobjects of its
    completion, and check that precomposition with the graph embedding is an
    essential equivalence (`essential_equivalence`, with the embedding D and
    the canonical fiber comparison).

    An exact target is finitely complete, so it has a terminal object and
    its product choice Xpc is not None (lemma).  As in `_guarded`, a cap is
    reported capped, with its size, and a structural restriction not
    applicable.  The `base-window` restriction is checked only once the
    base's morphisms are enumerated within the cap, which on fs2 meets the
    cap first: `universal fs2` exits 3 and `demo` prints capped."""
    rep = Report("universal-property")
    try:
        ex = check_exact(X, Xscope, caps.enum)
        rep.add(Check("target-exact", _status(ex.exact), ex.witness.get("exact")
                      or ex.witness.get("regular") or ex.witness.get("finitely_complete"),
                      {"core": list(ex.witness["core"])}))
        if not ex.exact:
            return rep
        sub_x = sub_doctrine(X, Xpc, Xscope or WindowScope(tuple(range(X.n_objects))))
        vx = validate_doctrine(sub_x)
        rep.add(Check("target-subobjects", _status(vx.ok), vx.witness or None))
        E_SX = discover_elementary(sub_x)
        if isinstance(E_SX, StructureFailure):
            rep.add(Check("target-equality", FAIL, E_SX.where))
            return rep
        eed_p, E_P, X_P = eed_checks(P)
        rep.add(Check("base-is-eed", eed_p.status, data={"context": "hypothesis"}))
        if E_P is None or X_P is None:
            return rep
        mor_p = enumerate_morphisms(P, sub_x, E_P, E_SX, caps.enum)
        if P.scope.core != tuple(range(P.cat.n_objects)):
            rep.add(Check("base-window", NOT_APPLICABLE,
                          "base has non-core objects; enumeration restricted"))
            return rep
        tp, er = _relations(P, E_P, X_P, caps)
        sub_er = tp_sub_restriction(tp, er)
        v_er = validate_doctrine(sub_er)
        rep.add(Check("completion-subobjects", _status(v_er.ok), v_er.witness or None))
        E_ER = discover_elementary(sub_er)
        if isinstance(E_ER, StructureFailure):
            rep.add(Check("completion-equality", FAIL, E_ER.where))
            return rep
        iota = iota_iso(P, E_P, tp, sub_er, er)
        rep.add(Check("canonical-fiber-comparison", PASS,
                      data={"fibers": len(iota)}))
        D = functor_D(P, E_P, er)
        mor_er = enumerate_morphisms(sub_er, sub_x, E_ER, E_SX, caps.enum)
        rep.summary["morphisms-from-base"] = len(mor_p)
        rep.summary["morphisms-from-completion"] = len(mor_er)
        essential_equivalence(rep, P, sub_er, sub_x, D, iota, mor_p, mor_er, E_P, E_SX)
    except ResourceCap as exc:
        rep.add(Check("enumeration", CAPPED, str(exc),
                      {"what": exc.what, "size": exc.size, "cap": exc.cap}))
    except _NOT_COMPUTABLE as exc:
        rep.add(Check("enumeration", NOT_APPLICABLE, str(exc),
                      {"missing": exc.missing} if isinstance(exc, WindowClosure) else {}))
    return rep
