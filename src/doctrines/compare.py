"""Theorem harnesses: executable verdicts on concrete finite instances.

Each harness re-verifies its hypotheses from raw doctrine data (never
trusting construction flags), carries machine-checkable evidence, and never
claims a conclusion whose hypotheses failed: the measured truth value is
still reported, labeled unclaimed.
"""

from __future__ import annotations

import copy
import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .allegory import RelArrow, rel_compose
from .completions import (Caps, ERCompletion, GrCompletion, LFunctorResult,
                          NoExtension, QCompletion, TCompletion, _l_value,
                          build_erp, build_gr, build_qp, build_tp, choose_products,
                          core_subcategory, functor_D, functor_L, iota_iso,
                          tp_sub_restriction, transitive_extension)
from .doctrine import DoctrineData, exists_along, sub_doctrine, validate_doctrine
from .errors import (DesNotClosed, DoctrinesError, FormulaMismatch,
                     MalformedPresentation, ResourceCap, WindowClosure)
from .fincat import (FinCat, FunctorData, ProductChoice, ValidationReport,
                     WindowScope, check_equivalence, check_exact, inverse_of,
                     is_iso, iso_classes, validate_category, validate_functor,
                     validate_products)
from .report import CAPPED, FAIL, INFO, NOT_APPLICABLE, PASS, Check, Report
from .semilattice import FinInfSL, MonotoneMap, NoAdjoint
from .structure import (CheckVerdict, ComprehensionTable, ElementaryWitness,
                        ExistentialWitness, StructureFailure, check_beck_chevalley,
                        check_delta_product_law, check_frobenius,
                        check_rule_of_choice, comprehension_of, comprehension_table,
                        discover_elementary, discover_existential,
                        verify_comprehension_arrow)

# the completion chain cannot be built on this input: the harness reports
# why instead of claiming anything about it
_NOT_COMPUTABLE = (MalformedPresentation, DesNotClosed, FormulaMismatch, WindowClosure)


def _status(ok: bool) -> str:
    return PASS if ok else FAIL


def eed_checks(P: DoctrineData) -> tuple[Check, ElementaryWitness | None,
                                         ExistentialWitness | None]:
    """Discovery plus stability and reciprocity, bundled as one verdict."""
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
                               {"checked": dl.checked, "skipped": dl.skipped,
                                "skips_acknowledged": dl.skips_acknowledged}))
    if not (bc.ok and fr.ok):
        root.status = FAIL
    return root, E, X


# ---------------------------------------------------------------------------
# one memoized analysis per doctrine
# ---------------------------------------------------------------------------


class Analysis:
    """Law verdicts, structure, comprehensions and completions of one
    doctrine, each computed on its first read and kept in the doctrine's
    `_analyses`, one memo per (caps.fibers, caps.enum, condition_v).

    An error raised while computing a part is kept as that part's outcome
    and raised again, as a copy, on every later read, so a reader sees what
    a fresh computation would show.  Nothing kept refers back to the
    doctrine, so it is freed with it.  A doctrine must not be mutated once
    its analysis exists: fault-injection code builds a fresh doctrine."""

    def __init__(self, P: DoctrineData, caps: Caps, condition_v: str):
        self.P = P
        self.caps = caps
        self.condition_v = condition_v
        self._memo = P._analyses.setdefault((caps.fibers, caps.enum, condition_v), {})

    def _once(self, part: str, compute):
        if part not in self._memo:
            try:
                self._memo[part] = (compute(), None)
            except DoctrinesError as exc:
                self._memo[part] = (None, _copy_error(exc))
                raise
        value, exc = self._memo[part]
        if exc is not None:
            raise _copy_error(exc)
        return value

    def category(self) -> ValidationReport:
        return self._once("category", lambda: validate_category(self.P.cat))

    def products(self) -> ValidationReport:
        return self._once("products",
                          lambda: validate_products(self.P.cat, self.P.products))

    def doctrine_laws(self) -> ValidationReport:
        return self._once("doctrine", lambda: validate_doctrine(self.P))

    def _eed(self) -> tuple[Check, ElementaryWitness | None, ExistentialWitness | None]:
        return self._once("eed", lambda: eed_checks(self.P))

    def eed(self) -> tuple[Check, ElementaryWitness | None, ExistentialWitness | None]:
        """The `eed_checks` verdict; the tree is a copy a report may change."""
        root, E, X = self._eed()
        return copy.deepcopy(root), E, X

    def comprehensions(self) -> ComprehensionTable:
        return self._once("comprehensions", lambda: comprehension_table(self.P))

    # the parts below need the discovered structure: E, and X for all but er

    def rule_of_choice(self) -> CheckVerdict:
        return self._once("choice", lambda: check_rule_of_choice(self.P, self._eed()[2]))

    def gr(self) -> GrCompletion:
        return self._once("gr", lambda: build_gr(self.P, self.caps))

    def tp(self) -> TCompletion:
        return self._once("tp", lambda: build_tp(self.P, *self._eed()[1:],
                                                 self.condition_v, self.caps))

    def er(self) -> ERCompletion:
        return self._once("er", lambda: build_erp(self.P, self._eed()[1], self.tp(),
                                                  self.caps))

    def qp(self) -> QCompletion:
        return self._once("qp", lambda: build_qp(self.P, *self._eed()[1:], self.caps))

    def L(self) -> LFunctorResult:
        """The comparison functor; a failure to build er comes before one of qp."""
        def compute():
            er = self.er()
            return functor_L(self.P, *self._eed()[1:], self.qp(), er)
        return self._once("L", compute)


def analysis(P: DoctrineData, caps: Caps = Caps(),
             condition_v: str = "strict") -> Analysis:
    """The analysis of P under these caps and totality side."""
    return Analysis(P, caps, condition_v)


def _copy_error(exc: DoctrinesError) -> DoctrinesError:
    """The error without its traceback, whose frames hold the doctrine.
    `copy.copy` would call the error's own __init__ with its message."""
    out = type(exc).__new__(type(exc), *exc.args)
    out.__dict__.update(exc.__dict__)
    return out


# ---------------------------------------------------------------------------
# doctrine morphisms and 2-cells
# ---------------------------------------------------------------------------


@dataclass
class DoctrineMorphism:
    F: FunctorData
    components: dict[str, MonotoneMap]   # source object name -> fiber map

    def key(self) -> tuple:
        return (tuple(sorted(self.F.obj_map.items())),
                tuple(sorted(self.F.arr_map.items())),
                tuple((o, tuple(int(v) for v in m.table))
                      for o, m in sorted(self.components.items())))


@dataclass
class Doctrine2Cell:
    theta: dict[str, str]   # source object name -> target arrow name


def validate_doctrine_morphism(P: DoctrineData, R: DoctrineData,
                               mor: DoctrineMorphism,
                               E_P: ElementaryWitness, E_R: ElementaryWitness,
                               check_products: bool = True) -> bool:
    """Functoriality, fiber homomorphisms, the equality condition and the
    commutation with existentials along core projections."""
    S = P.cat
    rep = validate_functor(mor.F, (P.products, R.products) if check_products else None)
    if not rep.ok:
        return False
    for o in range(S.n_objects):
        m = mor.components[S.objects[o]]
        if not m.is_homomorphism():
            return False
    winP, winR = P.window, R.window
    for a in P.core_idx():
        aa, p1, p2 = winP.prod(a, a)
        fa = mor.F.ob(a)
        if (R.cat.objects[fa], R.cat.objects[fa]) not in R.products.binary:
            return False
        cmp_arrow = winR.pair(mor.F.ar(p1), mor.F.ar(p2))   # F(A×A) -> FA×FA
        lhs = int(mor.components[S.objects[aa]].table[E_P.delta[a]])
        if fa not in E_R.delta:
            return False
        rhs = int(R.r(cmp_arrow).table[E_R.delta[fa]])
        if lhs != rhs:
            return False
    for a in P.core_idx():
        for b in P.core_idx():
            ab, p1, p2 = winP.prod(a, b)
            for pr, tgt in ((p1, a), (p2, b)):
                eP = exists_along(P, pr)
                eR = exists_along(R, mor.F.ar(pr))
                if isinstance(eP, NoAdjoint) or isinstance(eR, NoAdjoint):
                    return False
                bt = mor.components[S.objects[tgt]].table
                bab = mor.components[S.objects[ab]].table
                if not np.array_equal(bt[eP.table], eR.table[bab]):
                    return False
    return True


def morphism_preserves_comprehensions(P: DoctrineData, R: DoctrineData,
                                      mor: DoctrineMorphism) -> bool:
    """Strict reading: the functor image of a comprehension arrow is a
    comprehension of the component image of the element."""
    for a in P.core_idx():
        for el in range(P.fibers[a].n):
            ent = comprehension_of(P, a, el)
            if ent.kind == "none":
                continue
            c = P.cat.arr_index[ent.arrow]
            img = int(mor.components[P.cat.objects[a]].table[el])
            if not verify_comprehension_arrow(R, mor.F.ob(a), img, mor.F.ar(c),
                                              strict=(ent.kind == "strict")):
                return False
    return True


def valid_2cells(P: DoctrineData, R: DoctrineData,
                 m1: DoctrineMorphism, m2: DoctrineMorphism) -> list[Doctrine2Cell]:
    """All natural transformations between the functors whose components are
    lax against the fiber maps."""
    S, T = P.cat, R.cat
    comp_choices = []
    for a in range(S.n_objects):
        comp_choices.append([int(h) for h in T.hom(m1.F.ob(a), m2.F.ob(a))])
    out = []
    for combo in itertools.product(*comp_choices):
        natural = True
        for f in range(S.n_arrows):
            a, b = int(S.src[f]), int(S.tgt[f])
            if int(T.comp[combo[b], m1.F.ar(f)]) != int(T.comp[m2.F.ar(f), combo[a]]):
                natural = False
                break
        if not natural:
            continue
        lax = True
        for a in range(S.n_objects):
            b1 = m1.components[S.objects[a]]
            b2 = m2.components[S.objects[a]]
            rt = R.r(combo[a]).table
            if not all(b1.cod.le(int(b1.table[x]), int(rt[b2.table[x]]))
                       for x in range(b1.dom.n)):
                lax = False
                break
        if lax:
            out.append(Doctrine2Cell({S.objects[a]: T.arrows[combo[a]]
                                      for a in range(S.n_objects)}))
    return out


def enumerate_functors(S: FinCat, Spc: ProductChoice, T: FinCat, Tpc: ProductChoice,
                       cap: int) -> list[FunctorData]:
    """All product-preserving functors S -> T, exhaustively (cap-guarded);
    the guard charges every candidate object map with the cost of one full
    functoriality validation, so oversized instances abort up front."""
    est = T.n_objects ** S.n_objects
    non_id = [f for f in range(S.n_arrows)
              if f != int(S.id_arr[int(S.src[f])])]
    if est > cap:
        raise ResourceCap("functor object maps", est, cap)
    work = est * max(1, int((S.comp >= 0).sum()))
    if work > cap:
        raise ResourceCap("functor enumeration work", work, cap)
    out = []
    for omap in itertools.product(range(T.n_objects), repeat=S.n_objects):
        cand_lists = []
        feasible = True
        total = 1
        for f in non_id:
            cands = [int(h) for h in T.hom(omap[int(S.src[f])], omap[int(S.tgt[f])])]
            if not cands:
                feasible = False
                break
            total *= len(cands)
            if total > cap:
                raise ResourceCap("functor arrow maps", total, cap)
            cand_lists.append(cands)
        if not feasible:
            continue
        for combo in itertools.product(*cand_lists):
            amap = {}
            for o in range(S.n_objects):
                amap[S.arrows[int(S.id_arr[o])]] = T.arrows[int(T.id_arr[omap[o]])]
            for f, tf in zip(non_id, combo):
                amap[S.arrows[f]] = T.arrows[tf]
            F = FunctorData(S, T, {S.objects[o]: T.objects[omap[o]]
                                   for o in range(S.n_objects)}, amap)
            if validate_functor(F, (Spc, Tpc)).ok:
                out.append(F)
    return out


def enumerate_fiber_homs(L: FinInfSL, M: FinInfSL, cap: int) -> list[np.ndarray]:
    est = M.n ** max(0, L.n - 1)
    if est > cap:
        raise ResourceCap("fiber homomorphisms", est, cap)
    non_top = [i for i in range(L.n) if i != L.top]
    out = []
    for combo in itertools.product(range(M.n), repeat=len(non_top)):
        table = np.empty(L.n, dtype=np.int32)
        table[L.top] = M.top
        for i, v in zip(non_top, combo):
            table[i] = v
        m = MonotoneMap(L, M, table)
        if m.is_homomorphism():
            out.append(table)
    return out


def enumerate_morphisms(P: DoctrineData, R: DoctrineData,
                        E_P: ElementaryWitness, E_R: ElementaryWitness,
                        cap: int) -> list[DoctrineMorphism]:
    functors = enumerate_functors(P.cat, P.products, R.cat, R.products, cap)
    out = []
    for F in functors:
        hom_lists = []
        total = 1
        for o in range(P.cat.n_objects):
            homs = enumerate_fiber_homs(P.fibers[o], R.fibers[F.ob(o)], cap)
            total *= max(1, len(homs))
            if total > cap:
                raise ResourceCap("morphism components", total, cap)
            hom_lists.append(homs)
        for combo in itertools.product(*hom_lists):
            comps = {P.cat.objects[o]: MonotoneMap(P.fibers[o], R.fibers[F.ob(o)],
                                                   combo[o])
                     for o in range(P.cat.n_objects)}
            mor = DoctrineMorphism(F, comps)
            if validate_doctrine_morphism(P, R, mor, E_P, E_R):
                out.append(mor)
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
        if any(c.status == FAIL and c.data.get("context") == "hypothesis"
               for c in rep.walk()):
            for c in rep.walk():
                if not (c.data.get("context") == "hypothesis"
                        or c.name.startswith("hypothesis-")):
                    c.data.setdefault("claimed", False)
        return rep
    return run


def _comparison(an: Analysis, rep: Report, check: str, data: dict | None = None
                ) -> tuple[ERCompletion, QCompletion, LFunctorResult] | None:
    """The reflexive and quotient completions with the comparison functor,
    or None after adding the check that says why they cannot be had."""
    try:
        return an.er(), an.qp(), an.L()
    except _NOT_COMPUTABLE as exc:
        rep.add(Check(check, NOT_APPLICABLE, str(exc), data or {}))
    except ResourceCap as exc:
        rep.add(Check(check, CAPPED, str(exc)))
    return None


@_claims_only_on_hypotheses
def verify_cthn(P: DoctrineData, caps: Caps = Caps()) -> Report:
    """The category of points carries a full-comprehension existential
    doctrine and the top-element embedding preserves all the structure."""
    rep = Report("comprehension-completion")
    an = analysis(P, caps)
    base_eed, E_P, X_P = an.eed()
    rep.add(Check("base-is-eed", base_eed.status, data={"context": "hypothesis"}))
    try:
        gr = an.gr()
    except ResourceCap as exc:
        rep.add(Check("build", CAPPED, str(exc)))
        return rep
    hat = gr.doctrine
    an_hat = analysis(hat, caps)
    rep.summary["objects"] = gr.cat.n_objects
    rep.summary["arrows"] = gr.cat.n_arrows
    v = an_hat.category()
    rep.add(Check("category-laws", _status(v.ok), v.witness or None))
    v2 = an_hat.doctrine_laws()
    rep.add(Check("doctrine-laws", _status(v2.ok),
                  (v2.witness + (v2.message,)) if not v2.ok else None))
    if not (v.ok and v2.ok):
        return rep
    eed, E_hat, X_hat = an_hat.eed()
    rep.add(eed)
    if E_hat is None or X_hat is None:
        return rep
    ct = an_hat.comprehensions()
    rep.add(Check("comprehensions-full", _status(ct.strict_complete and ct.full),
                  ct.full_witness or (ct.missing() or None),
                  {"entries": len(ct.entries)}))
    # every element of a restricted fiber is comprehended by the arrow the
    # identity carries
    carried_ok = True
    carried_witness = None
    base = P.cat
    for (o, el), gi in gr.obj_of.items():
        fib = hat.fibers[gi]
        for pos, parent_el in enumerate(P.fibers[o].downset(el)):
            cname = f"({base.arrows[int(base.id_arr[o])]}" \
                    f"|{P.fibers[o].elements[parent_el]}|{P.fibers[o].elements[el]})"
            if (cname not in gr.cat.arr_index
                    or not verify_comprehension_arrow(hat, gi, pos,
                                                      gr.cat.arr_index[cname],
                                                      strict=True)):
                carried_ok = False
                carried_witness = (gr.cat.objects[gi], fib.elements[pos])
                break
        if not carried_ok:
            break
    rep.add(Check("comprehension-carried-by-identity", _status(carried_ok),
                  carried_witness))
    # comprehensions the base lacked
    base_ct = an.comprehensions()
    gained = [f"{o}:{e}" for (o, e) in base_ct.missing()]
    rep.add(Check("comprehensions-gained", INFO, data={"previously-missing": gained}))
    # the embedding is a product-preserving functor whose fiber components
    # are identities: fibers, equality, meets/top and existentials transfer
    emb_ok = validate_functor(gr.embed, (P.products, gr.pc)).ok
    rep.add(Check("embedding-functor", _status(emb_ok)))
    fib_ok, witness = True, None
    for a in range(base.n_objects):
        gi = gr.obj_of[(a, P.fibers[a].top)]
        pf, hf = P.fibers[a], hat.fibers[gi]
        if (pf.elements != hf.elements or pf.top != hf.top
                or not np.array_equal(pf.leq, hf.leq)
                or not np.array_equal(pf.meet, hf.meet)):
            fib_ok = False
            witness = base.objects[a]
            break
    rep.add(Check("embedding-preserves-fibers-meets-top", _status(fib_ok), witness))
    delta_ok, dwitness = True, None
    if E_P is not None:
        for a in P.core_idx():
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
    ex_ok = True
    if X_P is not None:
        for inst in X_P.instances:
            for pr in (inst.pr1, inst.pr2):
                e_hat = exists_along(
                    hat, gr.cat.arr_index[gr.embed.arr_map[base.arrows[pr]]])
                eP = X_P.adjoints[pr]
                if isinstance(e_hat, NoAdjoint) or not np.array_equal(eP.table,
                                                                      e_hat.table):
                    ex_ok = False
    rep.add(Check("embedding-preserves-existentials", _status(ex_ok)))
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
    an = analysis(P, caps)
    ct = an.comprehensions()
    if not (ct.strict_complete and ct.full):
        rep.add(Check("full-comprehensions", NOT_APPLICABLE,
                      ct.missing() or ct.full_witness,
                      {"reason": "base lacks full comprehensions"}))
        return rep
    rep.add(Check("full-comprehensions", PASS, data={"entries": len(ct.entries)}))
    eed, E, X = an.eed()
    rep.add(Check("base-is-eed", eed.status, data={"context": "hypothesis"}))
    if E is None or X is None:
        return rep
    try:
        tp, er = an.tp(), an.er()
    except _NOT_COMPUTABLE as exc:
        rep.add(Check("inclusion-faithful", NOT_APPLICABLE, str(exc)))
        return rep
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
    for a in P.core_idx():
        for el in range(P.fibers[a].n):
            ent = next(e for e in ct.entries
                       if e.obj == P.cat.objects[a]
                       and e.element == P.fibers[a].elements[el])
            c = P.cat.arr_index[ent.arrow]
            e_c = exists_along(P, c)
            if isinstance(e_c, NoAdjoint):
                continue
            count += 1
            w = int(P.cat.src[c])
            if int(e_c.table[P.fibers[w].top]) != el:
                ident_ok = False
                ident_witness = (P.cat.objects[a], P.fibers[a].elements[el])
    rep.add(Check("image-of-top-identity", _status(ident_ok), ident_witness,
                  {"instances": count}))
    return rep


# ---------------------------------------------------------------------------
# the comparison functor is an equivalence under choice
# ---------------------------------------------------------------------------


def verify_axc(P: DoctrineData, condition_v: str = "strict",
               caps: Caps = Caps()) -> Report:
    """Hypotheses (weak full comprehensions, rule of choice) are verified and
    reported; the conclusion (the comparison functor is full and faithful) is
    measured regardless but claimed only when every hypothesis holds."""
    rep = Report("quotient-comparison-equivalence")
    an = analysis(P, caps, condition_v)
    eed, E, X = an.eed()
    rep.add(Check("base-is-eed", eed.status, data={"context": "hypothesis"}))
    if E is None or X is None:
        rep.add(Check("hypothesis-weak-full-comprehensions", NOT_APPLICABLE,
                      "structure discovery failed"))
        rep.add(Check("hypothesis-rule-of-choice", NOT_APPLICABLE,
                      "structure discovery failed"))
        return rep
    ct = an.comprehensions()
    hyp1 = ct.complete and ct.full
    rep.add(Check("hypothesis-weak-full-comprehensions", _status(hyp1),
                  None if hyp1 else (ct.missing() or ct.full_witness)))
    roc = an.rule_of_choice()
    rep.add(Check("hypothesis-rule-of-choice", _status(roc.ok),
                  roc.witness or None, {"totals-checked": roc.checked}))
    claimed = hyp1 and roc.ok and eed.status == PASS
    got = _comparison(an, rep, "conclusion-comparison-equivalence",
                      {"claimed": False, "measured": "not-computable"})
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
    concl_ok = vf.ok and eq.faithful and eq.full and eq.essentially_surjective
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
    an = analysis(P, caps)
    eed, E, X = an.eed()
    rep.add(Check("base-is-eed", eed.status, data={"context": "hypothesis"}))
    if E is None or X is None:
        rep.add(Check("extensions-exist", NOT_APPLICABLE, "structure discovery failed"))
        return rep
    ct = an.comprehensions()
    hyp_comp = ct.strict_complete and ct.full
    rep.add(Check("hypothesis-full-comprehensions", _status(hyp_comp),
                  None if hyp_comp else (ct.missing() or ct.full_witness)))
    # every reflexive element over the core must have a smallest transitive
    # extension; otherwise the construction does not apply
    for c in P.core_idx():
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
    got = _comparison(an, rep, "comparison-is-equivalence")
    if got is None:
        return rep
    er, q, lres = got
    eq = check_equivalence(lres.functor)
    l_equiv = eq.faithful and eq.full and eq.essentially_surjective
    rep.add(Check("comparison-is-equivalence", _status(l_equiv)))
    win = P.window
    C = P.cat
    derived_all, witness = True, None
    instances = 0
    skipped: list[str] = []
    by_pair = {(i.a1, i.a2): i for i in X.instances}
    for a in P.core_idx():
        for b in P.core_idx():
            inst = by_pair[(a, b)]
            e1 = X.adjoints[inst.pr1]
            e2 = X.adjoints[inst.pr2]
            fib_ab = P.fibers[inst.prod]
            for al in range(fib_ab.n):
                if int(e1.table[al]) != P.fibers[a].top:
                    continue
                instances += 1
                got = _derive_choice(P, E, X, q, er, a, b, al, ct, caps, skipped)
                if got is None:
                    continue
                if not got:
                    derived_all = False
                    witness = witness or (C.objects[a], C.objects[b],
                                          fib_ab.elements[al])
    rep.add(Check("derived-choice", _status(derived_all), witness,
                  {"totals": instances, "skipped": skipped,
                   "claimed": hyp_comp and l_equiv}))
    roc = an.rule_of_choice()
    agree = (derived_all and not skipped) == roc.ok if instances else True
    rep.add(Check("agreement-with-direct-verdict", _status(agree),
                  None if agree else roc.witness,
                  {"direct": "pass" if roc.ok else "fail"}))
    return rep


def _derive_choice(P, E, X, q, er, a: int, b: int, al: int,
                   ct: ComprehensionTable, caps: Caps,
                   skipped: list[str]) -> bool | None:
    """Derive a graphed arrow for the total element al in P(A×B) through the
    quotient completion; None means the instance was skipped (reported).

    The element is first made total on both sides (restricting the target
    along a comprehension when needed), spanned against itself and closed
    transitively; its saturation against the closure is an arrow out of
    equality into the closure, fullness of the comparison functor yields a
    class with that value, and the class members are searched for one whose
    graph lies inside the original element."""
    C = P.cat
    win = P.window
    ab, pr1, pr2 = win.prod(a, b)
    e2 = exists_along(P, pr2)
    if isinstance(e2, NoAdjoint):
        skipped.append(f"{C.objects[a]},{C.objects[b]}: no second existential")
        return None
    label = f"{C.objects[a]}x{C.objects[b]}:{P.fibers[ab].elements[al]}"
    if int(e2.table[al]) == P.fibers[b].top:
        w_obj, c_arrow, alp = b, int(C.id_arr[b]), al
    else:
        # restrict the target along the comprehension of the image
        img = int(e2.table[al])
        ent = comprehension_of(P, b, img)
        if ent.kind == "none":
            skipped.append(f"{label}: image has no comprehension")
            return None
        c_arrow = C.arr_index[ent.arrow]
        w_obj = int(C.src[c_arrow])
        try:
            idxc = win.times(int(C.id_arr[a]), c_arrow)   # id×c: A×W -> A×B
        except WindowClosure:
            skipped.append(f"{label}: restricted product outside window")
            return None
        alp = int(P.r(idxc).table[al])
    try:
        aw, q1, q2 = win.prod(a, w_obj)
    except WindowClosure:
        skipped.append(f"{label}: no product with restricted target")
        return None
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
        aww = win.prod3(a, w_obj, w_obj)[0]
    except WindowClosure:
        skipped.append(f"{label}: triple outside window")
        return None
    fib3 = P.fibers[aww]
    r12 = P.r(win.pair3(a, w_obj, w_obj, 1, 2)).table
    r13 = P.r(win.pair3(a, w_obj, w_obj, 1, 3)).table
    lifted = fib3.meet_of(int(r12[alp]), int(r13[alp]))
    drop1 = win.pair3(a, w_obj, w_obj, 2, 3)
    ez = exists_along(P, drop1)
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
        if _l_value(P, win, a, w_obj, E.delta[a], tr, mem[0]) == phi:
            members = mem
            break
    if members is None:
        return False
    # extract a member whose graph lies inside the original element
    for wp in members:
        w_final = int(C.comp[c_arrow, wp]) if w_obj != b else wp
        graph = win.pair(int(C.id_arr[a]), w_final)
        if int(P.r(graph).table[al]) == P.fibers[a].top:
            return True
    return False


# ---------------------------------------------------------------------------
# universal property at desk scale
# ---------------------------------------------------------------------------


def compose_functors(F: FunctorData, G: FunctorData) -> FunctorData:
    """G after F."""
    return FunctorData(
        F.source, G.target,
        {o: G.obj_map[F.obj_map[o]] for o in F.source.objects},
        {a: G.arr_map[F.arr_map[a]] for a in F.source.arrows})


def _iso_2cell_exists(P: DoctrineData, R: DoctrineData,
                      m1: DoctrineMorphism, m2: DoctrineMorphism) -> bool:
    """An invertible 2-cell m1 -> m2: componentwise isos, lax both ways."""
    for cell in valid_2cells(P, R, m1, m2):
        comps = {o: R.cat.arr_index[n] for o, n in cell.theta.items()}
        if not all(is_iso(R.cat, c) for c in comps.values()):
            continue
        inv = {o: R.cat.arrows[inverse_of(R.cat, c)] for o, c in comps.items()}
        back = valid_2cells(P, R, m2, m1)
        if any(b.theta == inv for b in back):
            return True
    return False


def verify_universal(P: DoctrineData, X: FinCat,
                     Xpc: ProductChoice | None = None,
                     Xscope: WindowScope | None = None,
                     caps: Caps = Caps()) -> Report:
    """Enumerate doctrine morphisms into the subobject doctrine of an exact
    category, from the base doctrine and from the subobjects of its
    completion, and check that precomposition with the graph embedding is an
    essential equivalence (surjective up to invertible 2-cell, bijective on
    2-cells).  Both readings of the morphism notion are checked: plain
    existential morphisms, and those preserving comprehensions strictly."""
    rep = Report("universal-property")
    try:
        ex = check_exact(X, Xscope, caps.enum)
        rep.add(Check("target-exact", _status(ex.exact), ex.witness.get("exact")
                      or ex.witness.get("regular") or ex.witness.get("finitely_complete"),
                      {"core": list(ex.core)}))
        if not ex.exact:
            return rep
        if Xpc is None:
            Xpc = choose_products(X, caps)
        if Xpc is None:
            rep.add(Check("target-products", FAIL, "no terminal object"))
            return rep
        sub_x = sub_doctrine(X, Xpc, Xscope or WindowScope(X.objects))
        vx = validate_doctrine(sub_x)
        rep.add(Check("target-subobjects", _status(vx.ok), vx.witness or None))
        E_SX = discover_elementary(sub_x)
        if isinstance(E_SX, StructureFailure):
            rep.add(Check("target-equality", FAIL, E_SX.where))
            return rep
        an = analysis(P, caps)
        eed_p, E_P, X_P = an.eed()
        rep.add(Check("base-is-eed", eed_p.status, data={"context": "hypothesis"}))
        if E_P is None or X_P is None:
            return rep
        mor_p = enumerate_morphisms(P, sub_x, E_P, E_SX, caps.enum)
        base = core_subcategory(P)
        if base.objects != P.cat.objects:
            rep.add(Check("base-window", CAPPED,
                          "base has non-core objects; enumeration restricted"))
            return rep
        tp, er = an.tp(), an.er()
        sub_er = tp_sub_restriction(tp, er, caps)
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

        def precompose(m: DoctrineMorphism) -> DoctrineMorphism:
            F2 = compose_functors(D, m.F)
            comps = {}
            for o in range(P.cat.n_objects):
                oname = P.cat.objects[o]
                it = iota[o]
                after = m.components[D.obj_map[oname]]
                comps[oname] = MonotoneMap(P.fibers[o], after.cod,
                                           after.table[it.table])
            return DoctrineMorphism(F2, comps)

        for reading, strict_comp in (("existential", False),
                                     ("comprehension-preserving", True)):
            mp = [m for m in mor_p
                  if not strict_comp or morphism_preserves_comprehensions(P, sub_x, m)]
            mer = [m for m in mor_er
                   if not strict_comp
                   or morphism_preserves_comprehensions(sub_er, sub_x, m)]
            pre = [precompose(m) for m in mer]
            well_defined = all(validate_doctrine_morphism(P, sub_x, m, E_P, E_SX)
                               for m in pre)
            rep.add(Check(f"{reading}:precomposition-well-defined",
                          _status(well_defined)))
            surj, sw = True, None
            for m in mp:
                if not any(_iso_2cell_exists(P, sub_x, pm, m) for pm in pre):
                    surj = False
                    sw = str(sorted(m.F.obj_map.items()))
                    break
            rep.add(Check(f"{reading}:essentially-surjective", _status(surj), sw,
                          {"base-side": len(mp), "completion-side": len(mer)}))
            ff, fw = True, None
            for i, m1 in enumerate(mer):
                for j, m2 in enumerate(mer):
                    cells_up = valid_2cells(sub_er, sub_x, m1, m2)
                    cells_dn = valid_2cells(P, sub_x, pre[i], pre[j])
                    whisk = sorted(
                        str(sorted({o: c.theta[D.obj_map[o]]
                                    for o in P.cat.objects}.items()))
                        for c in cells_up)
                    down = sorted(str(sorted(c.theta.items())) for c in cells_dn)
                    if whisk != down:
                        ff = False
                        fw = (i, j, len(cells_up), len(cells_dn))
                        break
                if not ff:
                    break
            rep.add(Check(f"{reading}:fully-faithful-on-2-cells", _status(ff), fw))
    except ResourceCap as exc:
        rep.add(Check("enumeration", CAPPED, str(exc),
                      {"what": exc.what, "size": exc.size, "cap": exc.cap}))
    except WindowClosure as exc:
        rep.add(Check("enumeration", CAPPED, str(exc),
                      {"missing": exc.missing}))
    return rep
