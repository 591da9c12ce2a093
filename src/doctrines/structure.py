"""Discovery and verification of fibered equality and existential structure.

Fibered equality at an object A is the unique element of P(A×A) making two
assignments left adjoints: one against reindexing along the diagonal, one
against reindexing along <pr1, pr2, pr2> for every core parameter object X.
Existential structure is a left adjoint to reindexing along every core
projection, subject to the stability (canonical squares) and reciprocity
(meets against reindexed elements) equations, which are checked exhaustively
over the core.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .doctrine import DoctrineData
from .errors import WindowClosure
from .semilattice import MonotoneMap, NoAdjoint, left_adjoint


@dataclass
class ProjInstance:
    """One chosen binary product of core objects with its two projections."""
    a1: int
    a2: int
    prod: int
    pr1: int
    pr2: int


@dataclass
class ElementaryWitness:
    delta: dict[int, int]  # core object index -> element index in P(A×A)


@dataclass
class ExistentialWitness:
    adjoints: dict[int, MonotoneMap]  # projection arrow index -> left adjoint
    instances: tuple[ProjInstance, ...]


@dataclass
class StructureFailure:
    kind: str
    where: tuple
    witness: tuple = ()

    def __bool__(self) -> bool:
        return False


@dataclass
class CheckVerdict:
    ok: bool
    checked: int = 0
    witness: tuple = ()
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _is_left_adjoint(E_table: np.ndarray, big_leq: np.ndarray,
                     small_leq: np.ndarray, H_table: np.ndarray) -> bool:
    """E -| H for E: small -> big tabled by E_table and H tabled by H_table,
    via the full Galois biconditional on all element pairs."""
    lhs = big_leq[E_table]          # (n_small, n_big): E(a) <= b
    rhs = small_leq[:, H_table]     # (n_small, n_big): a <= H(b)
    return bool(np.array_equal(lhs, rhs))


def core_projections(P: DoctrineData) -> tuple[ProjInstance, ...]:
    out = []
    W = P.window
    for a1 in P.core_idx():
        for a2 in P.core_idx():
            prod, pr1, pr2 = W.prod(a1, a2)
            out.append(ProjInstance(a1, a2, prod, pr1, pr2))
    return tuple(out)


# ---------------------------------------------------------------------------
# discovery
# ---------------------------------------------------------------------------


def elementary_candidates(P: DoctrineData, a: int) -> list[int]:
    """All elements of P(A×A) passing both adjointness conditions at core A."""
    W = P.window
    aa, pr1, _ = W.prod(a, a)
    diag = W.diag(a)
    fib_a, fib_aa = P.fibers[a], P.fibers[aa]
    r_pr1 = P.r(pr1).table
    r_diag = P.r(diag).table
    cands = []
    for d in range(fib_aa.n):
        E = fib_aa.meet[r_pr1, d]
        if not _is_left_adjoint(E, fib_aa.leq, fib_a.leq, r_diag):
            continue
        ok = True
        for x in P.core_idx():
            xa, q1, q2 = W.prod(x, a)
            xaa, (t1, t2, t3) = W.prod3(x, a, a)
            e = W.pair(int(P.cat.id_arr[xa]), q2)       # <pr1, pr2, pr2>
            fib_xa, fib_xaa = P.fibers[xa], P.fibers[xaa]
            r12 = P.r(W.pair(t1, t2)).table
            r23 = P.r(W.pair(t2, t3)).table
            d_up = r23[d]
            E2 = fib_xaa.meet[r12, d_up]
            if not _is_left_adjoint(E2, fib_xaa.leq, fib_xa.leq, P.r(e).table):
                ok = False
                break
        if ok:
            cands.append(d)
    return cands


def discover_elementary(P: DoctrineData) -> ElementaryWitness | StructureFailure:
    delta: dict[int, int] = {}
    for a in P.core_idx():
        cands = elementary_candidates(P, a)
        if len(cands) != 1:
            return StructureFailure(
                "elementary", (P.cat.objects[a],),
                tuple(P.fibers[P.window.prod(a, a)[0]].elements[c] for c in cands))
        delta[a] = cands[0]
    return ElementaryWitness(delta)


def discover_existential(P: DoctrineData) -> ExistentialWitness | StructureFailure:
    adjoints: dict[int, MonotoneMap] = {}
    instances = core_projections(P)
    for inst in instances:
        for pr in (inst.pr1, inst.pr2):
            if pr in adjoints:
                continue
            adj = left_adjoint(P.r(pr))
            if isinstance(adj, NoAdjoint):
                return StructureFailure(
                    "existential",
                    (P.cat.arrows[pr],
                     (P.cat.objects[inst.a1], P.cat.objects[inst.a2])),
                    (adj.witness, adj.upper_set))
            adjoints[pr] = adj
    return ExistentialWitness(adjoints, instances)


# ---------------------------------------------------------------------------
# stability and reciprocity
# ---------------------------------------------------------------------------


def check_beck_chevalley(P: DoctrineData, W: ExistentialWitness) -> CheckVerdict:
    """Stability on canonical squares: the projection X×A -> A pulled back
    along a core arrow f: A' -> A is X×A' -> A' with comparison leg id×f;
    equality of the two composite tables is demanded for every element."""
    win = P.window
    C = P.cat
    by_pair = {(i.a1, i.a2): i for i in W.instances}
    checked = 0
    for x in P.core_idx():
        for a in P.core_idx():
            inst = by_pair[(x, a)]
            e_pr = W.adjoints[inst.pr2]
            for ap in P.core_idx():
                for f in C.hom(ap, a):
                    f = int(f)
                    if f == int(C.id_arr[a]):
                        continue
                    inst2 = by_pair[(x, ap)]
                    e_pr2 = W.adjoints[inst2.pr2]
                    idxf = win.pair(inst2.pr1, C.compose(f, inst2.pr2))  # id_X × f
                    lhs = e_pr2.table[P.r(idxf).table]      # ∃' ∘ P_{id×f}
                    rhs = P.r(f).table[e_pr.table]          # P_f ∘ ∃
                    checked += 1
                    if not np.array_equal(lhs, rhs):
                        b = int(np.flatnonzero(lhs != rhs)[0])
                        return CheckVerdict(
                            False, checked,
                            (C.objects[x], C.arrows[f],
                             P.fibers[inst.prod].elements[b]),
                            "stability square failed")
    return CheckVerdict(True, checked)


def check_frobenius(P: DoctrineData, W: ExistentialWitness) -> CheckVerdict:
    """Reciprocity on every witnessed projection: projecting out of a meet
    with a reindexed element equals meeting with the projected element."""
    checked = 0
    seen = set()
    for inst in W.instances:
        for pr, a in ((inst.pr1, inst.a1), (inst.pr2, inst.a2)):
            if pr in seen:
                continue
            seen.add(pr)
            e = W.adjoints[pr]
            fib_a = P.fibers[a]
            fib_p = P.fibers[inst.prod]
            r = P.r(pr).table
            for al in range(fib_a.n):
                lhs = e.table[fib_p.meet[r[al]]]          # ∃(P(α) ∧ β) over β
                rhs = fib_a.meet[al, e.table]             # α ∧ ∃β
                checked += fib_p.n
                if not np.array_equal(lhs, rhs):
                    b = int(np.flatnonzero(lhs != rhs)[0])
                    return CheckVerdict(
                        False, checked,
                        (P.cat.arrows[pr], fib_a.elements[al], fib_p.elements[b]),
                        "reciprocity failed")
    return CheckVerdict(True, checked)


# ---------------------------------------------------------------------------
# comprehensions
# ---------------------------------------------------------------------------


@dataclass
class ComprehensionEntry:
    obj: str
    element: str
    kind: str              # "strict" | "weak" | "none"
    arrow: str | None = None


@dataclass
class ComprehensionTable:
    entries: list[ComprehensionEntry]
    full: bool
    full_witness: tuple = ()

    @property
    def complete(self) -> bool:
        return all(e.kind != "none" for e in self.entries)

    @property
    def strict_complete(self) -> bool:
        return all(e.kind == "strict" for e in self.entries)

    def missing(self) -> list[tuple[str, str]]:
        return [(e.obj, e.element) for e in self.entries if e.kind == "none"]


def comprehension_of(P: DoctrineData, a: int, el: int) -> ComprehensionEntry:
    """Search all arrows into A for a universal restriction of el to top;
    strict when every factorization is unique, weak when mere existence."""
    C = P.cat
    fib = P.fibers[a]
    best_weak = None
    for c in (int(c) for c in C.into(a)):
        if verify_comprehension_arrow(P, a, el, c, strict=True):
            return ComprehensionEntry(C.objects[a], fib.elements[el], "strict", C.arrows[c])
        if best_weak is None and verify_comprehension_arrow(P, a, el, c, strict=False):
            best_weak = c
    if best_weak is not None:
        return ComprehensionEntry(C.objects[a], fib.elements[el], "weak", C.arrows[best_weak])
    return ComprehensionEntry(C.objects[a], fib.elements[el], "none")


def verify_comprehension_arrow(P: DoctrineData, a: int, el: int, c: int,
                               strict: bool = True) -> bool:
    """Check that arrow c is a (strict) comprehension of the element: it
    restricts the element to top and every other restrictor factors through
    it (uniquely, when strict)."""
    C = P.cat
    if int(C.tgt[c]) != a:
        return False
    if int(P.r(c).table[el]) != P.fibers[int(C.src[c])].top:
        return False
    for f in C.into(a):
        f = int(f)
        if int(P.r(f).table[el]) != P.fibers[int(C.src[f])].top:
            continue
        g = [int(x) for x in C.hom(int(C.src[f]), int(C.src[c]))
             if int(C.comp[c, int(x)]) == f]
        if len(g) == 0 or (strict and len(g) > 1):
            return False
    return True


def comprehension_table(P: DoctrineData) -> ComprehensionTable:
    """Comprehensions of every core fiber element, plus the fullness verdict:
    whenever the comprehension of a factors through that of b, a <= b."""
    C = P.cat
    entries = []
    per_obj: dict[int, list[tuple[int, int | None]]] = {}
    for a in P.core_idx():
        fib = P.fibers[a]
        per_obj[a] = []
        for el in range(fib.n):
            ent = comprehension_of(P, a, el)
            entries.append(ent)
            per_obj[a].append((el, C.arr_index[ent.arrow] if ent.arrow else None))
    full = True
    witness: tuple = ()
    for a, pairs in per_obj.items():
        fib = P.fibers[a]
        for el1, c1 in pairs:
            for el2, c2 in pairs:
                if c1 is None or c2 is None:
                    continue
                factors = any(int(C.comp[c2, int(g)]) == c1
                              for g in C.hom(int(C.src[c1]), int(C.src[c2])))
                if factors and not fib.le(el1, el2):
                    full = False
                    witness = witness or (C.objects[a], fib.elements[el1], fib.elements[el2])
    return ComprehensionTable(entries, full, witness)


# ---------------------------------------------------------------------------
# rule of choice and the equality tensor law
# ---------------------------------------------------------------------------


def check_rule_of_choice(P: DoctrineData, W: ExistentialWitness) -> CheckVerdict:
    """Every total element of P(A×B) must contain the graph of a base arrow:
    top <= P_<id,w>(alpha) for some w: A -> B, searched exhaustively."""
    C = P.cat
    win = P.window
    by_pair = {(i.a1, i.a2): i for i in W.instances}
    checked = 0
    for a in P.core_idx():
        for b in P.core_idx():
            inst = by_pair[(a, b)]
            e1 = W.adjoints[inst.pr1]
            fib_a = P.fibers[a]
            fib_p = P.fibers[inst.prod]
            graphs = [win.pair(int(C.id_arr[a]), int(w)) for w in C.hom(a, b)]
            for al in range(fib_p.n):
                if int(e1.table[al]) != fib_a.top:
                    continue  # not total
                checked += 1
                if not any(int(P.r(g).table[al]) == fib_a.top for g in graphs):
                    return CheckVerdict(
                        False, checked,
                        (C.objects[a], C.objects[b], fib_p.elements[al]),
                        "total element with no graphed arrow")
    return CheckVerdict(True, checked)


@dataclass
class DeltaLawVerdict:
    ok: bool
    checked: list[tuple[str, str]]
    skipped: list[tuple[str, str, str]]
    skips_acknowledged: bool
    witness: tuple = ()

    def __bool__(self) -> bool:
        return self.ok and self.skips_acknowledged


def check_delta_product_law(P: DoctrineData, E: ElementaryWitness) -> DeltaLawVerdict:
    """Equality at a product pair must be the tensor of the equalities.

    A pair is checked when the product carrier has a discovered equality and
    the fourfold product is inside the window; other pairs are reported in
    the skip list, never silently dropped."""
    from .doctrine import box_product
    win = P.window
    C = P.cat
    checked: list[tuple[str, str]] = []
    skipped: list[tuple[str, str, str]] = []
    witness: tuple = ()
    ok = True
    for a in P.core_idx():
        for b in P.core_idx():
            names = (C.objects[a], C.objects[b])
            if not win.has_prod(a, b):
                skipped.append(names + ("no product of the pair",))
                continue
            try:
                fiber_obj, rhs = box_product(P, a, a, E.delta[a], b, b, E.delta[b])
            except WindowClosure as exc:
                skipped.append(names + (f"fourfold product outside window ({exc.missing})",))
                continue
            ab = win.prod(a, b)[0]
            if ab not in E.delta:
                skipped.append(names + (f"no discovered equality at {C.objects[ab]}",))
                continue
            if fiber_obj != win.prod(ab, ab)[0]:
                skipped.append(names + ("tensor lands in a different fiber",))
                continue
            lhs = E.delta[ab]
            checked.append(names)
            if lhs != rhs:
                ok = False
                if not witness:
                    fib = P.fibers[win.prod(ab, ab)[0]]
                    witness = names + (fib.elements[lhs], fib.elements[rhs])
    return DeltaLawVerdict(ok, checked, skipped, True, witness)
