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

from .allegory import triple_product
from .doctrine import DoctrineData, box_product, exists_along, kept_as
from .errors import WindowClosure
from .fincat import factor_counts
from .semilattice import MonotoneMap, NoAdjoint, left_adjoints


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


def core_projections(P: DoctrineData) -> tuple[ProjInstance, ...]:
    out = []
    W = P.window
    for a1 in P.scope.core:
        for a2 in P.scope.core:
            prod, pr1, pr2 = W.prod(a1, a2)
            out.append(ProjInstance(a1, a2, prod, pr1, pr2))
    return tuple(out)


# ---------------------------------------------------------------------------
# discovery
# ---------------------------------------------------------------------------


def elementary_candidates(P: DoctrineData, a: int) -> list[int]:
    """All elements d of P(A×A) passing both adjointness conditions at core
    A: d ∧ P(pr1)(-) ⊣ P(diagonal) and P(<pr1,pr2>)(-) ∧ P(<pr2,pr3>)(d) ⊣
    P(<pr1, pr2, pr2>) for every core X.  Adjoints are unique, so each says
    the map equals the one `left_adjoints` computes, tested for all d at once."""
    W = P.window
    aa, pr1, _ = W.prod(a, a)
    fib_a, fib_aa = P.fibers[a], P.fibers[aa]
    e = left_adjoints(fib_aa, fib_a, P.r(W.diag(a)).table[None])[0]
    ok = (fib_aa.meet[P.r(pr1).table] == e[:, None]).all(axis=0)
    for x in P.scope.core:
        xa, _, q2 = W.prod(x, a)
        fib_xaa, _, r12, r23, _ = triple_product(P, x, a, a)
        pr122 = W.pair(int(P.cat.id_arr[xa]), q2)           # <pr1, pr2, pr2>
        e = left_adjoints(fib_xaa, P.fibers[xa], P.r(pr122).table[None])[0]
        ok &= (fib_xaa.meet[r12][:, r23] == e[:, None]).all(axis=0)
    return np.flatnonzero(ok).tolist()


@kept_as(lambda P: ("elementary",))
def discover_elementary(P: DoctrineData) -> ElementaryWitness | StructureFailure:
    delta: dict[int, int] = {}
    for a in P.scope.core:
        cands = elementary_candidates(P, a)
        if len(cands) != 1:
            return StructureFailure(
                "elementary", (P.cat.objects[a],),
                tuple(P.fibers[P.window.prod(a, a)[0]].elements[c] for c in cands))
        delta[a] = cands[0]
    return ElementaryWitness(delta)


@kept_as(lambda P: ("existential",))
def discover_existential(P: DoctrineData) -> ExistentialWitness | StructureFailure:
    adjoints: dict[int, MonotoneMap] = {}
    instances = core_projections(P)
    for inst in instances:
        for pr in (inst.pr1, inst.pr2):
            adj = exists_along(P, pr)
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
    checked = 0
    for x in P.scope.core:
        for a in P.scope.core:
            xa, _, pr2 = win.prod(x, a)
            e_pr = W.adjoints[pr2]
            for ap in P.scope.core:
                for f in C.hom(ap, a):
                    f = int(f)
                    if f == int(C.id_arr[a]):
                        continue
                    _, q1, q2 = win.prod(x, ap)
                    e_pr2 = W.adjoints[q2]
                    idxf = win.pair(q1, C.compose(f, q2))  # id_X × f
                    lhs = e_pr2.table[P.r(idxf).table]      # ∃' ∘ P_{id×f}
                    rhs = P.r(f).table[e_pr.table]          # P_f ∘ ∃
                    checked += 1
                    if not np.array_equal(lhs, rhs):
                        b = int(np.flatnonzero(lhs != rhs)[0])
                        return CheckVerdict(
                            False, checked,
                            (C.objects[x], C.arrows[f], P.fibers[xa].elements[b]),
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
    """The comprehension of one fiber element, by index: `element` is an
    element of the fiber over the base object `obj`, and `arrow` the base
    arrow into `obj` that comprehends it, None when `kind` is "none"."""

    obj: int
    element: int
    kind: str              # "strict" | "weak" | "none"
    arrow: int | None = None


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

    def missing(self, P: DoctrineData) -> list[tuple[str, str]]:
        """The (object, element) names of the entries with no comprehension."""
        return [(P.cat.objects[e.obj], P.fibers[e.obj].elements[e.element])
                for e in self.entries if e.kind == "none"]


def comprehension_of(P: DoctrineData, a: int, el: int) -> ComprehensionEntry:
    """Search all arrows into A for a universal restriction of el to top;
    strict when every factorization is unique, weak when mere existence."""
    best_weak = None
    for c in P.cat.into(a).tolist():
        if verify_comprehension_arrow(P, a, el, c, strict=True):
            return ComprehensionEntry(a, el, "strict", c)
        if best_weak is None and verify_comprehension_arrow(P, a, el, c, strict=False):
            best_weak = c
    if best_weak is not None:
        return ComprehensionEntry(a, el, "weak", best_weak)
    return ComprehensionEntry(a, el, "none")


def verify_comprehension_arrow(P: DoctrineData, a: int, el: int, c: int,
                               strict: bool = True) -> bool:
    """Check that arrow c is a (strict) comprehension of the element: it
    restricts the element to top and every other restrictor factors through
    it (uniquely, when strict)."""
    C = P.cat

    def restricts(f: int) -> bool:
        return int(P.r(f).table[el]) == P.fibers[int(C.src[f])].top

    if int(C.tgt[c]) != a or not restricts(c):
        return False
    factors = factor_counts(C, c)[[f for f in C.into(a).tolist() if restricts(f)]]
    return bool((factors >= 1).all() and (not strict or (factors == 1).all()))


@kept_as(lambda P: ("comprehensions",))
def comprehension_table(P: DoctrineData) -> ComprehensionTable:
    """Comprehensions of every core fiber element, plus the fullness verdict:
    whenever the comprehension of a factors through that of b, a <= b."""
    C = P.cat
    entries = []
    full = True
    witness: tuple = ()
    for a in P.scope.core:
        fib = P.fibers[a]
        here = [comprehension_of(P, a, el) for el in range(fib.n)]
        entries += here
        for e1 in here:
            for e2 in here:
                if e1.arrow is None or e2.arrow is None:
                    continue
                factors = factor_counts(C, e2.arrow)[e1.arrow] > 0
                if factors and not fib.le(e1.element, e2.element):
                    full = False
                    witness = witness or (C.objects[a], fib.elements[e1.element],
                                          fib.elements[e2.element])
    return ComprehensionTable(entries, full, witness)


# ---------------------------------------------------------------------------
# rule of choice and the equality tensor law
# ---------------------------------------------------------------------------


@kept_as(lambda P, W: ("choice", *P.keys_of(W)))
def check_rule_of_choice(P: DoctrineData, W: ExistentialWitness) -> CheckVerdict:
    """Every total element of P(A×B) must contain the graph of a base arrow:
    top <= P_<id,w>(alpha) for some w: A -> B, searched exhaustively."""
    C = P.cat
    win = P.window
    checked = 0
    for a in P.scope.core:
        for b in P.scope.core:
            ab, pr1, _ = win.prod(a, b)
            e1 = W.adjoints[pr1]
            fib_a = P.fibers[a]
            fib_p = P.fibers[ab]
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
    witness: tuple = ()

    def __bool__(self) -> bool:
        return self.ok


def check_delta_product_law(P: DoctrineData, E: ElementaryWitness) -> DeltaLawVerdict:
    """Equality at a product pair must be the tensor of the equalities.

    A pair is checked when the product carrier has a discovered equality and
    the fourfold product is inside the window; other pairs are reported in
    the skip list, never silently dropped.  Every pair of core objects has a
    chosen product: E, discovered on P, has read W.prod(x, a) for every core
    x and a (`elementary_candidates`).

    The tensor lands in the fiber of δ_{A×B} (lemma): `box_product` of
    (A, A, δ_A) and (B, B, δ_B) lands over prod4(A, B, A, B), which is
    prod(prod(A, B), prod(A, B)) by construction, the carrier of δ_{A×B}.
    So the two sides are compared in one fiber without a check."""
    win = P.window
    C = P.cat
    checked: list[tuple[str, str]] = []
    skipped: list[tuple[str, str, str]] = []
    witness: tuple = ()
    ok = True
    for a in P.scope.core:
        for b in P.scope.core:
            names = (C.objects[a], C.objects[b])
            try:
                fiber_obj, rhs = box_product(P, a, a, E.delta[a], b, b, E.delta[b])
            except WindowClosure as exc:
                skipped.append(names + (f"fourfold product outside window ({exc.missing})",))
                continue
            ab = win.prod(a, b)[0]
            if ab not in E.delta:
                skipped.append(names + (f"no discovered equality at {C.objects[ab]}",))
                continue
            lhs = E.delta[ab]
            checked.append(names)
            if lhs != rhs:
                ok = False
                if not witness:
                    fib = P.fibers[fiber_obj]
                    witness = names + (fib.elements[lhs], fib.elements[rhs])
    return DeltaLawVerdict(ok, checked, skipped, witness)
