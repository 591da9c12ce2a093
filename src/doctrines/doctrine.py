"""Indexed finite inf-semilattices over a finite category window.

A doctrine assigns a fiber to every object and a contravariant reindexing map
to every arrow; reindexing maps are top/meet-preserving homomorphisms and the
assignment is functorial.  Everything is tabled; validation is exhaustive and
vectorized so the large finite-set fixture stays inside the time budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MalformedPresentation, NoWeakPullback, ResourceCap, WindowClosure
from .fincat import (FinCat, ProductChoice, ValidationReport, Window, WindowScope,
                     is_mono)
from .semilattice import FinInfSL, MonotoneMap, NoAdjoint, lattice_from_leq, left_adjoint


@dataclass
class DoctrineData:
    """Base window plus fiber and reindexing tables.

    reindex[f] maps the fiber of target(f) to the fiber of source(f)."""

    cat: FinCat
    products: ProductChoice
    scope: WindowScope
    fibers: list[FinInfSL]
    reindex: list[MonotoneMap]
    _window: Window | None = field(default=None, repr=False)
    _adjoints: dict[int, MonotoneMap | NoAdjoint] = field(default_factory=dict, repr=False)
    # the memos of compare.Analysis, one per (caps.fibers, caps.enum, condition_v)
    _analyses: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def window(self) -> Window:
        if self._window is None:
            self._window = Window(self.cat, self.products, self.scope)
        return self._window

    def fiber(self, obj: int) -> FinInfSL:
        return self.fibers[obj]

    def fiber_named(self, name: str) -> FinInfSL:
        return self.fibers[self.cat.obj_index[name]]

    def r(self, f: int) -> MonotoneMap:
        return self.reindex[f]

    def core_idx(self) -> list[int]:
        return [self.cat.obj_index[o] for o in self.scope.core]


def reindex(P: DoctrineData, f_name: str, el_name: str) -> str:
    """Action of the doctrine on an arrow, as a pure table lookup."""
    if f_name not in P.cat.arr_index:
        raise MalformedPresentation(f"unknown arrow {f_name}")
    f = P.cat.arr_index[f_name]
    fib_t = P.fibers[int(P.cat.tgt[f])]
    fib_s = P.fibers[int(P.cat.src[f])]
    if el_name not in fib_t.index:
        raise MalformedPresentation(
            f"element {el_name} not in the fiber of {P.cat.objects[int(P.cat.tgt[f])]}")
    return fib_s.elements[P.r(f)(fib_t.index[el_name])]


def exists_along(P: DoctrineData, f: int) -> MonotoneMap | NoAdjoint:
    """Left adjoint of reindexing along f, memoized per doctrine."""
    if f not in P._adjoints:
        P._adjoints[f] = left_adjoint(P.r(f))
    return P._adjoints[f]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def validate_doctrine(P: DoctrineData) -> ValidationReport:
    """Fibers are inf-semilattices, reindexing is typed, identity-preserving,
    functorial on every composable pair, and a homomorphism on every arrow."""
    C = P.cat
    if len(P.fibers) != C.n_objects:
        return ValidationReport(False, "MalformedPresentation", (), "fiber table incomplete")
    if len(P.reindex) != C.n_arrows:
        return ValidationReport(False, "MalformedPresentation", (), "reindex table incomplete")
    for o, fib in enumerate(P.fibers):
        msg = fib.validate()
        if msg:
            return ValidationReport(False, "Fiber", (C.objects[o],), msg)
    for f, m in enumerate(P.reindex):
        if m.dom is not P.fibers[int(C.tgt[f])] or m.cod is not P.fibers[int(C.src[f])]:
            if (m.dom.elements != P.fibers[int(C.tgt[f])].elements
                    or m.cod.elements != P.fibers[int(C.src[f])].elements):
                return ValidationReport(False, "Reindex", (C.arrows[f],),
                                        "reindex map badly typed")
        if len(m.table) != P.fibers[int(C.tgt[f])].n:
            return ValidationReport(False, "Reindex", (C.arrows[f],),
                                    "reindex table has wrong length")
    # identities act as identities
    for o in range(C.n_objects):
        t = P.reindex[int(C.id_arr[o])].table
        if not np.array_equal(t, np.arange(len(t))):
            bad = int(np.flatnonzero(t != np.arange(len(t)))[0])
            return ValidationReport(False, "Functoriality", (C.objects[o],),
                                    f"identity reindex moves {P.fibers[o].elements[bad]}")
    # homomorphism clause, blockwise by (src, tgt); int16 values and hoisted
    # index conversions keep the big fixture inside the time budget
    pairs = sorted({(int(C.src[f]), int(C.tgt[f])) for f in range(C.n_arrows)})
    stacks16: dict[tuple[int, int], np.ndarray] = {}
    for a, b in pairs:
        F = C.hom(a, b)
        stacks16[(a, b)] = np.stack([P.reindex[int(f)].table for f in F]).astype(np.int16)
    for a, b in pairs:
        F = C.hom(a, b)
        fib_b, fib_a = P.fibers[b], P.fibers[a]
        R = stacks16[(a, b)]
        if (R[:, fib_b.top] != fib_a.top).any():
            f = int(F[int(np.flatnonzero(R[:, fib_b.top] != fib_a.top)[0])])
            return ValidationReport(False, "Homomorphism", (C.arrows[f],),
                                    "top not preserved")
        meet_b_ip = fib_b.meet.astype(np.intp)
        meet_a16 = fib_a.meet.astype(np.int16)
        chunk = max(1, (1 << 22) // max(1, fib_b.n * fib_b.n))
        for lo in range(0, len(F), chunk):
            Rc = R[lo:lo + chunk]
            Rp = Rc.astype(np.intp)
            lhs = Rc[:, meet_b_ip]                                    # (k, nb, nb)
            rhs = meet_a16[Rp[:, :, None], Rp[:, None, :]]
            if not np.array_equal(lhs, rhs):
                k, i, j = map(int, np.argwhere(lhs != rhs)[0])
                f = int(F[lo + k])
                return ValidationReport(
                    False, "Homomorphism", (C.arrows[f], fib_b.elements[i], fib_b.elements[j]),
                    "meet not preserved")
    # functoriality on all composable pairs, blockwise by (a, b, c)
    objs_with_arrows = sorted({int(x) for x in C.src} | {int(x) for x in C.tgt})
    pos_of: dict[tuple[int, int], np.ndarray] = {}
    for a, b in pairs:
        F = C.hom(a, b)
        arr = np.full(C.n_arrows, -1, dtype=np.intp)
        arr[F] = np.arange(len(F))
        pos_of[(a, b)] = arr
    for b in objs_with_arrows:
        for c in objs_with_arrows:
            G = C.hom(b, c)
            if len(G) == 0:
                continue
            Rbc_ip = stacks16[(b, c)].astype(np.intp)
            for a in objs_with_arrows:
                F = C.hom(a, b)
                if len(F) == 0 or (a, c) not in stacks16:
                    continue
                Rab = stacks16[(a, b)]
                Rac = stacks16[(a, c)]
                rows = pos_of[(a, c)][C.comp[np.ix_(G, F)]]
                nc = P.fibers[c].n
                chunk = max(1, (1 << 22) // max(1, len(F) * nc))
                for lo in range(0, len(G), chunk):
                    rhs = Rab[:, Rbc_ip[lo:lo + chunk]]     # (nF, ch, nc)
                    lhs = Rac[rows[lo:lo + chunk]]          # (ch, nF, nc)
                    if not np.array_equal(lhs, np.swapaxes(rhs, 0, 1)):
                        k, i, x = map(int, np.argwhere(lhs != np.swapaxes(rhs, 0, 1))[0])
                        return ValidationReport(
                            False, "Functoriality",
                            (C.arrows[int(G[lo + k])], C.arrows[int(F[i])],
                             P.fibers[c].elements[x]),
                            "reindex(g∘f) != reindex(f)∘reindex(g)")
    return ValidationReport(True)


# ---------------------------------------------------------------------------
# the tensor of two binary fibers
# ---------------------------------------------------------------------------


def box_product(P: DoctrineData, x1: int, y1: int, a1: int,
                x2: int, y2: int, a2: int) -> tuple[int, int]:
    """Tensor of a1 in P(X1×Y1) with a2 in P(X2×Y2), landing in the fiber of
    (X1×X2)×(Y1×Y2): reindex each along the matching projection pair and meet.

    Returns (fiber object index, element index)."""
    W = P.window
    p4, (q1, q2, q3, q4) = W.prod4(x1, x2, y1, y2)
    m1 = W.pair(q1, q3)
    m2 = W.pair(q2, q4)
    v1 = P.r(m1)(a1)
    v2 = P.r(m2)(a2)
    return p4, P.fibers[p4].meet_of(v1, v2)


# ---------------------------------------------------------------------------
# subobject doctrine
# ---------------------------------------------------------------------------


def _factor_set(C: FinCat, g: int) -> set[int]:
    """All composites g∘u, i.e. the arrows that factor through g."""
    w = int(C.src[g])
    out: set[int] = set()
    for z in range(C.n_objects):
        for u in C.hom(z, w):
            out.add(int(C.comp[g, int(u)]))
    return out


def _factor_classes(C: FinCat, arrows: list[int]) -> tuple[dict[int, set[int]], list[int]]:
    """Factor sets of the arrows, and one representative (the least arrow
    id) per class under mutual factorization."""
    fsets = {g: _factor_set(C, g) for g in arrows}
    reps: list[int] = []
    for g in fsets:
        if _class_of(C, fsets, reps, g) is None:
            reps.append(g)
    return fsets, sorted(reps)


def _class_of(C: FinCat, fsets: dict[int, set[int]], reps: list[int], g: int) -> int | None:
    """Position in `reps` of the representative that g factors through and
    that factors through g; `fsets` holds the factor sets of the reps."""
    g_set = fsets[g] if g in fsets else _factor_set(C, g)
    return next((i for i, r in enumerate(reps) if g in fsets[r] and r in g_set), None)


def _class_lattice(C: FinCat, fsets: dict[int, set[int]], reps: list[int]) -> FinInfSL:
    """The classes ordered by factorization, named by their representatives."""
    n = len(reps)
    leq = np.zeros((n, n), dtype=bool)
    for i, g in enumerate(reps):
        for j, r in enumerate(reps):
            leq[i, j] = g in fsets[r]
    return lattice_from_leq(tuple(f"[{C.arrows[r]}]" for r in reps), leq)


def subobject_poset(C: FinCat, a: int) -> tuple[FinInfSL, list[int], dict[int, set[int]]]:
    """Subobjects of `a` in the window: mono classes under mutual factorization.

    Returns (fiber, class representatives by least arrow id, factor sets of
    the representatives).  Raises when the classes are not meet-closed."""
    fsets, reps = _factor_classes(C, [int(f) for f in C.into(a) if is_mono(C, int(f))])
    return _class_lattice(C, fsets, reps), reps, {r: fsets[r] for r in reps}


def sub_doctrine(C: FinCat, pc: ProductChoice, scope: WindowScope) -> DoctrineData:
    """Fibers are subobject posets (canonical representative = least arrow id),
    reindexing is pullback of monos, computed as the largest subobject whose
    image lands in the given one; missing pullbacks are window-closure errors."""
    fibers: list[FinInfSL] = []
    reps_by_obj: list[list[int]] = []
    fsets_by_obj: list[dict[int, set[int]]] = []
    for a in range(C.n_objects):
        fib, reps, fsets = subobject_poset(C, a)
        fibers.append(fib)
        reps_by_obj.append(reps)
        fsets_by_obj.append(fsets)
        for i, m in enumerate(reps):
            for j, r in enumerate(reps):
                g = fib.meet_of(i, j)
                glb_set = fsets[reps[g]]
                if not (fsets[m] & fsets[r]) <= glb_set:
                    raise WindowClosure((C.objects[a],),
                                        f"subobject meet of {fib.elements[i]}, {fib.elements[j]}"
                                        " is not their pullback")
    # boolean masks over the arrow set make the pullback search a gather
    fset_masks: list[dict[int, np.ndarray]] = []
    pos_in_into: list[dict[int, int]] = []
    for a in range(C.n_objects):
        masks = {}
        for r, fs in fsets_by_obj[a].items():
            mask = np.zeros(C.n_arrows, dtype=bool)
            mask[list(fs)] = True
            masks[r] = mask
        fset_masks.append(masks)
        pos_in_into.append({int(g): i for i, g in enumerate(C.into(a))})
    reindex_maps: list[MonotoneMap] = []
    for f in range(C.n_arrows):
        a, b = int(C.src[f]), int(C.tgt[f])
        reps_b = reps_by_obj[b]
        reps_a = reps_by_obj[a]
        into_a = C.into(a)
        comps = C.comp[f, into_a]
        table = np.empty(len(reps_b), dtype=np.int32)
        for j, m in enumerate(reps_b):
            hits = fset_masks[b][m][comps]     # arrows into a whose f-composite factors
            best = None
            for i, n_ in enumerate(reps_a):
                nm = fset_masks[a][n_]
                if hits[pos_in_into[a][n_]] and not (hits & ~nm[into_a]).any():
                    best = i
                    break
            if best is None:
                raise WindowClosure((C.objects[a], C.objects[b]),
                                    f"no pullback of {C.arrows[m]} along {C.arrows[f]}")
            table[j] = best
        reindex_maps.append(MonotoneMap(fibers[b], fibers[a], table))
    return DoctrineData(C, pc, scope, fibers, reindex_maps)


# ---------------------------------------------------------------------------
# weak subobjects
# ---------------------------------------------------------------------------


def weak_subobject_poset(C: FinCat, a: int) -> tuple[FinInfSL, list[int]]:
    """Poset reflection of the slice over `a`: classes of all arrows into `a`
    under mutual factorization."""
    fsets, reps = _factor_classes(C, [int(g) for g in C.into(a)])
    return _class_lattice(C, fsets, reps), reps


def _is_weak_pullback(C: FinCat, f: int, g: int, z: int, p: int, q: int) -> bool:
    """Every cone over the cospan (f, g) factors through (z, p, q)."""
    for z2 in range(C.n_objects):
        reach = {(int(C.comp[p, int(m)]), int(C.comp[q, int(m)])) for m in C.hom(z2, z)}
        for p2 in C.hom(z2, int(C.src[f])):
            for q2 in C.hom(z2, int(C.src[g])):
                if int(C.comp[f, int(p2)]) == int(C.comp[g, int(q2)]):
                    if (int(p2), int(q2)) not in reach:
                        return False
    return True


def weak_pullback(C: FinCat, f: int, g: int, cap: int = 1 << 20):
    """First cone over the cospan (f, g) through which every cone factors,
    not necessarily uniquely; None when the window has no such cone."""
    a, b = int(C.src[f]), int(C.src[g])
    cones = []
    for z in range(C.n_objects):
        for p in C.hom(z, a):
            for q in C.hom(z, b):
                if int(C.comp[f, int(p)]) == int(C.comp[g, int(q)]):
                    cones.append((z, int(p), int(q)))
    if len(cones) > cap:
        raise ResourceCap("weak pullback cone enumeration", len(cones), cap)
    return next((cone for cone in cones if _is_weak_pullback(C, f, g, *cone)), None)


def weak_sub_doctrine(C: FinCat, pc: ProductChoice, scope: WindowScope,
                      check_choice_independence: bool = True) -> DoctrineData:
    """Weak-subobject doctrine of a window with weak pullbacks.

    Reindexing uses one chosen weak pullback per cospan; independence of the
    choice up to the poset reflection is asserted, not assumed.  The
    existential structure along projections is post-composition (verified
    against the adjoint characterization by the structure checks)."""
    fibers: list[FinInfSL] = []
    reps_by_obj: list[list[int]] = []
    class_of: list[dict[int, int]] = []
    for a in range(C.n_objects):
        fsets, reps = _factor_classes(C, [int(g) for g in C.into(a)])
        try:
            fibers.append(_class_lattice(C, fsets, reps))
        except MalformedPresentation:
            # a missing meet in the reflection is a missing weak pullback of
            # two representatives; report the first offending cospan
            for r1 in reps:
                for r2 in reps:
                    if weak_pullback(C, r1, r2) is None:
                        raise NoWeakPullback((C.arrows[r1], C.arrows[r2]))
            raise
        reps_by_obj.append(reps)
        class_of.append({g: _class_of(C, fsets, reps, g) for g in fsets})
    reindex_maps: list[MonotoneMap] = []
    for f in range(C.n_arrows):
        a, b = int(C.src[f]), int(C.tgt[f])
        table = np.empty(len(reps_by_obj[b]), dtype=np.int32)
        for j, m in enumerate(reps_by_obj[b]):
            wp = weak_pullback(C, f, m)
            if wp is None:
                raise NoWeakPullback((C.arrows[f], C.arrows[m]))
            _, p, _ = wp
            table[j] = class_of[a][p]
            if check_choice_independence:
                z, p0, q0 = wp
                for z2 in range(C.n_objects):
                    for p2 in C.hom(z2, a):
                        for q2 in C.hom(z2, int(C.src[m])):
                            if int(C.comp[f, int(p2)]) != int(C.comp[m, int(q2)]):
                                continue
                            if _is_weak_pullback(C, f, m, z2, int(p2), int(q2)):
                                if class_of[a][int(p2)] != class_of[a][p0]:
                                    raise MalformedPresentation(
                                        "weak pullback choice changes the reflection class "
                                        f"for ({C.arrows[f]}, {C.arrows[m]})")
        reindex_maps.append(MonotoneMap(fibers[b], fibers[a], table))
    return DoctrineData(C, pc, scope, fibers, reindex_maps)


def psi_postcompose_exists(P: DoctrineData, reps_by_obj: list[list[int]],
                           pr: int) -> MonotoneMap:
    """The post-composition map on weak-subobject fibers along a projection."""
    C = P.cat
    a, b = int(C.src[pr]), int(C.tgt[pr])
    reps_b = reps_by_obj[b]
    fsets_b = {r: _factor_set(C, r) for r in reps_b}
    table = np.array([_class_of(C, fsets_b, reps_b, int(C.comp[pr, r]))
                      for r in reps_by_obj[a]], dtype=np.int32)
    return MonotoneMap(P.fibers[a], P.fibers[b], table)
