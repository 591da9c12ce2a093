"""Finite category kernel.

Categories are finite presentations: object and arrow identifier lists, an
identity table and a total composition table over composable pairs.  All laws
are checked exhaustively; the composition table is kept as a dense matrix with
a -1 sentinel so that law checks vectorize on large fixtures.

Rich fixtures are windows of an ambient category: chosen product structure is
recorded in a ProductChoice and quantified checks state their scope as a core
object set (WindowScope).  A demanded product that is missing from the window
is a hard error, never a silent skip.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MalformedPresentation, ResourceCap, WindowClosure

# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------


@dataclass
class FinCat:
    """A finite category presentation with index-based internal tables."""

    objects: tuple[str, ...]
    arrows: tuple[str, ...]            # arrow names, index order is id order
    src: np.ndarray                    # int, len n_arrows
    tgt: np.ndarray
    id_arr: np.ndarray                 # int, len n_objects: identity arrow index
    comp: np.ndarray                   # int32 (n_arrows, n_arrows); comp[g, f] = g after f, -1 if not composable
    obj_index: dict[str, int] = field(default_factory=dict, repr=False)
    arr_index: dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self.obj_index:
            self.obj_index = {o: i for i, o in enumerate(self.objects)}
        if not self.arr_index:
            self.arr_index = {a: i for i, a in enumerate(self.arrows)}
        if len(self.obj_index) != len(self.objects):
            raise MalformedPresentation("duplicate object identifiers")
        if len(self.arr_index) != len(self.arrows):
            raise MalformedPresentation("duplicate arrow identifiers")
        self._hom: dict[tuple[int, int], np.ndarray] = {}
        self._into: list[np.ndarray] | None = None
        self._outof: list[np.ndarray] | None = None

    # -- basic access -------------------------------------------------------

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_arrows(self) -> int:
        return len(self.arrows)

    def hom(self, a: int, b: int) -> np.ndarray:
        key = (a, b)
        if key not in self._hom:
            self._hom[key] = np.flatnonzero((self.src == a) & (self.tgt == b))
        return self._hom[key]

    def into(self, b: int) -> np.ndarray:
        if self._into is None:
            self._into = [np.flatnonzero(self.tgt == b) for b in range(self.n_objects)]
        return self._into[b]

    def outof(self, a: int) -> np.ndarray:
        if self._outof is None:
            self._outof = [np.flatnonzero(self.src == a) for a in range(self.n_objects)]
        return self._outof[a]

    def compose(self, g: int, f: int) -> int:
        """g after f; raises on non-composable input."""
        h = int(self.comp[g, f])
        if h < 0:
            raise MalformedPresentation(
                f"arrows not composable: {self.arrows[g]} after {self.arrows[f]}")
        return h

    def compose_many(self, *arrs: int) -> int:
        """Composite of a path listed outermost-first: compose_many(h, g, f) = h∘g∘f."""
        out = arrs[-1]
        for a in reversed(arrs[:-1]):
            out = self.compose(a, out)
        return out

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def build(objects, arrows, identity, compose) -> "FinCat":
        """Build from name-keyed tables: arrows is a list of (name, src, tgt),
        identity maps object name to arrow name, compose maps (g, f) to g∘f."""
        objects = tuple(objects)
        obj_index = {o: i for i, o in enumerate(objects)}
        names, srcs, tgts = [], [], []
        for name, s, t in arrows:
            if s not in obj_index or t not in obj_index:
                raise MalformedPresentation(f"arrow {name} has unknown endpoint {s} or {t}")
            names.append(name)
            srcs.append(obj_index[s])
            tgts.append(obj_index[t])
        arr_index = {a: i for i, a in enumerate(names)}
        n = len(names)
        src = np.array(srcs, dtype=np.int32)
        tgt = np.array(tgts, dtype=np.int32)
        id_arr = np.full(len(objects), -1, dtype=np.int32)
        for o, a in identity.items():
            if o not in obj_index or a not in arr_index:
                raise MalformedPresentation(f"identity entry {o} -> {a} has unknown id")
            id_arr[obj_index[o]] = arr_index[a]
        if (id_arr < 0).any():
            o = objects[int(np.flatnonzero(id_arr < 0)[0])]
            raise MalformedPresentation(f"object {o} has no identity arrow")
        comp = np.full((n, n), -1, dtype=np.int32)
        for (g, f), h in compose.items():
            for nm in (g, f, h):
                if nm not in arr_index:
                    raise MalformedPresentation(f"compose entry mentions unknown arrow {nm}")
            comp[arr_index[g], arr_index[f]] = arr_index[h]
        return FinCat(objects, tuple(names), src, tgt, id_arr, comp)

    def arrow_triple(self, i: int) -> tuple[str, str, str]:
        return (self.arrows[i], self.objects[int(self.src[i])], self.objects[int(self.tgt[i])])


@dataclass
class ProductChoice:
    """Chosen terminal and binary products; the pairing table is filled by
    validate_products (mediators are forced to be unique, so it is derived
    data, but kept for O(1) lookups)."""

    terminal: str
    binary: dict[tuple[str, str], tuple[str, str, str]]  # (A,B) -> (P, pr1, pr2)
    pairing: dict[tuple[int, int], int] = field(default_factory=dict, repr=False)


@dataclass
class WindowScope:
    """Objects designated for quantified checks; constructions demand window
    closure under the products they use (pairs, and triples for composition
    and transitivity shaped checks)."""

    core: tuple[str, ...]


@dataclass
class ValidationReport:
    ok: bool
    law: str = ""
    witness: tuple = ()
    message: str = ""

    def __bool__(self) -> bool:
        return self.ok


# ---------------------------------------------------------------------------
# category laws
# ---------------------------------------------------------------------------


def validate_category(C: FinCat) -> ValidationReport:
    """Exhaustive check of typing, totality, identity and associativity laws."""
    n = C.n_arrows
    composable = C.src[:, None] == C.tgt[None, :]
    defined = C.comp >= 0
    if (defined & ~composable).any():
        g, f = map(int, np.argwhere(defined & ~composable)[0])
        return ValidationReport(False, "AssociativityOrTyping", (C.arrows[g], C.arrows[f]),
                                "composition defined on a non-composable pair")
    if (composable & ~defined).any():
        g, f = map(int, np.argwhere(composable & ~defined)[0])
        return ValidationReport(False, "MissingEntry", (C.arrows[g], C.arrows[f]),
                                "composable pair has no composite")
    gi, fi = np.nonzero(composable)
    h = C.comp[gi, fi]
    bad = (C.src[h] != C.src[fi]) | (C.tgt[h] != C.tgt[gi])
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        return ValidationReport(False, "AssociativityOrTyping",
                                (C.arrows[int(gi[k])], C.arrows[int(fi[k])]),
                                "composite has wrong source or target")
    # identity laws
    for i in range(C.n_objects):
        e = int(C.id_arr[i])
        if int(C.src[e]) != i or int(C.tgt[e]) != i:
            return ValidationReport(False, "Identity", (C.objects[i],),
                                    "identity arrow has wrong endpoints")
    left = C.comp[C.id_arr[C.tgt], np.arange(n)]
    right = C.comp[np.arange(n), C.id_arr[C.src]]
    if (left != np.arange(n)).any():
        f = int(np.flatnonzero(left != np.arange(n))[0])
        return ValidationReport(False, "Identity", (C.arrows[f],), "id∘f != f")
    if (right != np.arange(n)).any():
        f = int(np.flatnonzero(right != np.arange(n))[0])
        return ValidationReport(False, "Identity", (C.arrows[f],), "f∘id != f")
    # associativity, blockwise over (src g, tgt g); int16 values and hoisted
    # index conversions keep the big fixture fast
    comp16 = C.comp.astype(np.int16) if C.n_arrows < (1 << 15) else C.comp
    for b in range(C.n_objects):
        F = C.into(b)
        if len(F) == 0:
            continue
        comp_F = comp16[:, F.astype(np.intp)]
        for c in range(C.n_objects):
            G = C.hom(b, c)
            H = C.outof(c)
            if len(G) == 0 or len(H) == 0:
                continue
            GF_ip = C.comp[np.ix_(G, F)].astype(np.intp)
            HG_ip = C.comp[np.ix_(H, G)].astype(np.intp)
            chunk = max(1, (1 << 22) // max(1, len(G) * len(F)))
            for lo in range(0, len(H), chunk):
                lhs = comp_F[HG_ip[lo:lo + chunk]]           # (ch, nG, nF): (h∘g)∘f
                rhs = comp16[H[lo:lo + chunk].astype(np.intp)][:, GF_ip]  # h∘(g∘f)
                if not np.array_equal(lhs, rhs):
                    k, i, j = map(int, np.argwhere(lhs != rhs)[0])
                    return ValidationReport(
                        False, "AssociativityOrTyping",
                        (C.arrows[int(H[lo + k])], C.arrows[int(G[i])], C.arrows[int(F[j])]),
                        "(h∘g)∘f != h∘(g∘f)")
    return ValidationReport(True)


def validate_products(C: FinCat, pc: ProductChoice) -> ValidationReport:
    """Check the terminal and every chosen product; fill the pairing table.

    Every cone (f: Z->A, g: Z->B) present in the window must have exactly one
    mediating arrow, and <pr1, pr2> must be the identity of the product."""
    if pc.terminal not in C.obj_index:
        return ValidationReport(False, "MissingEntry", (pc.terminal,), "unknown terminal")
    t = C.obj_index[pc.terminal]
    for z in range(C.n_objects):
        k = len(C.hom(z, t))
        if k != 1:
            return ValidationReport(False, "Terminal", (C.objects[z],),
                                    f"terminal has {k} arrows from {C.objects[z]}")
    pc.pairing.clear()
    n = C.n_arrows
    for (an, bn), (pn, p1n, p2n) in pc.binary.items():
        for nm, pool in ((an, C.obj_index), (bn, C.obj_index), (pn, C.obj_index),
                         (p1n, C.arr_index), (p2n, C.arr_index)):
            if nm not in pool:
                return ValidationReport(False, "MissingEntry", (nm,), "unknown id in product entry")
        a, b, p = C.obj_index[an], C.obj_index[bn], C.obj_index[pn]
        p1, p2 = C.arr_index[p1n], C.arr_index[p2n]
        if int(C.src[p1]) != p or int(C.tgt[p1]) != a or int(C.src[p2]) != p or int(C.tgt[p2]) != b:
            return ValidationReport(False, "MissingEntry", (pn,), "projections badly typed")
        for z in range(C.n_objects):
            mediators = C.hom(z, p)
            cones_a, cones_b = C.hom(z, a), C.hom(z, b)
            need = len(cones_a) * len(cones_b)
            codes = C.comp[p1, mediators].astype(np.int64) * n + C.comp[p2, mediators]
            uniq, counts = np.unique(codes, return_counts=True)
            if (counts > 1).any():
                code = int(uniq[np.flatnonzero(counts > 1)[0]])
                return ValidationReport(False, "Product",
                                        (C.arrows[code // n], C.arrows[code % n]),
                                        f"cone has {int(counts.max())} mediating arrows into {pn}")
            if len(uniq) != need:
                have = set(int(u) for u in uniq)
                for f in cones_a:
                    for g in cones_b:
                        if int(f) * n + int(g) not in have:
                            return ValidationReport(
                                False, "Product", (C.arrows[int(f)], C.arrows[int(g)]),
                                f"cone has no mediating arrow into {pn}")
            order = np.argsort(codes, kind="stable")
            for k in order:
                m = int(mediators[k])
                pc.pairing[(int(C.comp[p1, m]), int(C.comp[p2, m]))] = m
        if pc.pairing.get((p1, p2)) != int(C.id_arr[p]):
            return ValidationReport(False, "Product", (p1n, p2n),
                                    "<pr1, pr2> is not the identity of the product")
    return ValidationReport(True)


# ---------------------------------------------------------------------------
# window helper: chosen products, pairings, canonical triples and quadruples
# ---------------------------------------------------------------------------


class Window:
    """Product bookkeeping over a validated (FinCat, ProductChoice, WindowScope).

    Triple products are left-nested: A×B×C = (A×B)×C with projections
    p1 = pr1∘pr1, p2 = pr2∘pr1, p3 = pr2.  Fourfold products for the tensor
    of two binary fibers are (X1×X2)×(Y1×Y2), which makes the fiber of a
    product pair literally the fiber where the tensor of the two equalities
    lives."""

    def __init__(self, C: FinCat, pc: ProductChoice, scope: WindowScope):
        self.C = C
        self.pc = pc
        self.scope = scope
        self.core = tuple(scope.core)
        for o in self.core:
            if o not in C.obj_index:
                raise MalformedPresentation(f"core object {o} not in category")

    def terminal(self) -> int:
        return self.C.obj_index[self.pc.terminal]

    def bang(self, a: int) -> int:
        """The unique arrow a -> terminal."""
        h = self.C.hom(a, self.terminal())
        return int(h[0])

    def has_prod(self, a: int, b: int) -> bool:
        return (self.C.objects[a], self.C.objects[b]) in self.pc.binary

    def prod(self, a: int, b: int) -> tuple[int, int, int]:
        key = (self.C.objects[a], self.C.objects[b])
        if key not in self.pc.binary:
            raise WindowClosure(key)
        pn, p1n, p2n = self.pc.binary[key]
        return (self.C.obj_index[pn], self.C.arr_index[p1n], self.C.arr_index[p2n])

    def pair(self, f: int, g: int) -> int:
        """<f, g> for a cone (f: Z->A, g: Z->B) over the chosen product A×B."""
        key = (f, g)
        if key not in self.pc.pairing:
            a, b = int(self.C.tgt[f]), int(self.C.tgt[g])
            raise WindowClosure((self.C.objects[a], self.C.objects[b]),
                                f"no mediator for cone ({self.C.arrows[f]}, {self.C.arrows[g]})")
        return self.pc.pairing[key]

    def diag(self, a: int) -> int:
        e = int(self.C.id_arr[a])
        return self.pair(e, e)

    def swap(self, a: int, b: int) -> int:
        """The canonical iso A×B -> B×A."""
        _, p1, p2 = self.prod(a, b)
        return self.pair(p2, p1)

    def times(self, f: int, g: int) -> int:
        """f×g: A×C -> B×D for f: A->B, g: C->D."""
        a, c = int(self.C.src[f]), int(self.C.src[g])
        _, p1, p2 = self.prod(a, c)
        return self.pair(self.C.compose(f, p1), self.C.compose(g, p2))

    def prod3(self, a: int, b: int, c: int) -> tuple[int, tuple[int, int, int]]:
        """(A×B)×C with the three factor projections."""
        ab, p1, p2 = self.prod(a, b)
        abc, q1, q2 = self.prod(ab, c)
        return abc, (self.C.compose(p1, q1), self.C.compose(p2, q1), q2)

    def pair3(self, a: int, b: int, c: int, i: int, j: int) -> int:
        """<p_i, p_j>: A×B×C -> (factor i)×(factor j), 1-based indices."""
        _, ps = self.prod3(a, b, c)
        return self.pair(ps[i - 1], ps[j - 1])

    def tuple3(self, f: int, g: int, h: int) -> int:
        return self.pair(self.pair(f, g), h)

    def prod4(self, x1: int, x2: int, y1: int, y2: int) -> tuple[int, tuple[int, int, int, int]]:
        """(X1×X2)×(Y1×Y2) with the four factor projections."""
        xs, a1, a2 = self.prod(x1, x2)
        ys, b1, b2 = self.prod(y1, y2)
        p, q1, q2 = self.prod(xs, ys)
        return p, (self.C.compose(a1, q1), self.C.compose(a2, q1),
                   self.C.compose(b1, q2), self.C.compose(b2, q2))

    def check_closure(self, triples: bool = True) -> list[tuple[str, ...]]:
        """Products demanded by the scope that the window lacks (empty = closed)."""
        missing: list[tuple[str, ...]] = []
        core_idx = [self.C.obj_index[o] for o in self.core]
        for a in core_idx:
            for b in core_idx:
                if not self.has_prod(a, b):
                    missing.append((self.C.objects[a], self.C.objects[b]))
        if triples:
            for a in core_idx:
                for b in core_idx:
                    if not self.has_prod(a, b):
                        continue
                    ab = self.C.obj_index[self.pc.binary[(self.C.objects[a], self.C.objects[b])][0]]
                    for c in core_idx:
                        if not self.has_prod(ab, c):
                            missing.append((self.C.objects[a], self.C.objects[b], self.C.objects[c]))
        return missing


# ---------------------------------------------------------------------------
# monos, isos, limits and colimits by exhaustive mediator search
# ---------------------------------------------------------------------------


def is_mono(C: FinCat, f: int) -> bool:
    a = int(C.src[f])
    for z in range(C.n_objects):
        h = C.hom(z, a)
        if len(h) < 2:
            continue
        vals = C.comp[f, h]
        if len(np.unique(vals)) != len(vals):
            return False
    return True


def inverse_of(C: FinCat, f: int) -> int | None:
    a, b = int(C.src[f]), int(C.tgt[f])
    for g in C.hom(b, a):
        g = int(g)
        if int(C.comp[g, f]) == int(C.id_arr[a]) and int(C.comp[f, g]) == int(C.id_arr[b]):
            return g
    return None


def is_iso(C: FinCat, f: int) -> bool:
    return inverse_of(C, f) is not None


def isomorphic(C: FinCat, x: int, y: int) -> int | None:
    """An iso x -> y if one exists (least arrow id), else None."""
    for f in C.hom(x, y):
        if is_iso(C, int(f)):
            return int(f)
    return None


def iso_classes(C: FinCat) -> list[list[str]]:
    """Partition of objects into isomorphism classes (detection is exhaustive;
    no quotient is applied anywhere else)."""
    classes: list[list[int]] = []
    for x in range(C.n_objects):
        for cl in classes:
            if isomorphic(C, cl[0], x) is not None and isomorphic(C, x, cl[0]) is not None:
                cl.append(x)
                break
        else:
            classes.append([x])
    return [[C.objects[i] for i in cl] for cl in classes]


def full_subcategory(C: FinCat, objs: list[int]) -> FinCat:
    """The full subcategory on `objs`, in that order; arrows keep theirs."""
    obj_new = {o: i for i, o in enumerate(objs)}
    keep = [f for f in range(C.n_arrows)
            if int(C.src[f]) in obj_new and int(C.tgt[f]) in obj_new]
    arr_new = {f: i for i, f in enumerate(keep)}
    comp = np.full((len(keep), len(keep)), -1, dtype=np.int32)
    for j in keep:
        for i in keep:
            c = int(C.comp[j, i])
            if c >= 0:
                comp[arr_new[j], arr_new[i]] = arr_new[c]
    return FinCat(tuple(C.objects[o] for o in objs), tuple(C.arrows[f] for f in keep),
                  np.array([obj_new[int(C.src[f])] for f in keep], dtype=np.int32),
                  np.array([obj_new[int(C.tgt[f])] for f in keep], dtype=np.int32),
                  np.array([arr_new[int(C.id_arr[o])] for o in objs], dtype=np.int32),
                  comp)


def terminal_object(C: FinCat) -> int | None:
    """The first object with exactly one arrow from every object, if any."""
    return next((t for t in range(C.n_objects)
                 if all(len(C.hom(z, t)) == 1 for z in range(C.n_objects))), None)


@dataclass
class Cone:
    apex: int
    legs: tuple[int, ...]


def _limiting_cones(C: FinCat, cones: list[Cone], cap: int | None = None) -> list[Cone]:
    """Cones through which every listed cone factors uniquely."""
    if cap is not None and len(cones) > cap:
        raise ResourceCap("cone enumeration", len(cones), cap)
    out = []
    for cand in cones:
        good = True
        for z in sorted({c.apex for c in cones}):
            table: dict[tuple[int, ...], int] = {}
            for m in C.hom(z, cand.apex):
                key = tuple(int(C.comp[l, int(m)]) for l in cand.legs)
                table[key] = table.get(key, 0) + 1
            for other in cones:
                if other.apex != z:
                    continue
                if table.get(other.legs, 0) != 1:
                    good = False
                    break
            if not good:
                break
        if good:
            out.append(cand)
    return out


def enumerate_pullbacks(C: FinCat, f: int, g: int, cap: int | None = None) -> list[Cone]:
    """All limiting cones over the cospan (f: A->T, g: B->T); empty if none."""
    if int(C.tgt[f]) != int(C.tgt[g]):
        raise MalformedPresentation("pullback of arrows with different targets")
    a, b = int(C.src[f]), int(C.src[g])
    cones = []
    for z in range(C.n_objects):
        ha, hb = C.hom(z, a), C.hom(z, b)
        if len(ha) == 0 or len(hb) == 0:
            continue
        va = C.comp[f, ha]
        vb = C.comp[g, hb]
        eq = va[:, None] == vb[None, :]
        for i, j in np.argwhere(eq):
            cones.append(Cone(z, (int(ha[i]), int(hb[j]))))
    return _limiting_cones(C, cones, cap)


def pullback(C: FinCat, f: int, g: int, cap: int | None = None) -> Cone | None:
    lims = enumerate_pullbacks(C, f, g, cap)
    return lims[0] if lims else None


def kernel_pair(C: FinCat, f: int, cap: int | None = None) -> Cone | None:
    return pullback(C, f, f, cap)


def equalizer(C: FinCat, f: int, g: int, cap: int | None = None) -> Cone | None:
    """The limiting fork over a parallel pair, if the window contains one."""
    if int(C.src[f]) != int(C.src[g]) or int(C.tgt[f]) != int(C.tgt[g]):
        raise MalformedPresentation("equalizer of a non-parallel pair")
    a = int(C.src[f])
    cones = []
    for z in range(C.n_objects):
        for e in C.hom(z, a):
            e = int(e)
            if int(C.comp[f, e]) == int(C.comp[g, e]):
                cones.append(Cone(z, (e,)))
    lims = _limiting_cones(C, cones, cap)
    return lims[0] if lims else None


def product_cone(C: FinCat, a: int, b: int, cap: int | None = None) -> Cone | None:
    """A limiting span over (a, b), searched among all objects of C."""
    cones = []
    for z in range(C.n_objects):
        ha, hb = C.hom(z, a), C.hom(z, b)
        for p in ha:
            for q in hb:
                cones.append(Cone(z, (int(p), int(q))))
    lims = _limiting_cones(C, cones, cap)
    return lims[0] if lims else None


def coequalizer_arrows(C: FinCat, r: int, s: int) -> list[int]:
    """All arrows that coequalize (r, s) and are universal among such."""
    if int(C.src[r]) != int(C.src[s]) or int(C.tgt[r]) != int(C.tgt[s]):
        raise MalformedPresentation("coequalizer of a non-parallel pair")
    x = int(C.tgt[r])
    forks = [int(q) for q in C.outof(x) if int(C.comp[int(q), r]) == int(C.comp[int(q), s])]
    out = []
    for q in forks:
        qt = int(C.tgt[q])
        good = True
        for h in forks:
            ms = [int(m) for m in C.hom(qt, int(C.tgt[h])) if int(C.comp[int(m), q]) == h]
            if len(ms) != 1:
                good = False
                break
        if good:
            out.append(q)
    return out


def is_coequalizer_of(C: FinCat, e: int, r: int, s: int) -> bool:
    if int(C.comp[e, r]) != int(C.comp[e, s]):
        return False
    x = int(C.tgt[r])
    et = int(C.tgt[e])
    for h in C.outof(x):
        h = int(h)
        if int(C.comp[h, r]) != int(C.comp[h, s]):
            continue
        ms = [int(m) for m in C.hom(et, int(C.tgt[h])) if int(C.comp[int(m), e]) == h]
        if len(ms) != 1:
            return False
    return True


def is_regular_epi(C: FinCat, e: int, cap: int | None = None) -> bool:
    """e is regular epi iff it is a coequalizer of its kernel pair; when the
    window lacks the kernel pair, fall back to searching all parallel pairs."""
    kp = kernel_pair(C, e, cap)
    if kp is not None:
        return is_coequalizer_of(C, e, kp.legs[0], kp.legs[1])
    a = int(C.src[e])
    for z in range(C.n_objects):
        hz = C.hom(z, a)
        for r in hz:
            for s in hz:
                r_, s_ = int(r), int(s)
                if int(C.comp[e, r_]) == int(C.comp[e, s_]) and is_coequalizer_of(C, e, r_, s_):
                    return True
    return False


@dataclass
class Factorization:
    epi: int
    mono: int
    image: int


def image_factorization(C: FinCat, f: int, cap: int | None = None) -> Factorization | None:
    """f = mono ∘ regular-epi, searched exhaustively; None when unavailable."""
    a, b = int(C.src[f]), int(C.tgt[f])
    monos: dict[int, bool] = {}
    repis: dict[int, bool] = {}
    for i in range(C.n_objects):
        for e in C.hom(a, i):
            e = int(e)
            for m in C.hom(i, b):
                m = int(m)
                if int(C.comp[m, e]) != f:
                    continue
                if m not in monos:
                    monos[m] = is_mono(C, m)
                if not monos[m]:
                    continue
                if e not in repis:
                    repis[e] = is_regular_epi(C, e, cap)
                if repis[e]:
                    return Factorization(e, m, i)
    return None


# ---------------------------------------------------------------------------
# exactness
# ---------------------------------------------------------------------------


@dataclass
class ExactnessVerdict:
    finitely_complete: bool
    regular: bool
    exact: bool
    core: tuple[str, ...]
    witness: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.exact


def _internal_equivalence_relations(C: FinCat, x: int, cap: int | None):
    """Jointly monic reflexive symmetric transitive spans over x."""
    out = []
    for rob in range(C.n_objects):
        h = C.hom(rob, x)
        for r1 in h:
            for r2 in h:
                r1_, r2_ = int(r1), int(r2)
                # jointly monic
                jm = True
                for z in range(C.n_objects):
                    seen = set()
                    for m in C.hom(z, rob):
                        key = (int(C.comp[r1_, int(m)]), int(C.comp[r2_, int(m)]))
                        if key in seen:
                            jm = False
                            break
                        seen.add(key)
                    if not jm:
                        break
                if not jm:
                    continue
                idx = int(C.id_arr[x])
                refl = any(int(C.comp[r1_, int(d)]) == idx and int(C.comp[r2_, int(d)]) == idx
                           for d in C.hom(x, rob))
                if not refl:
                    continue
                sym = any(int(C.comp[r1_, int(s)]) == r2_ and int(C.comp[r2_, int(s)]) == r1_
                          for s in C.hom(rob, rob))
                if not sym:
                    continue
                pb = pullback(C, r1_, r2_, cap)
                if pb is None:
                    continue  # transitivity not expressible inside the window
                q1, q2 = pb.legs
                trans = any(int(C.comp[r1_, int(t)]) == int(C.comp[r1_, q2])
                            and int(C.comp[r2_, int(t)]) == int(C.comp[r2_, q1])
                            for t in C.hom(pb.apex, rob))
                if not trans:
                    continue
                out.append((rob, r1_, r2_))
    return out


def check_exact(C: FinCat, scope: WindowScope | None = None,
                cap: int | None = 1 << 20) -> ExactnessVerdict:
    """Exactness clauses, quantified over the scope core (default: all objects).

    finitely_complete: terminal, binary products of core pairs, equalizers of
    parallel pairs between core objects; regular: kernel pairs, image
    factorizations and pullback-stable regular epis for arrows between core
    objects; exact: every internal equivalence relation on a core object is
    effective."""
    core_names = scope.core if scope is not None else C.objects
    core = [C.obj_index[o] for o in core_names]
    witness: dict = {"core": tuple(core_names)}

    fc = True
    if terminal_object(C) is None:
        fc = False
        witness["finitely_complete"] = "no terminal object"
    if fc:
        for a in core:
            for b in core:
                if product_cone(C, a, b, cap) is None:
                    fc = False
                    witness["finitely_complete"] = (C.objects[a], C.objects[b])
                    break
            if not fc:
                break
    if fc:
        for a in core:
            for b in core:
                h = C.hom(a, b)
                for f in h:
                    for g in h:
                        if int(f) < int(g) and equalizer(C, int(f), int(g), cap) is None:
                            fc = False
                            witness["finitely_complete"] = (C.arrows[int(f)], C.arrows[int(g)])
                if not fc:
                    break
            if not fc:
                break

    reg = fc
    if reg:
        core_set = set(core)
        core_arrows = [f for f in range(C.n_arrows)
                       if int(C.src[f]) in core_set and int(C.tgt[f]) in core_set]
        for f in core_arrows:
            if kernel_pair(C, f, cap) is None:
                reg = False
                witness["regular"] = ("kernel pair", C.arrows[f])
                break
            if image_factorization(C, f, cap) is None:
                reg = False
                witness["regular"] = ("factorization", C.arrows[f])
                break
        if reg:
            repis = [f for f in core_arrows if is_regular_epi(C, f, cap)]
            for e in repis:
                b = int(C.tgt[e])
                for c in core:
                    for g in C.hom(c, b):
                        pb = pullback(C, e, int(g), cap)
                        if pb is None:
                            reg = False
                            witness["regular"] = ("stability pullback", C.arrows[e], C.arrows[int(g)])
                            break
                        if not is_regular_epi(C, pb.legs[1], cap):
                            reg = False
                            witness["regular"] = ("stability", C.arrows[e], C.arrows[int(g)])
                            break
                    if not reg:
                        break
                if not reg:
                    break

    ex = reg
    if ex:
        for x in core:
            for rob, r1, r2 in _internal_equivalence_relations(C, x, cap):
                qs = coequalizer_arrows(C, r1, r2)
                if not qs:
                    ex = False
                    witness["exact"] = ("no coequalizer", C.arrows[r1], C.arrows[r2])
                    break
                q = qs[0]
                kp = kernel_pair(C, q, cap)
                if kp is None:
                    ex = False
                    witness["exact"] = ("no kernel pair of quotient", C.arrows[q])
                    break
                med = [int(m) for m in C.hom(rob, kp.apex)
                       if int(C.comp[kp.legs[0], int(m)]) == r1
                       and int(C.comp[kp.legs[1], int(m)]) == r2]
                if len(med) != 1 or not is_iso(C, med[0]):
                    ex = False
                    witness["exact"] = ("not effective", C.arrows[r1], C.arrows[r2])
                    break
            if not ex:
                break

    return ExactnessVerdict(fc, reg, ex, tuple(core_names), witness)


def greedy_product_core(C: FinCat, cap: int | None = 1 << 20) -> tuple[str, ...]:
    """Largest product-closed core in identifier order: an object joins iff
    its products with every member (both ways) exist in C."""
    core: list[int] = []
    for x in range(C.n_objects):
        ok = True
        for y in core + [x]:
            if product_cone(C, x, y, cap) is None or product_cone(C, y, x, cap) is None:
                ok = False
                break
        if ok:
            core.append(x)
    return tuple(C.objects[i] for i in core)


# ---------------------------------------------------------------------------
# functors
# ---------------------------------------------------------------------------


@dataclass
class FunctorData:
    source: FinCat
    target: FinCat
    obj_map: dict[str, str]
    arr_map: dict[str, str]

    def ob(self, i: int) -> int:
        return self.target.obj_index[self.obj_map[self.source.objects[i]]]

    def ar(self, f: int) -> int:
        return self.target.arr_index[self.arr_map[self.source.arrows[f]]]


def validate_functor(F: FunctorData,
                     products: tuple[ProductChoice, ProductChoice] | None = None
                     ) -> ValidationReport:
    S, T = F.source, F.target
    for o in S.objects:
        if o not in F.obj_map or F.obj_map[o] not in T.obj_index:
            return ValidationReport(False, "Functor", (o,), "object map incomplete")
    for a in S.arrows:
        if a not in F.arr_map or F.arr_map[a] not in T.arr_index:
            return ValidationReport(False, "Functor", (a,), "arrow map incomplete")
    for f in range(S.n_arrows):
        tf = F.ar(f)
        if int(T.src[tf]) != F.ob(int(S.src[f])) or int(T.tgt[tf]) != F.ob(int(S.tgt[f])):
            return ValidationReport(False, "Functor", (S.arrows[f],), "arrow map badly typed")
    for o in range(S.n_objects):
        if F.ar(int(S.id_arr[o])) != int(T.id_arr[F.ob(o)]):
            return ValidationReport(False, "Functor", (S.objects[o],), "identity not preserved")
    for g in range(S.n_arrows):
        for f in np.flatnonzero(S.tgt == S.src[g]):
            lhs = F.ar(int(S.comp[g, int(f)]))
            rhs = int(T.comp[F.ar(g), F.ar(int(f))])
            if lhs != rhs:
                return ValidationReport(False, "Functor", (S.arrows[g], S.arrows[int(f)]),
                                        "composition not preserved")
    if products is not None:
        pcs, pct = products
        wt = Window(T, pct, WindowScope(T.objects))
        for (an, bn), (pn, p1n, p2n) in pcs.binary.items():
            fa, fb = T.obj_index[F.obj_map[an]], T.obj_index[F.obj_map[bn]]
            if (T.objects[fa], T.objects[fb]) not in pct.binary:
                continue
            cmp_arrow = wt.pair(F.ar(S.arr_index[p1n]), F.ar(S.arr_index[p2n]))
            if not is_iso(T, cmp_arrow):
                return ValidationReport(False, "Functor", (pn,),
                                        "canonical product comparison is not iso")
    return ValidationReport(True)


@dataclass
class EquivalenceVerdict:
    faithful: bool
    full: bool
    essentially_surjective: bool
    witness: dict = field(default_factory=dict)

    @property
    def is_equivalence(self) -> bool:
        return self.faithful and self.full and self.essentially_surjective


def check_equivalence(F: FunctorData) -> EquivalenceVerdict:
    """Faithful/full/essentially-surjective verdicts with counterexamples;
    essential surjectivity uses exhaustive isomorphism detection."""
    S, T = F.source, F.target
    faithful, full = True, True
    witness: dict = {}
    for a in range(S.n_objects):
        for b in range(S.n_objects):
            h = [int(x) for x in S.hom(a, b)]
            images = [F.ar(f) for f in h]
            if len(set(images)) != len(images):
                faithful = False
                dup = [S.arrows[h[i]] for i in range(len(h))
                       if images.count(images[i]) > 1]
                witness.setdefault("faithful", (S.objects[a], S.objects[b], tuple(dup)))
            target_hom = {int(x) for x in T.hom(F.ob(a), F.ob(b))}
            missing = target_hom - set(images)
            if missing:
                full = False
                witness.setdefault("full", (S.objects[a], S.objects[b],
                                            T.arrows[min(missing)]))
    ess = True
    iso_map: dict[str, tuple[str, str]] = {}
    image_objs = [F.ob(a) for a in range(S.n_objects)]
    for z in range(T.n_objects):
        found = None
        for a, fa in enumerate(image_objs):
            i = isomorphic(T, fa, z)
            if i is not None and isomorphic(T, z, fa) is not None:
                found = (S.objects[a], T.arrows[i])
                break
        if found is None:
            ess = False
            witness.setdefault("essentially_surjective", T.objects[z])
        else:
            iso_map[T.objects[z]] = found
    witness["iso_witnesses"] = iso_map
    return EquivalenceVerdict(faithful, full, ess, witness)
