"""Finite category kernel.

Categories are finite presentations: object and arrow identifier lists, an
identity table and a total composition table over composable pairs.  The laws
are decided exhaustively in effect: typing, totality and the identity laws
over every arrow and pair, associativity by Light's test over a greedy
composition-generating set, which is exact, and on a failure the full scan
over every composable triple names the canonical witness.  The composition
table is a dense read-only matrix with a -1 sentinel so that law checks
vectorize on large fixtures.

Limits are decided by counting cones; cones are listed only at an apex that
can hold a limit.  A cone (X, legs) sends each u: z -> X to the cone legs∘u
at z: a limit iff that map is a bijection at every apex z (jointly monic
legs, |hom(z, X)| cones at z).  Over a cospan (f, g) the cones at z number
Σ_t n_f(z, t)·n_g(z, t), n_f(z, t) = #{p : f∘p = t}.

Rich fixtures are windows of an ambient category: chosen product structure is
recorded in a ProductChoice and quantified checks state their scope as a core
object set (WindowScope).  A demanded product that is missing from the window
is a hard error, never a silent skip.

Product choices, functors, window scopes and comprehension entries hold
indices into their categories.  Names live only at the edges: the parser
resolves them, the emitter and the hand-written fixtures write them, and
witnesses and report text name what they point at.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import MalformedPresentation, Store, WindowClosure, guard

DEFAULT_ENUM_CAP = 1 << 20
TABLE_CELL_CAP = 1 << 24     # composition cells: 4,096 arrows, 128 MiB with the last-entry table
FIBER_ELEMENT_CAP = 1 << 10  # elements of a parsed fiber, before its n x n order and meet tables
BLOCK_BYTES = 1 << 19        # one temporary of a blocked kernel; no verdict depends on it


def block_rows(row_bytes: int) -> int:
    """The block step of every kernel whose temporaries grow with n² arrows or
    fiber × fiber × maps: the rows of `row_bytes` that BLOCK_BYTES holds, or one."""
    return max(1, BLOCK_BYTES // max(1, row_bytes))


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------


@dataclass
class FinCat(Store):
    """A finite category presentation with index-based internal tables.

    The tables are read-only once built, which keeps the data derived from
    them sound; a changed table needs a new FinCat built from a copy.  Hom
    sets and the arrows into and out of each object sit in their own
    tables for the inner loops; everything else derived is kept in its
    `Store`: the generators and the law verdict, the hom-size and histogram
    tables of the cone counts (read-only), the joint-monicity and
    regular-epi verdicts, product cones, pullbacks and pairing tables, the
    exactness verdicts and the subobject doctrines; an error is not kept."""

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
        self._derive()

    def _derive(self) -> None:
        """Freeze the tables and start with empty derived data."""
        for table in (self.src, self.tgt, self.id_arr, self.comp):
            table.flags.writeable = False
        self._hom: dict[tuple[int, int], np.ndarray] = {}
        self._into: list[np.ndarray] | None = None
        self._outof: list[np.ndarray] | None = None
        self._kept: dict[tuple, object] = {}

    def __setstate__(self, state: dict) -> None:
        # a copy's tables come back writeable: freeze them, derive afresh
        self.__dict__.update(state)
        self._derive()

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

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_indices(objects, arrows, src, tgt, id_arr, compose: np.ndarray) -> "FinCat":
        """Build from index tables: src, tgt and id_arr by position (-1 for
        an object without identity) and the composition entries, one row
        (g, f, h) per comp[g, f] = h; a repeated (g, f) keeps its last row."""
        id_arr = np.asarray(id_arr, dtype=np.int32)
        if (id_arr < 0).any():
            o = objects[int(np.flatnonzero(id_arr < 0)[0])]
            raise MalformedPresentation(f"object {o} has no identity arrow")
        n = len(arrows)
        guard("composition table cells", n * n, TABLE_CELL_CAP)
        cell = compose[:, 0] * n + compose[:, 1]
        last = np.full(n * n, -1, dtype=np.int32)       # last entry per cell
        np.maximum.at(last, cell, np.arange(len(cell), dtype=np.int32))
        comp = np.full(n * n, -1, dtype=np.int32)
        filled = last >= 0
        comp[filled] = compose[last[filled], 2]
        return FinCat(tuple(objects), tuple(arrows), np.asarray(src, dtype=np.int32),
                      np.asarray(tgt, dtype=np.int32), id_arr, comp.reshape(n, n))

    def generators(self) -> np.ndarray:
        """A composition-generating set, chosen greedily in id order: an
        arrow is a generator when the composites of the identities and the
        earlier generators do not reach it.  Meaningful on a typed, total
        table, which validate_category checks before it asks."""
        def derive() -> np.ndarray:
            n, comp = self.n_arrows, self.comp
            step = block_rows(2 * comp.itemsize * n)         # a row of each side per arrow
            reached = np.zeros(n, dtype=bool)
            reached[self.id_arr] = True
            gens = []
            for a in range(n):
                if reached[a]:
                    continue
                gens.append(a)
                G = np.array(gens)
                # close under composition: a batch of new arrows meets every reached
                # arrow on its right and every generator on its left, once (u∘y is y
                # behind u's generators; only reached arrows meet, all Light's test needs)
                new = np.zeros(n, dtype=bool)
                new[a] = True
                while new.any():
                    reached |= new
                    batch = np.flatnonzero(new)
                    for b in (batch[lo:lo + step] for lo in range(0, len(batch), step)):
                        right, left = comp[b], comp[G[:, None], b]     # b∘reached, G∘b
                        new[right[(right >= 0) & reached]] = True
                        new[left[left >= 0]] = True
                    new &= ~reached
            return np.array(gens, dtype=np.intp)
        return self.kept(("generators",), derive)

    def is_category(self) -> bool:
        """Typed, total, unital and associative, associativity by Light's
        test; decided once and kept, without naming a witness."""
        return self.kept(("is_category",), lambda: _typing_or_identity_violation(self) is None
                         and _associativity_scan(self, self.generators()).ok)


@dataclass
class ProductChoice:
    """Chosen terminal and binary products by index into one category:
    binary maps the objects (a, b) to the product object and its two
    projections (p, pr1, pr2).  Names live only at the parser, the emitter
    and the witnesses.  It holds no derived data: the category keeps the
    pairing table that each Window over the choice reads."""

    terminal: int
    binary: dict[tuple[int, int], tuple[int, int, int]]  # (a, b) -> (p, pr1, pr2)


@dataclass
class WindowScope:
    """Objects designated for quantified checks, by index; constructions
    demand window closure under the products they use (pairs, and triples
    for composition and transitivity shaped checks)."""

    core: tuple[int, ...]


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
    """Typing, totality, identity and associativity laws.  C.is_category()
    decides them; on a failure the exhaustive checks name the canonical
    first witness."""
    if C.is_category():
        return ValidationReport(True)
    bad = _typing_or_identity_violation(C)
    return bad if bad is not None else _associativity_scan(C)


_TYPING_LAWS = (("AssociativityOrTyping", "composition defined on a non-composable pair"),
                ("MissingEntry", "composable pair has no composite"),
                ("AssociativityOrTyping", "composite has wrong source or target"))


def _typing_violation(C: FinCat) -> ValidationReport | None:
    """Composites defined on exactly the composable pairs, each typed
    (src f, tgt g): what a reader of composites needs.  The first pair
    (g, f) that breaks the first of `_TYPING_LAWS` anywhere is named, by
    rows of g in blocks, with each type coded src * |objects| + tgt, in
    int16 when the codes fit."""
    k = C.n_objects
    code = np.int16 if k * k <= np.iinfo(np.int16).max else np.int64
    typ, src, tgt = (C.src * k + C.tgt).astype(code), (C.src * k).astype(code), C.tgt.astype(code)
    first: list[tuple[int, int] | None] = [None] * len(_TYPING_LAWS)
    step = block_rows(np.dtype(code).itemsize * C.n_arrows)

    def broken(lo: int):                    # rows lo.. of g, a mask at a time
        comp, composable = C.comp[lo:lo + step], C.src[lo:lo + step, None] == C.tgt[None, :]
        yield (comp >= 0) & ~composable
        yield composable & (comp < 0)
        yield composable & (np.take(typ, comp) != src[None, :] + tgt[lo:lo + step, None])

    for lo in range(0, C.n_arrows, step):
        for i, bad in enumerate(broken(lo)):
            if first[i] is None and bad.any():
                first[i] = tuple(np.argwhere(bad)[0] + (lo, 0))
        if first[0] is not None:
            break
    for (law, message), at in zip(_TYPING_LAWS, first):
        if at is not None:
            return ValidationReport(False, law, (C.arrows[at[0]], C.arrows[at[1]]), message)
    return None


def _typing_or_identity_violation(C: FinCat) -> ValidationReport | None:
    """Typing, totality and the identity laws over every arrow and pair."""
    bad = _typing_violation(C)
    if bad is not None:
        return bad
    n = C.n_arrows
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
    return None


def _associativity_scan(C: FinCat, middle: np.ndarray | None = None) -> ValidationReport:
    """Every composable triple (h, g, f) with g in `middle` (default: every
    arrow), blockwise over (src g, tgt g) and rows of h, in canonical order;
    int16 values and hoisted index conversions keep the big fixture fast.

    With the generators as `middle` this is Light's test, which decides
    associativity of a typed, unital table exactly.  The arrows m with
    (h∘m)∘f = h∘(m∘f) for all h, f contain the identities and are closed
    under composition: for such m1, m2, (h∘(m1∘m2))∘f = ((h∘m1)∘m2)∘f
    = (h∘m1)∘(m2∘f) = h∘(m1∘(m2∘f)) = h∘((m1∘m2)∘f).  So they are every
    arrow once they hold the generators.

    Both callers run it once the typing and identity laws hold, so id_b is
    an f into b and id_c an h out of c: no block is empty."""
    comp16 = C.comp.astype(np.int16) if C.n_arrows < (1 << 15) else C.comp
    middle = np.arange(C.n_arrows) if middle is None else np.asarray(middle)
    src, tgt = C.src[middle], C.tgt[middle]
    held = None                                             # comp_F: the columns of one src g
    for b, c in sorted(set(zip(src.tolist(), tgt.tolist()))):
        G = middle[(src == b) & (tgt == c)]
        F, H = C.into(b), C.outof(c)
        if b != held:
            held, comp_F = b, comp16[:, F]
        GF_ip = C.comp[G[:, None], F].astype(np.intp)
        HG_ip = C.comp[H[:, None], G].astype(np.intp)
        chunk = block_rows(comp16.itemsize * len(G) * len(F))
        for lo in range(0, len(H), chunk):
            lhs = comp_F[HG_ip[lo:lo + chunk]]              # (ch, nG, nF): (h∘g)∘f
            rhs = comp16[H[lo:lo + chunk]][:, GF_ip]        # h∘(g∘f)
            if not np.array_equal(lhs, rhs):
                k, i, j = map(int, np.argwhere(lhs != rhs)[0])
                return ValidationReport(
                    False, "AssociativityOrTyping",
                    (C.arrows[int(H[lo + k])], C.arrows[int(G[i])], C.arrows[int(F[j])]),
                    "(h∘g)∘f != h∘(g∘f)")
    return ValidationReport(True)


def validate_products(C: FinCat, pc: ProductChoice) -> ValidationReport:
    """Check the terminal and every chosen product of the category C; a
    verdict only, which leaves the choice as it is.

    Every cone (f: Z->A, g: Z->B) present in the window must have exactly one
    mediating arrow: the cones (pr1∘u, pr2∘u) of the arrows u: z -> P are
    distinct and number |hom(z, A)|·|hom(z, B)| at every apex z (module
    docstring).  <pr1, pr2> is then the identity of the product: C's table
    is unital, so id_P mediates (pr1, pr2) at z = P, and it is that cone's
    only mediator.  At the first apex where that fails, the witness is the
    least cone with more than one mediator, with the most mediators of any
    cone there, or else the first cone, in product order, with none."""
    t = pc.terminal
    if not 0 <= t < C.n_objects:
        return ValidationReport(False, "MissingEntry", (t,), "unknown terminal")
    sizes, n = hom_sizes(C), C.n_arrows
    bad = np.flatnonzero(sizes[:, t] != 1)
    if len(bad):
        z = int(bad[0])
        return ValidationReport(False, "Terminal", (C.objects[z],),
                                f"terminal has {sizes[z, t]} arrows from {C.objects[z]}")
    for (a, b), (p, p1, p2) in pc.binary.items():
        for i, pool in ((a, C.n_objects), (b, C.n_objects), (p, C.n_objects),
                        (p1, C.n_arrows), (p2, C.n_arrows)):
            if not 0 <= i < pool:
                return ValidationReport(False, "MissingEntry", (i,), "unknown id in product entry")
        if int(C.src[p1]) != p or int(C.tgt[p1]) != a or int(C.src[p2]) != p or int(C.tgt[p2]) != b:
            return ValidationReport(False, "MissingEntry", (C.objects[p],),
                                    "projections badly typed")
        # the cones (z, p1∘u, p2∘u) of every u into p, coded by apex, then cone
        meds = C.into(p)
        codes, counts = np.unique(
            (C.src[meds].astype(np.int64) * n + C.comp[p1, meds]) * n + C.comp[p2, meds],
            return_counts=True)
        apex, cones, k = codes // (n * n), codes % (n * n), C.n_objects
        bad = np.flatnonzero((np.bincount(apex[counts > 1], minlength=k) > 0)
                             | (np.bincount(apex, minlength=k) < sizes[:, a] * sizes[:, b]))
        if len(bad):                            # the first apex with no bijection
            z = int(bad[0])
            at = apex == z
            have, most = set(cones[at].tolist()), int(counts[at].max(initial=0))
            w = int(cones[counts > 1][0]) if most > 1 else next(   # none below z
                f * n + g for f in C.hom(z, a).tolist() for g in C.hom(z, b).tolist()
                if f * n + g not in have)
            return ValidationReport(False, "Product", (C.arrows[w // n], C.arrows[w % n]),
                                    f"cone has {most} mediating arrows into {C.objects[p]}"
                                    if most > 1
                                    else f"cone has no mediating arrow into {C.objects[p]}")
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
        """The pairing table maps each cone (pr1∘u, pr2∘u) of an arrow u into a
        chosen product to the least such u; C keeps it per chosen (p, pr1, pr2)."""
        self.C = C
        self.pc = pc
        self.scope = scope
        for o in scope.core:
            if not 0 <= o < C.n_objects:
                raise MalformedPresentation(f"core object {o} not in category")

        def derive() -> dict[tuple[int, int], int]:
            pairing: dict[tuple[int, int], int] = {}
            for p, p1, p2 in pc.binary.values():
                meds = C.into(p)
                for cone, u in zip(zip(C.comp[p1, meds].tolist(), C.comp[p2, meds].tolist()),
                                   meds.tolist()):
                    pairing.setdefault(cone, u)
            return pairing
        self.pairing = C.kept(("pairing", tuple(pc.binary.values())), derive)

    def prod(self, a: int, b: int) -> tuple[int, int, int]:
        if (a, b) not in self.pc.binary:
            raise WindowClosure((self.C.objects[a], self.C.objects[b]))
        return self.pc.binary[a, b]

    def pair(self, f: int, g: int) -> int:
        """<f, g> for a cone (f: Z->A, g: Z->B) over the chosen product A×B."""
        key = (f, g)
        if key not in self.pairing:
            a, b = int(self.C.tgt[f]), int(self.C.tgt[g])
            raise WindowClosure((self.C.objects[a], self.C.objects[b]),
                                f"no mediator for cone ({self.C.arrows[f]}, {self.C.arrows[g]})")
        return self.pairing[key]

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

    def prod4(self, x1: int, x2: int, y1: int, y2: int) -> tuple[int, tuple[int, int, int, int]]:
        """(X1×X2)×(Y1×Y2) with the four factor projections."""
        xs, a1, a2 = self.prod(x1, x2)
        ys, b1, b2 = self.prod(y1, y2)
        p, q1, q2 = self.prod(xs, ys)
        return p, (self.C.compose(a1, q1), self.C.compose(a2, q1),
                   self.C.compose(b1, q2), self.C.compose(b2, q2))

    def check_closure(self) -> list[tuple[str, ...]]:
        """Products demanded by the scope that the window lacks (empty = closed)."""
        ob, binary, core = self.C.objects, self.pc.binary, self.scope.core
        pairs = list(itertools.product(core, repeat=2))
        return ([(ob[a], ob[b]) for a, b in pairs if (a, b) not in binary]
                + [(ob[a], ob[b], ob[c]) for a, b in pairs if (a, b) in binary
                   for c in core if (binary[a, b][0], c) not in binary])


# ---------------------------------------------------------------------------
# limits by counting cones; monos, isos and coequalizers
# ---------------------------------------------------------------------------


def hom_sizes(C: FinCat) -> np.ndarray:
    """sizes[z, x] = |hom(z, x)|, kept on C."""
    def derive() -> np.ndarray:
        k = C.n_objects
        sizes = np.bincount(C.src.astype(np.intp) * k + C.tgt, minlength=k * k).reshape(k, k)
        sizes.flags.writeable = False
        return sizes
    return C.kept(("hom_sizes",), derive)


def _histograms(C: FinCat, t: int) -> np.ndarray:
    """The histogram block of t, kept on C: row i, column j counts the p with
    f_i∘p = f_j, for the i-th and j-th arrows into t.  Row i read at the
    arrows from z is n_{f_i}(z, ·)."""
    def derive() -> np.ndarray:
        into = C.into(t)
        block = np.stack([factor_counts(C, f)[into] for f in into.tolist()])
        block.flags.writeable = False
        return block
    return C.kept(("histograms", t), derive)


def _cospan_counts(C: FinCat, f: int, g: int) -> np.ndarray:
    """The cones over (f, g) at each apex z: Σ_t n_f(z, t)·n_g(z, t), t: z -> tgt f."""
    into, H = C.into(int(C.tgt[f])), _histograms(C, int(C.tgt[f]))
    i, j = np.searchsorted(into, (f, g))
    return np.bincount(C.src[into], weights=H[i] * H[j], minlength=C.n_objects).astype(np.int64)


def _cospan_cones_at(C: FinCat, f: int, g: int, x: int) -> np.ndarray:
    """The counts[x] cones (p, q) over the cospan (f, g) at apex x, one per
    row, by p, then q."""
    hp, hq = C.hom(x, int(C.src[f])), C.hom(x, int(C.src[g]))
    i, j = np.nonzero(C.comp[f, hp][:, None] == C.comp[g, hq][None, :])
    return np.stack([hp[i], hq[j]], axis=1)


def jointly_monic(C: FinCat, legs: tuple[int, ...]) -> bool:
    """No two arrows u into the common source of `legs` give the same l∘u
    for every leg l (which fix the source of u); kept on C per tuple."""
    def derive() -> bool:
        into = C.into(int(C.src[legs[0]]))
        return len(set(zip(*C.comp[np.array(legs)[:, None], into].tolist()))) == len(into)
    return C.kept(("jointly_monic", legs), derive)


def is_mono(C: FinCat, f: int) -> bool:
    return jointly_monic(C, (f,))


def mediating(C: FinCat, cone: tuple[int, ...], legs: tuple[int, ...]) -> np.ndarray:
    """The arrows u with l∘u = c for every leg l of `legs` and the arrow c
    of `cone` at its place, in id order."""
    H = C.hom(int(C.src[cone[0]]), int(C.src[legs[0]]))
    return H[(C.comp[np.array(legs)[:, None], H] == np.array(cone)[:, None]).all(axis=0)]


def factor_counts(C: FinCat, m: int) -> np.ndarray:
    """Per arrow f, the number of arrows u with m∘u = f: f factors through
    m when its count is positive, and uniquely when it is 1."""
    return np.bincount(C.comp[m, C.into(int(C.src[m]))], minlength=C.n_arrows)


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
            if isomorphic(C, cl[0], x) is not None:
                cl.append(x)
                break
        else:
            classes.append([x])
    return [[C.objects[i] for i in cl] for cl in classes]


def full_subcategory(C: FinCat, objs: list[int] | tuple[int, ...]) -> FunctorData:
    """The full subcategory on `objs`, in that order, as its inclusion into
    C: the subcategory is the source, and its arrows keep their names and
    their order in C."""
    objs = list(objs)               # a tuple would index the tables as several axes
    obj_new = np.full(C.n_objects, -1, dtype=np.int32)
    obj_new[objs] = np.arange(len(objs))
    keep = np.flatnonzero((obj_new[C.src] >= 0) & (obj_new[C.tgt] >= 0))
    arr_new = np.full(C.n_arrows + 1, -1, dtype=np.int32)    # arr_new[-1] keeps -1
    arr_new[keep] = np.arange(len(keep))
    sub = FinCat(tuple(C.objects[o] for o in objs), tuple(C.arrows[f] for f in keep),
                 obj_new[C.src[keep]], obj_new[C.tgt[keep]], arr_new[C.id_arr[objs]],
                 arr_new[C.comp[np.ix_(keep, keep)]])
    return FunctorData(sub, C, objs, keep)


def terminal_object(C: FinCat) -> int | None:
    """The first object with exactly one arrow from every object, if any."""
    ones = (hom_sizes(C) == 1).all(axis=0)
    return int(ones.argmax()) if ones.any() else None


@dataclass(frozen=True)
class Cone:
    """Frozen: product cones and pullbacks are kept on their category."""
    apex: int
    legs: tuple[int, ...]


def _first_limit(C: FinCat, counts: np.ndarray, cones_at) -> Cone | None:
    """The first limit, by apex, then legs, of counts[z] cones at z, listed by
    `cones_at`: at an apex x with |hom(z, x)| = counts[z] at all z, its jointly monic cones.
    No cap is needed (lemma): such an x has counts[x] = |hom(x, x)| cones, and
    distinct objects have disjoint endomorphism sets, so a search lists at most
    Σ_x |hom(x, x)| <= n_arrows cones, which the table cap bounds."""
    for x in np.flatnonzero((hom_sizes(C) == counts[:, None]).all(axis=0)).tolist():
        legs = next((legs for legs in cones_at(x) if jointly_monic(C, legs)), None)
        if legs is not None:
            return Cone(x, legs)
    return None


def pullback(C: FinCat, f: int, g: int) -> Cone | None:
    """Searched once per (f, g) and kept on C."""
    if int(C.tgt[f]) != int(C.tgt[g]):
        raise MalformedPresentation("pullback of arrows with different targets")
    return C.kept(("pullback", f, g), lambda: _first_limit(
        C, _cospan_counts(C, f, g), lambda x: map(tuple, _cospan_cones_at(C, f, g, x).tolist())))


def kernel_pair(C: FinCat, f: int) -> Cone | None:
    return pullback(C, f, f)


def equalizer(C: FinCat, f: int, g: int) -> Cone | None:
    """The limiting fork over a parallel pair, if the window contains one."""
    if int(C.src[f]) != int(C.src[g]) or int(C.tgt[f]) != int(C.tgt[g]):
        raise MalformedPresentation("equalizer of a non-parallel pair")
    into = C.into(int(C.src[f]))
    forks = into[C.comp[f, into] == C.comp[g, into]]
    return _first_limit(C, np.bincount(C.src[forks], minlength=C.n_objects),
                        lambda x: [(e,) for e in forks[C.src[forks] == x].tolist()])


def product_cone(C: FinCat, a: int, b: int) -> Cone | None:
    """A limiting span over (a, b), searched among all objects of C once
    and kept on C, one per (a, b)."""
    def derive() -> Cone | None:
        sizes = hom_sizes(C)
        return _first_limit(C, sizes[:, a] * sizes[:, b], lambda x: itertools.product(
            C.hom(x, a).tolist(), C.hom(x, b).tolist()))
    return C.kept(("product_cone", a, b), derive)


def is_coequalizer_of(C: FinCat, e: int, r: int, s: int) -> bool:
    """e coequalizes (r, s), and every h out of tgt r that does is m∘e for
    exactly one m."""
    if int(C.comp[e, r]) != int(C.comp[e, s]):
        return False
    out = C.outof(int(C.tgt[r]))
    forks = out[C.comp[out, r] == C.comp[out, s]]
    after_e = np.bincount(C.comp[C.outof(int(C.tgt[e])), e], minlength=C.n_arrows)
    return bool((after_e[forks] == 1).all())


def is_regular_epi(C: FinCat, e: int) -> bool:
    """e is regular epi iff it is a coequalizer of its kernel pair; when the
    window lacks the kernel pair, fall back to searching all parallel pairs.
    Kept on C per e."""
    def derive() -> bool:
        kp = kernel_pair(C, e)
        if kp is not None:
            return is_coequalizer_of(C, e, kp.legs[0], kp.legs[1])
        return any(is_coequalizer_of(C, e, r, s) for z in range(C.n_objects)
                   for r, s in itertools.product(C.hom(z, int(C.src[e])).tolist(), repeat=2))
    return C.kept(("is_regular_epi", e), derive)


@dataclass
class Factorization:
    epi: int
    mono: int
    image: int


def image_factorization(C: FinCat, f: int) -> Factorization | None:
    """f = mono ∘ regular-epi, searched exhaustively; None when unavailable."""
    a, b = int(C.src[f]), int(C.tgt[f])
    return next((Factorization(e, m, i) for i in range(C.n_objects)
                 for e in C.hom(a, i).tolist() for m in C.hom(i, b).tolist()
                 if int(C.comp[m, e]) == f and is_mono(C, m) and is_regular_epi(C, e)), None)


# ---------------------------------------------------------------------------
# exactness
# ---------------------------------------------------------------------------


@dataclass
class ExactnessVerdict:
    finitely_complete: bool
    regular: bool
    exact: bool
    core: tuple[int, ...]
    witness: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.exact


def _internal_equivalence_relations(C: FinCat, x: int):
    """Jointly monic reflexive symmetric transitive spans over x."""
    idx = int(C.id_arr[x])
    out = []
    for rob in range(C.n_objects):
        for r1, r2 in itertools.product(C.hom(rob, x).tolist(), repeat=2):
            if not (jointly_monic(C, (r1, r2))
                    and len(mediating(C, (idx, idx), (r1, r2)))         # reflexive
                    and len(mediating(C, (r2, r1), (r1, r2)))):         # symmetric
                continue
            pb = pullback(C, r1, r2)
            if pb is None:
                continue  # transitivity not expressible inside the window
            q1, q2 = pb.legs
            if len(mediating(C, (int(C.comp[r1, q2]), int(C.comp[r2, q1])), (r1, r2))):
                out.append((rob, r1, r2))
    return out


def check_exact(C: FinCat, scope: WindowScope | None = None,
                cap: int | None = DEFAULT_ENUM_CAP) -> ExactnessVerdict:
    """Exactness clauses, quantified over the scope core (default: all objects).

    finitely_complete: terminal, binary products of core pairs, equalizers of
    parallel pairs between core objects; regular: kernel pairs, image
    factorizations and pullback-stable regular epis for arrows between core
    objects; exact: every internal equivalence relation on a core object is
    effective.  The verdict is kept on C, one per core.  The cap bounds the
    candidate equivalence relations, the Σ_z |hom(z, x)|² spans into each
    core object x, counted before the verdict is read."""
    core = tuple(scope.core) if scope is not None else tuple(range(C.n_objects))
    guard("equivalence relation candidates",
          int((hom_sizes(C)[:, list(core)].astype(np.int64) ** 2).sum()), cap)
    return C.kept(("check_exact", core), lambda: _exactness_verdict(C, core))


def _exactness_verdict(C: FinCat, core: tuple[int, ...]) -> ExactnessVerdict:
    """Each clause is decided only when the ones before it hold; a failing
    clause records its first witness."""
    witness: dict = {"core": tuple(C.objects[o] for o in core)}
    holds: list[bool] = []
    for clause, first_failure in (("finitely_complete", _finite_limit_failure),
                                  ("regular", _regularity_failure),
                                  ("exact", _effectiveness_failure)):
        bad = first_failure(C, core) if all(holds) else None
        if bad is not None:
            witness[clause] = bad
        holds.append(all(holds) and bad is None)
    return ExactnessVerdict(*holds, core, witness)


def _finite_limit_failure(C: FinCat, core: tuple[int, ...]):
    """A terminal, products of core pairs, equalizers of parallel pairs
    between core objects: the first that is missing, or None."""
    if terminal_object(C) is None:
        return "no terminal object"
    for a, b in itertools.product(core, repeat=2):
        if product_cone(C, a, b) is None:
            return (C.objects[a], C.objects[b])
    for a, b in itertools.product(core, repeat=2):
        for f, g in itertools.combinations(C.hom(a, b).tolist(), 2):
            if equalizer(C, f, g) is None:
                return (C.arrows[f], C.arrows[g])
    return None


def _regularity_failure(C: FinCat, core: tuple[int, ...]):
    """Kernel pairs, image factorizations and pullback-stable regular epis
    for arrows between core objects: the first that fails, or None."""
    core_set = set(core)
    core_arrows = [f for f in range(C.n_arrows)
                   if int(C.src[f]) in core_set and int(C.tgt[f]) in core_set]
    for f in core_arrows:
        if kernel_pair(C, f) is None:
            return ("kernel pair", C.arrows[f])
        if image_factorization(C, f) is None:
            return ("factorization", C.arrows[f])
    for e in [f for f in core_arrows if is_regular_epi(C, f)]:
        for c in core:
            for g in C.hom(c, int(C.tgt[e])).tolist():
                pb = pullback(C, e, g)
                if pb is None:
                    return ("stability pullback", C.arrows[e], C.arrows[g])
                if not is_regular_epi(C, pb.legs[1]):
                    return ("stability", C.arrows[e], C.arrows[g])
    return None


def _effectiveness_failure(C: FinCat, core: tuple[int, ...]):
    """Every internal equivalence relation on a core object is the kernel
    pair of its coequalizer: the first that is not, or None."""
    for x in core:
        for rob, r1, r2 in _internal_equivalence_relations(C, x):
            q = next((q for q in C.outof(x).tolist() if is_coequalizer_of(C, q, r1, r2)), None)
            if q is None:
                return ("no coequalizer", C.arrows[r1], C.arrows[r2])
            kp = kernel_pair(C, q)
            if kp is None:
                return ("no kernel pair of quotient", C.arrows[q])
            med = mediating(C, (r1, r2), kp.legs)
            if len(med) != 1 or not is_iso(C, int(med[0])):
                return ("not effective", C.arrows[r1], C.arrows[r2])
    return None


def greedy_product_core(C: FinCat) -> tuple[int, ...]:
    """Largest product-closed core in identifier order: an object joins iff
    its products with every member (both ways) exist in C."""
    core: list[int] = []
    for x in range(C.n_objects):
        if all(product_cone(C, x, y) is not None and product_cone(C, y, x) is not None
               for y in core + [x]):
            core.append(x)
    return tuple(core)


# ---------------------------------------------------------------------------
# functors
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class FunctorData:
    """Data of a functor by index: obj_map[o] is the image of source object
    o and arr_map[f] that of source arrow f, both read-only int arrays.
    Names live only at the parser, the emitter and the witnesses.  The
    data is checked by `validate_functor`, which reads an entry outside
    the target, or a missing one, as an incomplete map."""

    source: FinCat
    target: FinCat
    obj_map: np.ndarray
    arr_map: np.ndarray

    def __post_init__(self):
        self.obj_map = np.array(self.obj_map, dtype=np.intp)
        self.arr_map = np.array(self.arr_map, dtype=np.intp)
        self.obj_map.flags.writeable = self.arr_map.flags.writeable = False


def _first_outside(table: np.ndarray, n: int, bound: int) -> int | None:
    """The first position below n where `table` has no entry in range(bound)."""
    ok = np.zeros(n, dtype=bool)
    ok[:len(table)] = (table[:n] >= 0) & (table[:n] < bound)
    return None if ok.all() else int(ok.argmin())


def validate_functor(F: FunctorData,
                     products: tuple[ProductChoice, ProductChoice] | None = None
                     ) -> ValidationReport:
    S, T = F.source, F.target
    o = _first_outside(F.obj_map, S.n_objects, T.n_objects)
    if o is not None:
        return ValidationReport(False, "Functor", (S.objects[o],), "object map incomplete")
    f = _first_outside(F.arr_map, S.n_arrows, T.n_arrows)
    if f is not None:
        return ValidationReport(False, "Functor", (S.arrows[f],), "arrow map incomplete")
    ob, ar = F.obj_map[:S.n_objects], F.arr_map[:S.n_arrows]
    bad = np.flatnonzero((T.src[ar] != ob[S.src]) | (T.tgt[ar] != ob[S.tgt]))
    if len(bad):
        return ValidationReport(False, "Functor", (S.arrows[bad[0]],), "arrow map badly typed")
    bad = np.flatnonzero(ar[S.id_arr] != T.id_arr[ob])
    if len(bad):
        return ValidationReport(False, "Functor", (S.objects[bad[0]],), "identity not preserved")
    # every typed pair (g, f) at once, in the order g, then f
    g, f = np.nonzero(S.tgt[None, :] == S.src[:, None])
    bad = np.flatnonzero(ar[S.comp[g, f]] != T.comp[ar[g], ar[f]])
    if len(bad):
        return ValidationReport(False, "Functor", (S.arrows[g[bad[0]]], S.arrows[f[bad[0]]]),
                                "composition not preserved")
    if products is not None:
        pcs, pct = products
        wt = Window(T, pct, WindowScope(()))
        ob, ar = ob.tolist(), ar.tolist()
        for (a, b), (p, p1, p2) in pcs.binary.items():
            if (ob[a], ob[b]) in pct.binary and not is_iso(T, wt.pair(ar[p1], ar[p2])):
                return ValidationReport(False, "Functor", (S.objects[p],),
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
    ob, ar = F.obj_map.tolist(), F.arr_map.tolist()
    faithful, full = True, True
    witness: dict = {}
    for a in range(S.n_objects):
        for b in range(S.n_objects):
            h = S.hom(a, b).tolist()
            images = [ar[f] for f in h]
            if len(set(images)) != len(images):
                faithful = False
                dup = [S.arrows[h[i]] for i in range(len(h))
                       if images.count(images[i]) > 1]
                witness.setdefault("faithful", (S.objects[a], S.objects[b], tuple(dup)))
            target_hom = set(T.hom(ob[a], ob[b]).tolist())
            missing = target_hom - set(images)
            if missing:
                full = False
                witness.setdefault("full", (S.objects[a], S.objects[b],
                                            T.arrows[min(missing)]))
    ess = True
    iso_map: dict[str, tuple[str, str]] = {}
    for z in range(T.n_objects):
        found = None
        for a, fa in enumerate(ob):
            i = isomorphic(T, fa, z)
            if i is not None:
                found = (S.objects[a], T.arrows[i])
                break
        if found is None:
            ess = False
            witness.setdefault("essentially_surjective", T.objects[z])
        else:
            iso_map[T.objects[z]] = found
    witness["iso_witnesses"] = iso_map
    return EquivalenceVerdict(faithful, full, ess, witness)
