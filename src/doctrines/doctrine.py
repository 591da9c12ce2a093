"""Indexed finite inf-semilattices over a finite category window.

A doctrine assigns a fiber to every object and a contravariant reindexing map
to every arrow; reindexing maps are top/meet-preserving homomorphisms and the
assignment is functorial.  Everything is tabled.  Validation is exhaustive in
effect and vectorized: fibers, typing and identities are checked everywhere,
and one scan decides the homomorphism clause and functoriality: on a
composition-generating set of the base, exact once the base is a category,
and on a failure over every arrow, where it names the canonical witness.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import Store, WindowClosure
from .fincat import (FinCat, ProductChoice, ValidationReport, Window, WindowScope, block_rows,
                     is_mono, _typing_violation)
from .semilattice import (FinInfSL, MonotoneMap, NoAdjoint, lattice_from_leq, left_adjoint,
                          left_adjoints)


@dataclass
class DoctrineData(Store):
    """Base window plus fiber and reindexing tables.

    reindex[f] maps the fiber of target(f) to the fiber of source(f).  The
    store keeps what is derived from the tables (an error is not kept), so
    they must not change; fault injection uses a fresh doctrine or a copy."""

    cat: FinCat
    products: ProductChoice
    scope: WindowScope
    fibers: list[FinInfSL]
    reindex: list[MonotoneMap]
    _kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def window(self) -> Window:
        return self.kept(("window",), lambda: Window(self.cat, self.products, self.scope))

    def r(self, f: int) -> MonotoneMap:
        return self.reindex[f]

    def keys_of(self, *values) -> tuple:
        """The key of each value in the store, by identity; None if not kept."""
        where = {id(value): key for key, value in self._kept.items()}
        return tuple(where.get(id(value)) for value in values)


def kept_as(key):
    """Read what the decorated function derives from its first argument, a
    doctrine or a category, through its store under key(*args): a name,
    then caps.enum and the keys of structure arguments (`keys_of`) as read.
    A key holding None, for an argument not kept there, keeps nothing."""
    def wrap(fn):
        @functools.wraps(fn)
        def read(owner, *args, **kwargs):
            derive, k = functools.partial(fn, owner, *args, **kwargs), key(owner, *args, **kwargs)
            return derive() if None in k else owner.kept(k, derive)
        return read
    return wrap


def exists_along(P: DoctrineData, f: int) -> MonotoneMap | NoAdjoint:
    """Left adjoint of reindexing along f, kept on the doctrine."""
    return P.kept(("exists_along", f), lambda: left_adjoint(P.r(f)))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@kept_as(lambda P: ("doctrine",))
def validate_doctrine(P: DoctrineData) -> ValidationReport:
    """Fibers are inf-semilattices, reindexing is typed, identity-preserving,
    functorial on every composable pair, and a homomorphism on every arrow.

    Over a category both laws are decided by `_laws_scan` at a
    composition-generating set; on a failure, or over a base that is not a
    category, the same scan over every arrow names the witness.  It reads
    composites, so a base table that is not typed and total is named first,
    as `validate_category` names it."""
    bad = _fiber_and_identity_violation(P)
    if bad is not None:
        return bad
    stacks, pos = _reindex_stacks(P)
    bad = _range_violation(P, stacks)
    if bad is not None:
        return bad
    # the values index their fibers, so int16 holds them and halves the traffic
    stacks = [tables.astype(np.int16) for tables in stacks]
    C = P.cat
    if C.is_category() and _laws_scan(P, stacks, pos, C.generators()).ok:
        return ValidationReport(True)
    bad = _typing_violation(C)
    return bad if bad is not None else _laws_scan(P, stacks, pos)


def _fiber_and_identity_violation(P: DoctrineData) -> ValidationReport | None:
    """Table sizes, fiber laws, reindex typing and identity reindexing, over
    every object and arrow."""
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
    return None


def _reindex_stacks(P: DoctrineData) -> tuple[list[np.ndarray], np.ndarray]:
    """The reindex tables stacked once, by target: row pos[f] of stacks[c]
    is the table of f, for every arrow f into c, in id order."""
    C = P.cat
    stacks, pos = [], np.empty(C.n_arrows, dtype=np.intp)
    for c in range(C.n_objects):
        F = C.into(c)
        pos[F] = np.arange(len(F))
        stacks.append(np.stack([P.reindex[f].table for f in F.tolist()]) if len(F)
                      else np.zeros((0, P.fibers[c].n), dtype=np.int32))
    return stacks, pos


def _range_violation(P: DoctrineData, stacks: list[np.ndarray]) -> ValidationReport | None:
    """The first arrow with a reindex value outside its source fiber, so
    that both law checks can index by the values."""
    C = P.cat
    sizes = np.array([fib.n for fib in P.fibers])
    first = []                      # the first such arrow into each object
    for c, tables in enumerate(stacks):
        F = C.into(c)
        outside = (tables < 0) | (tables >= sizes[C.src[F]][:, None])
        first.extend(F[outside.any(axis=1)][:1].tolist())
    if not first:
        return None
    f = min(first)
    table = P.reindex[f].table
    x = int(np.flatnonzero((table < 0) | (table >= sizes[C.src[f]]))[0])
    return ValidationReport(False, "Reindex", (C.arrows[f], P.reindex[f].dom.elements[x]),
                            f"value {int(table[x])} is outside the fiber of "
                            f"{C.objects[int(C.src[f])]}")


def _laws_scan(P: DoctrineData, stacks: list[np.ndarray], pos: np.ndarray,
               middle: np.ndarray | None = None) -> ValidationReport:
    """The homomorphism clause on every g in `middle` (default: every
    arrow), then P(g∘f) = P(f)∘P(g) for every f into its source, blockwise
    over (src g, tgt g), then src f, then rows of g, in canonical order.

    The clause is decided as adjoint existence, by the lemma: between finite
    inf-semilattices, h: L -> M preserves top and binary meets exactly when
    it has a left adjoint.  A right adjoint keeps every meet, the empty one
    (top) too; and if h keeps top and meets, each U = {b : a <= h(b)} is a
    meet-closed up-set holding top, so e(a) = ∧U is its least member.  That
    costs |P(src)|·|P(tgt)| per g, not |P(tgt)|².  So in a block that fails,
    the arrow that checking top, then meets, would name is the first that
    moves top, or else the first without an adjoint; only its meets are read.

    With the generators of a category as `middle` this decides both laws:
    identities reindex as identities (checked before), so the arrows g
    functorial against every f contain the identities, and they are closed
    under composition: for such g1, g2, P((g1∘g2)∘f) = P(g1∘(g2∘f))
    = P(g2∘f)∘P(g1) = P(f)∘P(g2)∘P(g1) = P(f)∘P(g1∘g2).  So reindexing is
    functorial, and every arrow, a composite of generators and identities,
    reindexes by a composite of homomorphisms."""
    C = P.cat
    middle = np.arange(C.n_arrows) if middle is None else np.asarray(middle)
    src, tgt = C.src[middle], C.tgt[middle]
    blocks = []
    for b, c in sorted(set(zip(src.tolist(), tgt.tolist()))):
        G = middle[(src == b) & (tgt == c)]
        blocks.append((b, c, G, stacks[c][pos[G]]))        # P(g), one row per g
    for b, c, G, R in blocks:
        fib_b, fib_c = P.fibers[b], P.fibers[c]
        no_adjoint = (left_adjoints(fib_c, fib_b, R) < 0).any(axis=1)
        if not no_adjoint.any():
            continue
        moved = np.flatnonzero(R[:, fib_c.top] != fib_b.top)
        if len(moved):
            return ValidationReport(False, "Homomorphism", (C.arrows[int(G[moved[0]])],),
                                    "top not preserved")
        k = int(np.flatnonzero(no_adjoint)[0])
        t = R[k].astype(np.intp)
        i, j = map(int, np.argwhere(t[fib_c.meet] != fib_b.meet[t[:, None], t[None, :]])[0])
        return ValidationReport(False, "Homomorphism",
                                (C.arrows[int(G[k])], fib_c.elements[i], fib_c.elements[j]),
                                "meet not preserved")
    for b, c, G, R in blocks:
        nc = P.fibers[c].n
        for a in range(C.n_objects):
            F = C.hom(a, b)
            if len(F) == 0:
                continue
            step, PF = block_rows(stacks[c].itemsize * nc * len(F)), stacks[b][pos[F]]
            for lo in range(0, len(G), step):
                lhs = stacks[c][pos[C.comp[G[lo:lo + step, None], F]]]      # P(g∘f)
                rhs = np.swapaxes(PF[:, R[lo:lo + step].astype(np.intp)], 0, 1)
                if not np.array_equal(lhs, rhs):
                    k, i, x = map(int, np.argwhere(lhs != rhs)[0])
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


def _factor_classes(C: FinCat, arrows) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Classes of the listed arrows (in id order) under mutual factorization.

    Returns the representatives (the least arrow id of each class), their
    factor masks (row i is set at every composite reps[i]∘u, the arrows that
    factor through reps[i]) and the position in `reps` of the class of each
    listed arrow, as a table over all arrow ids (-1 for arrows not listed)."""
    arrows = np.asarray(arrows, dtype=np.intp)
    rows = C.comp[arrows]
    k, u = np.nonzero(rows >= 0)
    masks = np.zeros((len(arrows), C.n_arrows), dtype=bool)
    masks[k, rows[k, u]] = True
    below = masks[:, arrows]           # below[l, k]: arrows[k] factors through arrows[l]
    first = (below & below.T).argmax(axis=1)
    firsts = np.flatnonzero(np.bincount(first, minlength=len(arrows)))
    cls = np.full(C.n_arrows, -1, dtype=np.int32)
    cls[arrows] = np.searchsorted(firsts, first)
    return arrows[firsts].tolist(), masks[firsts], cls


def subobject_poset(C: FinCat, a: int) -> tuple[FinInfSL, list[int], np.ndarray, np.ndarray]:
    """Subobjects of `a` in the window: mono classes under mutual factorization.

    Returns the fiber, the classes ordered by factorization and named by
    their representatives, and `_factor_classes` of the monos into `a`.
    Raises when the classes are not meet-closed."""
    reps, masks, cls = _factor_classes(C, [f for f in C.into(a).tolist() if is_mono(C, f)])
    fiber = lattice_from_leq(tuple(f"[{C.arrows[r]}]" for r in reps), masks[:, reps].T)
    return fiber, reps, masks, cls


def _greatest_classes(C: FinCat, reps_by_obj: list[list[int]],
                      masks_by_obj: list[np.ndarray]) -> list[np.ndarray]:
    """Reindexing of the poset reflection of a class of arrows, given by the
    representatives of the classes on each object and their factor masks:
    one table per arrow f: a -> b, in id order.

    Entry j of f's table is the position of the greatest class [g] of a such
    that f∘g factors through the j-th representative m of b, or -1 when there
    is none.  For subobjects this class is the pullback of m along f.

    One matmul per arrow: H[j, k] says that f∘g_k factors through m_j, for
    the arrows g_k into a, and bad[j, i] counts the g_k with H[j, k] set that
    do not factor through representative i; entry j is the first i with
    H[j, pos(i)] set and bad[j, i] = 0.  The counts, at most |into(a)| < 2^24,
    are exact in float32, and a float32 matmul goes through BLAS where an
    integer one does not."""
    outside, rep_pos = [], []
    for a, (reps, masks) in enumerate(zip(reps_by_obj, masks_by_obj)):
        outside.append((~masks[:, C.into(a)]).T.astype(np.float32))
        rep_pos.append(np.searchsorted(C.into(a), reps))
    tables = []
    for f in range(C.n_arrows):
        a, b = int(C.src[f]), int(C.tgt[f])
        H = masks_by_obj[b][:, C.comp[f, C.into(a)]]
        bad = H.astype(np.float32) @ outside[a]
        ok = H[:, rep_pos[a]] & (bad == 0)
        tables.append(np.where(ok.any(axis=1), ok.argmax(axis=1), -1).astype(np.int32))
    return tables


@kept_as(lambda C, pc, scope: ("sub_doctrine", id(pc), scope.core))
def sub_doctrine(C: FinCat, pc: ProductChoice, scope: WindowScope) -> DoctrineData:
    """Fibers are subobject posets (canonical representative = least arrow id),
    reindexing is pullback of monos, computed by `_greatest_classes` as the
    largest subobject whose image lands in the given one; missing pullbacks
    are window-closure errors.  Kept on C by the identity of pc, which the
    doctrine holds, and by the core; it refers to C, the one reference
    cycle of a store, freed with C by the cycle collector.

    It is also the weak-subobject doctrine, the poset reflection of the
    slices with reindexing by weak pullback (Carboni–Vitale), wherever that
    one exists.  A finite category with all finite products is a preorder:
    |hom(X, A)|^n = |hom(X, A^n)| stays bounded for every n, so
    |hom(X, A)| <= 1.  So every arrow is monic, a weak pullback is a
    pullback, and the slice reflection is the poset of subobjects.  A window
    need not have all products; the tests check the agreement there against
    the former constructor of the weak-subobject doctrine."""
    fibers, reps_by_obj, masks_by_obj = [], [], []
    for a in range(C.n_objects):
        fib, reps, masks, _ = subobject_poset(C, a)
        fibers.append(fib)
        reps_by_obj.append(reps)
        masks_by_obj.append(masks)
        for i in range(len(reps)):
            # the arrows through both reps i and j lie under their meet
            bad = (masks[i] & masks & ~masks[fib.meet[i]]).any(axis=1)
            if bad.any():
                j = int(bad.argmax())
                raise WindowClosure((C.objects[a],),
                                    f"subobject meet of {fib.elements[i]}, {fib.elements[j]}"
                                    " is not their pullback")
    reindex_maps: list[MonotoneMap] = []
    for f, table in enumerate(_greatest_classes(C, reps_by_obj, masks_by_obj)):
        a, b = int(C.src[f]), int(C.tgt[f])
        if (table < 0).any():
            m = reps_by_obj[b][int(np.argmax(table < 0))]
            raise WindowClosure((C.objects[a], C.objects[b]),
                                f"no pullback of {C.arrows[m]} along {C.arrows[f]}")
        reindex_maps.append(MonotoneMap(fibers[b], fibers[a], table))
    return DoctrineData(C, pc, scope, fibers, reindex_maps)

