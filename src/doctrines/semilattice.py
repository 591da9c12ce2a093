"""Finite inf-semilattices and monotone maps between them.

A fiber is a finite poset with a top element and binary meets, presented
extensionally: element list in canonical order, a boolean order table and a
precomputed meet table.  Meets are validated once at construction and then
used as O(1) lookups everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MalformedPresentation, Store
from .fincat import block_rows


@dataclass
class FinInfSL(Store):
    """A finite inf-semilattice: elements, order, top and meet tables;
    the tables are read-only once built.  Its store keeps the order that
    `left_adjoints` reads."""

    elements: tuple[str, ...]
    leq: np.ndarray          # bool, shape (n, n); leq[i, j] iff i <= j
    top: int                 # index of the greatest element
    meet: np.ndarray         # int, shape (n, n); meet[i, j] = index of glb
    index: dict[str, int] = field(default_factory=dict, repr=False)
    _kept: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if not self.index:
            self.index = {e: i for i, e in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise MalformedPresentation("duplicate element names in fiber")
        self.leq.flags.writeable = False
        self.meet.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.elements)

    def le(self, i: int, j: int) -> bool:
        return bool(self.leq[i, j])

    def meet_of(self, i: int, j: int) -> int:
        return int(self.meet[i, j])

    def meet_all(self, idxs) -> int:
        m = self.top
        for i in idxs:
            m = int(self.meet[m, i])
        return m

    def downset(self, i: int) -> list[int]:
        return [int(k) for k in np.flatnonzero(self.leq[:, i])]

    def validate(self) -> str | None:
        """Return None if this is a genuine inf-semilattice, else a message."""
        n = self.n
        if self.leq.shape != (n, n):
            return "leq table has wrong shape"
        if not self.leq.diagonal().all():
            i = int(np.flatnonzero(~self.leq.diagonal())[0])
            return f"order not reflexive at {self.elements[i]}"
        sym = self.leq & self.leq.T
        if (sym & ~np.eye(n, dtype=bool)).any():
            i, j = map(int, np.argwhere(sym & ~np.eye(n, dtype=bool))[0])
            return f"order not antisymmetric at ({self.elements[i]}, {self.elements[j]})"
        # a float32 matmul goes through BLAS; its counts, at most n < 2^24, are exact
        order = self.leq.astype(np.float32)
        closure = (order @ order) > 0
        if (closure & ~self.leq).any():
            i, j = map(int, np.argwhere(closure & ~self.leq)[0])
            return f"order not transitive: missing {self.elements[i]} <= {self.elements[j]}"
        if not self.leq[:, self.top].all():
            i = int(np.flatnonzero(~self.leq[:, self.top])[0])
            return f"top is not above {self.elements[i]}"
        # meet[i, j] must be the greatest lower bound of {i, j}; the first
        # row with a wrong entry is named, a missed lower bound before a
        # missed upper bound, as a row-by-row check would name it
        downsets, blocks = _pair_downsets(self.leq)
        for lo, wanted in blocks:
            m = self.meet[lo:lo + len(wanted)]
            wrong = downsets[m] != wanted
            if not wrong.any():
                continue
            i = lo + int(np.flatnonzero(wrong.any(axis=1))[0])
            m = self.meet[i]
            below = self.leq[m, i] & self.leq[m, np.arange(n)]
            if not below.all():
                j = int(np.flatnonzero(~below)[0])
                return f"meet({self.elements[i]}, {self.elements[j]}) is not a lower bound"
            j = int(np.flatnonzero(wrong[i - lo])[0])
            k = int(np.flatnonzero(self.leq[:, i] & self.leq[:, j] & ~self.leq[:, m[j]])[0])
            return (f"meet({self.elements[i]}, {self.elements[j]}) "
                    f"is not above lower bound {self.elements[k]}")
        return None

    def __eq__(self, other) -> bool:
        return (isinstance(other, FinInfSL)
                and self.elements == other.elements
                and self.top == other.top
                and np.array_equal(self.leq, other.leq)
                and np.array_equal(self.meet, other.meet))


def _pair_downsets(leq: np.ndarray):
    """The down-set criterion for meets: over a reflexive, transitive order,
    m is the greatest lower bound of i and j exactly when ↓m = ↓i ∩ ↓j, with
    ↓x = {k : k <= x}.  Returns ↓x for every x and the blocks (lo, ↓i ∩ ↓j
    for the rows i from lo on and every j), each down-set packed into one
    byte string, in blocks of rows i."""
    n = len(leq)
    down = np.ascontiguousarray(np.packbits(leq.T, axis=1))   # row x packs ↓x
    key = np.dtype((np.void, down.shape[1]))
    step = block_rows(n * down.shape[1])
    blocks = ((lo, (down[lo:lo + step, None, :] & down[None, :, :]).view(key).reshape(-1, n))
              for lo in range(0, n, step))
    return down.view(key).ravel(), blocks


def meets_from_leq(elements: tuple[str, ...], leq: np.ndarray) -> tuple[int, np.ndarray]:
    """Compute (top, meet table) from a transitive order table; raise if
    either is missing.

    By the down-set criterion, m is the meet of a and b exactly when m <= m
    and ↓m = ↓a ∩ ↓b.  The intersections are looked up among the down-sets
    of the reflexive elements, sorted stably, so that ties go to the
    smallest index.  The first pair in row-major order without a meet is
    named."""
    n = len(elements)
    tops = np.flatnonzero(leq.all(axis=0))
    if len(tops) == 0:
        raise MalformedPresentation("poset has no top element")
    top = int(tops[0])
    meet = np.empty((n, n), dtype=np.int32)
    downsets, blocks = _pair_downsets(leq)
    cand = np.flatnonzero(leq.diagonal())
    order = cand[np.argsort(downsets[cand], kind="stable")]
    for lo, wanted in blocks:
        rows = meet[lo:lo + len(wanted)]
        rows[:] = order[np.minimum(np.searchsorted(downsets[order], wanted), len(order) - 1)]
        found = downsets[rows] == wanted
        if not found.all():
            i, j = map(int, np.argwhere(~found)[0] + (lo, 0))
            what = "no meet" if (leq[:, i] & leq[:, j]).any() else "no lower bound"
            raise MalformedPresentation(
                f"elements {elements[i]}, {elements[j]} have {what}")
    return top, meet


def lattice_from_leq(elements, leq) -> FinInfSL:
    leq = np.asarray(leq, dtype=bool)
    top, meet = meets_from_leq(tuple(elements), leq)
    return FinInfSL(tuple(elements), leq, top, meet)


def chain(names) -> FinInfSL:
    """Totally ordered fiber; names are listed from bottom to top."""
    names = tuple(names)
    n = len(names)
    leq = np.zeros((n, n), dtype=bool)
    for i in range(n):
        leq[i, i:] = True
    meet = np.minimum.outer(np.arange(n), np.arange(n)).astype(np.int32)
    return FinInfSL(names, leq, n - 1, meet)


def diamond(names=("bot", "a", "b", "top")) -> FinInfSL:
    """The four-element fiber with two incomparable midpoints whose meet is bottom."""
    bot, a, b, top = range(4)
    leq = np.eye(4, dtype=bool)
    leq[bot, :] = True
    leq[a, top] = leq[b, top] = True
    meet = np.array([[bot, bot, bot, bot],
                     [bot, a, bot, a],
                     [bot, bot, b, b],
                     [bot, a, b, top]], dtype=np.int32)
    return FinInfSL(tuple(names), leq, top, meet)


def powerset(k: int, prefix: str = "s") -> FinInfSL:
    """Subsets of a k-element set as bitmasks; element i is named '<prefix><i>'."""
    n = 1 << k
    masks = np.arange(n)
    leq = (masks[:, None] & ~masks[None, :]) == 0
    meet = (masks[:, None] & masks[None, :]).astype(np.int32)
    names = tuple(f"{prefix}{m}" for m in range(n))
    return FinInfSL(names, leq, n - 1, meet)


def sub_semilattice(parent: FinInfSL, idxs: list[int]) -> FinInfSL:
    """The induced order on a subset of elements; meets must stay inside it."""
    idxs = list(idxs)
    pos = {p: i for i, p in enumerate(idxs)}
    leq = parent.leq[np.ix_(idxs, idxs)]
    n = len(idxs)
    meet = np.empty((n, n), dtype=np.int32)
    for i, p in enumerate(idxs):
        for j, q in enumerate(idxs):
            m = parent.meet_of(p, q)
            if m not in pos:
                raise MalformedPresentation(
                    f"subset not meet-closed at ({parent.elements[p]}, {parent.elements[q]})")
            meet[i, j] = pos[m]
    tops = [i for i in range(n) if leq[:, i].all()]
    if not tops:
        raise MalformedPresentation("subset has no top element")
    return FinInfSL(tuple(parent.elements[p] for p in idxs), leq, tops[0], meet)


@dataclass
class MonotoneMap:
    """A monotone function between fibers, tabled on the domain."""

    dom: FinInfSL
    cod: FinInfSL
    table: np.ndarray  # int, len == dom.n; values are cod indices; read-only

    def __post_init__(self):
        self.table.flags.writeable = False

    def __call__(self, i: int) -> int:
        return int(self.table[i])

    def is_homomorphism(self) -> bool:
        """Preserves top and binary meets (hence monotone): between finite
        inf-semilattices, exactly when it has a left adjoint."""
        return bool((left_adjoints(self.dom, self.cod, self.table[None]) >= 0).all())

    def __eq__(self, other) -> bool:
        return (isinstance(other, MonotoneMap)
                and self.dom.elements == other.dom.elements
                and self.cod.elements == other.cod.elements
                and np.array_equal(self.table, other.table))


def identity_map(lat: FinInfSL) -> MonotoneMap:
    return MonotoneMap(lat, lat, np.arange(lat.n, dtype=np.int32))


@dataclass
class NoAdjoint:
    """Witness that a map has no left adjoint at element `witness`."""

    witness: str
    upper_set: tuple[str, ...]


def left_adjoints(L: FinInfSL, M: FinInfSL, tables: np.ndarray) -> np.ndarray:
    """Per row h: L -> M of `tables`, the table of e(a) = least b with
    a <= h(b), and -1 wherever e(a) <= b ⇔ a <= h(b) fails for some b.
    That biconditional says U = {b : a <= h(b)} is ↑e(a); then e(a) is the
    member of U with the largest up-set, as every other member lies above
    it.  So that member is the candidate, and comparing its up-set with U
    decides it: |M|·|L| entries per map, in blocks of maps.  L keeps that
    order of its elements (`_by_up`) for every later call."""
    by_up, up = L.kept(("by_up",), lambda: _by_up(L))
    out = np.empty((len(tables), M.n), dtype=np.int32)
    step = block_rows(M.n * L.n)
    for lo in range(0, len(tables), step):
        upper = M.leq[:, tables[lo:lo + step, by_up]].transpose(1, 0, 2)   # a <= h(b)
        cand = by_up[upper.argmax(axis=2)]
        out[lo:lo + step] = np.where((up[cand] == upper).all(axis=2), cand, -1)
    return out


def _by_up(L: FinInfSL) -> tuple[np.ndarray, np.ndarray]:
    """L's elements, largest up-set first, and its order table's columns in that order."""
    by_up = np.argsort(-L.leq.sum(axis=1), kind="stable")
    return by_up, L.leq[:, by_up]


def left_adjoint(h: MonotoneMap) -> MonotoneMap | NoAdjoint:
    """Left adjoint of h: L -> M, i.e. e: M -> L with e(a) = min{b : a <= h(b)},
    or NoAdjoint at the first element where `left_adjoints` gives -1, with
    its upper set.  For monotone h that is the first upper set without a
    least member; when h preserves top and meets there is none."""
    L, M = h.dom, h.cod
    table = left_adjoints(L, M, h.table[None])[0]
    if (table < 0).any():
        a = int(np.argmax(table < 0))
        upper = np.flatnonzero(M.leq[a, h.table])
        return NoAdjoint(M.elements[a], tuple(L.elements[b] for b in upper))
    return MonotoneMap(M, L, table)
