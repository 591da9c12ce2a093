"""Expected values computed from plain finite sets, apart from the program.

Nothing here imports `doctrines`.  The fs2 doctrine is rebuilt from its
description: objects are the sets {0, ..., q-1} for q in SIZES, an arrow is
a map each of whose output bits is an input bit, a negated input bit or a
constant, composition is composition of maps, the fiber over q is the
powerset of q (element `s<mask>`) and reindexing is preimage.  A relation on
a carrier q lives over the product q×q, whose element (x, y) is x·q + y.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

SIZES = (0, 1, 2, 4, 8)
CORE = (0, 1, 2)


def _bits(q: int) -> int:
    return q.bit_length() - 1 if q else 0


def _coordinates(a: int) -> list[tuple[int, ...]]:
    """Maps a -> {0, 1}: each input bit, each negated input bit, 0 and 1."""
    out = []
    for i in range(_bits(a)):
        out.append(tuple((x >> i) & 1 for x in range(a)))
    for i in range(_bits(a)):
        out.append(tuple(1 - ((x >> i) & 1) for x in range(a)))
    out += [(0,) * a, (1,) * a]
    return list(dict.fromkeys(out))


def maps(a: int, b: int) -> list[tuple[int, ...]]:
    """Value tables of the window maps a -> b, in lexicographic order."""
    if a == 0:
        return [()]
    if b == 0:
        return []
    if b == 1:
        return [(0,) * a]
    coords = _coordinates(a)
    out = {tuple(sum(c[x] << i for i, c in enumerate(combo)) for x in range(a))
           for combo in itertools.product(coords, repeat=_bits(b))}
    return sorted(out)


def arrow_name(a: int, b: int, vals: tuple[int, ...]) -> str:
    if a == b and vals == tuple(range(a)):
        return f"id{a}"
    code = sum(v * max(b, 1) ** i for i, v in enumerate(vals))
    return f"a{a}_{b}_{code}"


@dataclass
class FinSetWindow:
    """The fs2 base as arrays: arrow i has source size src[i], target size
    tgt[i] and value table vals[i]; comp[g, f] is g∘f or -1."""

    names: list[str]
    src: np.ndarray
    tgt: np.ndarray
    vals: list[tuple[int, ...]]
    comp: np.ndarray
    index: dict[str, int]

    def hom(self, a: int, b: int) -> np.ndarray:
        return np.flatnonzero((self.src == a) & (self.tgt == b))

    def preimage(self, f: int) -> np.ndarray:
        """Reindexing along f as a table from masks over tgt to masks over src."""
        masks = np.arange(1 << int(self.tgt[f]), dtype=np.int64)
        pre = np.zeros_like(masks)
        for x, y in enumerate(self.vals[f]):
            pre |= ((masks >> y) & 1) << x
        return pre


def fs2_window() -> FinSetWindow:
    names, src, tgt, vals = [], [], [], []
    start: dict[tuple[int, int], int] = {}
    codes: dict[tuple[int, int], np.ndarray] = {}
    tables: dict[tuple[int, int], np.ndarray] = {}
    for a in SIZES:
        for b in SIZES:
            block = maps(a, b)
            start[(a, b)] = len(names)
            for v in block:
                names.append(arrow_name(a, b, v))
                src.append(a)
                tgt.append(b)
                vals.append(v)
            t = np.array(block, dtype=np.int64).reshape(len(block), a)
            tables[(a, b)] = t
            codes[(a, b)] = t @ (max(b, 1) ** np.arange(a, dtype=np.int64))
    n = len(names)
    comp = np.full((n, n), -1, dtype=np.int64)
    for a, b, c in itertools.product(SIZES, repeat=3):
        F, G = tables[(a, b)], tables[(b, c)]
        if len(F) == 0 or len(G) == 0:
            continue
        # (g∘f)(x) = g(f(x)), coded like the target block
        h = (G[:, F] @ (max(c, 1) ** np.arange(a, dtype=np.int64))) if a else \
            np.zeros((len(G), len(F)), dtype=np.int64)
        order = np.argsort(codes[(a, c)])
        pos = order[np.searchsorted(codes[(a, c)][order], h)]
        comp[start[(b, c)]:start[(b, c)] + len(G),
             start[(a, b)]:start[(a, b)] + len(F)] = pos + start[(a, c)]
    return FinSetWindow(names, np.array(src), np.array(tgt), vals, comp,
                        {nm: i for i, nm in enumerate(names)})


def products() -> list[tuple[int, int, int, tuple[int, ...], tuple[int, ...]]]:
    """Chosen products (a, b, a·b, pr1, pr2) inside the window; the pair
    (x, y) of a×b is the element x·b + y."""
    out = []
    for a in SIZES:
        for b in SIZES:
            p = a * b
            if p not in SIZES:
                continue
            if a == 0 or b == 0:
                out.append((a, b, 0, (), ()))
            else:
                out.append((a, b, p, tuple(x // b for x in range(p)),
                            tuple(x % b for x in range(p))))
    return out


# ---------------------------------------------------------------------------
# relations on core carriers
# ---------------------------------------------------------------------------


def relation_mask(q: int, pairs) -> int:
    return sum(1 << (x * q + y) for x, y in pairs)


def equality_mask(q: int) -> int:
    """The diagonal of q×q."""
    return relation_mask(q, [(x, x) for x in range(q)])


def _pairs(q: int, mask: int) -> set[tuple[int, int]]:
    return {(x, y) for x in range(q) for y in range(q) if mask >> (x * q + y) & 1}


def partial_equivalences(q: int) -> list[set[tuple[int, int]]]:
    """Symmetric and transitive relations on q."""
    out = []
    for mask in range(1 << (q * q)):
        r = _pairs(q, mask)
        if all((y, x) in r for x, y in r) and \
                all((x, z) in r for x, y in r for y2, z in r if y == y2):
            out.append(r)
    return out


def quotient_size(q: int, r: set[tuple[int, int]]) -> int:
    """Number of classes of r on its domain {x : x r x}."""
    return len({frozenset(y for y in range(q) if (x, y) in r)
                for x in range(q) if (x, x) in r})


@dataclass(frozen=True)
class Expected:
    equality: dict[str, str]
    tp_objects: int
    tp_arrows: int
    tp_iso_classes: int
    reflexive_objects: int
    qp_objects: int
    qp_arrows: int


def fs2_expected() -> Expected:
    """Counts for the relation and quotient completions of fs2.

    Objects of the relation completion are the partial equivalence relations
    on core carriers, and its arrows are the maps between their quotient sets
    (every map between core carriers is a window arrow).  Isomorphism classes
    follow the quotient size.  The quotient completion keeps the reflexive
    relations, with the same arrows."""
    pers = [(q, r) for q in CORE for r in partial_equivalences(q)]
    sizes = [quotient_size(q, r) for q, r in pers]
    refl = [quotient_size(q, r) for q, r in pers
            if all((x, x) in r for x in range(q))]
    return Expected(
        equality={str(q): f"s{equality_mask(q)}" for q in CORE},
        tp_objects=len(pers),
        tp_arrows=sum(n ** m for m in sizes for n in sizes),
        tp_iso_classes=len(set(sizes)),
        reflexive_objects=len(refl),
        qp_objects=len(refl),
        qp_arrows=sum(n ** m for m in refl for n in refl),
    )


def tensor_mask(a: int, b: int, ra: int, rb: int) -> int:
    """The tensor of relations ra on a and rb on b, as a relation on a×b."""
    ab = a * b
    pa, pb = _pairs(a, ra), _pairs(b, rb)
    return relation_mask(ab, [(x1 * b + y1, x2 * b + y2)
                              for x1, x2 in pa for y1, y2 in pb])


def first_tensor_mismatch(equality: dict[int, int]) -> tuple[str, str, str, str] | None:
    """First core pair (a, b), in row order, whose equality at a·b differs
    from the tensor of the equalities at a and b, as the equality-tensor law
    reports it: (a, b, equality at a·b, tensor).  Pairs whose fourfold
    product leaves the window are skipped."""
    for a in CORE:
        for b in CORE:
            ab = a * b
            if ab * ab not in SIZES or a * a not in SIZES or b * b not in SIZES:
                continue
            lhs = equality[ab]
            rhs = tensor_mask(a, b, equality[a], equality[b])
            if lhs != rhs:
                return (str(a), str(b), f"s{lhs}", f"s{rhs}")
    return None
