"""Canonical fixtures.

TRIV: one-object base with the four-element diamond fiber.
CHAIN: poset base u <= v with chain fibers and truncating reindex; element 0
  of the fiber over v deliberately has no comprehension.
FS2: a finite-set window with objects of sizes 0,1,2,4,8, core {0,1,2} and
  full powerset fibers with preimage reindexing.  Arrows are all coordinate
  maps (each output bit a bit, a negated bit, or a constant), which is the
  closure of the projections and the core maps under composition and cone
  mediators.
NOCHOICE: valid doctrine where a total relation has no graphed base arrow.
MIXEDFAIL: monotone but non-homomorphic reindexing; left adjoints genuinely
  fail to exist there (with meet-preserving reindexing they never can).
"""

from __future__ import annotations

import numpy as np

from .doctrine import DoctrineData
from .fincat import FinCat, ProductChoice, WindowScope
from .semilattice import MonotoneMap, chain, diamond, identity_map, powerset


# ---------------------------------------------------------------------------
# TRIV
# ---------------------------------------------------------------------------


def triv() -> DoctrineData:
    cat = FinCat.from_indices(["T"], ["idT"], [0], [0], [0], np.array([[0, 0, 0]]))
    pc = ProductChoice(0, {(0, 0): (0, 0, 0)})     # T×T = T, both projections idT
    fib = diamond()
    return DoctrineData(cat, pc, WindowScope((0,)), [fib], [identity_map(fib)])


# ---------------------------------------------------------------------------
# CHAIN and its doctored variants
# ---------------------------------------------------------------------------


def _chain_base() -> tuple[FinCat, ProductChoice]:
    u, v, idu, idv, m = 0, 1, 0, 1, 2               # the indices of the names below
    cat = FinCat.from_indices(
        ["u", "v"], ["idu", "idv", "m"], [u, v, u], [u, v, v], [idu, idv],
        np.array([(idu, idu, idu), (idv, idv, idv), (m, idu, m), (idv, m, m)]))
    pc = ProductChoice(v, {
        (u, u): (u, idu, idu),
        (u, v): (u, idu, m),
        (v, u): (u, m, idu),
        (v, v): (v, idv, idv),
    })
    return cat, pc


def chain_fixture() -> DoctrineData:
    cat, pc = _chain_base()
    fu = chain(("u0", "u1"))
    fv = chain(("v0", "v1", "v2"))
    rm = MonotoneMap(fv, fu, np.array([0, 1, 1], dtype=np.int32))
    return DoctrineData(cat, pc, WindowScope((0, 1)),
                        [fu, fv], [identity_map(fu), identity_map(fv), rm])


def nochoice() -> DoctrineData:
    """Valid doctrine on u <= v: the relation `a` over v×u = u is total but no
    arrow v -> u exists, so the rule of choice fails with witness a."""
    cat, pc = _chain_base()
    fu = diamond()
    fv = chain(("v0", "v1"))
    rm = MonotoneMap(fv, fu, np.array([fu.index["bot"], fu.index["top"]], dtype=np.int32))
    return DoctrineData(cat, pc, WindowScope((0, 1)),
                        [fu, fv], [identity_map(fu), identity_map(fv), rm])


def mixedfail() -> DoctrineData:
    """Monotone, non-homomorphic reindexing (top goes to b): the upper set of
    `a` along the adjoint search is empty, so the existential witness fails."""
    cat, pc = _chain_base()
    fu = diamond()
    fv = chain(("v0", "v1"))
    rm = MonotoneMap(fv, fu, np.array([fu.index["bot"], fu.index["b"]], dtype=np.int32))
    return DoctrineData(cat, pc, WindowScope((0, 1)),
                        [fu, fv], [identity_map(fu), identity_map(fv), rm])


# ---------------------------------------------------------------------------
# finite-set windows
# ---------------------------------------------------------------------------


def _coord_functions(size: int) -> np.ndarray:
    """Maps size -> 2 with every value a bit, a negated bit, or a constant,
    one row each (size >= 1)."""
    x = np.arange(size, dtype=np.int64)
    bits = (x[None, :] >> np.arange(size.bit_length() - 1)[:, None]) & 1
    return np.concatenate([bits, 1 - bits, np.zeros((1, size), np.int64),
                           np.ones((1, size), np.int64)])


def _finset_arrows(sizes: list[int]) -> dict[tuple[int, int], np.ndarray]:
    """Value tables of every window arrow, one row per arrow, grouped by
    (src size, tgt size) and sorted by value tuple inside each block."""
    homs: dict[tuple[int, int], np.ndarray] = {}
    for a in sizes:
        for b in sizes:
            # the empty map out of 0, no map into 0, the constant map into 1
            vals = np.zeros((1 if a == 0 or b > 0 else 0, a), dtype=np.int64)
            if a > 0 and b > 1:
                coords = _coord_functions(a)
                for i in range(b.bit_length() - 1):     # output bit i
                    vals = (vals[:, None, :] + (coords[None, :, :] << i)).reshape(-1, a)
            # the values are below b, so the key orders rows as tuples
            key = vals @ (max(b, 1) ** np.arange(a - 1, -1, -1, dtype=np.int64))
            homs[(a, b)] = vals[np.unique(key, return_index=True)[1]]
    return homs


def finset_window(sizes: list[int], core: list[int]) -> tuple[FinCat, ProductChoice, WindowScope, dict]:
    """Finite-set window category over the given (power-of-two or zero) sizes.

    Returns the category, chosen products, scope, and a lookup dict mapping
    (src size, tgt size, value tuple) to the arrow name.  Arrows are named
    by their code, the value tuple read as digits in base max(tgt, 1), least
    significant first.

    A window arrow is already fixed by its values at the probes, the input
    0 and the one-bit inputs 2^i, since each output bit is a bit, a negated
    bit or a constant of the input; its key reads those values as digits.
    The keys of the composites g∘f of a block of (b, c) arrows g after a
    block of (a, b) arrows f are one float64 matmul G @ M, with
    G[g, y] = g(y) and M[y, f] the sum of c^k over the probes p_k with
    f(p_k) = y.  They stay below c^(1 + log2 a), far below 2^53, so the
    float result is exact, and a dense table per (a, c) block turns them
    into arrows."""
    sizes = sorted(sizes)
    for s in sizes:
        if s != 0 and (s & (s - 1)) != 0:
            raise ValueError("window sizes must be powers of two (or zero)")
    homs = _finset_arrows(sizes)
    names: list[str] = []
    srcs: list[int] = []
    tgts: list[int] = []
    obj_names = [str(s) for s in sizes]
    lookup: dict[tuple[int, int, tuple[int, ...]], str] = {}
    index_of: dict[tuple[int, int, tuple[int, ...]], int] = {}
    start: dict[tuple[int, int], int] = {}
    probes = {a: [0] + [1 << i for i in range(a.bit_length() - 1)] if a else [] for a in sizes}
    arrow_of_key: dict[tuple[int, int], np.ndarray] = {}
    for (a, b), vals in homs.items():
        codes = vals @ (max(b, 1) ** np.arange(a, dtype=np.int64))
        is_id = (a == b) & (vals == np.arange(a)).all(axis=1)
        block = [f"id{a}" if i else f"a{a}_{b}_{c}" for i, c in zip(is_id.tolist(), codes.tolist())]
        tuples = [(a, b, v) for v in map(tuple, vals.tolist())]
        lookup.update(zip(tuples, block))
        index_of.update(zip(tuples, range(len(names), len(names) + len(block))))
        start[(a, b)] = len(names)
        names.extend(block)
        srcs.extend([sizes.index(a)] * len(block))
        tgts.extend([sizes.index(b)] * len(block))
        arrow_of_key[(a, b)] = np.full(max(b, 1) ** len(probes[a]), -1, dtype=np.int32)
        keys = vals[:, probes[a]] @ (max(b, 1) ** np.arange(len(probes[a]), dtype=np.int64))
        arrow_of_key[(a, b)][keys] = np.arange(len(vals)) + start[(a, b)]
    n = len(names)
    id_arr = np.array([names.index(f"id{s}") for s in sizes], dtype=np.int32)
    comp = np.full((n, n), -1, dtype=np.int32)
    for (a, b), F in homs.items():
        for c in sizes:
            G = homs[(b, c)]
            if len(F) == 0 or len(G) == 0:
                continue
            M = np.zeros((b, len(F)))
            np.add.at(M, (F[:, probes[a]], np.arange(len(F))[:, None]),
                      float(max(c, 1)) ** np.arange(len(probes[a])))
            keys = (G.astype(np.float64) @ M).astype(np.intp)
            comp[start[(b, c)]:start[(b, c)] + len(G),
                 start[(a, b)]:start[(a, b)] + len(F)] = arrow_of_key[(a, c)][keys]
    cat = FinCat(tuple(obj_names), tuple(names), np.array(srcs, dtype=np.int32),
                 np.array(tgts, dtype=np.int32), id_arr, comp)

    def arrow(a: int, b: int, fn) -> int:
        return index_of[(a, b, tuple(fn))]

    ob = {s: i for i, s in enumerate(sizes)}
    binary: dict[tuple[int, int], tuple[int, int, int]] = {}
    for a in sizes:
        for b in sizes:
            p = a * b
            if p not in ob:
                continue
            if a == 0 or b == 0:
                pr1, pr2 = arrow(0, a, ()), arrow(0, b, ())
            elif a == 1:
                pr1, pr2 = arrow(b, 1, [0] * b), int(id_arr[ob[b]])
            elif b == 1:
                pr1, pr2 = int(id_arr[ob[a]]), arrow(a, 1, [0] * a)
            else:
                pr1 = arrow(p, a, [x // b for x in range(p)])
                pr2 = arrow(p, b, [x % b for x in range(p)])
            binary[(ob[a], ob[b])] = (ob[p], pr1, pr2)
    if 1 not in ob:
        raise ValueError("window needs a terminal (size-1) object")
    pc = ProductChoice(ob[1], binary)
    scope = WindowScope(tuple(ob[c] for c in core))
    return cat, pc, scope, lookup


_FS2_CACHE: dict = {}


def fs2_base() -> tuple[FinCat, ProductChoice, WindowScope, dict]:
    """The finite-set window on sizes {0,1,2,4,8}, core {0,1,2}."""
    if "base" not in _FS2_CACHE:
        _FS2_CACHE["base"] = finset_window([0, 1, 2, 4, 8], [0, 1, 2])
    return _FS2_CACHE["base"]


def fs2() -> DoctrineData:
    """Full powerset fibers with preimage reindexing over the finite-set base:
    along f: a -> b the subset mask s goes to the mask of {x : f(x) in s},
    the tables of a (src, tgt) block computed at once, an input bit at a time."""
    if "doctrine" in _FS2_CACHE:
        return _FS2_CACHE["doctrine"]
    cat, pc, scope, _ = fs2_base()
    sizes = [int(o) for o in cat.objects]
    fibers = [powerset(s) for s in sizes]
    reindex: list[MonotoneMap] = []
    for (a, b), vals in _finset_arrows(sizes).items():      # in arrow id order
        pre = np.zeros((len(vals), 1 << b), dtype=np.int32)
        for x, fx in enumerate(vals.T.astype(np.int32)):
            pre |= ((np.arange(1 << b, dtype=np.int32) >> fx[:, None]) & 1) << x
        reindex.extend(MonotoneMap(fibers[sizes.index(b)], fibers[sizes.index(a)], table)
                       for table in pre)
    P = DoctrineData(cat, pc, scope, fibers, reindex)
    _FS2_CACHE["doctrine"] = P
    return P


BUILTIN_FIXTURES = {
    "triv": triv,
    "chain": chain_fixture,
    "fs2": fs2,
    "nochoice": nochoice,
    "mixedfail": mixedfail,
}
