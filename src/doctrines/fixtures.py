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
NOEXT: doctored fibers over the finite-set base where the transitive
  elements above a reflexive one form an antichain, so no smallest
  transitive extension exists.
"""

from __future__ import annotations

import itertools

import numpy as np

from .doctrine import DoctrineData
from .fincat import FinCat, ProductChoice, WindowScope, validate_products
from .semilattice import FinInfSL, MonotoneMap, chain, diamond, identity_map, lattice_from_leq


# ---------------------------------------------------------------------------
# TRIV
# ---------------------------------------------------------------------------


def triv() -> DoctrineData:
    cat = FinCat.build(
        ["T"], [("idT", "T", "T")], {"T": "idT"}, {("idT", "idT"): "idT"})
    pc = ProductChoice("T", {("T", "T"): ("T", "idT", "idT")})
    rep = validate_products(cat, pc)
    assert rep.ok, rep
    fib = diamond()
    return DoctrineData(cat, pc, WindowScope(("T",)), [fib], [identity_map(fib)])


# ---------------------------------------------------------------------------
# CHAIN and its doctored variants
# ---------------------------------------------------------------------------


def _chain_base() -> tuple[FinCat, ProductChoice]:
    cat = FinCat.build(
        ["u", "v"],
        [("idu", "u", "u"), ("idv", "v", "v"), ("m", "u", "v")],
        {"u": "idu", "v": "idv"},
        {("idu", "idu"): "idu", ("idv", "idv"): "idv",
         ("m", "idu"): "m", ("idv", "m"): "m"})
    pc = ProductChoice("v", {
        ("u", "u"): ("u", "idu", "idu"),
        ("u", "v"): ("u", "idu", "m"),
        ("v", "u"): ("u", "m", "idu"),
        ("v", "v"): ("v", "idv", "idv"),
    })
    rep = validate_products(cat, pc)
    assert rep.ok, rep
    return cat, pc


def chain_fixture() -> DoctrineData:
    cat, pc = _chain_base()
    fu = chain(("u0", "u1"))
    fv = chain(("v0", "v1", "v2"))
    rm = MonotoneMap(fv, fu, np.array([0, 1, 1], dtype=np.int32))
    return DoctrineData(cat, pc, WindowScope(("u", "v")),
                        [fu, fv], [identity_map(fu), identity_map(fv), rm])


def nochoice() -> DoctrineData:
    """Valid doctrine on u <= v: the relation `a` over v×u = u is total but no
    arrow v -> u exists, so the rule of choice fails with witness a."""
    cat, pc = _chain_base()
    fu = diamond()
    fv = chain(("v0", "v1"))
    rm = MonotoneMap(fv, fu, np.array([fu.index["bot"], fu.index["top"]], dtype=np.int32))
    return DoctrineData(cat, pc, WindowScope(("u", "v")),
                        [fu, fv], [identity_map(fu), identity_map(fv), rm])


def mixedfail() -> DoctrineData:
    """Monotone, non-homomorphic reindexing (top goes to b): the upper set of
    `a` along the adjoint search is empty, so the existential witness fails."""
    cat, pc = _chain_base()
    fu = diamond()
    fv = chain(("v0", "v1"))
    rm = MonotoneMap(fv, fu, np.array([fu.index["bot"], fu.index["b"]], dtype=np.int32))
    return DoctrineData(cat, pc, WindowScope(("u", "v")),
                        [fu, fv], [identity_map(fu), identity_map(fv), rm])


# ---------------------------------------------------------------------------
# finite-set windows
# ---------------------------------------------------------------------------

_COORD_KINDS = ("bit", "neg", "c0", "c1")


def _coord_functions(size: int) -> list[tuple[int, ...]]:
    """Maps size -> 2 with every value a bit, a negated bit, or a constant."""
    k = size.bit_length() - 1
    out: list[tuple[int, ...]] = []
    for i in range(k):
        out.append(tuple((x >> i) & 1 for x in range(size)))
    for i in range(k):
        out.append(tuple(1 - ((x >> i) & 1) for x in range(size)))
    out.append(tuple(0 for _ in range(size)))
    out.append(tuple(1 for _ in range(size)))
    # deduplicate while preserving determinism (size 1 collapses bits away)
    seen: dict[tuple[int, ...], None] = {}
    for f in out:
        seen.setdefault(f, None)
    return list(seen)


def _finset_arrows(sizes: list[int]) -> dict[tuple[int, int], list[tuple[int, ...]]]:
    """Value tables of every window arrow, grouped by (src size, tgt size),
    sorted by value code inside each block."""
    homs: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for a in sizes:
        for b in sizes:
            if a == 0:
                homs[(a, b)] = [()]
                continue
            if b == 0:
                homs[(a, b)] = []
                continue
            j = b.bit_length() - 1
            coords = _coord_functions(a)
            fs = []
            for combo in itertools.product(coords, repeat=j):
                fs.append(tuple(sum(c[x] << i for i, c in enumerate(combo)) for x in range(a)))
            if j == 0:
                fs = [tuple(0 for _ in range(a))]
            fs = sorted(set(fs))
            homs[(a, b)] = fs
    return homs


def _code(vals: tuple[int, ...], base: int) -> int:
    c = 0
    for i, v in enumerate(vals):
        c += v * (base ** i)
    return c


def finset_window(sizes: list[int], core: list[int]) -> tuple[FinCat, ProductChoice, WindowScope, dict]:
    """Finite-set window category over the given (power-of-two or zero) sizes.

    Returns the category, chosen products, scope, and a lookup dict mapping
    (src size, tgt size, value tuple) to the arrow name."""
    sizes = sorted(sizes)
    for s in sizes:
        if s != 0 and (s & (s - 1)) != 0:
            raise ValueError("window sizes must be powers of two (or zero)")
    homs = _finset_arrows(sizes)
    names: list[str] = []
    srcs: list[int] = []
    tgts: list[int] = []
    obj_names = [str(s) for s in sizes]
    obj_of_size = {s: i for i, s in enumerate(sizes)}
    lookup: dict[tuple[int, int, tuple[int, ...]], str] = {}
    values: dict[tuple[int, int], np.ndarray] = {}
    for a in sizes:
        for b in sizes:
            block = homs[(a, b)]
            arr = np.array(block, dtype=np.int64).reshape(len(block), a)
            values[(a, b)] = arr
            for vals in block:
                if a == b and vals == tuple(range(a)):
                    nm = f"id{a}"
                else:
                    nm = f"a{a}_{b}_{_code(vals, max(b, 1))}"
                lookup[(a, b, vals)] = nm
                names.append(nm)
                srcs.append(obj_of_size[a])
                tgts.append(obj_of_size[b])
    n = len(names)
    src = np.array(srcs, dtype=np.int32)
    tgt = np.array(tgts, dtype=np.int32)
    arr_index = {nm: i for i, nm in enumerate(names)}
    id_arr = np.array([arr_index[f"id{s}"] for s in sizes], dtype=np.int32)
    # composition, blockwise: g over (b, c) after f over (a, b)
    comp = np.full((n, n), -1, dtype=np.int32)
    base_idx: dict[tuple[int, int], int] = {}
    pos = 0
    for a in sizes:
        for b in sizes:
            base_idx[(a, b)] = pos
            pos += len(homs[(a, b)])
    codes: dict[tuple[int, int], np.ndarray] = {}
    for key, arr in values.items():
        b = max(key[1], 1)
        pw = b ** np.arange(arr.shape[1], dtype=np.int64)
        codes[key] = arr @ pw if arr.shape[1] else np.zeros(len(arr), dtype=np.int64)
    for a in sizes:
        for b in sizes:
            F = values[(a, b)]
            if len(F) == 0:
                continue
            for c in sizes:
                G = values[(b, c)]
                if len(G) == 0:
                    continue
                if a == 0:
                    comp_codes = np.zeros((len(G), len(F)), dtype=np.int64)
                elif b == 0:
                    continue
                else:
                    V = G[:, F]                    # (nG, nF, a)
                    pw = max(c, 1) ** np.arange(a, dtype=np.int64)
                    comp_codes = V @ pw
                tgt_codes = codes[(a, c)]
                order = np.argsort(tgt_codes, kind="stable")
                found = order[np.searchsorted(tgt_codes[order], comp_codes)]
                comp[np.ix_(range(base_idx[(b, c)], base_idx[(b, c)] + len(G)),
                            range(base_idx[(a, b)], base_idx[(a, b)] + len(F)))] = \
                    found + base_idx[(a, c)]
    cat = FinCat(tuple(obj_names), tuple(names), src, tgt, id_arr, comp)

    def name_of(a: int, b: int, fn) -> str:
        return lookup[(a, b, tuple(fn))]

    binary: dict[tuple[str, str], tuple[str, str, str]] = {}
    have = set(sizes)
    for a in sizes:
        for b in sizes:
            p = a * b
            if p not in have:
                continue
            if a == 0 or b == 0:
                binary[(str(a), str(b))] = ("0", name_of(0, a, ()), name_of(0, b, ()))
            elif a == 1:
                binary[(str(a), str(b))] = (str(b), name_of(b, 1, [0] * b), f"id{b}")
            elif b == 1:
                binary[(str(a), str(b))] = (str(a), f"id{a}", name_of(a, 1, [0] * a))
            else:
                pr1 = name_of(p, a, [x // b for x in range(p)])
                pr2 = name_of(p, b, [x % b for x in range(p)])
                binary[(str(a), str(b))] = (str(p), pr1, pr2)
    if 1 not in have:
        raise ValueError("window needs a terminal (size-1) object")
    pc = ProductChoice("1", binary)
    scope = WindowScope(tuple(str(c) for c in core))
    return cat, pc, scope, lookup


_FS2_CACHE: dict = {}


def fs2_base() -> tuple[FinCat, ProductChoice, WindowScope, dict]:
    """The validated finite-set window on sizes {0,1,2,4,8}, core {0,1,2}."""
    if "base" not in _FS2_CACHE:
        cat, pc, scope, lookup = finset_window([0, 1, 2, 4, 8], [0, 1, 2])
        rep = validate_products(cat, pc)
        assert rep.ok, rep
        _FS2_CACHE["base"] = (cat, pc, scope, lookup)
    return _FS2_CACHE["base"]


def powerset_fiber(k: int) -> FinInfSL:
    from .semilattice import powerset
    return powerset(k)


def fs2() -> DoctrineData:
    """Full powerset fibers with preimage reindexing over the finite-set base."""
    if "doctrine" in _FS2_CACHE:
        return _FS2_CACHE["doctrine"]
    cat, pc, scope, lookup = fs2_base()
    sizes = [int(o) for o in cat.objects]
    fibers = [powerset_fiber(s) for s in sizes]
    vals_of: dict[int, tuple[int, ...]] = {}
    for (a, b, vals), nm in lookup.items():
        vals_of[cat.arr_index[nm]] = vals
    reindex: list[MonotoneMap] = []
    for f in range(cat.n_arrows):
        a, b = int(cat.src[f]), int(cat.tgt[f])
        sa, sb = sizes[a], sizes[b]
        masks = np.arange(1 << sb, dtype=np.int32)
        pre = np.zeros(1 << sb, dtype=np.int32)
        vals = vals_of[f]
        for i in range(sa):
            pre |= ((masks >> vals[i]) & 1) << i
        reindex.append(MonotoneMap(fibers[b], fibers[a], pre))
    P = DoctrineData(cat, pc, scope, fibers, reindex)
    _FS2_CACHE["doctrine"] = P
    return P


def fs2_names() -> dict:
    """Handy FS2 element names: masks for the 2-carrier relation fiber."""
    return {
        "diag2": "s9",      # {(0,0),(1,1)} as bits 2x+y in {0,3}
        "full2": "s15",
        "empty": "s0",
    }


# ---------------------------------------------------------------------------
# crafted categories for negative tests
# ---------------------------------------------------------------------------


def v_poset() -> FinCat:
    """Two incomparable elements below a top; no product of (a, b)."""
    return FinCat.build(
        ["a", "b", "t"],
        [("ida", "a", "a"), ("idb", "b", "b"), ("idt", "t", "t"),
         ("at", "a", "t"), ("bt", "b", "t")],
        {"a": "ida", "b": "idb", "t": "idt"},
        {("ida", "ida"): "ida", ("idb", "idb"): "idb", ("idt", "idt"): "idt",
         ("at", "ida"): "at", ("idt", "at"): "at",
         ("bt", "idb"): "bt", ("idt", "bt"): "bt"})


def nofact_category() -> FinCat:
    """f: A->B is neither mono (f∘s = f) nor regular epi (the invariant arrow
    c blocks every coequalizer), and no intermediate factors it: image
    factorization is unavailable."""
    return FinCat.build(
        ["A", "B", "C"],
        [("idA", "A", "A"), ("idB", "B", "B"), ("idC", "C", "C"),
         ("s", "A", "A"), ("f", "A", "B"), ("c", "A", "C")],
        {"A": "idA", "B": "idB", "C": "idC"},
        {("idA", "idA"): "idA", ("idB", "idB"): "idB", ("idC", "idC"): "idC",
         ("s", "s"): "idA", ("s", "idA"): "s", ("idA", "s"): "s",
         ("f", "s"): "f", ("f", "idA"): "f", ("idB", "f"): "f",
         ("c", "s"): "c", ("c", "idA"): "c", ("idC", "c"): "c"})


def noext() -> tuple[DoctrineData, dict[str, str]]:
    """Doctored fibers over the finite-set base: the designated reindexing
    along <p1,p3> demotes `zeta`, so the transitive elements above it are the
    antichain {t1, t2} (plus top) with no minimum.  Deliberately not a valid
    doctrine: with homomorphism reindexing, transitives are meet-closed and a
    smallest transitive extension always exists."""
    cat, pc, scope, lookup = fs2_base()
    one = lattice_from_leq(("s0",), np.ones((1, 1), dtype=bool))
    two = chain(("lo", "hi"))
    m_names = ("bot", "delta", "zeta", "t1", "t2", "top")
    bot, delta, zeta, t1, t2, top = range(6)
    leq = np.eye(6, dtype=bool)
    leq[bot, :] = True
    leq[delta, [zeta, t1, t2, top]] = True
    leq[zeta, [t1, t2, top]] = True
    leq[t1, top] = leq[t2, top] = True
    M = lattice_from_leq(m_names, leq)
    fibers = []
    for o in cat.objects:
        fibers.append({"0": one, "1": one, "2": two, "4": M, "8": M}[o])
    from .fincat import Window
    W = Window(cat, pc, scope)
    o2 = cat.obj_index["2"]
    r12 = W.pair3(o2, o2, o2, 1, 2)
    r23 = W.pair3(o2, o2, o2, 2, 3)
    r13 = W.pair3(o2, o2, o2, 1, 3)
    sigma = np.array([bot, delta, delta, t1, t2, top], dtype=np.int32)
    ident = np.arange(6, dtype=np.int32)
    reindex = []
    for f in range(cat.n_arrows):
        a, b = int(cat.src[f]), int(cat.tgt[f])
        fa, fb = fibers[a], fibers[b]
        if f == r12 or f == r23:
            reindex.append(MonotoneMap(fb, fa, ident.copy()))
        elif f == r13:
            reindex.append(MonotoneMap(fb, fa, sigma.copy()))
        elif f == int(cat.id_arr[a]) and a == b:
            reindex.append(MonotoneMap(fb, fa, np.arange(fb.n, dtype=np.int32)))
        else:
            reindex.append(MonotoneMap(fb, fa, np.full(fb.n, fa.top, dtype=np.int32)))
    P = DoctrineData(cat, pc, scope, fibers, reindex)
    return P, {"zeta": "zeta", "delta": "delta", "t1": "t1", "t2": "t2"}


BUILTIN_FIXTURES = {
    "triv": triv,
    "chain": chain_fixture,
    "fs2": fs2,
    "nochoice": nochoice,
    "mixedfail": mixedfail,
}
