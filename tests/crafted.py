"""Crafted categories and a doctrine for the negative tests."""

from __future__ import annotations

import numpy as np

from doctrines.doctrine import DoctrineData
from doctrines.errors import MalformedPresentation
from doctrines.fincat import FinCat, FunctorData, ProductChoice, Window
from doctrines.fixtures import fs2_base
from doctrines.semilattice import MonotoneMap, chain, lattice_from_leq


def build(objects, arrows, identity, compose) -> FinCat:
    """The category given by name-keyed tables: arrows is a list of (name,
    src, tgt), identity maps object name to arrow name, compose maps (g, f)
    to g∘f."""
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
    id_arr = [-1] * len(objects)
    for o, a in identity.items():
        if o not in obj_index or a not in arr_index:
            raise MalformedPresentation(f"identity entry {o} -> {a} has unknown id")
        id_arr[obj_index[o]] = arr_index[a]
    entries = []
    for (g, f), h in compose.items():
        for nm in (g, f, h):
            if nm not in arr_index:
                raise MalformedPresentation(f"compose entry mentions unknown arrow {nm}")
        entries.append((arr_index[g], arr_index[f], arr_index[h]))
    return FinCat.from_indices(objects, names, srcs, tgts, id_arr,
                               np.array(entries, dtype=np.intp).reshape(-1, 3))


def choice(C: FinCat, terminal: str,
           binary: dict[tuple[str, str], tuple[str, str, str]]) -> ProductChoice:
    """The product choice given by names: the terminal object, and per pair
    of objects the product object and its two projections."""
    o, a = C.obj_index, C.arr_index
    return ProductChoice(o[terminal], {(o[x], o[y]): (o[p], a[p1], a[p2])
                                       for (x, y), (p, p1, p2) in binary.items()})


def choice_names(C: FinCat, pc: ProductChoice) -> tuple[str, dict]:
    """The terminal and the binary products of a choice, by name."""
    ob, ar = C.objects, C.arrows
    return ob[pc.terminal], {(ob[x], ob[y]): (ob[p], ar[p1], ar[p2])
                             for (x, y), (p, p1, p2) in pc.binary.items()}


def functor(S: FinCat, T: FinCat, obj_map: dict[str, str],
            arr_map: dict[str, str]) -> FunctorData:
    """The functor data given by names; a name left out, or one T lacks,
    maps to -1, which `validate_functor` reads as an incomplete map."""
    return FunctorData(S, T, [T.obj_index.get(obj_map.get(o), -1) for o in S.objects],
                       [T.arr_index.get(arr_map.get(f), -1) for f in S.arrows])


def functor_names(F: FunctorData) -> tuple[dict[str, str], dict[str, str]]:
    """The object and arrow maps of functor data, by name."""
    S, T = F.source, F.target
    return (dict(zip(S.objects, map(T.objects.__getitem__, F.obj_map.tolist()))),
            dict(zip(S.arrows, map(T.arrows.__getitem__, F.arr_map.tolist()))))


def v_poset() -> FinCat:
    """Two incomparable elements below a top; no product of (a, b)."""
    return build(
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
    return build(
        ["A", "B", "C"],
        [("idA", "A", "A"), ("idB", "B", "B"), ("idC", "C", "C"),
         ("s", "A", "A"), ("f", "A", "B"), ("c", "A", "C")],
        {"A": "idA", "B": "idB", "C": "idC"},
        {("idA", "idA"): "idA", ("idB", "idB"): "idB", ("idC", "idC"): "idC",
         ("s", "s"): "idA", ("s", "idA"): "s", ("idA", "s"): "s",
         ("f", "s"): "f", ("f", "idA"): "f", ("idB", "f"): "f",
         ("c", "s"): "c", ("c", "idA"): "c", ("idC", "c"): "c"})


def meet_not_pullback() -> FinCat:
    """Monos m1: X -> A and m2: Y -> A whose meet among the subobjects of A
    is z: Z -> A, while w: W -> A factors through both and not through z.
    w is not monic (w∘s = w for the idempotent s), so it is no subobject."""
    ids = {o: f"id{o}" for o in "AXYZW"}
    return build(
        list("AXYZW"),
        [(ids[o], o, o) for o in "AXYZW"]
        + [("m1", "X", "A"), ("m2", "Y", "A"), ("z1", "Z", "X"), ("z2", "Z", "Y"),
           ("z", "Z", "A"), ("w1", "W", "X"), ("w2", "W", "Y"), ("w", "W", "A"),
           ("s", "W", "W")],
        ids,
        {**{(ids[o], ids[o]): ids[o] for o in "AXYZW"},
         **{(ids[t], f): f for f, t in (("m1", "A"), ("m2", "A"), ("z1", "X"), ("z2", "Y"),
                                         ("z", "A"), ("w1", "X"), ("w2", "Y"), ("w", "A"),
                                         ("s", "W"))},
         **{(f, ids[s]): f for f, s in (("m1", "X"), ("m2", "Y"), ("z1", "Z"), ("z2", "Z"),
                                         ("z", "Z"), ("w1", "W"), ("w2", "W"), ("w", "W"),
                                         ("s", "W"))},
         ("m1", "z1"): "z", ("m2", "z2"): "z", ("m1", "w1"): "w", ("m2", "w2"): "w",
         ("w1", "s"): "w1", ("w2", "s"): "w2", ("w", "s"): "w", ("s", "s"): "s"})


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
    W = Window(cat, pc, scope)
    o2 = cat.obj_index["2"]
    _, (p1, p2, p3) = W.prod3(o2, o2, o2)
    r12, r23, r13 = W.pair(p1, p2), W.pair(p2, p3), W.pair(p1, p3)
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


def nofrobenius() -> DoctrineData:
    """Doctored fibers over the finite-set base on which reciprocity fails:
    P(2) is the chain lo < mid < hi, P(4) the chain no < yes, and reindexing
    along the first projection 4 -> 2 sends lo and mid to no.  Its left
    adjoint sends no to lo and yes to hi, so at alpha = mid, beta = yes the
    projection of P(alpha) ∧ beta is lo while alpha ∧ ∃beta is mid.  Other
    identities reindex as identities and every other arrow to top, so the
    left adjoints along the other core projections exist and satisfy
    reciprocity.  Deliberately not a valid doctrine."""
    cat, pc, scope, _ = fs2_base()
    one = lattice_from_leq(("s0",), np.ones((1, 1), dtype=bool))
    fibers = [{"2": chain(("lo", "mid", "hi")), "4": chain(("no", "yes"))}.get(o, one)
              for o in cat.objects]
    two = cat.obj_index["2"]
    p1 = pc.binary[two, two][1]
    reindex = []
    for f in range(cat.n_arrows):
        fa, fb = fibers[int(cat.src[f])], fibers[int(cat.tgt[f])]
        if f == p1:
            table = np.array([0, 0, 1], dtype=np.int32)
        elif f == int(cat.id_arr[cat.src[f]]):
            table = np.arange(fb.n, dtype=np.int32)
        else:
            table = np.full(fb.n, fa.top, dtype=np.int32)
        reindex.append(MonotoneMap(fb, fa, table))
    return DoctrineData(cat, pc, scope, fibers, reindex)


def chain_file(n: int) -> str:
    """A doctrine file of one object A with A×A = A and identity
    reindexing, whose fiber is the chain e0 < ... < e(n-1)."""
    els = [f"e{i}" for i in range(n)]
    return "\n".join(
        ["base {", "  objects A ;", "  arrow idA A A", "  identity A = idA",
         "  compose idA idA = idA", "  terminal A", "  product A A = A idA idA", "}",
         "fiber A {", "  elements " + " ".join(els) + " ;", f"  top {els[-1]}",
         *(f"  leq {x} {y}" for x, y in zip(els, els[1:])), "}",
         "reindex idA {", *(f"  {e} -> {e}" for e in els), "}", "core { A }"]) + "\n"
