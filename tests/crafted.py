"""Crafted categories and a doctrine for the negative tests."""

from __future__ import annotations

import numpy as np

from doctrines.doctrine import DoctrineData
from doctrines.fincat import FinCat, Window
from doctrines.fixtures import fs2_base
from doctrines.semilattice import MonotoneMap, chain, lattice_from_leq


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
