"""Completions of a doctrine, built as explicit finite categories.

Four constructions and two comparison functors:

* the total category of elements (points) with its restricted-downset
  doctrine and the embedding at top elements;
* the category of symmetric-transitive relations and functional relations
  between them (quotient-style exact completion), built from the relational
  calculus;
* its full subcategory on reflexive relations, with the graph embedding of
  the base;
* the category of reflexive relations and classes of base arrows (quotient
  completion by maps), with descent fibers, and the comparison functor into
  the functional-relation category.

Object identity everywhere is literal pair equality; isomorphism classes are
computed on demand and reported separately, never silently quotiented.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allegory import RelArrow, rel_compose
from .doctrine import DoctrineData, exists_along
from .errors import DesNotClosed, FormulaMismatch, MalformedPresentation, ResourceCap
from .fincat import (FinCat, FunctorData, ProductChoice, WindowScope,
                     full_subcategory, greedy_product_core, is_mono, product_cone,
                     terminal_object, validate_category, validate_products)
from .semilattice import FinInfSL, MonotoneMap, NoAdjoint, sub_semilattice
from .structure import ElementaryWitness, ExistentialWitness

DEFAULT_FIBER_CAP = 512
DEFAULT_ENUM_CAP = 1 << 20


@dataclass
class Caps:
    fibers: int = DEFAULT_FIBER_CAP
    enum: int = DEFAULT_ENUM_CAP


# ---------------------------------------------------------------------------
# category of points
# ---------------------------------------------------------------------------


@dataclass
class GrCompletion:
    cat: FinCat
    pc: ProductChoice
    scope: WindowScope
    doctrine: DoctrineData          # restricted-downset fibers over cat
    embed: FunctorData              # base -> cat, at top elements
    obj_of: dict[tuple[int, int], int]   # (base object, element) -> object index


def build_gr(P: DoctrineData, caps: Caps = Caps()) -> GrCompletion:
    """Objects are pairs (A, a) with a in P(A); an arrow over f: A -> B exists
    iff a <= P_f(b).  Products are carried by base products with meets of the
    reindexed components; fibers are downsets with reindex-and-meet action."""
    C = P.cat
    est = 0
    down_count = [P.fibers[o].leq.sum(axis=0) for o in range(C.n_objects)]
    for f in range(C.n_arrows):
        a, b = int(C.src[f]), int(C.tgt[f])
        est += int(down_count[a][P.r(f).table].sum())
        if est > caps.enum:
            raise ResourceCap("points category arrows", est, caps.enum)
    objs: list[tuple[int, int]] = []
    for o in range(C.n_objects):
        for el in range(P.fibers[o].n):
            objs.append((o, el))
    obj_of = {pair: i for i, pair in enumerate(objs)}
    obj_names = [f"({C.objects[o]}|{P.fibers[o].elements[el]})" for o, el in objs]
    names: list[str] = []
    srcs: list[int] = []
    tgts: list[int] = []
    arr_of: dict[tuple[int, int, int], int] = {}
    for f in range(C.n_arrows):
        a, b = int(C.src[f]), int(C.tgt[f])
        rt = P.r(f).table
        for eb in range(P.fibers[b].n):
            for ea in P.fibers[a].downset(int(rt[eb])):
                i = len(names)
                arr_of[(f, ea, eb)] = i
                names.append(f"({C.arrows[f]}|{P.fibers[a].elements[ea]}"
                             f"|{P.fibers[b].elements[eb]})")
                srcs.append(obj_of[(a, ea)])
                tgts.append(obj_of[(b, eb)])
    n = len(names)
    comp = np.full((n, n), -1, dtype=np.int32)
    by_src_obj: dict[int, list[tuple[int, int, int, int]]] = {}
    for (f, ea, eb), i in arr_of.items():
        by_src_obj.setdefault(obj_of[(int(C.src[f]), ea)], []).append((f, ea, eb, i))
    for (f, ea, eb), i in arr_of.items():
        tgt_obj = obj_of[(int(C.tgt[f]), eb)]
        for (g, eb2, ec, j) in by_src_obj.get(tgt_obj, ()):
            comp[j, i] = arr_of[(int(C.comp[g, f]), ea, ec)]
    id_arr = np.array([arr_of[(int(C.id_arr[o]), el, el)] for o, el in objs], dtype=np.int32)
    cat = FinCat(tuple(obj_names), tuple(names),
                 np.array(srcs, dtype=np.int32), np.array(tgts, dtype=np.int32),
                 id_arr, comp)
    # chosen products carried by the base
    W = P.window
    term_obj = C.obj_index[P.products.terminal]
    pc = ProductChoice(obj_names[obj_of[(term_obj, P.fibers[term_obj].top)]], {})
    for (an, bn), (pn, p1n, p2n) in P.products.binary.items():
        a, b = C.obj_index[an], C.obj_index[bn]
        p = C.obj_index[pn]
        p1, p2 = C.arr_index[p1n], C.arr_index[p2n]
        r1, r2 = P.r(p1).table, P.r(p2).table
        for ea in range(P.fibers[a].n):
            for eb in range(P.fibers[b].n):
                ep = P.fibers[p].meet_of(int(r1[ea]), int(r2[eb]))
                pc.binary[(obj_names[obj_of[(a, ea)]], obj_names[obj_of[(b, eb)]])] = (
                    obj_names[obj_of[(p, ep)]],
                    names[arr_of[(p1, ep, ea)]],
                    names[arr_of[(p2, ep, eb)]])
    rep = validate_products(cat, pc)
    if not rep.ok:
        raise MalformedPresentation(f"points category products: {rep.message} {rep.witness}")
    core = tuple(obj_names[obj_of[(C.obj_index[o], el)]]
                 for o in P.scope.core for el in range(P.fiber_named(o).n))
    scope = WindowScope(core)
    # restricted-downset fibers
    fibers: list[FinInfSL] = []
    for o, el in objs:
        fib = P.fibers[o]
        fibers.append(sub_semilattice(fib, fib.downset(el)))
    reindex: list[MonotoneMap] = []
    for (f, ea, eb), i in sorted(arr_of.items(), key=lambda kv: kv[1]):
        a, b = int(C.src[f]), int(C.tgt[f])
        fib_a, fib_b = P.fibers[a], P.fibers[b]
        dn_b = fib_b.downset(eb)
        dn_a = fib_a.downset(ea)
        pos_a = {g: i2 for i2, g in enumerate(dn_a)}
        rt = P.r(f).table
        table = np.array([pos_a[fib_a.meet_of(ea, int(rt[g]))] for g in dn_b],
                         dtype=np.int32)
        reindex.append(MonotoneMap(fibers[obj_of[(b, eb)]], fibers[obj_of[(a, ea)]], table))
    hat = DoctrineData(cat, pc, scope, fibers, reindex)
    embed = FunctorData(
        C, cat,
        {C.objects[o]: obj_names[obj_of[(o, P.fibers[o].top)]] for o in range(C.n_objects)},
        {C.arrows[f]: names[arr_of[(f, P.fibers[int(C.src[f])].top,
                                    P.fibers[int(C.tgt[f])].top)]]
         for f in range(C.n_arrows)})
    return GrCompletion(cat, pc, scope, hat, embed, obj_of)


# ---------------------------------------------------------------------------
# functional-relation completion
# ---------------------------------------------------------------------------


@dataclass
class TCompletion:
    cat: FinCat
    pc: ProductChoice | None
    scope: WindowScope              # greedy product-closed core
    objects: list[tuple[int, int]]  # (carrier object, relation element)
    obj_of: dict[tuple[int, int], int]
    arrows: list[tuple[int, int, int]]   # (src obj idx, tgt obj idx, element)
    arr_of: dict[tuple[int, int, int], int]
    condition_v: str = "strict"

    def object_name(self, carrier: int, rel: int) -> str:
        return self.cat.objects[self.obj_of[(carrier, rel)]]


def per_objects(P: DoctrineData) -> list[tuple[int, int]]:
    """All symmetric-transitive relation objects over core carriers."""
    W = P.window
    out = []
    for a in P.core_idx():
        aa, _, _ = W.prod(a, a)
        fib = P.fibers[aa]
        sw = P.r(W.swap(a, a)).table
        m12 = P.r(W.pair3(a, a, a, 1, 2)).table
        m23 = P.r(W.pair3(a, a, a, 2, 3)).table
        m13 = P.r(W.pair3(a, a, a, 1, 3)).table
        aaa = W.prod3(a, a, a)[0]
        fib3 = P.fibers[aaa]
        for rel in range(fib.n):
            if not fib.le(rel, int(sw[rel])):
                continue
            lhs = fib3.meet_of(int(m12[rel]), int(m23[rel]))
            if not fib3.le(lhs, int(m13[rel])):
                continue
            out.append((a, rel))
    return out


def functional_relations(P: DoctrineData, W: ExistentialWitness,
                         x: tuple[int, int], y: tuple[int, int],
                         condition_v: str = "strict") -> list[int]:
    """Elements of P(A×B) that are relational, compatible, single-valued and
    total from (A, rho) to (B, sigma); the totality direction is governed by
    condition_v ("strict" demands it on the source, "alt" on the target)."""
    (a, rho), (b, sig) = x, y
    win = P.window
    ab, pr1, pr2 = win.prod(a, b)
    fib = P.fibers[ab]
    n = fib.n
    ok = np.ones(n, dtype=bool)
    # (i) contained in the domains of both relations
    p11 = P.r(win.pair(pr1, pr1)).table
    p22 = P.r(win.pair(pr2, pr2)).table
    aa = win.prod(a, a)[0]
    bb = win.prod(b, b)[0]
    dom = fib.meet_of(int(p11[rho]), int(p22[sig]))
    ok &= fib.leq[:, dom]
    # (ii) compatible on the left: over A×A×B
    aab = win.prod3(a, a, b)[0]
    fib_aab = P.fibers[aab]
    q12 = P.r(win.pair3(a, a, b, 1, 2)).table
    q23 = P.r(win.pair3(a, a, b, 2, 3)).table
    q13 = P.r(win.pair3(a, a, b, 1, 3)).table
    lhs = fib_aab.meet[int(q12[rho]), q23]
    ok &= fib_aab.leq[lhs, q13]
    # (iii) compatible on the right and (iv) single-valued: over A×B×B
    abb = win.prod3(a, b, b)[0]
    fib_abb = P.fibers[abb]
    t12 = P.r(win.pair3(a, b, b, 1, 2)).table
    t23 = P.r(win.pair3(a, b, b, 2, 3)).table
    t13 = P.r(win.pair3(a, b, b, 1, 3)).table
    lhs3 = fib_abb.meet[t12, int(t23[sig])]
    ok &= fib_abb.leq[lhs3, t13]
    lhs4 = fib_abb.meet[t12, t13]
    ok &= fib_abb.leq[lhs4, int(t23[sig])]
    # (v) totality
    by_pair = {(i.a1, i.a2): i for i in W.instances}
    inst = by_pair[(a, b)]
    if condition_v == "strict":
        dgA = P.r(win.diag(a)).table
        e1 = W.adjoints[inst.pr1]
        ok &= P.fibers[a].leq[int(dgA[rho]), e1.table]
    elif condition_v == "alt":
        dgB = P.r(win.diag(b)).table
        e2 = W.adjoints[inst.pr2]
        ok &= P.fibers[b].leq[int(dgB[sig]), e2.table]
    else:
        raise MalformedPresentation(f"unknown condition_v {condition_v!r}")
    return [int(i) for i in np.flatnonzero(ok)]


def build_tp(P: DoctrineData, E: ElementaryWitness, W: ExistentialWitness,
             condition_v: str = "strict", caps: Caps = Caps()) -> TCompletion:
    """The category of symmetric-transitive relations and functional
    relations; composition is relational composition and the identity of an
    object is its own relation.  Laws are re-verified wholesale."""
    for o in range(P.cat.n_objects):
        if P.fibers[o].n > caps.fibers:
            raise ResourceCap("fiber size", P.fibers[o].n, caps.fibers)
    objs = per_objects(P)
    obj_of = {pair: i for i, pair in enumerate(objs)}
    C = P.cat
    obj_names = [f"({C.objects[a]}|{P.fibers[P.window.prod(a, a)[0]].elements[rel]})"
                 for a, rel in objs]
    arrows: list[tuple[int, int, int]] = []
    arr_of: dict[tuple[int, int, int], int] = {}
    names: list[str] = []
    srcs, tgts = [], []
    for xi, x in enumerate(objs):
        for yi, y in enumerate(objs):
            pairs = len(P.fibers[P.window.prod(x[0], y[0])[0]].elements)
            if pairs > caps.enum:
                raise ResourceCap("hom candidates", pairs, caps.enum)
            for el in functional_relations(P, W, x, y, condition_v):
                arr_of[(xi, yi, el)] = len(arrows)
                arrows.append((xi, yi, el))
                fib = P.fibers[P.window.prod(x[0], y[0])[0]]
                names.append(f"({obj_names[xi]}~{obj_names[yi]}|{fib.elements[el]})")
                srcs.append(xi)
                tgts.append(yi)
    n = len(arrows)
    comp = np.full((n, n), -1, dtype=np.int32)
    for i, (xi, yi, el1) in enumerate(arrows):
        for j, (yj, zi, el2) in enumerate(arrows):
            if yj != yi:
                continue
            r = rel_compose(P, RelArrow(objs[xi][0], objs[yi][0], el1),
                            RelArrow(objs[yj][0], objs[zi][0], el2))
            key = (xi, zi, r.el)
            if key not in arr_of:
                raise MalformedPresentation(
                    f"composite of {names[i]} and {names[j]} is not a functional relation"
                    " (broken witness)")
            comp[j, i] = arr_of[key]
    id_arr = np.empty(len(objs), dtype=np.int32)
    for oi, (a, rel) in enumerate(objs):
        key = (oi, oi, rel)
        if key not in arr_of:
            raise MalformedPresentation(
                f"relation of {obj_names[oi]} is not an arrow (broken witness)")
        id_arr[oi] = arr_of[key]
    cat = FinCat(tuple(obj_names), tuple(names),
                 np.array(srcs, dtype=np.int32), np.array(tgts, dtype=np.int32),
                 id_arr, comp)
    rep = validate_category(cat)
    if not rep.ok:
        raise MalformedPresentation(
            f"relation completion is not a category: {rep.message} at {rep.witness}")
    pc = choose_products(cat, caps)
    scope = WindowScope(greedy_product_core(cat, caps.enum))
    return TCompletion(cat, pc, scope, objs, obj_of, arrows, arr_of, condition_v)


def choose_products(cat: FinCat, caps: Caps = Caps()) -> ProductChoice | None:
    """Search a terminal and one product per object pair (where they exist);
    None when the category has no terminal."""
    terminal = terminal_object(cat)
    if terminal is None:
        return None
    pc = ProductChoice(cat.objects[terminal], {})
    for a in range(cat.n_objects):
        for b in range(cat.n_objects):
            cone = product_cone(cat, a, b, caps.enum)
            if cone is not None:
                pc.binary[(cat.objects[a], cat.objects[b])] = (
                    cat.objects[cone.apex],
                    cat.arrows[cone.legs[0]], cat.arrows[cone.legs[1]])
    rep = validate_products(cat, pc)
    if not rep.ok:
        raise MalformedPresentation(f"searched products failed validation: {rep.message}")
    return pc


# ---------------------------------------------------------------------------
# reflexive-relation subcategory and the graph embedding
# ---------------------------------------------------------------------------


@dataclass
class ERCompletion:
    cat: FinCat
    pc: ProductChoice | None
    scope: WindowScope
    tp: TCompletion
    objects: list[tuple[int, int]]
    obj_of: dict[tuple[int, int], int]
    inclusion: FunctorData          # into tp.cat


def is_reflexive(P: DoctrineData, E: ElementaryWitness, a: int, rel: int) -> bool:
    aa = P.window.prod(a, a)[0]
    return P.fibers[aa].le(E.delta[a], rel)


def build_erp(P: DoctrineData, E: ElementaryWitness, tp: TCompletion,
              caps: Caps = Caps()) -> ERCompletion:
    """Full subcategory of the relation completion on reflexive relations.

    Membership by delta <= rho is asserted equivalent to top <= P_diag(rho)
    on every candidate."""
    W = P.window
    keep = []
    for oi, (a, rel) in enumerate(tp.objects):
        aa = W.prod(a, a)[0]
        by_delta = P.fibers[aa].le(E.delta[a], rel)
        dg = P.r(W.diag(a)).table
        by_unit = int(dg[rel]) == P.fibers[a].top
        if by_delta != by_unit:
            raise FormulaMismatch("reflexivity test",
                                  f"delta<=rho disagrees with top<=P_diag(rho) "
                                  f"at {tp.cat.objects[oi]}")
        if by_delta:
            keep.append(oi)
    objects = [tp.objects[oi] for oi in keep]
    cat = full_subcategory(tp.cat, keep)
    pc = choose_products(cat, caps)
    scope = WindowScope(greedy_product_core(cat, caps.enum))
    inclusion = FunctorData(cat, tp.cat, {nm: nm for nm in cat.objects},
                            {nm: nm for nm in cat.arrows})
    obj_of = {pair: i for i, pair in enumerate(objects)}
    return ERCompletion(cat, pc, scope, tp, objects, obj_of, inclusion)


def core_subcategory(P: DoctrineData) -> FinCat:
    """Full subcategory of the base on the core objects."""
    return full_subcategory(P.cat, P.core_idx())


def functor_D(P: DoctrineData, E: ElementaryWitness, er: ERCompletion) -> FunctorData:
    """Graph embedding of the (core of the) base: A goes to (A, delta), an
    arrow to the image of top along its graph, computed both as an
    existential image and as a reindexed equality, with equality asserted."""
    C = P.cat
    W = P.window
    base = core_subcategory(P)
    obj_map: dict[str, str] = {}
    arr_map: dict[str, str] = {}
    for a in P.core_idx():
        obj_map[C.objects[a]] = er.cat.objects[er.obj_of[(a, E.delta[a])]]
    for fname in base.arrows:
        f = C.arr_index[fname]
        a, b = int(C.src[f]), int(C.tgt[f])
        graph = W.pair(int(C.id_arr[a]), f)          # <id, f>: A -> A×B
        e = exists_along(P, graph)
        if isinstance(e, NoAdjoint):
            raise FormulaMismatch("graph functor",
                                  f"no existential along <id,{fname}>")
        via_exists = int(e.table[P.fibers[a].top])
        fxid = W.times(f, int(C.id_arr[b]))          # f×id: A×B -> B×B
        via_delta = int(P.r(fxid).table[E.delta[b]])
        if via_exists != via_delta:
            raise FormulaMismatch(
                "graph functor",
                f"existential image and reindexed equality differ on {fname}")
        xi = er.obj_of[(a, E.delta[a])]
        yi = er.obj_of[(b, E.delta[b])]
        key = (er.tp.obj_of[(a, E.delta[a])], er.tp.obj_of[(b, E.delta[b])], via_exists)
        if key not in er.tp.arr_of:
            raise MalformedPresentation(f"graph of {fname} is not a functional relation")
        arr_map[fname] = er.tp.cat.arrows[er.tp.arr_of[key]]
    return FunctorData(base, er.cat, obj_map, arr_map)


# ---------------------------------------------------------------------------
# quotient completion by maps
# ---------------------------------------------------------------------------


@dataclass
class QCompletion:
    cat: FinCat
    pc: ProductChoice | None
    scope: WindowScope
    objects: list[tuple[int, int]]
    obj_of: dict[tuple[int, int], int]
    classes: list[tuple[int, int, tuple[int, ...]]]   # (src obj, tgt obj, members)
    doctrine: DoctrineData                            # descent fibers over cat
    des_elements: list[list[int]]                     # fiber indices into P(A)


def build_qp(P: DoctrineData, E: ElementaryWitness, W: ExistentialWitness,
             caps: Caps = Caps()) -> QCompletion:
    """Objects are reflexive relations over core carriers; arrows are classes
    of base arrows respecting the relations, identified when related as a
    pair.  The identification is verified to be an equivalence relation, and
    descent fibers are verified to inherit meets and top."""
    C = P.cat
    win = P.window
    objs = [(a, rel) for (a, rel) in per_objects(P) if is_reflexive(P, E, a, rel)]
    obj_of = {pair: i for i, pair in enumerate(objs)}
    obj_names = [f"({C.objects[a]}|{P.fibers[win.prod(a, a)[0]].elements[rel]})"
                 for a, rel in objs]
    classes: list[tuple[int, int, tuple[int, ...]]] = []
    class_of: dict[tuple[int, int, int], int] = {}
    names: list[str] = []
    srcs, tgts = [], []
    for xi, (a, rho) in enumerate(objs):
        for yi, (b, sig) in enumerate(objs):
            fib_aa = P.fibers[win.prod(a, a)[0]]
            good = []
            for f in C.hom(a, b):
                f = int(f)
                fxf = win.times(f, f)
                if fib_aa.le(rho, int(P.r(fxf).table[sig])):
                    good.append(f)
            rel_pairs: set[tuple[int, int]] = set()
            for f in good:
                for g in good:
                    fxg = win.times(f, g)
                    if fib_aa.le(rho, int(P.r(fxg).table[sig])):
                        rel_pairs.add((f, g))
            for f in good:
                if (f, f) not in rel_pairs:
                    raise MalformedPresentation("arrow identification is not reflexive")
            for (f, g) in rel_pairs:
                if (g, f) not in rel_pairs:
                    raise MalformedPresentation(
                        f"arrow identification is not symmetric at ({C.arrows[f]}, {C.arrows[g]})")
            for (f, g) in rel_pairs:
                for (g2, h) in rel_pairs:
                    if g2 == g and (f, h) not in rel_pairs:
                        raise MalformedPresentation(
                            "arrow identification is not transitive at "
                            f"({C.arrows[f]}, {C.arrows[g]}, {C.arrows[h]})")
            placed: set[int] = set()
            for f in good:
                if f in placed:
                    continue
                members = tuple(sorted(g for g in good if (f, g) in rel_pairs))
                placed.update(members)
                ci = len(classes)
                classes.append((xi, yi, members))
                for g in members:
                    class_of[(xi, yi, g)] = ci
                names.append(f"[{C.arrows[members[0]]}]({obj_names[xi]}~{obj_names[yi]})")
                srcs.append(xi)
                tgts.append(yi)
    n = len(classes)
    comp = np.full((n, n), -1, dtype=np.int32)
    for i, (xi, yi, mem1) in enumerate(classes):
        for j, (yj, zi, mem2) in enumerate(classes):
            if yj != yi:
                continue
            reps = {class_of[(xi, zi, int(C.comp[g, f]))] for f in mem1 for g in mem2}
            if len(reps) != 1:
                raise MalformedPresentation(
                    "composition of arrow classes is not representative-independent")
            comp[j, i] = reps.pop()
    id_arr = np.array([class_of[(oi, oi, int(C.id_arr[a]))]
                       for oi, (a, _) in enumerate(objs)], dtype=np.int32)
    cat = FinCat(tuple(obj_names), tuple(names),
                 np.array(srcs, dtype=np.int32), np.array(tgts, dtype=np.int32),
                 id_arr, comp)
    rep = validate_category(cat)
    if not rep.ok:
        raise MalformedPresentation(
            f"quotient completion is not a category: {rep.message} at {rep.witness}")
    # descent fibers
    fibers: list[FinInfSL] = []
    des_elements: list[list[int]] = []
    for oi, (a, rho) in enumerate(objs):
        fib_a = P.fibers[a]
        aa, pr1, pr2 = win.prod(a, a)
        fib_aa = P.fibers[aa]
        r1, r2 = P.r(pr1).table, P.r(pr2).table
        des = [al for al in range(fib_a.n)
               if fib_aa.le(fib_aa.meet_of(int(r1[al]), rho), int(r2[al]))]
        if fib_a.top not in des:
            raise DesNotClosed(obj_names[oi], "top fails descent")
        for x in des:
            for y in des:
                if fib_a.meet_of(x, y) not in des:
                    raise DesNotClosed(
                        obj_names[oi],
                        f"meet of {fib_a.elements[x]}, {fib_a.elements[y]} fails descent")
        try:
            fibers.append(sub_semilattice(fib_a, des))
        except MalformedPresentation as exc:
            raise DesNotClosed(obj_names[oi], str(exc))
        des_elements.append(des)
    reindex: list[MonotoneMap] = []
    for ci, (xi, yi, members) in enumerate(classes):
        (a, rho), (b, sig) = objs[xi], objs[yi]
        pos_a = {al: i2 for i2, al in enumerate(des_elements[xi])}
        tables = []
        for f in members:
            rt = P.r(f).table
            tab = []
            for al in des_elements[yi]:
                v = int(rt[al])
                if v not in pos_a:
                    raise DesNotClosed(obj_names[xi],
                                       f"reindex along {C.arrows[f]} leaves descent")
                tab.append(pos_a[v])
            tables.append(tuple(tab))
        if len(set(tables)) != 1:
            raise MalformedPresentation(
                f"descent reindexing differs across representatives of {names[ci]}")
        reindex.append(MonotoneMap(fibers[yi], fibers[xi],
                                   np.array(tables[0], dtype=np.int32)))
    pc = choose_products(cat, caps)
    scope = WindowScope(greedy_product_core(cat, caps.enum))
    doct = DoctrineData(cat, pc if pc is not None else ProductChoice(cat.objects[0], {}),
                        scope, fibers, reindex)
    return QCompletion(cat, pc, scope, objs, obj_of, classes, doct, des_elements)


# ---------------------------------------------------------------------------
# comparison functor from the quotient completion
# ---------------------------------------------------------------------------


@dataclass
class LFunctorResult:
    functor: FunctorData
    form_comparisons: int    # instances where both published forms were computed
    skipped: list[str]       # arrows where the first form's existential is missing


def functor_L(P: DoctrineData, E: ElementaryWitness, W: ExistentialWitness,
              q: QCompletion, er: ERCompletion) -> LFunctorResult:
    """Identity on objects; a class [f]: (A,rho) -> (B,sigma) goes to the
    relation got by spanning rho against sigma pulled back along f.

    Both published forms are evaluated: the reindex-only-then-project form
    over A×A×B is authoritative; the form over A×B×B that first takes an
    existential along <p1, f∘p2> is compared whenever that adjoint exists,
    and disagreement is a hard error."""
    C = P.cat
    win = P.window
    obj_map = {q.cat.objects[i]: er.cat.objects[er.obj_of[pair]]
               for i, pair in enumerate(q.objects)}
    arr_map: dict[str, str] = {}
    comparisons = 0
    skipped: list[str] = []
    for ci, (xi, yi, members) in enumerate(q.classes):
        (a, rho), (b, sig) = q.objects[xi], q.objects[yi]
        values = set()
        for f in members:
            values.add(_l_value(P, win, a, b, rho, sig, f))
        if len(values) != 1:
            raise FormulaMismatch("comparison functor",
                                  f"value differs across representatives of {q.cat.arrows[ci]}")
        val = values.pop()
        # second computation: existential image of the relation along <p1, f∘p2>
        f0 = members[0]
        aa, a1, a2 = win.prod(a, a)
        gr = win.pair(a1, C.compose(f0, a2))          # <p1, f∘p2>: A×A -> A×B
        e_gr = exists_along(P, gr)
        if isinstance(e_gr, NoAdjoint):
            skipped.append(q.cat.arrows[ci])
        else:
            abb = win.prod3(a, b, b)[0]
            fib_abb = P.fibers[abb]
            u12 = P.r(win.pair3(a, b, b, 1, 2)).table
            u23 = P.r(win.pair3(a, b, b, 2, 3)).table
            lifted = fib_abb.meet_of(int(u12[int(e_gr.table[rho])]), int(u23[sig]))
            e13 = exists_along(P, win.pair3(a, b, b, 1, 3))
            if isinstance(e13, NoAdjoint):
                skipped.append(q.cat.arrows[ci])
            else:
                other = int(e13.table[lifted])
                comparisons += 1
                if other != val:
                    raise FormulaMismatch(
                        "comparison functor",
                        f"published forms disagree on {q.cat.arrows[ci]}")
        key = (er.tp.obj_of[(a, rho)], er.tp.obj_of[(b, sig)], val)
        if key not in er.tp.arr_of:
            raise MalformedPresentation(
                f"comparison image of {q.cat.arrows[ci]} is not a functional relation")
        arr_map[q.cat.arrows[ci]] = er.tp.cat.arrows[er.tp.arr_of[key]]
    F = FunctorData(q.cat, er.cat, obj_map, arr_map)
    # identities must go to identities (the relation itself)
    for oi, (a, rho) in enumerate(q.objects):
        lid = arr_map[q.cat.arrows[int(q.cat.id_arr[oi])]]
        if lid != er.cat.arrows[int(er.cat.id_arr[er.obj_of[(a, rho)]])]:
            raise FormulaMismatch("comparison functor", "identity class not sent to identity")
    return LFunctorResult(F, comparisons, skipped)


def _l_value(P: DoctrineData, win, a: int, b: int, rho: int, sig: int, f: int) -> int:
    """The reindex-only form over A×A×B: meet rho (front square) with sigma
    pulled back along f on the middle coordinate, then drop the middle."""
    C = P.cat
    aab = win.prod3(a, a, b)[0]
    fib = P.fibers[aab]
    _, (p1, p2, p3) = win.prod3(a, a, b)
    r12 = P.r(win.pair(p1, p2)).table
    rf23 = P.r(win.pair(C.compose(f, p2), p3)).table
    lifted = fib.meet_of(int(r12[rho]), int(rf23[sig]))
    e13 = exists_along(P, win.pair(p1, p3))
    if isinstance(e13, NoAdjoint):
        raise MalformedPresentation("no existential along the outer projection")
    return int(e13.table[lifted])


# ---------------------------------------------------------------------------
# transitive extensions
# ---------------------------------------------------------------------------


@dataclass
class NoExtension:
    witness_antichain: tuple[str, ...]

    def __bool__(self) -> bool:
        return False


def transitive_extension(P: DoctrineData, c: int, zeta: int,
                         delta: int | None = None) -> int | NoExtension:
    """Smallest transitive element above zeta in P(C×C), by exhausting the
    transitive elements above it; NoExtension carries the minimal antichain
    when no least one exists.  With homomorphism reindexing the transitive
    elements are meet-closed, so the extension always exists there."""
    win = P.window
    cc = win.prod(c, c)[0]
    fib = P.fibers[cc]
    if delta is not None and not fib.le(delta, zeta):
        raise MalformedPresentation("relation is not reflexive against the given equality")
    m12 = P.r(win.pair3(c, c, c, 1, 2)).table
    m23 = P.r(win.pair3(c, c, c, 2, 3)).table
    m13 = P.r(win.pair3(c, c, c, 1, 3)).table
    fib3 = P.fibers[win.prod3(c, c, c)[0]]
    cands = []
    for xi in range(fib.n):
        if not fib.le(zeta, xi):
            continue
        if fib3.le(fib3.meet_of(int(m12[xi]), int(m23[xi])), int(m13[xi])):
            cands.append(xi)
    for xi in cands:
        if all(fib.le(xi, other) for other in cands):
            return xi
    minimal = [xi for xi in cands
               if not any(other != xi and fib.le(other, xi) for other in cands)]
    return NoExtension(tuple(fib.elements[xi] for xi in minimal))


# ---------------------------------------------------------------------------
# subobjects of the completion and the canonical fiber comparison
# ---------------------------------------------------------------------------


def tp_sub_restriction(tp: TCompletion, er: ERCompletion,
                       caps: Caps = Caps()) -> DoctrineData:
    """The subobject doctrine of the relation completion, restricted to the
    reflexive objects (subobjects are computed in the full completion, where
    the canonical fiber comparison below is an isomorphism)."""
    if tp.pc is None or er.pc is None:
        raise MalformedPresentation("completion has no terminal; cannot index subobjects")
    from .doctrine import sub_doctrine
    full = sub_doctrine(tp.cat, tp.pc, WindowScope(tp.cat.objects))
    fibers = []
    for i, pair in enumerate(er.objects):
        fibers.append(full.fibers[tp.obj_of[pair]])
    reindex = []
    for name in er.cat.arrows:
        reindex.append(full.reindex[tp.cat.arr_index[name]])
    return DoctrineData(er.cat, er.pc, WindowScope(er.cat.objects), fibers, reindex)


def iota_iso(P: DoctrineData, E: ElementaryWitness, tp: TCompletion,
             sub_er: DoctrineData, er: ERCompletion) -> dict[int, MonotoneMap]:
    """For each core A, the canonical map P(A) -> Sub(A, delta): an element
    goes to the class of the mono carried by its restriction of equality.
    Verified to be an order isomorphism; a failure is a broken witness."""
    from .doctrine import _class_of, subobject_poset
    C = P.cat
    win = P.window
    out: dict[int, MonotoneMap] = {}
    for a in P.core_idx():
        t_obj = tp.obj_of[(a, E.delta[a])]
        er_obj = er.obj_of[(a, E.delta[a])]
        fib_sub = sub_er.fibers[er_obj]
        _, reps, rep_fsets = subobject_poset(tp.cat, t_obj)
        fib_a = P.fibers[a]
        aa, p1, p2 = win.prod(a, a)
        fib_aa = P.fibers[aa]
        r1, r2 = P.r(p1).table, P.r(p2).table
        table = np.empty(fib_a.n, dtype=np.int32)
        for al in range(fib_a.n):
            rho = fib_aa.meet_all([E.delta[a], int(r1[al]), int(r2[al])])
            if (a, rho) not in tp.obj_of:
                raise MalformedPresentation(
                    f"restricted equality of {fib_a.elements[al]} is not an object")
            key = (tp.obj_of[(a, rho)], t_obj, rho)
            if key not in tp.arr_of:
                raise MalformedPresentation(
                    f"restricted equality of {fib_a.elements[al]} is not an arrow")
            m = tp.arr_of[key]
            if not is_mono(tp.cat, m):
                raise MalformedPresentation(
                    f"restricted equality of {fib_a.elements[al]} is not monic")
            cls = _class_of(tp.cat, rep_fsets, reps, m)
            if cls is None:
                raise MalformedPresentation("mono class lookup failed")
            table[al] = cls
        if len(set(int(x) for x in table)) != fib_a.n or fib_sub.n != fib_a.n:
            raise MalformedPresentation(
                f"canonical comparison at {C.objects[a]} is not bijective")
        for x in range(fib_a.n):
            for y in range(fib_a.n):
                if fib_a.le(x, y) != fib_sub.le(int(table[x]), int(table[y])):
                    raise MalformedPresentation(
                        f"canonical comparison at {C.objects[a]} is not an order iso")
        out[a] = MonotoneMap(fib_a, fib_sub, table)
    return out
