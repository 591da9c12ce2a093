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

import contextlib
from collections import Counter
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .allegory import RelArrow, rel_compose, transitive_mask, triple_product
from .doctrine import DoctrineData, exists_along, kept_as, sub_doctrine, subobject_poset
from .errors import FormulaMismatch, MalformedPresentation, guard
from .fincat import (DEFAULT_ENUM_CAP, TABLE_CELL_CAP, FinCat, FunctorData, ProductChoice,
                     WindowScope, full_subcategory, greedy_product_core, hom_sizes, is_mono,
                     product_cone, terminal_object, validate_category)
from .semilattice import FinInfSL, MonotoneMap, NoAdjoint, sub_semilattice
from .structure import ElementaryWitness, ExistentialWitness


@dataclass
class Caps:
    """`enum` bounds each enumeration sized against it before it starts:
    points arrows; hom, arrow-class and equivalence-relation candidates;
    functor work and arrow maps; fiber homomorphisms; morphism components."""

    enum: int = DEFAULT_ENUM_CAP


def _assemble(objects: list[str], arrows: list[str], src: list[int], tgt: list[int],
              identity, compose) -> FinCat:
    """The category whose identity at object o is identity(o) and whose
    composite g after f is compose(g, f), asked once per composable pair,
    by f and then by g in arrow order, before any identity is asked, once
    the table is sized."""
    guard("composition table cells", len(arrows) ** 2, TABLE_CELL_CAP)
    out_of: dict[int, list[int]] = {}
    for j, s in enumerate(src):
        out_of.setdefault(s, []).append(j)
    rows = [(j, i, compose(j, i)) for i, t in enumerate(tgt) for j in out_of.get(t, ())]
    return FinCat.from_indices(objects, arrows, src, tgt,
                               [identity(o) for o in range(len(objects))],
                               np.array(rows, dtype=np.intp).reshape(-1, 3))


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
    arr_of: dict[tuple[int, int, int], int]   # (base arrow, source el, target el) -> arrow


@kept_as(lambda P, caps=Caps(): ("gr", caps.enum))
def build_gr(P: DoctrineData, caps: Caps = Caps()) -> GrCompletion:
    """Objects are pairs (A, a) with a in P(A); an arrow over f: A -> B exists
    iff a <= P_f(b).  Products are carried by base products with meets of the
    reindexed components; fibers are downsets with reindex-and-meet action.

    The carried cones are products (lemma): a cone (f, g) from (Z, z) over
    (A, a) and (B, b) has z <= P_f(a) ∧ P_g(b) = P_<f,g>(P_pr1(a) ∧ P_pr2(b)),
    since reindexing is a functorial meet homomorphism, so the base mediator
    <f, g> is an arrow of the points category and the only one over it; and
    every (Z, z) has the one arrow over Z -> T into (T, top).  The chosen
    products are therefore not validated again.

    The whole arrow count, the sum over base arrows f: A -> B and elements
    b of P(B) of |↓P_f(b)|, is compared with caps.enum, then with the arrows
    whose table the table cap admits, before any arrow is built."""
    C = P.cat
    down_count = [P.fibers[o].leq.sum(axis=0) for o in range(C.n_objects)]
    need = sum(int(down_count[int(C.src[f])][P.r(f).table].sum()) for f in range(C.n_arrows))
    guard("points category arrows", need, caps.enum)
    guard("points category arrows", need, isqrt(TABLE_CELL_CAP))
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

    def arrow(f: int, ea: int, eb: int) -> int:
        """The arrow over f from (A, ea) to (B, eb), which the doctrine laws
        provide wherever it is asked for."""
        if (f, ea, eb) not in arr_of:
            raise MalformedPresentation(
                f"({C.arrows[f]}|{P.fibers[int(C.src[f])].elements[ea]}"
                f"|{P.fibers[int(C.tgt[f])].elements[eb]}) is not an arrow of the points"
                " category: the doctrine laws fail")
        return arr_of[(f, ea, eb)]

    over = list(arr_of)             # (f, ea, eb) by arrow index
    cat = _assemble(obj_names, names, srcs, tgts,
                    lambda oi: arrow(int(C.id_arr[objs[oi][0]]), objs[oi][1], objs[oi][1]),
                    lambda j, i: arrow(int(C.comp[over[j][0], over[i][0]]),
                                       over[i][1], over[j][2]))
    # chosen products carried by the base
    t = P.products.terminal
    pc = ProductChoice(obj_of[(t, P.fibers[t].top)], {})
    for (a, b), (p, p1, p2) in P.products.binary.items():
        r1, r2 = P.r(p1).table, P.r(p2).table
        for ea in range(P.fibers[a].n):
            for eb in range(P.fibers[b].n):
                ep = P.fibers[p].meet_of(int(r1[ea]), int(r2[eb]))
                pc.binary[(obj_of[(a, ea)], obj_of[(b, eb)])] = (
                    obj_of[(p, ep)], arrow(p1, ep, ea), arrow(p2, ep, eb))
    scope = WindowScope(tuple(obj_of[(o, el)] for o in P.scope.core for el in range(P.fibers[o].n)))
    # restricted-downset fibers
    fibers: list[FinInfSL] = []
    for o, el in objs:
        fib = P.fibers[o]
        fibers.append(sub_semilattice(fib, fib.downset(el)))
    reindex: list[MonotoneMap] = []
    for f, ea, eb in over:
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
    top = [P.fibers[o].top for o in range(C.n_objects)]
    embed = FunctorData(C, cat, [obj_of[(o, top[o])] for o in range(C.n_objects)],
                        [arrow(f, top[a], top[b])
                         for f, (a, b) in enumerate(zip(C.src.tolist(), C.tgt.tolist()))])
    return GrCompletion(cat, pc, scope, hat, embed, obj_of, arr_of)


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


def per_objects(P: DoctrineData) -> list[tuple[int, int]]:
    """All symmetric-transitive relation objects over core carriers."""
    W = P.window
    out = []
    for a in P.scope.core:
        fib = P.fibers[W.prod(a, a)[0]]
        sym = fib.leq[np.arange(fib.n), P.r(W.swap(a, a)).table]
        out += [(a, int(rel)) for rel in np.flatnonzero(sym & transitive_mask(P, a))]
    return out


def functional_relations(P: DoctrineData, W: ExistentialWitness,
                         x: tuple[int, int], y: tuple[int, int]) -> list[int]:
    """Elements of P(A×B) that are relational, compatible, single-valued and
    total from (A, rho) to (B, sigma); totality is the paper's condition (v),
    on the source: rho(x,x) ⊢ ∃y phi(x,y), that is P_diag(rho) <= ∃_pr1(phi)."""
    (a, rho), (b, sig) = x, y
    win = P.window
    ab, pr1, pr2 = win.prod(a, b)
    fib = P.fibers[ab]
    # (i) contained in the domains of both relations
    dom = fib.meet_of(int(P.r(win.pair(pr1, pr1)).table[rho]),
                      int(P.r(win.pair(pr2, pr2)).table[sig]))
    ok = fib.leq[:, dom].copy()
    # (ii) compatible on the left: over A×A×B
    fib3, _, q12, q23, q13 = triple_product(P, a, a, b)
    ok &= fib3.leq[fib3.meet[int(q12[rho]), q23], q13]
    # (iii) compatible on the right and (iv) single-valued: over A×B×B
    fib3, _, t12, t23, t13 = triple_product(P, a, b, b)
    ok &= fib3.leq[fib3.meet[t12, int(t23[sig])], t13]
    ok &= fib3.leq[fib3.meet[t12, t13], int(t23[sig])]
    # (v) totality
    ok &= P.fibers[a].leq[int(P.r(win.diag(a)).table[rho]), W.adjoints[pr1].table]
    return [int(i) for i in np.flatnonzero(ok)]


@kept_as(lambda P, E, W, caps=Caps(): ("tp", caps.enum, *P.keys_of(E, W)))
def build_tp(P: DoctrineData, E: ElementaryWitness, W: ExistentialWitness,
             caps: Caps = Caps()) -> TCompletion:
    """The category of symmetric-transitive relations and functional
    relations; composition is relational composition and the identity of an
    object is its own relation.

    That identity is an arrow (lemma): a symmetric, transitive rho is
    contained in its domain (reindex transitivity along <p1, p2, p1>),
    compatible on both sides (transitivity) and single-valued (symmetry,
    then transitivity), and it is total on either side because the unit of
    ∃_pr1 ⊣ P_pr1, reindexed along the diagonal, gives P_diag(rho) <=
    ∃_pr1(rho), and likewise for pr2.  Composites are tested to be arrows,
    and the category laws are verified wholesale: neither follows from the
    doctrine laws without stability and reciprocity.

    Every pair of relation objects over carriers A and B has the elements
    of P(A×B) as its candidate arrows; their total over all pairs is
    compared with caps.enum before any candidate is decided, and after each
    pair the arrows so far with those whose table the table cap admits."""
    objs = per_objects(P)
    per_carrier = Counter(a for a, _ in objs)
    need = sum(m * n * P.fibers[P.window.prod(a, b)[0]].n
               for a, m in per_carrier.items() for b, n in per_carrier.items())
    guard("hom candidates", need, caps.enum)
    obj_of = {pair: i for i, pair in enumerate(objs)}
    C = P.cat
    obj_names = [f"({C.objects[a]}|{P.fibers[P.window.prod(a, a)[0]].elements[rel]})"
                 for a, rel in objs]
    arrows: list[tuple[int, int, int]] = []
    arr_of: dict[tuple[int, int, int], int] = {}
    names: list[str] = []
    for xi, x in enumerate(objs):
        for yi, y in enumerate(objs):
            for el in functional_relations(P, W, x, y):
                arr_of[(xi, yi, el)] = len(arrows)
                arrows.append((xi, yi, el))
                fib = P.fibers[P.window.prod(x[0], y[0])[0]]
                names.append(f"({obj_names[xi]}~{obj_names[yi]}|{fib.elements[el]})")
            guard("relation completion arrows", len(arrows), isqrt(TABLE_CELL_CAP), at_least=True)

    def compose(j: int, i: int) -> int:
        (xi, yi, el1), (_, zi, el2) = arrows[i], arrows[j]
        r = rel_compose(P, RelArrow(objs[xi][0], objs[yi][0], el1),
                        RelArrow(objs[yi][0], objs[zi][0], el2))
        if (xi, zi, r.el) not in arr_of:
            raise MalformedPresentation(
                f"composite of {names[i]} and {names[j]} is not a functional relation"
                " (broken witness)")
        return arr_of[(xi, zi, r.el)]

    cat = _assemble(obj_names, names, [x for x, _, _ in arrows], [y for _, y, _ in arrows],
                    lambda oi: arr_of[(oi, oi, objs[oi][1])], compose)
    rep = validate_category(cat)
    if not rep.ok:
        raise MalformedPresentation(
            f"relation completion is not a category: {rep.message} at {rep.witness}")
    pc = choose_products(cat)
    scope = WindowScope(greedy_product_core(cat))
    return TCompletion(cat, pc, scope, objs, obj_of, arrows, arr_of)


def choose_products(cat: FinCat) -> ProductChoice | None:
    """Search a terminal and one product per object pair (where they exist);
    None when the category has no terminal.  `terminal_object` and
    `product_cone` test exactly what `validate_products` tests, so the
    choice is not validated again."""
    terminal = terminal_object(cat)
    if terminal is None:
        return None
    pc = ProductChoice(terminal, {})
    for a in range(cat.n_objects):
        for b in range(cat.n_objects):
            cone = product_cone(cat, a, b)
            if cone is not None:
                pc.binary[(a, b)] = (cone.apex, *cone.legs)
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
    inclusion: FunctorData          # into tp.cat: the kept objects and arrows
    arr_of: dict[tuple[int, int, int], int]   # tp.arr_of's keys of the kept arrows -> arrow


def is_reflexive(P: DoctrineData, E: ElementaryWitness, a: int, rel: int) -> bool:
    aa = P.window.prod(a, a)[0]
    return P.fibers[aa].le(E.delta[a], rel)


@kept_as(lambda P, E, tp, caps=Caps(): ("er", *P.keys_of(E, tp)))
def build_erp(P: DoctrineData, E: ElementaryWitness, tp: TCompletion,
              caps: Caps = Caps()) -> ERCompletion:
    """Full subcategory of the relation completion on reflexive relations,
    those with delta <= rho.  That is top <= P_diag(rho) (lemma): the
    discovered delta is ∃_diag(top), for the left adjoint P_pr1(-) ∧ delta
    of P_diag, so delta <= rho iff top <= P_diag(rho).  `caps` is not read:
    the category is full in tp.cat, whose candidates `build_tp` bounded."""
    keep = [oi for oi, (a, rel) in enumerate(tp.objects) if is_reflexive(P, E, a, rel)]
    objects = [tp.objects[oi] for oi in keep]
    inclusion = full_subcategory(tp.cat, keep)
    cat = inclusion.source
    pc = choose_products(cat)
    scope = WindowScope(greedy_product_core(cat))
    obj_of = {pair: i for i, pair in enumerate(objects)}
    arr_of = {tp.arrows[t]: i for i, t in enumerate(inclusion.arr_map.tolist())}
    return ERCompletion(cat, pc, scope, tp, objects, obj_of, inclusion, arr_of)


def functor_D(P: DoctrineData, E: ElementaryWitness, er: ERCompletion) -> FunctorData:
    """Graph embedding of the (core of the) base: A goes to (A, delta), an
    arrow f: A -> B to the image of top along its graph <id, f>, computed as
    the reindexed equality P_{f×id}(delta_B).  That is ∃_<id,f>(top) in any
    elementary doctrine (lemma), so the existential image is not taken."""
    C = P.cat
    core = full_subcategory(C, P.scope.core)
    arr_map = []
    for f in core.arr_map.tolist():
        a, b = int(C.src[f]), int(C.tgt[f])
        fxid = P.window.times(f, int(C.id_arr[b]))   # f×id: A×B -> B×B
        graph = int(P.r(fxid).table[E.delta[b]])
        key = (er.tp.obj_of[(a, E.delta[a])], er.tp.obj_of[(b, E.delta[b])], graph)
        if key not in er.arr_of:
            raise MalformedPresentation(f"graph of {C.arrows[f]} is not a functional relation")
        arr_map.append(er.arr_of[key])
    return FunctorData(core.source, er.cat, [er.obj_of[(a, E.delta[a])] for a in P.scope.core],
                       arr_map)


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


@kept_as(lambda P, E, W, caps=Caps(): ("qp", caps.enum, *P.keys_of(E, W)))
def build_qp(P: DoctrineData, E: ElementaryWitness, W: ExistentialWitness,
             caps: Caps = Caps()) -> QCompletion:
    """Objects are reflexive relations over core carriers; arrows are classes
    of base arrows respecting the relations, identified when related as a
    pair; the fiber over (A, rho) is its descent set in P(A).

    Lemmas, from the doctrine laws alone, by which nothing here is verified
    again:
    * f ~ g, defined as rho <= P_{f×g}(sigma), is an equivalence relation on
      the arrows with f ~ f (by the symmetry and transitivity of rho and
      sigma) and a congruence (reindexing is functorial), so the classes
      form a category, composed through any representatives;
    * des(rho) = {al : P_pr1(al) ∧ rho <= P_pr2(al)} contains top and is
      closed under meets, so it is a sub-inf-semilattice of P(A);
    * P_f maps des(sigma) into des(rho) (reindex the descent of al along
      f×f), and P_f = P_g on des(sigma) when f ~ g (reindex it along f×g,
      then along the diagonal, where rho is top by reflexivity), so the
      first representative gives the reindexing of its class.

    A pair of objects over carriers A and B compares up to |hom(A, B)|²
    pairs of base arrows: their total is bounded before any class is decided."""
    C = P.cat
    win = P.window
    objs = [(a, rel) for (a, rel) in per_objects(P) if is_reflexive(P, E, a, rel)]
    per_carrier, sizes = Counter(a for a, _ in objs), hom_sizes(C)
    guard("arrow class candidates", sum(m * n * int(sizes[a, b]) ** 2
                                        for a, m in per_carrier.items()
                                        for b, n in per_carrier.items()), caps.enum)
    obj_of = {pair: i for i, pair in enumerate(objs)}
    obj_names = [f"({C.objects[a]}|{P.fibers[win.prod(a, a)[0]].elements[rel]})"
                 for a, rel in objs]
    classes: list[tuple[int, int, tuple[int, ...]]] = []
    class_of: dict[tuple[int, int, int], int] = {}
    names: list[str] = []
    for xi, (a, rho) in enumerate(objs):
        fib_aa = P.fibers[win.prod(a, a)[0]]
        for yi, (b, sig) in enumerate(objs):
            good = [f for f in C.hom(a, b).tolist()
                    if fib_aa.le(rho, int(P.r(win.times(f, f)).table[sig]))]
            for f in good:
                if (xi, yi, f) in class_of:
                    continue
                members = tuple(g for g in good
                                if fib_aa.le(rho, int(P.r(win.times(f, g)).table[sig])))
                for g in members:
                    class_of[(xi, yi, g)] = len(classes)
                classes.append((xi, yi, members))
                names.append(f"[{C.arrows[f]}]({obj_names[xi]}~{obj_names[yi]})")
    cat = _assemble(obj_names, names, [x for x, _, _ in classes], [y for _, y, _ in classes],
                    lambda oi: class_of[(oi, oi, int(C.id_arr[objs[oi][0]]))],
                    lambda j, i: class_of[(classes[i][0], classes[j][1],
                                           int(C.comp[classes[j][2][0], classes[i][2][0]]))])
    # descent fibers, and each element's position in its fiber
    fibers: list[FinInfSL] = []
    des_elements: list[list[int]] = []
    positions: list[np.ndarray] = []
    for a, rho in objs:
        aa, pr1, pr2 = win.prod(a, a)
        fib_aa = P.fibers[aa]
        des = np.flatnonzero(fib_aa.leq[fib_aa.meet[P.r(pr1).table, rho],
                                        P.r(pr2).table]).tolist()
        fibers.append(sub_semilattice(P.fibers[a], des))
        des_elements.append(des)
        pos = np.full(P.fibers[a].n, -1, dtype=np.int32)
        pos[des] = np.arange(len(des))
        positions.append(pos)
    reindex = [MonotoneMap(fibers[yi], fibers[xi],
                           positions[xi][P.r(members[0]).table[des_elements[yi]]])
               for xi, yi, members in classes]
    pc = choose_products(cat)
    scope = WindowScope(greedy_product_core(cat))
    doct = DoctrineData(cat, pc if pc is not None else ProductChoice(0, {}),
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


@kept_as(lambda P, *structure: ("L", *P.keys_of(*structure)))
def functor_L(P: DoctrineData, E: ElementaryWitness, W: ExistentialWitness,
              q: QCompletion, er: ERCompletion) -> LFunctorResult:
    """Identity on objects; a class [f]: (A,rho) -> (B,sigma) goes to the
    relation got by spanning rho against sigma pulled back along f.

    Both published forms are evaluated: the reindex-only-then-project form
    over A×A×B is authoritative; the form over A×B×B that first takes an
    existential along <p1, f∘p2> is compared whenever that adjoint exists,
    and disagreement is a hard error.

    Lemmas, from the doctrine laws alone: the value rho ; P_{f×id}(sigma)
    does not depend on the representative f of the class (rho(x, x') gives
    rho(x', x'), hence sigma(fx', gx') when f ~ g, and then sigma(fx', y)
    gives sigma(gx', y) by transitivity), and an identity class goes to
    rho ; rho = rho, the identity of (A, rho) in the relation completion."""
    C = P.cat
    win = P.window
    arr_map = []
    comparisons = 0
    skipped: list[str] = []
    for ci, (xi, yi, members) in enumerate(q.classes):
        (a, rho), (b, sig) = q.objects[xi], q.objects[yi]
        val = _l_value(P, a, b, rho, sig, members[0])
        # second form: the existential image of rho along <p1, f∘p2>, composed with sigma
        _, a1, a2 = win.prod(a, a)
        e_gr = exists_along(P, win.pair(a1, C.compose(members[0], a2)))
        other = None
        if not isinstance(e_gr, NoAdjoint):
            with contextlib.suppress(MalformedPresentation):   # no existential along <p1, p3>
                other = rel_compose(P, RelArrow(a, b, int(e_gr.table[rho])),
                                    RelArrow(b, b, sig)).el
        if other is None:
            skipped.append(q.cat.arrows[ci])
        else:
            comparisons += 1
            if other != val:
                raise FormulaMismatch(
                    "comparison functor",
                    f"published forms disagree on {q.cat.arrows[ci]}")
        key = (er.tp.obj_of[(a, rho)], er.tp.obj_of[(b, sig)], val)
        if key not in er.arr_of:
            raise MalformedPresentation(
                f"comparison image of {q.cat.arrows[ci]} is not a functional relation")
        arr_map.append(er.arr_of[key])
    obj_map = [er.obj_of[pair] for pair in q.objects]
    return LFunctorResult(FunctorData(q.cat, er.cat, obj_map, arr_map), comparisons, skipped)


def _l_value(P: DoctrineData, a: int, b: int, rho: int, sig: int, f: int) -> int:
    """The reindex-only form: rho composed with sigma pulled back along f×id."""
    fxid = P.window.times(f, int(P.cat.id_arr[b]))
    return rel_compose(P, RelArrow(a, a, rho), RelArrow(a, b, int(P.r(fxid).table[sig]))).el


# ---------------------------------------------------------------------------
# transitive extensions
# ---------------------------------------------------------------------------


@dataclass
class NoExtension:
    witness_antichain: tuple[str, ...]

    def __bool__(self) -> bool:
        return False


def transitive_extension(P: DoctrineData, c: int, zeta: int, delta: int) -> int | NoExtension:
    """Smallest transitive element above zeta in P(C×C), by exhausting the
    transitive elements above it; NoExtension carries the minimal antichain
    when no least one exists.  With homomorphism reindexing the transitive
    elements are meet-closed, so the extension always exists there."""
    fib = P.fibers[P.window.prod(c, c)[0]]
    if not fib.le(delta, zeta):
        raise MalformedPresentation("relation is not reflexive against the given equality")
    cands = np.flatnonzero(fib.leq[zeta] & transitive_mask(P, c))
    below = fib.leq[np.ix_(cands, cands)]          # below[i, j]: cands[i] <= cands[j]
    least = cands[below.all(axis=1)]
    if least.size:
        return int(least[0])
    minimal = cands[~(below & ~np.eye(len(cands), dtype=bool)).any(axis=0)]
    return NoExtension(tuple(fib.elements[xi] for xi in minimal))


# ---------------------------------------------------------------------------
# subobjects of the completion and the canonical fiber comparison
# ---------------------------------------------------------------------------


def tp_sub_restriction(tp: TCompletion, er: ERCompletion) -> DoctrineData:
    """The subobject doctrine of the relation completion, restricted to the
    reflexive objects (subobjects are computed in the full completion, where
    the canonical fiber comparison below is an isomorphism)."""
    if tp.pc is None or er.pc is None:
        raise MalformedPresentation("completion has no terminal; cannot index subobjects")
    full = sub_doctrine(tp.cat, tp.pc, WindowScope(tuple(range(tp.cat.n_objects))))
    fibers = [full.fibers[o] for o in er.inclusion.obj_map.tolist()]
    reindex = [full.reindex[f] for f in er.inclusion.arr_map.tolist()]
    return DoctrineData(er.cat, er.pc, WindowScope(tuple(range(er.cat.n_objects))), fibers, reindex)


def iota_iso(P: DoctrineData, E: ElementaryWitness, tp: TCompletion,
             sub_er: DoctrineData, er: ERCompletion) -> dict[int, MonotoneMap]:
    """For each core A, the canonical map P(A) -> Sub(A, delta): an element
    goes to the class of the mono carried by its restriction of equality.
    Verified to be an order isomorphism; a failure is a broken witness."""
    C = P.cat
    win = P.window
    out: dict[int, MonotoneMap] = {}
    for a in P.scope.core:
        t_obj = tp.obj_of[(a, E.delta[a])]
        er_obj = er.obj_of[(a, E.delta[a])]
        fib_sub = sub_er.fibers[er_obj]
        cls = subobject_poset(tp.cat, t_obj)[3]
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
            table[al] = cls[m]
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
