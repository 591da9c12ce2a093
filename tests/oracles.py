"""Independent finite-set oracles.

Everything here is deliberately written from scratch against plain sets of
pairs, never through the package's fiber/reindex tables, so the two routes
stay independent.  Relations over range(n) are frozensets of pairs; the mask
encoding matches the fixture convention (pair (x, y) over carriers of sizes
(p, q) is the bit at x*q + y).  Some references are not from scratch:
`meets_from_leq` is the package's former per-pair meet search, kept to
check the down-set lookup that replaced it; `fiber_validate`, `generators`,
`finset_window` and `fs2_reindex` are the former row-by-row meet check,
generator closure, per-arrow window build and per-arrow preimage tables,
kept to check the blockwise code that replaced them; and the universal-property
searches at the end, product validation and the mediator table among them,
are the package's former plain loops, kept to check the cone counting that
replaced them,
and so is the subobject constructor after them, kept to check the one
reindexing formula that replaced its per-representative loop.  The
weak-subobject constructor after it, with its per-cospan weak pullback
search, is the package's former one, kept to check that the subobject
doctrine is the weak-subobject doctrine.  Their classes of arrows are
plain factor sets, not the package's mask table.  The relation objects,
smallest transitive extensions and the comparison functor's value after
them are the former per-element loops over the triple product, kept to
check the masks and the relational composition that replaced them.  The
reflexive and quotient completions and the two comparison functors after
them are the former checked builders, which test on every build the lemmas
that `completions.py` now states instead.  After them come the former
per-element left-adjoint search, the former Galois test of the equality
candidates, the former meet-pair homomorphism clause at generators and the
former loop over candidate fiber homomorphisms, kept to check the one
adjoint kernel that replaced all four.  Then come the universal-property
harness's former searches: its test of a whole morphism for equality and
existentials, which redid the functor's part for every combination of
components, kept to check the per-functor conditions that replaced it; its
per-morphism test of the strict reading, kept to check the shared one; its
per-pair 2-cell loop, which filtered each object's candidates for laxness
and tried each combination for naturality, kept with the loop before it
(laxness per combination of components, each cell a dict of names) to
check the 2-cell table that replaced both; and functor validation's former
per-pair composition loop, kept to check the one array comparison that
replaced it.  The checks
at the very end are ones only the tests make: presentation equality, relation
classification, monotonicity, homomorphism failures and adjunctions.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass

import numpy as np

import crafted
from doctrines.allegory import RelArrow, rel_compose, rel_opposite, triple_product
from doctrines.completions import (ERCompletion, LFunctorResult, NoExtension,
                                   QCompletion, TCompletion, choose_products,
                                   is_reflexive)
from doctrines.doctrine import DoctrineData, exists_along
from doctrines.errors import FormulaMismatch, MalformedPresentation, ResourceCap, WindowClosure
from doctrines.fincat import (Cone, FinCat, FunctorData, ProductChoice, ValidationReport,
                              WindowScope, full_subcategory, greedy_product_core,
                              validate_category, validate_functor)
from doctrines.semilattice import FinInfSL, MonotoneMap, NoAdjoint, sub_semilattice
from doctrines.structure import ElementaryWitness, ExistentialWitness, comprehension_table


def rel_from_mask(mask: int, p: int, q: int) -> frozenset:
    return frozenset((x, y) for x in range(p) for y in range(q)
                     if (mask >> (x * q + y)) & 1)


def mask_from_rel(rel, p: int, q: int) -> int:
    m = 0
    for x, y in rel:
        m |= 1 << (x * q + y)
    return m


def set_from_mask(mask: int, n: int) -> frozenset:
    return frozenset(x for x in range(n) if (mask >> x) & 1)


def mask_from_set(s, n: int) -> int:
    m = 0
    for x in s:
        m |= 1 << x
    return m


def compose_rel(r, s) -> frozenset:
    """Diagrammatic: first r, then s."""
    return frozenset((x, z) for x, y in r for y2, z in s if y == y2)


def transpose_rel(r) -> frozenset:
    return frozenset((y, x) for x, y in r)


def identity_rel(n: int) -> frozenset:
    return frozenset((x, x) for x in range(n))


def full_rel(p: int, q: int) -> frozenset:
    return frozenset(itertools.product(range(p), range(q)))


def bool_matrix(rel, p: int, q: int):
    m = [[False] * q for _ in range(p)]
    for x, y in rel:
        m[x][y] = True
    return m


def bool_matmul(a, b):
    p, q, r = len(a), len(b), len(b[0]) if b else 0
    return [[any(a[i][k] and b[k][j] for k in range(q)) for j in range(r)]
            for i in range(p)]


def rel_from_matrix(m) -> frozenset:
    return frozenset((i, j) for i, row in enumerate(m)
                     for j, v in enumerate(row) if v)


def direct_image(fn: tuple, subset) -> frozenset:
    return frozenset(fn[x] for x in subset)


def preimage(fn: tuple, subset) -> frozenset:
    return frozenset(x for x in range(len(fn)) if fn[x] in subset)


def transitive_closure(r, n: int) -> frozenset:
    reach = {p: True for p in r}
    changed = True
    pairs = set(r)
    while changed:
        changed = False
        for (x, y) in list(pairs):
            for (y2, z) in list(pairs):
                if y == y2 and (x, z) not in pairs:
                    pairs.add((x, z))
                    changed = True
    return frozenset(pairs)


def is_per(r, n: int) -> bool:
    sym = all((y, x) in r for x, y in r)
    trans = all((x, z) in r for x, y in r for y2, z in r if y == y2)
    return sym and trans


def pers_on(n: int):
    """All symmetric transitive relations on range(n), mask order."""
    out = []
    for mask in range(1 << (n * n)):
        r = rel_from_mask(mask, n, n)
        if is_per(r, n):
            out.append(r)
    return out


def functional_relation_oracle(phi, rho, sigma, p: int, q: int,
                               strict_totality: bool = True) -> bool:
    """The five conditions on a relation between symmetric-transitive
    relations, evaluated directly set-theoretically."""
    dom_rho = {x for (x, x2) in rho if x == x2}
    dom_sig = {y for (y, y2) in sigma if y == y2}
    if not all(x in dom_rho and y in dom_sig for x, y in phi):
        return False
    # compatibility
    for (x, x2) in rho:
        for (x3, y) in phi:
            if x2 == x3 and (x, y) not in phi:
                return False
    for (x, y) in phi:
        for (y2, y3) in sigma:
            if y == y2 and (x, y3) not in phi:
                return False
    # single-valued
    for (x, y) in phi:
        for (x2, y2) in phi:
            if x == x2 and (y, y2) not in sigma:
                return False
    # totality
    if strict_totality:
        for x in dom_rho:
            if not any(x2 == x for (x2, _) in phi):
                return False
    else:
        for y in dom_sig:
            if not any(y2 == y for (_, y2) in phi):
                return False
    return True


def min_of_upper_set(cod_leq, dom_leq, elements, h_table, alpha):
    """Independent least-element search for adjoint checking: the minimum
    under dom_leq of {b : alpha cod_leq h(b)}, or None.  Both orders are
    given as sets of pairs including the diagonal."""
    upper = [b for b in elements if (alpha, h_table[b]) in cod_leq]
    for b in upper:
        if all((b, c) in dom_leq for c in upper):
            return b
    return None


def poset_reflection(arrows, factor):
    """Classes of `arrows` under mutual factorization, with representatives
    in list order; factor(f, g) says f factors through g."""
    classes = []
    for f in arrows:
        for cl in classes:
            if factor(f, cl[0]) and factor(cl[0], f):
                cl.append(f)
                break
        else:
            classes.append([f])
    return classes


def downset(leq_pairs, elements, top_of):
    return [x for x in elements if (x, top_of) in leq_pairs or x == top_of]


def points_category(P: DoctrineData):
    """The category of points from its definition, read off the doctrine's
    order and reindexing tables alone: an object (A, a) for each a in P(A);
    an arrow (f, a, b): (A, a) -> (B, b) over f: A -> B iff a <= P_f(b);
    the identity of (A, a) is (id_A, a, a) and the composite of (f, a, b)
    and (g, b, c) is (g∘f, a, c).  Returns the objects, the arrows, the
    identities by object and the composites by pair (g-arrow, f-arrow)."""
    C = P.cat
    objects = [(A, a) for A in range(C.n_objects) for a in range(P.fibers[A].n)]
    arrows = []
    for f in range(C.n_arrows):
        A, B = int(C.src[f]), int(C.tgt[f])
        arrows += [(f, a, b) for a in range(P.fibers[A].n) for b in range(P.fibers[B].n)
                   if P.fibers[A].leq[a, int(P.reindex[f].table[b])]]
    identity = {(A, a): (int(C.id_arr[A]), a, a) for A, a in objects}
    composite = {((g, b2, c), (f, a, b)): (int(C.comp[g, f]), a, c)
                 for f, a, b in arrows for g, b2, c in arrows
                 if C.tgt[f] == C.src[g] and b == b2}
    return objects, arrows, identity, composite


# ---------------------------------------------------------------------------
# the category and doctrine laws, by plain loops in canonical order
# ---------------------------------------------------------------------------
#
# Each oracle returns (ok, law, witness, message) for the first violation in
# the order the package documents: the checks in sequence, each over its
# arrows, pairs and triples in index order.  A category is given as plain
# lists (objects, arrows, src, tgt, ident, comp) with comp[g][f] = g∘f or -1;
# a fiber as (elements, leq, top, meet); a reindex map as (dom elements,
# cod elements, table).

PASSED = (True, "", (), "")


def typing_laws(arrows, src, tgt, comp):
    """The first composite defined on a non-composable pair, then the first
    composable pair without one, then the first composite of the wrong
    type; None when composites are typed and total."""
    n = len(arrows)
    pairs = [(g, f) for g in range(n) for f in range(n)]
    for g, f in pairs:
        if comp[g][f] >= 0 and src[g] != tgt[f]:
            return (False, "AssociativityOrTyping", (arrows[g], arrows[f]),
                    "composition defined on a non-composable pair")
    for g, f in pairs:
        if comp[g][f] < 0 and src[g] == tgt[f]:
            return (False, "MissingEntry", (arrows[g], arrows[f]),
                    "composable pair has no composite")
    for g, f in pairs:
        if src[g] == tgt[f]:
            h = comp[g][f]
            if src[h] != src[f] or tgt[h] != tgt[g]:
                return (False, "AssociativityOrTyping", (arrows[g], arrows[f]),
                        "composite has wrong source or target")
    return None


def typing_formula(C: FinCat) -> ValidationReport | None:
    """The former whole-table typing check, each type coded in int64 as
    src * |objects| + tgt: the first composite defined on a non-composable
    pair, then the first composable pair without one, then the first
    composite of the wrong type, row-major over (g, f)."""
    composable = C.src[:, None] == C.tgt[None, :]
    defined = C.comp >= 0
    typ = C.src.astype(np.int64) * C.n_objects + C.tgt
    want = C.src[None, :].astype(np.int64) * C.n_objects + C.tgt[:, None]
    for law, bad, message in (
            ("AssociativityOrTyping", defined & ~composable,
             "composition defined on a non-composable pair"),
            ("MissingEntry", composable & ~defined, "composable pair has no composite"),
            ("AssociativityOrTyping", composable & (np.take(typ, C.comp) != want),
             "composite has wrong source or target")):
        if bad.any():
            g, f = map(int, np.argwhere(bad)[0])
            return ValidationReport(False, law, (C.arrows[g], C.arrows[f]), message)
    return None


def category_laws(objects, arrows, src, tgt, ident, comp):
    n = len(arrows)
    bad = typing_laws(arrows, src, tgt, comp)
    if bad:
        return bad
    for o in range(len(objects)):
        if src[ident[o]] != o or tgt[ident[o]] != o:
            return (False, "Identity", (objects[o],), "identity arrow has wrong endpoints")
    for f in range(n):
        if comp[ident[tgt[f]]][f] != f:
            return (False, "Identity", (arrows[f],), "id∘f != f")
    for f in range(n):
        if comp[f][ident[src[f]]] != f:
            return (False, "Identity", (arrows[f],), "f∘id != f")
    # triples (h, g, f) ordered by (tgt f, tgt g, h, g, f)
    for b in range(len(objects)):
        for c in range(len(objects)):
            for h in range(n):
                if src[h] != c:
                    continue
                for g in range(n):
                    if src[g] != b or tgt[g] != c:
                        continue
                    for f in range(n):
                        if tgt[f] == b and comp[comp[h][g]][f] != comp[h][comp[g][f]]:
                            return (False, "AssociativityOrTyping",
                                    (arrows[h], arrows[g], arrows[f]),
                                    "(h∘g)∘f != h∘(g∘f)")
    return PASSED


def fiber_laws(elements, leq, top, meet):
    """None for an inf-semilattice, else the first violation's message."""
    n = len(elements)
    el = elements
    if len(leq) != n or any(len(row) != n for row in leq):
        return "leq table has wrong shape"
    for i in range(n):
        if not leq[i][i]:
            return f"order not reflexive at {el[i]}"
    for i in range(n):
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                return f"order not antisymmetric at ({el[i]}, {el[j]})"
    for i in range(n):
        for j in range(n):
            if not leq[i][j] and any(leq[i][k] and leq[k][j] for k in range(n)):
                return f"order not transitive: missing {el[i]} <= {el[j]}"
    for i in range(n):
        if not leq[i][top]:
            return f"top is not above {el[i]}"
    for i in range(n):
        for j in range(n):
            m = meet[i][j]
            if not (leq[m][i] and leq[m][j]):
                return f"meet({el[i]}, {el[j]}) is not a lower bound"
        for j in range(n):
            for k in range(n):
                if leq[k][i] and leq[k][j] and not leq[k][meet[i][j]]:
                    return f"meet({el[i]}, {el[j]}) is not above lower bound {el[k]}"
    return None


def doctrine_laws(cat, fibers, reindex):
    objects, arrows, src, tgt, ident, comp = cat
    n = len(arrows)
    if len(fibers) != len(objects):
        return (False, "MalformedPresentation", (), "fiber table incomplete")
    if len(reindex) != n:
        return (False, "MalformedPresentation", (), "reindex table incomplete")
    for o, fib in enumerate(fibers):
        msg = fiber_laws(*fib)
        if msg:
            return (False, "Fiber", (objects[o],), msg)
    for f, (dom, cod, table) in enumerate(reindex):
        if dom != fibers[tgt[f]][0] or cod != fibers[src[f]][0]:
            return (False, "Reindex", (arrows[f],), "reindex map badly typed")
        if len(table) != len(fibers[tgt[f]][0]):
            return (False, "Reindex", (arrows[f],), "reindex table has wrong length")
    for o in range(len(objects)):
        table = reindex[ident[o]][2]
        for x, y in enumerate(table):
            if x != y:
                return (False, "Functoriality", (objects[o],),
                        f"identity reindex moves {fibers[o][0][x]}")
    for f, (dom, _, table) in enumerate(reindex):
        for x, y in enumerate(table):
            if not 0 <= y < len(fibers[src[f]][0]):
                return (False, "Reindex", (arrows[f], dom[x]),
                        f"value {y} is outside the fiber of {objects[src[f]]}")
    # the laws below read composites: a base whose composites are not typed
    # and total is named first, as `category_laws` names it
    bad = typing_laws(arrows, src, tgt, comp)
    if bad:
        return bad
    # per (src, tgt) block: top for every arrow, then meets for every arrow
    for a, b in sorted({(src[f], tgt[f]) for f in range(n)}):
        block = [f for f in range(n) if src[f] == a and tgt[f] == b]
        el_b, _, top_b, meet_b = fibers[b]
        _, _, top_a, meet_a = fibers[a]
        for f in block:
            if reindex[f][2][top_b] != top_a:
                return (False, "Homomorphism", (arrows[f],), "top not preserved")
        for f in block:
            t = reindex[f][2]
            for i in range(len(el_b)):
                for j in range(len(el_b)):
                    if t[meet_b[i][j]] != meet_a[t[i]][t[j]]:
                        return (False, "Homomorphism", (arrows[f], el_b[i], el_b[j]),
                                "meet not preserved")
    # pairs (g, f) ordered by (tgt f, tgt g, src f, g, f), then the element
    objs = sorted(set(src) | set(tgt))
    for b in objs:
        for c in objs:
            for a in objs:
                if not any(src[h] == a and tgt[h] == c for h in range(n)):
                    continue
                for g in range(n):
                    if src[g] != b or tgt[g] != c:
                        continue
                    for f in range(n):
                        if src[f] != a or tgt[f] != b:
                            continue
                        whole, tf, tg = reindex[comp[g][f]][2], reindex[f][2], reindex[g][2]
                        for x in range(len(fibers[c][0])):
                            if whole[x] != tf[tg[x]]:
                                return (False, "Functoriality",
                                        (arrows[g], arrows[f], fibers[c][0][x]),
                                        "reindex(g∘f) != reindex(f)∘reindex(g)")
    return PASSED


def meets_from_leq(elements, leq):
    """(top, meet table) of a transitive order table by a search per pair,
    as the package computed it before its down-set lookup: up to 64
    elements each pair's greatest common lower bound is searched directly,
    above that the common lower bound with the largest down-set is taken
    and verified.  Raises MalformedPresentation like the package does."""
    n = len(elements)
    tops = np.flatnonzero(leq.all(axis=0))
    if len(tops) == 0:
        raise MalformedPresentation("poset has no top element")
    top = int(tops[0])
    if n > 64:
        rank = leq.sum(axis=0).astype(np.int32)
        lower3 = leq[:, :, None] & leq[:, None, :]            # (m, i, j): m <= i, m <= j
        scores = np.where(lower3, rank[:, None, None], -1)
        cand = scores.argmax(axis=0).astype(np.int32)
        ok = (~lower3 | leq[:, cand]).all(axis=0)
        in_lower = np.take_along_axis(lower3, cand[None, :, :], axis=0)[0]
        bad = ~(ok & in_lower)
        if bad.any():
            i, j = map(int, np.argwhere(bad)[0])
            what = "no meet" if (leq[:, i] & leq[:, j]).any() else "no lower bound"
            raise MalformedPresentation(
                f"elements {elements[i]}, {elements[j]} have {what}")
        return top, cand
    meet = np.empty((n, n), dtype=np.int32)
    below = leq.T
    for i in range(n):
        for j in range(n):
            lower = np.flatnonzero(below[i] & below[j])
            if len(lower) == 0:
                raise MalformedPresentation(
                    f"elements {elements[i]}, {elements[j]} have no lower bound")
            greatest = [k for k in lower if leq[lower, k].all()]
            if not greatest:
                raise MalformedPresentation(
                    f"elements {elements[i]}, {elements[j]} have no meet")
            meet[i, j] = greatest[0]
    return top, meet


def fiber_validate(lat: FinInfSL) -> str | None:
    """FinInfSL.validate as the package had it before the down-set test:
    the order checks, then the meets one row at a time."""
    n = lat.n
    if lat.leq.shape != (n, n):
        return "leq table has wrong shape"
    if not lat.leq.diagonal().all():
        i = int(np.flatnonzero(~lat.leq.diagonal())[0])
        return f"order not reflexive at {lat.elements[i]}"
    sym = lat.leq & lat.leq.T
    if (sym & ~np.eye(n, dtype=bool)).any():
        i, j = map(int, np.argwhere(sym & ~np.eye(n, dtype=bool))[0])
        return f"order not antisymmetric at ({lat.elements[i]}, {lat.elements[j]})"
    closure = lat.leq @ lat.leq
    if (closure & ~lat.leq).any():
        i, j = map(int, np.argwhere(closure & ~lat.leq)[0])
        return f"order not transitive: missing {lat.elements[i]} <= {lat.elements[j]}"
    if not lat.leq[:, lat.top].all():
        i = int(np.flatnonzero(~lat.leq[:, lat.top])[0])
        return f"top is not above {lat.elements[i]}"
    below_i = lat.leq.T
    for i in range(n):
        lower = below_i[i][None, :] & below_i
        m = lat.meet[i]
        if not (np.take_along_axis(lower, m[:, None], axis=1)).all():
            j = int(np.flatnonzero(~np.take_along_axis(lower, m[:, None], axis=1).ravel())[0])
            return f"meet({lat.elements[i]}, {lat.elements[j]}) is not a lower bound"
        ok = ~lower | lat.leq[:, m].T
        if not ok.all():
            j, k = map(int, np.argwhere(~ok)[0])
            return (f"meet({lat.elements[i]}, {lat.elements[j]}) "
                    f"is not above lower bound {lat.elements[k]}")
    return None


def generators(C: FinCat) -> list[int]:
    """FinCat.generators as the package had it before its mask closure:
    each new arrow meets every reached one on both sides once, when it is
    popped, one np.unique per popped arrow."""
    n = C.n_arrows
    reached = np.zeros(n, dtype=bool)
    reached[C.id_arr] = True
    gens = []
    for a in range(n):
        if reached[a]:
            continue
        gens.append(a)
        reached[a] = True
        todo = [a]
        while todo:
            x = todo.pop()
            row, col = C.comp[x], C.comp[:, x]
            hits = np.concatenate([row[reached & (row >= 0)], col[reached & (col >= 0)]])
            new = np.unique(hits[~reached[hits]])
            reached[new] = True
            todo.extend(new.tolist())
    return gens


def _coord_functions(size: int) -> list[tuple[int, ...]]:
    k = size.bit_length() - 1
    out: list[tuple[int, ...]] = []
    for i in range(k):
        out.append(tuple((x >> i) & 1 for x in range(size)))
    for i in range(k):
        out.append(tuple(1 - ((x >> i) & 1) for x in range(size)))
    out.append(tuple(0 for _ in range(size)))
    out.append(tuple(1 for _ in range(size)))
    seen: dict[tuple[int, ...], None] = {}
    for f in out:
        seen.setdefault(f, None)
    return list(seen)


def _finset_arrows(sizes: list[int]) -> dict[tuple[int, int], list[tuple[int, ...]]]:
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
            homs[(a, b)] = sorted(set(fs))
    return homs


def _code(vals: tuple[int, ...], base: int) -> int:
    return sum(v * (base ** i) for i, v in enumerate(vals))


def finset_window(sizes: list[int], core: list[int]):
    """fixtures.finset_window as the package had it before its blockwise
    build: names and codes per arrow, each composite's value table gathered
    and matched against the codes of its block.  Returns (category, chosen
    products, scope, lookup)."""
    sizes = sorted(sizes)
    homs = _finset_arrows(sizes)
    names: list[str] = []
    srcs: list[int] = []
    tgts: list[int] = []
    obj_of_size = {s: i for i, s in enumerate(sizes)}
    lookup: dict[tuple[int, int, tuple[int, ...]], str] = {}
    values: dict[tuple[int, int], np.ndarray] = {}
    for a in sizes:
        for b in sizes:
            block = homs[(a, b)]
            values[(a, b)] = np.array(block, dtype=np.int64).reshape(len(block), a)
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
    arr_index = {nm: i for i, nm in enumerate(names)}
    id_arr = np.array([arr_index[f"id{s}"] for s in sizes], dtype=np.int32)
    comp = np.full((n, n), -1, dtype=np.int32)
    base_idx: dict[tuple[int, int], int] = {}
    pos = 0
    for a in sizes:
        for b in sizes:
            base_idx[(a, b)] = pos
            pos += len(homs[(a, b)])
    codes = {}
    for key, arr in values.items():
        pw = max(key[1], 1) ** np.arange(arr.shape[1], dtype=np.int64)
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
                    comp_codes = G[:, F] @ (max(c, 1) ** np.arange(a, dtype=np.int64))
                tgt_codes = codes[(a, c)]
                order = np.argsort(tgt_codes, kind="stable")
                found = order[np.searchsorted(tgt_codes[order], comp_codes)]
                comp[np.ix_(range(base_idx[(b, c)], base_idx[(b, c)] + len(G)),
                            range(base_idx[(a, b)], base_idx[(a, b)] + len(F)))] = \
                    found + base_idx[(a, c)]
    cat = FinCat(tuple(str(s) for s in sizes), tuple(names), np.array(srcs, dtype=np.int32),
                 np.array(tgts, dtype=np.int32), id_arr, comp)

    def name_of(a: int, b: int, fn) -> str:
        return lookup[(a, b, tuple(fn))]

    binary: dict[tuple[str, str], tuple[str, str, str]] = {}
    for a in sizes:
        for b in sizes:
            p = a * b
            if p not in sizes:
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
    return (cat, crafted.choice(cat, "1", binary),
            WindowScope(tuple(cat.obj_index[str(c)] for c in core)), lookup)


def fs2_reindex(cat: FinCat, lookup: dict) -> list[np.ndarray]:
    """The preimage tables of fs2 as fixtures.fs2 had them, one arrow and
    one input point at a time."""
    sizes = [int(o) for o in cat.objects]
    vals_of = {cat.arr_index[nm]: vals for (a, b, vals), nm in lookup.items()}
    tables = []
    for f in range(cat.n_arrows):
        sa, sb = sizes[int(cat.src[f])], sizes[int(cat.tgt[f])]
        masks = np.arange(1 << sb, dtype=np.int32)
        pre = np.zeros(1 << sb, dtype=np.int32)
        for i in range(sa):
            pre |= ((masks >> vals_of[f][i]) & 1) << i
        tables.append(pre)
    return tables


# ---------------------------------------------------------------------------
# the package's former universal-property searches, one loop per test
# ---------------------------------------------------------------------------


def limiting_cones(C, cones):
    """Cones through which every listed cone factors uniquely."""
    out = []
    for cand in cones:
        good = True
        for z in sorted({c.apex for c in cones}):
            table: dict[tuple[int, ...], int] = {}
            for m in C.hom(z, cand.apex):
                key = tuple(int(C.comp[l, int(m)]) for l in cand.legs)
                table[key] = table.get(key, 0) + 1
            for other in cones:
                if other.apex != z:
                    continue
                if table.get(other.legs, 0) != 1:
                    good = False
                    break
            if not good:
                break
        if good:
            out.append(cand)
    return out


def enumerate_pullbacks(C, f: int, g: int) -> list:
    """All limiting cones over the cospan (f: A->T, g: B->T); empty if none."""
    return limiting_cones(C, [Cone(z, (p, q)) for z, p, q in cospan_cones(C, f, g)])


def product_cones(C, a: int, b: int) -> list:
    """Every span over (a, b), by apex, then legs."""
    return [Cone(z, (int(p), int(q))) for z in range(C.n_objects)
            for p in C.hom(z, a) for q in C.hom(z, b)]


def forks(C, f: int, g: int) -> list:
    """Every cone e over the parallel pair (f, g), f∘e = g∘e, by apex, then e."""
    return [Cone(z, (int(e),)) for z in range(C.n_objects)
            for e in C.hom(z, int(C.src[f])) if C.comp[f, e] == C.comp[g, e]]


def terminal_object(C) -> int | None:
    """The first object with exactly one arrow from every object, if any."""
    return next((t for t in range(C.n_objects)
                 if all(len(C.hom(z, t)) == 1 for z in range(C.n_objects))), None)


def first_limiting_cone(C, cones: list[Cone]) -> Cone | None:
    """The first listed cone through which every listed cone factors
    uniquely, read off one mediator table per (candidate, apex); a
    candidate is dropped at the first cone that does not."""
    by_apex: dict[int, list[tuple[int, ...]]] = {}
    for cone in sorted(cones, key=lambda cone: cone.apex):
        by_apex.setdefault(cone.apex, []).append(cone.legs)
    for cand in cones:
        if all(len(mediators(C, z, cand.legs).get(legs, ())) == 1
               for z, legs_at_z in by_apex.items() for legs in legs_at_z):
            return cand
    return None


def mediators(C, z: int, legs: tuple[int, ...]) -> dict[tuple[int, ...], list[int]]:
    """The arrows m: z -> apex of `legs`, grouped by the cone (l∘m for l in
    legs) they mediate, in arrow-id order: the table the package's searches
    read before they counted cones."""
    H = C.hom(z, int(C.src[legs[0]]))
    table: dict[tuple[int, ...], list[int]] = {}
    for m, cone in zip(H.tolist(), zip(*[C.comp[leg, H].tolist() for leg in legs])):
        table.setdefault(cone, []).append(m)
    return table


def validate_products(C, pc) -> ValidationReport:
    """The terminal and every chosen product checked, with one table of
    cone codes per apex and a pairing table that <pr1, pr2> is read from."""
    t = pc.terminal
    if t not in range(C.n_objects):
        return ValidationReport(False, "MissingEntry", (t,), "unknown terminal")
    for z in range(C.n_objects):
        k = len(C.hom(z, t))
        if k != 1:
            return ValidationReport(False, "Terminal", (C.objects[z],),
                                    f"terminal has {k} arrows from {C.objects[z]}")
    pairing: dict[tuple[int, int], int] = {}
    n = C.n_arrows
    for (a, b), (p, p1, p2) in pc.binary.items():
        for i, pool in ((a, C.objects), (b, C.objects), (p, C.objects),
                        (p1, C.arrows), (p2, C.arrows)):
            if i not in range(len(pool)):
                return ValidationReport(False, "MissingEntry", (i,), "unknown id in product entry")
        pn = C.objects[p]
        if int(C.src[p1]) != p or int(C.tgt[p1]) != a or int(C.src[p2]) != p or int(C.tgt[p2]) != b:
            return ValidationReport(False, "MissingEntry", (pn,), "projections badly typed")
        for z in range(C.n_objects):
            meds = C.hom(z, p)
            cones_a, cones_b = C.hom(z, a), C.hom(z, b)
            need = len(cones_a) * len(cones_b)
            codes = C.comp[p1, meds].astype(np.int64) * n + C.comp[p2, meds]
            uniq, counts = np.unique(codes, return_counts=True)
            if (counts > 1).any():
                code = int(uniq[np.flatnonzero(counts > 1)[0]])
                return ValidationReport(False, "Product",
                                        (C.arrows[code // n], C.arrows[code % n]),
                                        f"cone has {int(counts.max())} mediating arrows into {pn}")
            if len(uniq) != need:
                have = set(int(u) for u in uniq)
                for f in cones_a:
                    for g in cones_b:
                        if int(f) * n + int(g) not in have:
                            return ValidationReport(
                                False, "Product", (C.arrows[int(f)], C.arrows[int(g)]),
                                f"cone has no mediating arrow into {pn}")
            for k in np.argsort(codes, kind="stable"):
                m = int(meds[k])
                pairing[(int(C.comp[p1, m]), int(C.comp[p2, m]))] = m
        if pairing.get((p1, p2)) != int(C.id_arr[p]):
            return ValidationReport(False, "Product", (C.arrows[p1], C.arrows[p2]),
                                    "<pr1, pr2> is not the identity of the product")
    return ValidationReport(True)


def is_mono(C, f: int) -> bool:
    a = int(C.src[f])
    for z in range(C.n_objects):
        h = C.hom(z, a)
        if len(h) < 2:
            continue
        vals = C.comp[f, h]
        if len(np.unique(vals)) != len(vals):
            return False
    return True


def jointly_monic(C, r1: int, r2: int) -> bool:
    """The joint-monicity test of the former internal equivalence relation
    search, for a span (r1, r2)."""
    rob = int(C.src[r1])
    for z in range(C.n_objects):
        seen = set()
        for m in C.hom(z, rob):
            key = (int(C.comp[r1, int(m)]), int(C.comp[r2, int(m)]))
            if key in seen:
                return False
            seen.add(key)
    return True


def coequalizer_arrows(C, r: int, s: int) -> list[int]:
    """All arrows that coequalize (r, s) and are universal among such."""
    if int(C.src[r]) != int(C.src[s]) or int(C.tgt[r]) != int(C.tgt[s]):
        raise MalformedPresentation("coequalizer of a non-parallel pair")
    x = int(C.tgt[r])
    forks = [int(q) for q in C.outof(x) if int(C.comp[int(q), r]) == int(C.comp[int(q), s])]
    out = []
    for q in forks:
        qt = int(C.tgt[q])
        good = True
        for h in forks:
            ms = [int(m) for m in C.hom(qt, int(C.tgt[h])) if int(C.comp[int(m), q]) == h]
            if len(ms) != 1:
                good = False
                break
        if good:
            out.append(q)
    return out


def is_weak_pullback(C, f: int, g: int, z: int, p: int, q: int) -> bool:
    """Every cone over the cospan (f, g) factors through (z, p, q)."""
    for z2 in range(C.n_objects):
        reach = {(int(C.comp[p, int(m)]), int(C.comp[q, int(m)])) for m in C.hom(z2, z)}
        for p2 in C.hom(z2, int(C.src[f])):
            for q2 in C.hom(z2, int(C.src[g])):
                if int(C.comp[f, int(p2)]) == int(C.comp[g, int(q2)]):
                    if (int(p2), int(q2)) not in reach:
                        return False
    return True


def cospan_cones(C, f: int, g: int) -> list[tuple[int, int, int]]:
    """The cones (z, p, q) over the cospan (f, g), as the former weak
    pullback search listed them."""
    a, b = int(C.src[f]), int(C.src[g])
    cones = []
    for z in range(C.n_objects):
        for p in C.hom(z, a):
            for q in C.hom(z, b):
                if int(C.comp[f, int(p)]) == int(C.comp[g, int(q)]):
                    cones.append((z, int(p), int(q)))
    return cones


def weak_pullback(C, f: int, g: int, cap: int = 1 << 20):
    """First cone over the cospan (f, g) through which every cone factors,
    not necessarily uniquely; None when the window has no such cone."""
    cones = cospan_cones(C, f, g)
    if len(cones) > cap:
        raise ResourceCap("weak pullback cone enumeration", len(cones), cap)
    return next((cone for cone in cones if is_weak_pullback(C, f, g, *cone)), None)


def factor_set(C, g: int) -> set[int]:
    """The arrows that factor through g: every composite g∘u."""
    return {int(C.comp[g, u]) for u in range(C.n_arrows) if C.tgt[u] == C.src[g]}


def class_of(fsets: dict[int, set[int]], reps: list[int], g: int) -> int | None:
    """Position in `reps` of the representative that g factors through and
    that factors through g; `fsets` holds the factor sets of both."""
    return next((i for i, r in enumerate(reps) if g in fsets[r] and r in fsets[g]), None)


def factor_classes(C, arrows) -> tuple[dict[int, set[int]], list[int]]:
    """Factor sets of the arrows, and the least arrow id of each class under
    mutual factorization, in id order."""
    fsets = {int(g): factor_set(C, int(g)) for g in arrows}
    reps: list[int] = []
    for g in sorted(fsets):
        if class_of(fsets, reps, g) is None:
            reps.append(g)
    return fsets, reps


def class_lattice(C, fsets: dict[int, set[int]], reps: list[int]) -> FinInfSL:
    """The classes ordered by factorization, named by their representatives."""
    names = tuple(f"[{C.arrows[r]}]" for r in reps)
    leq = np.array([[g in fsets[r] for r in reps] for g in reps], dtype=bool)
    leq = leq.reshape(len(reps), len(reps))
    top, meet = meets_from_leq(names, leq)
    return FinInfSL(names, leq, top, meet)


def subobject_poset(C, a: int):
    """The mono classes into `a`, their representatives and factor sets."""
    fsets, reps = factor_classes(C, [f for f in range(C.n_arrows)
                                     if C.tgt[f] == a and is_mono(C, f)])
    return class_lattice(C, fsets, reps), reps, fsets


def sub_doctrine(C, pc, scope):
    """Subobject doctrine: reindexing along f: a -> b sends a mono class [m]
    to the first mono class of a, by representative, that f maps into m and
    that every arrow f maps into m factors through."""
    fibers, reps_by_obj, fsets_by_obj = [], [], []
    for a in range(C.n_objects):
        fib, reps, fsets = subobject_poset(C, a)
        fibers.append(fib)
        reps_by_obj.append(reps)
        fsets_by_obj.append(fsets)
        for i, m in enumerate(reps):
            for j, r in enumerate(reps):
                if not (fsets[m] & fsets[r]) <= fsets[reps[fib.meet_of(i, j)]]:
                    raise WindowClosure((C.objects[a],),
                                        f"subobject meet of {fib.elements[i]}, {fib.elements[j]}"
                                        " is not their pullback")
    reindex = []
    for f in range(C.n_arrows):
        a, b = int(C.src[f]), int(C.tgt[f])
        into_a, row = C.into(a).tolist(), C.comp[f].tolist()
        table = np.empty(len(reps_by_obj[b]), dtype=np.int32)
        for j, m in enumerate(reps_by_obj[b]):
            hits = {g for g in into_a if row[g] in fsets_by_obj[b][m]}
            best = next((i for i, n in enumerate(reps_by_obj[a])
                         if n in hits and hits <= fsets_by_obj[a][n]), None)
            if best is None:
                raise WindowClosure((C.objects[a], C.objects[b]),
                                    f"no pullback of {C.arrows[m]} along {C.arrows[f]}")
            table[j] = best
        reindex.append(MonotoneMap(fibers[b], fibers[a], table))
    return DoctrineData(C, pc, scope, fibers, reindex)


class NoWeakPullback(Exception):
    """A cospan with no weak pullback inside the window."""

    def __init__(self, cospan):
        self.cospan = cospan
        super().__init__(f"no weak pullback for cospan {cospan}")


def weak_sub_doctrine(C, pc, scope):
    """Weak-subobject doctrine: reindexing along f sends [m] to the class of
    the first leg of the first weak pullback of (f, m), and every other weak
    pullback's first leg must give the same class."""
    fibers, reps_by_obj, classes = [], [], []
    for a in range(C.n_objects):
        fsets, reps = factor_classes(C, [g for g in range(C.n_arrows) if C.tgt[g] == a])
        try:
            fibers.append(class_lattice(C, fsets, reps))
        except MalformedPresentation:
            for r1 in reps:
                for r2 in reps:
                    if weak_pullback(C, r1, r2) is None:
                        raise NoWeakPullback((C.arrows[r1], C.arrows[r2]))
            raise
        reps_by_obj.append(reps)
        classes.append({g: class_of(fsets, reps, g) for g in fsets})
    reindex = []
    for f in range(C.n_arrows):
        a, b = int(C.src[f]), int(C.tgt[f])
        table = np.empty(len(reps_by_obj[b]), dtype=np.int32)
        for j, m in enumerate(reps_by_obj[b]):
            wp = weak_pullback(C, f, m)
            if wp is None:
                raise NoWeakPullback((C.arrows[f], C.arrows[m]))
            table[j] = classes[a][wp[1]]
            if any(classes[a][p] != table[j] and is_weak_pullback(C, f, m, z, p, q)
                   for z, p, q in cospan_cones(C, f, m)):
                raise MalformedPresentation(
                    "weak pullback choice changes the reflection class "
                    f"for ({C.arrows[f]}, {C.arrows[m]})")
        reindex.append(MonotoneMap(fibers[b], fibers[a], table))
    return DoctrineData(C, pc, scope, fibers, reindex)


def per_objects(P: DoctrineData) -> list[tuple[int, int]]:
    """The former per-element loop: a relation on a core A is an object when
    it is below its swap and r12 ∧ r23 <= r13 over A×A×A."""
    W = P.window
    out = []
    for a in P.scope.core:
        fib = P.fibers[W.prod(a, a)[0]]
        sw = P.r(W.swap(a, a)).table
        aaa, (p1, p2, p3) = W.prod3(a, a, a)
        fib3 = P.fibers[aaa]
        m12, m23, m13 = (P.r(W.pair(x, y)).table for x, y in ((p1, p2), (p2, p3), (p1, p3)))
        for rel in range(fib.n):
            if not fib.le(rel, int(sw[rel])):
                continue
            if fib3.le(fib3.meet_of(int(m12[rel]), int(m23[rel])), int(m13[rel])):
                out.append((a, rel))
    return out


def transitive_extension(P: DoctrineData, c: int, zeta: int, delta: int):
    """The former loop: the transitive elements above zeta in P(C×C), the
    first one below all others, or else the minimal ones."""
    W = P.window
    fib = P.fibers[W.prod(c, c)[0]]
    if not fib.le(delta, zeta):
        raise MalformedPresentation("relation is not reflexive against the given equality")
    ccc, (p1, p2, p3) = W.prod3(c, c, c)
    fib3 = P.fibers[ccc]
    m12, m23, m13 = (P.r(W.pair(x, y)).table for x, y in ((p1, p2), (p2, p3), (p1, p3)))
    cands = [xi for xi in range(fib.n) if fib.le(zeta, xi)
             and fib3.le(fib3.meet_of(int(m12[xi]), int(m23[xi])), int(m13[xi]))]
    for xi in cands:
        if all(fib.le(xi, other) for other in cands):
            return xi
    minimal = [xi for xi in cands
               if not any(other != xi and fib.le(other, xi) for other in cands)]
    return NoExtension(tuple(fib.elements[xi] for xi in minimal))


def l_value(P: DoctrineData, a: int, b: int, rho: int, sig: int, f: int) -> int:
    """The former reindex-only form over A×A×B: rho on the front square met
    with sigma pulled back along <f∘p2, p3>, then the middle dropped."""
    W = P.window
    aab, (p1, p2, p3) = W.prod3(a, a, b)
    fib = P.fibers[aab]
    lifted = fib.meet_of(int(P.r(W.pair(p1, p2)).table[rho]),
                         int(P.r(W.pair(P.cat.compose(f, p2), p3)).table[sig]))
    e13 = exists_along(P, W.pair(p1, p3))
    if isinstance(e13, NoAdjoint):
        raise MalformedPresentation("no existential along the outer projection")
    return int(e13.table[lifted])


def build_erp(P: DoctrineData, E: ElementaryWitness, tp: TCompletion) -> ERCompletion:
    """Full subcategory of the relation completion on reflexive relations.

    Membership by delta <= rho is asserted equivalent to top <= P_diag(rho)
    on every candidate."""
    W = P.window
    keep = []
    for oi, (a, rel) in enumerate(tp.objects):
        by_delta = is_reflexive(P, E, a, rel)
        dg = P.r(W.diag(a)).table
        by_unit = int(dg[rel]) == P.fibers[a].top
        if by_delta != by_unit:
            raise FormulaMismatch("reflexivity test",
                                  f"delta<=rho disagrees with top<=P_diag(rho) "
                                  f"at {tp.cat.objects[oi]}")
        if by_delta:
            keep.append(oi)
    objects = [tp.objects[oi] for oi in keep]
    cat = full_subcategory(tp.cat, keep).source
    pc = choose_products(cat)
    scope = WindowScope(greedy_product_core(cat))
    inclusion = crafted.functor(cat, tp.cat, {nm: nm for nm in cat.objects},
                                {nm: nm for nm in cat.arrows})
    obj_of = {pair: i for i, pair in enumerate(objects)}
    arr_of = {tp.arrows[tp.cat.arr_index[nm]]: i for i, nm in enumerate(cat.arrows)}
    return ERCompletion(cat, pc, scope, tp, objects, obj_of, inclusion, arr_of)


def functor_D(P: DoctrineData, E: ElementaryWitness, er: ERCompletion) -> FunctorData:
    """Graph embedding of the (core of the) base: A goes to (A, delta), an
    arrow to the image of top along its graph, computed both as an
    existential image and as a reindexed equality, with equality asserted."""
    C = P.cat
    W = P.window
    base = full_subcategory(P.cat, P.scope.core).source
    obj_map: dict[str, str] = {}
    arr_map: dict[str, str] = {}
    for a in P.scope.core:
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
        key = (er.tp.obj_of[(a, E.delta[a])], er.tp.obj_of[(b, E.delta[b])], via_exists)
        if key not in er.tp.arr_of:
            raise MalformedPresentation(f"graph of {fname} is not a functional relation")
        arr_map[fname] = er.tp.cat.arrows[er.tp.arr_of[key]]
    return crafted.functor(base, er.cat, obj_map, arr_map)


def build_qp(P: DoctrineData, E: ElementaryWitness, W: ExistentialWitness) -> QCompletion:
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
            raise MalformedPresentation(f"descent fiber over {obj_names[oi]}: top fails descent")
        try:
            fibers.append(sub_semilattice(fib_a, des))
        except MalformedPresentation as exc:
            raise MalformedPresentation(f"descent fiber over {obj_names[oi]}: {exc}")
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
                    raise MalformedPresentation(f"descent fiber over {obj_names[xi]}: "
                                                f"reindex along {C.arrows[f]} leaves descent")
                tab.append(pos_a[v])
            tables.append(tuple(tab))
        if len(set(tables)) != 1:
            raise MalformedPresentation(
                f"descent reindexing differs across representatives of {names[ci]}")
        reindex.append(MonotoneMap(fibers[yi], fibers[xi],
                                   np.array(tables[0], dtype=np.int32)))
    pc = choose_products(cat)
    scope = WindowScope(greedy_product_core(cat))
    doct = DoctrineData(cat, pc if pc is not None else ProductChoice(0, {}),
                        scope, fibers, reindex)
    return QCompletion(cat, pc, scope, objs, obj_of, classes, doct, des_elements)


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
        values = {l_value(P, a, b, rho, sig, f) for f in members}
        if len(values) != 1:
            raise FormulaMismatch("comparison functor",
                                  f"value differs across representatives of {q.cat.arrows[ci]}")
        val = values.pop()
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
        if key not in er.tp.arr_of:
            raise MalformedPresentation(
                f"comparison image of {q.cat.arrows[ci]} is not a functional relation")
        arr_map[q.cat.arrows[ci]] = er.tp.cat.arrows[er.tp.arr_of[key]]
    F = crafted.functor(q.cat, er.cat, obj_map, arr_map)
    # identities must go to identities (the relation itself)
    for oi, (a, rho) in enumerate(q.objects):
        lid = arr_map[q.cat.arrows[int(q.cat.id_arr[oi])]]
        if lid != er.cat.arrows[int(er.cat.id_arr[er.obj_of[(a, rho)]])]:
            raise FormulaMismatch("comparison functor", "identity class not sent to identity")
    return LFunctorResult(F, comparisons, skipped)


def verify_comprehension_arrow(P, a: int, el: int, c: int, strict: bool = True) -> bool:
    """Arrow c restricts the element to top and every other restrictor
    factors through it (uniquely, when strict)."""
    C = P.cat
    if int(C.tgt[c]) != a:
        return False
    if int(P.r(c).table[el]) != P.fibers[int(C.src[c])].top:
        return False
    for f in C.into(a):
        f = int(f)
        if int(P.r(f).table[el]) != P.fibers[int(C.src[f])].top:
            continue
        g = [int(x) for x in C.hom(int(C.src[f]), int(C.src[c]))
             if int(C.comp[c, int(x)]) == f]
        if len(g) == 0 or (strict and len(g) > 1):
            return False
    return True


# ---------------------------------------------------------------------------
# the adjoint decisions that `semilattice.left_adjoints` replaced
# ---------------------------------------------------------------------------


def left_adjoint(h: MonotoneMap) -> MonotoneMap | NoAdjoint:
    """semilattice.left_adjoint as the package had it before `left_adjoints`:
    the least member of each upper set {b : a <= h(b)}, searched element by
    element.  On a map that is not monotone it can return a table that is
    no adjoint, since it never asks whether the upper set is an up-set."""
    L, M = h.dom, h.cod
    table = np.empty(M.n, dtype=np.int32)
    for a in range(M.n):
        cond = M.leq[a][h.table]          # cond[b] iff a <= h(b)
        cand = np.flatnonzero(cond)
        if len(cand) == 0:
            return NoAdjoint(M.elements[a], ())
        sub = L.leq[np.ix_(cand, cand)]
        minimal = np.flatnonzero(sub.all(axis=1))
        if len(minimal) == 0:
            return NoAdjoint(M.elements[a], tuple(L.elements[c] for c in cand))
        table[a] = cand[minimal[0]]
    return MonotoneMap(M, L, table)


def is_left_adjoint(E_table: np.ndarray, big_leq: np.ndarray,
                    small_leq: np.ndarray, H_table: np.ndarray) -> bool:
    """E -| H for E: small -> big tabled by E_table and H tabled by H_table,
    via the full Galois biconditional on all element pairs: the test
    structure.py made before it compared with the computed adjoint."""
    lhs = big_leq[E_table]          # (n_small, n_big): E(a) <= b
    rhs = small_leq[:, H_table]     # (n_small, n_big): a <= H(b)
    return bool(np.array_equal(lhs, rhs))


def elementary_candidates(P: DoctrineData, a: int) -> list[int]:
    """structure.elementary_candidates as the package had it: both
    adjointness conditions tested for one element d of P(A×A) at a time."""
    W = P.window
    aa, pr1, _ = W.prod(a, a)
    fib_a, fib_aa = P.fibers[a], P.fibers[aa]
    r_pr1 = P.r(pr1).table
    r_diag = P.r(W.diag(a)).table
    cands = []
    for d in range(fib_aa.n):
        if not is_left_adjoint(fib_aa.meet[r_pr1, d], fib_aa.leq, fib_a.leq, r_diag):
            continue
        ok = True
        for x in P.scope.core:
            xa, _, q2 = W.prod(x, a)
            fib_xaa, _, r12, r23, _ = triple_product(P, x, a, a)
            e = W.pair(int(P.cat.id_arr[xa]), q2)       # <pr1, pr2, pr2>
            if not is_left_adjoint(fib_xaa.meet[r12, r23[d]], fib_xaa.leq,
                                   P.fibers[xa].leq, P.r(e).table):
                ok = False
                break
        if ok:
            cands.append(d)
    return cands


def meets_at_generators(P: DoctrineData) -> bool:
    """The homomorphism clause at the generators, as the package decided it
    before it read adjoint existence (`doctrine._laws_scan`): top, then
    P(g)(x ∧ y) = P(g)(x) ∧ P(g)(y) on every pair, for each (src, tgt)
    block of generators g."""
    C = P.cat
    gens = C.generators()
    src, tgt = C.src[gens], C.tgt[gens]
    for b, c in sorted(set(zip(src.tolist(), tgt.tolist()))):
        fib_b, fib_c = P.fibers[b], P.fibers[c]
        R = np.stack([P.reindex[g].table for g in gens[(src == b) & (tgt == c)].tolist()])
        if (R[:, fib_c.top] != fib_b.top).any():
            return False
        meets_after = np.take(R, fib_c.meet, axis=1)                  # P(g)(x ∧ y)
        meets_before = fib_b.meet[R[:, :, None], R[:, None, :]]
        if not np.array_equal(meets_after, meets_before):
            return False
    return True


def enumerate_fiber_homs(L: FinInfSL, M: FinInfSL, cap: int) -> list[np.ndarray]:
    """The former candidate loop: one map per table of values off the top,
    in `itertools.product` order, kept when it preserves top and meets."""
    est = M.n ** max(0, L.n - 1)
    if est > cap:
        raise ResourceCap("fiber homomorphisms", est, cap)
    non_top = [i for i in range(L.n) if i != L.top]
    out = []
    for combo in itertools.product(range(M.n), repeat=len(non_top)):
        table = np.empty(L.n, dtype=np.int32)
        table[L.top] = M.top
        for i, v in zip(non_top, combo):
            table[i] = v
        if homomorphism_violation(MonotoneMap(L, M, table)) is None:
            out.append(table)
    return out


# ---------------------------------------------------------------------------
# the universal-property harness's former 2-cell searches
# ---------------------------------------------------------------------------


def preserves_eed(P: DoctrineData, R: DoctrineData, mor,
                  E_P: ElementaryWitness, E_R: ElementaryWitness) -> bool:
    """The former test of a whole morphism for the equality condition and
    the commutation with existentials along core projections, functor and
    components together."""
    winP, winR = P.window, R.window
    for a in P.scope.core:
        aa, p1, p2 = winP.prod(a, a)
        fa = int(mor.F.obj_map[a])
        if (fa, fa) not in R.products.binary:
            return False
        cmp_arrow = winR.pair(int(mor.F.arr_map[p1]), int(mor.F.arr_map[p2]))   # F(A×A) -> FA×FA
        lhs = int(mor.components[aa].table[E_P.delta[a]])
        if fa not in E_R.delta:
            return False
        rhs = int(R.r(cmp_arrow).table[E_R.delta[fa]])
        if lhs != rhs:
            return False
    for a in P.scope.core:
        for b in P.scope.core:
            ab, p1, p2 = winP.prod(a, b)
            for pr, tgt in ((p1, a), (p2, b)):
                eP = exists_along(P, pr)
                eR = exists_along(R, int(mor.F.arr_map[pr]))
                if isinstance(eP, NoAdjoint) or isinstance(eR, NoAdjoint):
                    return False
                bt = mor.components[tgt].table
                bab = mor.components[ab].table
                if not np.array_equal(bt[eP.table], eR.table[bab]):
                    return False
    return True


def morphism_preserves_comprehensions(P: DoctrineData, R: DoctrineData, mor) -> bool:
    """The former per-morphism test of the strict reading: the functor image
    of each comprehension arrow is a comprehension of the component image
    of its element."""
    for ent in comprehension_table(P).entries:
        if ent.kind == "none":
            continue
        img = int(mor.components[ent.obj].table[ent.element])
        if not verify_comprehension_arrow(R, int(mor.F.obj_map[ent.obj]), img,
                                          int(mor.F.arr_map[ent.arrow]),
                                          strict=(ent.kind == "strict")):
            return False
    return True


def lax_filtered_2cells(P: DoctrineData, R: DoctrineData, m1, m2) -> list[tuple[int, ...]]:
    """The former per-pair loop: each object's candidates filtered for
    laxness, then every combination of them by `itertools.product`, kept
    when natural; each cell is its component arrow ids by source object."""
    S, T = P.cat, R.cat
    choices = []
    for a in range(S.n_objects):
        b1, b2 = m1.components[a], m2.components[a]
        choices.append([h for h in T.hom(int(m1.F.obj_map[a]), int(m2.F.obj_map[a])).tolist()
                        if b1.cod.leq[b1.table, R.r(h).table[b2.table]].all()])
    squares = [(int(S.src[f]), int(S.tgt[f]), int(m1.F.arr_map[f]), int(m2.F.arr_map[f]))
               for f in range(S.n_arrows)]
    return [combo for combo in itertools.product(*choices)
            if all(T.comp[combo[b], f1] == T.comp[f2, combo[a]] for a, b, f1, f2 in squares)]


def valid_2cells(P: DoctrineData, R: DoctrineData, m1, m2) -> list[dict[str, str]]:
    """Every combination of components, by `itertools.product`, kept when it
    is natural and then lax against the fiber maps; each kept cell is a dict
    from source object name to target arrow name."""
    S, T = P.cat, R.cat
    comp_choices = []
    for a in range(S.n_objects):
        comp_choices.append([int(h) for h in T.hom(int(m1.F.obj_map[a]), int(m2.F.obj_map[a]))])
    out = []
    for combo in itertools.product(*comp_choices):
        natural = True
        for f in range(S.n_arrows):
            a, b = int(S.src[f]), int(S.tgt[f])
            if int(T.comp[combo[b], m1.F.arr_map[f]]) != int(T.comp[m2.F.arr_map[f], combo[a]]):
                natural = False
                break
        if not natural:
            continue
        lax = True
        for a in range(S.n_objects):
            b1, b2 = m1.components[a], m2.components[a]
            rt = R.r(combo[a]).table
            if not all(b1.cod.le(int(b1.table[x]), int(rt[b2.table[x]]))
                       for x in range(b1.dom.n)):
                lax = False
                break
        if lax:
            out.append({S.objects[a]: T.arrows[combo[a]] for a in range(S.n_objects)})
    return out


def enumerate_functors(S: FinCat, Spc: ProductChoice, T: FinCat, Tpc: ProductChoice,
                       cap: int) -> list[tuple[dict[str, str], dict[str, str]]]:
    """The former name-keyed enumeration of the product-preserving functors
    S -> T: object maps in `itertools.product` order, then every combination
    of the images of the arrows that are no identities; each functor that
    validates as its object and arrow maps by name."""
    non_id = [f for f in range(S.n_arrows) if f != int(S.id_arr[int(S.src[f])])]
    if T.n_objects ** S.n_objects > cap:
        raise ResourceCap("functor object maps", T.n_objects ** S.n_objects, cap)
    out = []
    for omap in itertools.product(range(T.n_objects), repeat=S.n_objects):
        cand_lists = [[int(h) for h in T.hom(omap[int(S.src[f])], omap[int(S.tgt[f])])]
                      for f in non_id]
        for combo in itertools.product(*cand_lists):
            amap = {}
            for o in range(S.n_objects):
                amap[S.arrows[int(S.id_arr[o])]] = T.arrows[int(T.id_arr[omap[o]])]
            for f, tf in zip(non_id, combo):
                amap[S.arrows[f]] = T.arrows[tf]
            obj_map = {S.objects[o]: T.objects[omap[o]] for o in range(S.n_objects)}
            if validate_functor(crafted.functor(S, T, obj_map, amap), (Spc, Tpc)).ok:
                out.append((obj_map, amap))
    return out


def functor_composition_violation(F: FunctorData) -> ValidationReport | None:
    """The former composition clause of `validate_functor`: each typed pair
    (g, f), g in arrow order and then f, until F(g∘f) != F(g)∘F(f)."""
    S, T = F.source, F.target
    for g in range(S.n_arrows):
        for f in np.flatnonzero(S.tgt == S.src[g]):
            lhs = int(F.arr_map[S.comp[g, f]])
            rhs = int(T.comp[F.arr_map[g], F.arr_map[f]])
            if lhs != rhs:
                return ValidationReport(False, "Functor", (S.arrows[g], S.arrows[int(f)]),
                                        "composition not preserved")
    return None


# ---------------------------------------------------------------------------
# checks that only the tests make
# ---------------------------------------------------------------------------


def doctrine_equal(P: DoctrineData, Q: DoctrineData) -> bool:
    """Structural equality of presentations (canonical-form identity)."""
    if (P.cat.objects != Q.cat.objects or P.cat.arrows != Q.cat.arrows
            or not np.array_equal(P.cat.src, Q.cat.src)
            or not np.array_equal(P.cat.tgt, Q.cat.tgt)
            or not np.array_equal(P.cat.id_arr, Q.cat.id_arr)
            or not np.array_equal(P.cat.comp, Q.cat.comp)):
        return False
    if (P.products.terminal != Q.products.terminal
            or P.products.binary != Q.products.binary
            or P.scope.core != Q.scope.core):
        return False
    for f1, f2 in zip(P.fibers, Q.fibers):
        if f1 != f2:
            return False
    for r1, r2 in zip(P.reindex, Q.reindex):
        if not np.array_equal(r1.table, r2.table):
            return False
    return True


@dataclass
class RelClassification:
    is_symmetric_idempotent: bool
    is_map: bool


def classify(P: DoctrineData, E: ElementaryWitness, th: RelArrow) -> RelClassification:
    """Symmetric idempotents are the self-opposite, self-composing
    endorelations; maps are single-valued (op;self below equality) and total
    (equality below self;op)."""
    sym_idem = False
    if th.src == th.tgt:
        sym_idem = (rel_opposite(P, th).el == th.el
                    and rel_compose(P, th, th).el == th.el)
    is_map = False
    if th.src in E.delta and th.tgt in E.delta:
        op = rel_opposite(P, th)
        ab = P.window.prod(th.tgt, th.tgt)[0]
        ba = P.window.prod(th.src, th.src)[0]
        single = P.fibers[ab].le(rel_compose(P, op, th).el, E.delta[th.tgt])
        total = P.fibers[ba].le(E.delta[th.src], rel_compose(P, th, op).el)
        is_map = single and total
    return RelClassification(sym_idem, is_map)


def is_monotone(h: MonotoneMap) -> bool:
    return bool((~h.dom.leq | h.cod.leq[h.table][:, h.table]).all())


def homomorphism_violation(h: MonotoneMap) -> str | None:
    """First top/meet preservation failure in canonical order, if any."""
    if int(h.table[h.dom.top]) != h.cod.top:
        return f"top {h.dom.elements[h.dom.top]} maps to non-top"
    lhs = h.table[h.dom.meet]
    rhs = h.cod.meet[h.table[:, None], h.table[None, :]]
    bad = np.argwhere(lhs != rhs)
    if len(bad):
        i, j = map(int, bad[0])
        return f"meet not preserved at ({h.dom.elements[i]}, {h.dom.elements[j]})"
    return None


def check_adjunction(e: MonotoneMap, h: MonotoneMap) -> bool:
    """Check e -| h via both unit and counit inequalities, exhaustively."""
    M, L = e.dom, e.cod
    unit = all(M.le(a, int(h.table[e.table[a]])) for a in range(M.n))
    counit = all(L.le(int(e.table[h.table[b]]), b) for b in range(L.n))
    return unit and counit
