"""Relational calculus over a doctrine.

A relation from A to B is an element of P(A×B).  Composition reindexes both
relations to the triple product, meets, and projects out the middle factor
(the projection that drops it); the opposite reindexes along the swap.  The
triple product's reindexing tables are read here and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .doctrine import DoctrineData, exists_along
from .errors import MalformedPresentation
from .semilattice import FinInfSL, NoAdjoint


@dataclass(frozen=True)
class RelArrow:
    src: int   # object index A
    tgt: int   # object index B
    el: int    # element index in P(A×B)


class TripleProduct(NamedTuple):
    """The fiber of A×B×C, the arrows <p1,p2>, <p2,p3>, <p1,p3> out of it
    and the reindexing tables along them."""
    fiber: FinInfSL
    legs: tuple[int, int, int]
    r12: np.ndarray
    r23: np.ndarray
    r13: np.ndarray


def triple_product(P: DoctrineData, a: int, b: int, c: int) -> TripleProduct:
    W = P.window
    abc, (p1, p2, p3) = W.prod3(a, b, c)
    legs = (W.pair(p1, p2), W.pair(p2, p3), W.pair(p1, p3))
    return TripleProduct(P.fibers[abc], legs, *(P.r(m).table for m in legs))


def transitive_mask(P: DoctrineData, a: int) -> np.ndarray:
    """Over P(A×A): r12(x) ∧ r23(x) <= r13(x) in P(A×A×A)."""
    fib3, _, r12, r23, r13 = triple_product(P, a, a, a)
    return fib3.leq[fib3.meet[r12, r23], r13]


def rel_compose(P: DoctrineData, th: RelArrow, ze: RelArrow) -> RelArrow:
    """th ; ze for th: A -> B, ze: B -> C, via the triple product A×B×C."""
    if th.tgt != ze.src:
        raise MalformedPresentation("relations not composable")
    fib3, legs, r12, r23, _ = triple_product(P, th.src, th.tgt, ze.tgt)
    lifted = fib3.meet_of(int(r12[th.el]), int(r23[ze.el]))
    e13 = exists_along(P, legs[2])
    if isinstance(e13, NoAdjoint):
        raise MalformedPresentation(
            f"no existential along {P.cat.arrows[legs[2]]} (doctrine is not existential there)")
    return RelArrow(th.src, ze.tgt, int(e13.table[lifted]))


def rel_opposite(P: DoctrineData, th: RelArrow) -> RelArrow:
    """Reindex along the swap B×A -> A×B."""
    W = P.window
    _, q1, q2 = W.prod(th.tgt, th.src)
    sw = W.pair(q2, q1)
    return RelArrow(th.tgt, th.src, int(P.r(sw).table[th.el]))
