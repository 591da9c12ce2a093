"""Relational calculus over a doctrine.

A relation from A to B is an element of P(A×B).  Composition reindexes both
relations to the triple product, meets, and projects out the middle factor
(the projection that drops it); the opposite reindexes along the swap.
"""

from __future__ import annotations

from dataclasses import dataclass

from .doctrine import DoctrineData, exists_along
from .errors import MalformedPresentation
from .semilattice import NoAdjoint


@dataclass(frozen=True)
class RelArrow:
    src: int   # object index A
    tgt: int   # object index B
    el: int    # element index in P(A×B)


def rel_compose(P: DoctrineData, th: RelArrow, ze: RelArrow) -> RelArrow:
    """th ; ze for th: A -> B, ze: B -> C, via the triple product A×B×C."""
    if th.tgt != ze.src:
        raise MalformedPresentation("relations not composable")
    a, b, c = th.src, th.tgt, ze.tgt
    W = P.window
    abc, _ = W.prod3(a, b, c)
    m12 = W.pair3(a, b, c, 1, 2)
    m23 = W.pair3(a, b, c, 2, 3)
    m13 = W.pair3(a, b, c, 1, 3)
    lifted = P.fibers[abc].meet_of(int(P.r(m12).table[th.el]), int(P.r(m23).table[ze.el]))
    e13 = exists_along(P, m13)
    if isinstance(e13, NoAdjoint):
        raise MalformedPresentation(
            f"no existential along {P.cat.arrows[m13]} (doctrine is not existential there)")
    return RelArrow(a, c, int(e13.table[lifted]))


def rel_opposite(P: DoctrineData, th: RelArrow) -> RelArrow:
    """Reindex along the swap B×A -> A×B."""
    W = P.window
    _, q1, q2 = W.prod(th.tgt, th.src)
    sw = W.pair(q2, q1)
    return RelArrow(th.tgt, th.src, int(P.r(sw).table[th.el]))
