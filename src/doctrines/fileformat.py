"""Textual doctrine files.

Sections, in canonical order:

    base {
      objects A B ...
      arrow f A B            # one line per arrow, identifier order
      identity A = f
      compose g f = h        # total on composable pairs
      terminal T
      product A B = P pr1 pr2
    }
    fiber A { elements ... ; top t ; leq x y ... }
    reindex f { x -> y ... } # target-to-source, total on the target fiber
    core { A B ... }

`leq` lines are cover pairs; the parser takes the reflexive-transitive
closure and derives the meet table (rejecting posets that are not
inf-semilattices).  Reindex blocks must be total: partially specified maps
are parse errors, never defaulted.  Unknown identifiers are errors with line
and column.  Emission produces the canonical form, so parse-emit-parse is
the identity on it.
"""

from __future__ import annotations

import numpy as np

from .doctrine import DoctrineData
from .errors import MalformedPresentation, ParseError
from .fincat import FinCat, ProductChoice, WindowScope
from .semilattice import FinInfSL, MonotoneMap, lattice_from_leq

_RESERVED = {"{", "}", "=", "->", ";"}


def _err(ln: int, raw: str, tok: str, msg: str) -> ParseError:
    col = raw.find(tok) + 1 if tok and tok in raw else 1
    return ParseError(ln, col, msg)


def parse_doctrine(text: str) -> DoctrineData:
    """Line-oriented parse: section headers end with '{', '}' closes a
    section, one declaration per line, variadic lists end with ';'."""
    objects: list[str] = []
    arrows: list[tuple[str, str, str]] = []
    identity: dict[str, str] = {}
    compose: dict[tuple[str, str], str] = {}
    terminal: str | None = None
    binary: dict[tuple[str, str], tuple[str, str, str]] = {}
    fibers_raw: dict[str, tuple[list[str], str, list[tuple[str, str]], int]] = {}
    reindex_raw: dict[str, tuple[list[tuple[str, str, int]], int]] = {}
    core: list[str] | None = None
    obj_set: set[str] = set()
    arr_set: set[str] = set()

    section: tuple | None = None
    felements: list[str] = []
    ftop: str | None = None
    fpairs: list[tuple[str, str]] = []
    rentries: list[tuple[str, str, int]] = []

    def ident(ln, raw, tok, what):
        if tok in _RESERVED or "{" in tok or "}" in tok:
            raise _err(ln, raw, tok, f"expected {what}, got {tok!r}")
        return tok

    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0] if "#" in raw else raw
        parts = body.split()
        if not parts:
            continue
        kind0 = section[0] if section is not None else None
        if kind0 == "reindex" and len(parts) == 3 and parts[1] == "->":
            rentries.append((parts[0], parts[2], ln))
            continue
        if kind0 == "base" and parts[0] == "compose":
            if len(parts) == 5 and parts[3] == "=":
                g, f, h = parts[1], parts[2], parts[4]
                if g not in arr_set:
                    raise _err(ln, raw, g, f"unknown arrow {g!r}")
                if f not in arr_set:
                    raise _err(ln, raw, f, f"unknown arrow {f!r}")
                if h not in arr_set:
                    raise _err(ln, raw, h, f"unknown arrow {h!r}")
                compose[(g, f)] = h
                continue
            raise _err(ln, raw, parts[0], "malformed compose entry")
        if section is None:
            head = parts[0]
            if head == "base" and parts[1:] == ["{"]:
                section = ("base",)
            elif head == "fiber" and len(parts) == 3 and parts[2] == "{":
                o = ident(ln, raw, parts[1], "object")
                if o not in obj_set:
                    raise _err(ln, raw, o, f"unknown object {o!r}")
                section = ("fiber", o, ln)
                felements, ftop, fpairs = [], None, []
            elif head == "reindex" and len(parts) == 3 and parts[2] == "{":
                f = ident(ln, raw, parts[1], "arrow")
                if f not in arr_set:
                    raise _err(ln, raw, f, f"unknown arrow {f!r}")
                section = ("reindex", f, ln)
                rentries = []
            elif head == "core" and parts[1] == "{":
                core = []
                rest = parts[2:]
                closed = False
                for tok in rest:
                    if tok == "}":
                        closed = True
                        break
                    if tok not in obj_set:
                        raise _err(ln, raw, tok, f"unknown object {tok!r}")
                    core.append(tok)
                if not closed:
                    section = ("core",)
            else:
                raise _err(ln, raw, head, f"unknown section {head!r}")
            continue
        if parts == ["}"]:
            if section[0] == "fiber":
                if ftop is None:
                    raise ParseError(section[2], 1, f"fiber {section[1]!r} has no top")
                fibers_raw[section[1]] = (felements, ftop, fpairs, section[2])
            elif section[0] == "reindex":
                reindex_raw[section[1]] = (rentries, section[2])
            section = None
            continue
        kind = section[0]
        head = parts[0]
        if kind == "base":
            if head == "objects":
                if parts[-1] != ";":
                    raise _err(ln, raw, head, "objects list must end with ';'")
                for o in parts[1:-1]:
                    ident(ln, raw, o, "object")
                    if o in obj_set:
                        raise _err(ln, raw, o, f"duplicate object {o!r}")
                    objects.append(o)
                    obj_set.add(o)
            elif head == "arrow" and len(parts) == 4:
                f, a, b = parts[1], parts[2], parts[3]
                ident(ln, raw, f, "arrow name")
                for o in (a, b):
                    if o not in obj_set:
                        raise _err(ln, raw, o, f"unknown object {o!r}")
                if f in arr_set:
                    raise _err(ln, raw, f, f"duplicate arrow {f!r}")
                arrows.append((f, a, b))
                arr_set.add(f)
            elif head == "identity" and len(parts) == 4 and parts[2] == "=":
                o, f = parts[1], parts[3]
                if o not in obj_set:
                    raise _err(ln, raw, o, f"unknown object {o!r}")
                if f not in arr_set:
                    raise _err(ln, raw, f, f"unknown arrow {f!r}")
                identity[o] = f
            elif head == "terminal" and len(parts) == 2:
                if parts[1] not in obj_set:
                    raise _err(ln, raw, parts[1], f"unknown object {parts[1]!r}")
                terminal = parts[1]
            elif head == "product" and len(parts) == 7 and parts[3] == "=":
                a, b, p, p1, p2 = parts[1], parts[2], parts[4], parts[5], parts[6]
                for o in (a, b, p):
                    if o not in obj_set:
                        raise _err(ln, raw, o, f"unknown object {o!r}")
                for x in (p1, p2):
                    if x not in arr_set:
                        raise _err(ln, raw, x, f"unknown arrow {x!r}")
                binary[(a, b)] = (p, p1, p2)
            else:
                raise _err(ln, raw, head, f"malformed base entry {head!r}")
        elif kind == "fiber":
            if head == "elements":
                if parts[-1] != ";":
                    raise _err(ln, raw, head, "elements list must end with ';'")
                for e in parts[1:-1]:
                    felements.append(ident(ln, raw, e, "element"))
            elif head == "top" and len(parts) == 2:
                ftop = ident(ln, raw, parts[1], "element")
            elif head == "leq" and len(parts) == 3:
                fpairs.append((parts[1], parts[2]))
            else:
                raise _err(ln, raw, head, f"malformed fiber entry {head!r}")
        elif kind == "reindex":
            if len(parts) == 3 and parts[1] == "->":
                rentries.append((parts[0], parts[2], ln))
            else:
                raise _err(ln, raw, head, "malformed reindex entry")
        elif kind == "core":
            for tok in parts:
                if tok == "}":
                    section = None
                    break
                if tok not in obj_set:
                    raise _err(ln, raw, tok, f"unknown object {tok!r}")
                core.append(tok)
    if section is not None:
        raise ParseError(len(text.splitlines()), 1, "unterminated section")
    if not objects:
        raise ParseError(1, 1, "no objects declared")
    if terminal is None:
        raise ParseError(1, 1, "no terminal declared")
    try:
        cat = FinCat.build(objects, arrows, identity, compose)
    except MalformedPresentation as exc:
        raise ParseError(1, 1, str(exc))
    # fibers: reflexive-transitive closure of the cover pairs
    fibers: list[FinInfSL] = []
    for o in objects:
        if o not in fibers_raw:
            raise ParseError(1, 1, f"object {o!r} has no fiber block")
        elements, top, pairs, lno = fibers_raw[o]
        if len(set(elements)) != len(elements) or not elements:
            raise ParseError(lno, 1, f"fiber of {o!r} has duplicate or no elements")
        idx = {e: i for i, e in enumerate(elements)}
        n = len(elements)
        leq = np.eye(n, dtype=bool)
        for x, y in pairs:
            if x not in idx or y not in idx:
                raise ParseError(lno, 1, f"fiber of {o!r} mentions unknown element")
            leq[idx[x], idx[y]] = True
        while True:
            closure = leq | ((leq.astype(np.uint8) @ leq.astype(np.uint8)) > 0)
            if np.array_equal(closure, leq):
                break
            leq = closure
        try:
            fib = lattice_from_leq(elements, leq)
        except MalformedPresentation as exc:
            raise ParseError(lno, 1, f"fiber of {o!r}: {exc}")
        if top not in idx or idx[top] != fib.top:
            raise ParseError(lno, 1, f"fiber of {o!r}: declared top is not the top")
        fibers.append(fib)
    # reindexing: total, target-to-source
    reindex: list[MonotoneMap] = []
    for f, a, b in arrows:
        fa = fibers[cat.obj_index[a]]
        fb = fibers[cat.obj_index[b]]
        if f not in reindex_raw:
            raise ParseError(1, 1, f"arrow {f!r} has no reindex block")
        entries, lnf = reindex_raw[f]
        table = np.full(fb.n, -1, dtype=np.int32)
        for x, y, ln2 in entries:
            if x not in fb.index:
                raise ParseError(ln2, 1, f"element {x!r} not in the fiber of {b!r}")
            if y not in fa.index:
                raise ParseError(ln2, 1, f"element {y!r} not in the fiber of {a!r}")
            if table[fb.index[x]] >= 0:
                raise ParseError(ln2, 1, f"duplicate entry for {x!r}")
            table[fb.index[x]] = fa.index[y]
        if (table < 0).any():
            missing = fb.elements[int(np.flatnonzero(table < 0)[0])]
            raise ParseError(lnf, 1,
                             f"reindex of {f!r} is partial: no entry for {missing!r}")
        reindex.append(MonotoneMap(fb, fa, table))
    pc = ProductChoice(terminal, binary)
    scope = WindowScope(tuple(core) if core is not None else tuple(objects))
    return DoctrineData(cat, pc, scope, fibers, reindex)


def _cover_pairs(fib: FinInfSL) -> list[tuple[int, int]]:
    lt = fib.leq & ~np.eye(fib.n, dtype=bool)
    via = (lt.astype(np.uint8) @ lt.astype(np.uint8)) > 0
    cov = lt & ~via
    return [(int(i), int(j)) for i, j in np.argwhere(cov)]


def emit_doctrine(P: DoctrineData) -> str:
    C = P.cat
    out: list[str] = ["base {"]
    out.append("  objects " + " ".join(C.objects) + " ;")
    for f in range(C.n_arrows):
        out.append(f"  arrow {C.arrows[f]} {C.objects[int(C.src[f])]}"
                   f" {C.objects[int(C.tgt[f])]}")
    for o in range(C.n_objects):
        out.append(f"  identity {C.objects[o]} = {C.arrows[int(C.id_arr[o])]}")
    gi, fi = np.nonzero(C.comp >= 0)
    for g, f in zip(gi, fi):
        out.append(f"  compose {C.arrows[int(g)]} {C.arrows[int(f)]}"
                   f" = {C.arrows[int(C.comp[g, f])]}")
    out.append(f"  terminal {P.products.terminal}")
    for (a, b), (p, p1, p2) in P.products.binary.items():
        out.append(f"  product {a} {b} = {p} {p1} {p2}")
    out.append("}")
    for o in range(C.n_objects):
        fib = P.fibers[o]
        out.append(f"fiber {C.objects[o]} {{")
        out.append("  elements " + " ".join(fib.elements) + " ;")
        out.append(f"  top {fib.elements[fib.top]}")
        for i, j in _cover_pairs(fib):
            out.append(f"  leq {fib.elements[i]} {fib.elements[j]}")
        out.append("}")
    for f in range(C.n_arrows):
        fb = P.fibers[int(C.tgt[f])]
        fa = P.fibers[int(C.src[f])]
        out.append(f"reindex {C.arrows[f]} {{")
        t = P.reindex[f].table
        for x in range(fb.n):
            out.append(f"  {fb.elements[x]} -> {fa.elements[int(t[x])]}")
        out.append("}")
    out.append("core { " + " ".join(P.scope.core) + " }")
    return "\n".join(out) + "\n"


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
