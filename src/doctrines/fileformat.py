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
are parse errors, never defaulted.  A repeated `compose g f` line keeps its
last entry.  Unknown identifiers are errors with line and column.  Emission
produces the canonical form, so parse-emit-parse is the identity on it.  Runs
of compose lines and reindex blocks in canonical form are read in bulk; any
other layout is read line by line, to the same result and the same errors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import repeat
from sys import intern
from typing import NamedTuple

import numpy as np

from .doctrine import DoctrineData
from .errors import MalformedPresentation, ParseError
from .fincat import FinCat, ProductChoice, WindowScope
from .semilattice import FinInfSL, MonotoneMap, lattice_from_leq

_RESERVED = {"{", "}", "=", "->", ";"}


def _err(ln: int, raw: str, tok: str, msg: str) -> ParseError:
    col = raw.find(tok) + 1 if tok and tok in raw else 1
    return ParseError(ln, col, msg)


def _ident(ln: int, raw: str, tok: str, what: str) -> str:
    if tok in _RESERVED or "{" in tok or "}" in tok:
        raise _err(ln, raw, tok, f"expected {what}, got {tok!r}")
    return tok


@dataclass(slots=True)
class _FiberBlock:
    line: int
    elements: list[str] = field(default_factory=list)
    top: str | None = None
    pairs: list[tuple[str, str]] = field(default_factory=list)


@dataclass(slots=True)
class _ReindexBlock:
    line: int
    targets: list[str] = field(default_factory=list)   # entry k: targets[k] -> sources[k]
    sources: list[str] = field(default_factory=list)
    lines: list[int] = field(default_factory=list)


class _Read(NamedTuple):
    """What the line pass gathers: names resolved to indices, fiber and
    reindex blocks keyed by the index of their object or arrow."""

    objects: list[str]
    arrows: list[str]
    src: list[int]
    tgt: list[int]
    identity: dict[int, int]
    compose: np.ndarray    # one row (g, f, h) per compose line in turn: comp[g, f] = h
    terminal: int | None
    binary: dict[tuple[int, int], tuple[int, int, int]]
    fibers: dict[int, _FiberBlock]
    reindex: dict[int, _ReindexBlock]
    core: list[int] | None


_PIECE = 1 << 16              # characters of whole lines read at a time
_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"   # splitlines' line breaks but \n
_RUN_END = re.compile(r"\n(?!  compose )")
_BLOCK = re.compile(r"reindex (\S+) \{\n((?:  \S+ -> \S+\n)*)\}\n")
_BULK = {("base", "compose"), (None, "reindex")}     # (section, head) where bulk runs start


def _lines(text: str, jump: list[int], chunk: int = _PIECE):
    """(position in text or -1, line) for the lines of text.splitlines(), cut
    after a newline every chunk characters or so; a position put on jump
    resumes the lines there, and -1 marks a piece with another line break."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + chunk) + 1 or len(text)
        piece = text[start:end]
        at = -1 if any(map(piece.__contains__, _BREAKS)) else start
        for raw in piece.splitlines():
            yield at, raw
            if jump:
                end = jump.pop()
                break
            at += len(raw) + 1 if at >= 0 else 0
        start = end


def _compose_run(text: str, pos: int, names: dict[str, int], out: list) -> tuple[int, int]:
    """Read compose lines from pos a chunk at a time, with one split and one name
    map, while the per-line reader would read the same entries: the position
    and the number of lines reached."""
    lines = 0
    while text.startswith("  compose ", pos) and "compose" not in names:
        m = _RUN_END.search(text, pos, text.find("\n", pos + _PIECE) + 1 or len(text))
        if m is None:               # the last line, without a newline
            break
        end = m.end()               # the n lines up to end start with "  compose "
        chunk, n = text[pos:end], text.count("\n", pos, end)
        toks = [] if any(map(chunk.__contains__, _BREAKS)) else chunk.split()
        # once g, f, h resolve in names (no compose, no name with #) and every
        # fourth token is =, compose starts each line alone: 5 tokens a line
        if len(toks) != 5 * n or toks[3::5].count("=") != n:
            break
        try:
            out.append(np.stack([np.fromiter(map(names.__getitem__, toks[k::5]), np.intp, n)
                                 for k in (1, 2, 4)], axis=1))
        except KeyError:
            break
        pos, lines = end, lines + n
    return pos, lines


def _reindex_blocks(text: str, pos: int, ln: int, arr_index: dict[str, int], tgt: list[int],
                    fibers: dict[int, _FiberBlock], out: dict[int, _ReindexBlock]):
    """Read reindex blocks from pos, the first with its header at line ln, each
    body with one split, while the per-line reader would read the same lines:
    the position and the number of lines reached."""
    lines = 0
    while (m := _BLOCK.match(text, pos)) and m[1] in arr_index and "#" not in m[2]:
        toks = m[2].split()
        f, n = arr_index[m[1]], len(toks) // 3
        block = out[f] = _ReindexBlock(ln + lines)
        elements = getattr(fibers.get(tgt[f]), "elements", None)    # one copy of each name:
        block.targets = elements if toks[0::3] == elements else list(map(intern, toks[0::3]))
        block.sources = list(map(intern, toks[2::3]))              # the fiber's, or interned
        block.lines = range(block.line + 1, block.line + 1 + n)
        pos, lines = m.end(), lines + n + 2
    return pos, lines


def _read_lines(text: str) -> _Read:
    """One pass over the lines, dispatching on the open section; names of
    objects and arrows are resolved as they are read, so every line-level
    error is raised in line order.  Lines the bulk readers leave, errors
    among them, are read here."""
    objects: list[str] = []
    obj_index: dict[str, int] = {}
    arrows: list[str] = []
    arr_index: dict[str, int] = {}
    src: list[int] = []
    tgt: list[int] = []
    identity: dict[int, int] = {}
    compose: list = [[]]   # arrays of rows (g, f, h), and lists g, f, h, ... read singly
    put = compose[-1].append
    terminal: int | None = None
    binary: dict[tuple[int, int], tuple[int, int, int]] = {}
    fibers: dict[int, _FiberBlock] = {}
    reindex: dict[int, _ReindexBlock] = {}
    core: list[int] | None = None

    section: str | None = None   # "base", "fiber", "reindex", "core" or None
    owner = -1                   # the open block's object or arrow

    def known_object(ln, raw, o):
        if o not in obj_index:
            raise _err(ln, raw, o, f"unknown object {o!r}")
        return obj_index[o]

    def known_arrow(ln, raw, f):
        if f not in arr_index:
            raise _err(ln, raw, f, f"unknown arrow {f!r}")
        return arr_index[f]

    ln = bulk_from = 0           # no bulk read starts before bulk_from
    jump: list[int] = []         # where the lines resume after a bulk read
    for at, raw in _lines(text, jump):
        ln += 1
        parts = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not parts:
            continue
        if at >= bulk_from and (section, parts[0]) in _BULK:
            if section == "base":
                stop, n = _compose_run(text, at, arr_index, compose)
                compose.append([])
                put = compose[-1].append
            else:
                stop, n = _reindex_blocks(text, at, ln, arr_index, tgt, fibers, reindex)
            if n:
                jump.append(stop)
                ln += n - 1
                continue
            bulk_from = at + _PIECE
        if section is None and parts[0] == "core" and parts[1:2] == ["{"]:
            core, section, parts = [], "core", parts[2:]
        if section == "base":
            head = parts[0]
            if head == "compose":
                if len(parts) != 5 or parts[3] != "=":
                    raise _err(ln, raw, head, "malformed compose entry")
                try:
                    put(arr_index[parts[1]])
                    put(arr_index[parts[2]])
                    put(arr_index[parts[4]])
                except KeyError:
                    for tok in (parts[1], parts[2], parts[4]):
                        known_arrow(ln, raw, tok)
            elif parts == ["}"]:
                section = None
            elif head == "objects":
                if parts[-1] != ";":
                    raise _err(ln, raw, head, "objects list must end with ';'")
                for o in parts[1:-1]:
                    _ident(ln, raw, o, "object")
                    if o in obj_index:
                        raise _err(ln, raw, o, f"duplicate object {o!r}")
                    obj_index[o] = len(objects)
                    objects.append(o)
            elif head == "arrow" and len(parts) == 4:
                f = _ident(ln, raw, parts[1], "arrow name")
                a = known_object(ln, raw, parts[2])
                b = known_object(ln, raw, parts[3])
                if f in arr_index:
                    raise _err(ln, raw, f, f"duplicate arrow {f!r}")
                arr_index[f] = len(arrows)
                arrows.append(f)
                src.append(a)
                tgt.append(b)
            elif head == "identity" and len(parts) == 4 and parts[2] == "=":
                o = known_object(ln, raw, parts[1])
                identity[o] = known_arrow(ln, raw, parts[3])
            elif head == "terminal" and len(parts) == 2:
                terminal = known_object(ln, raw, parts[1])
            elif head == "product" and len(parts) == 7 and parts[3] == "=":
                a, b, p = (known_object(ln, raw, o) for o in (parts[1], parts[2], parts[4]))
                binary[(a, b)] = (p, known_arrow(ln, raw, parts[5]),
                                  known_arrow(ln, raw, parts[6]))
            else:
                raise _err(ln, raw, head, f"malformed base entry {head!r}")
        elif section == "reindex":
            if len(parts) == 3 and parts[1] == "->":
                put_target(intern(parts[0]))       # one copy of each element name
                put_source(intern(parts[2]))
                put_line(ln)
            elif parts == ["}"]:
                reindex[owner] = rblock
                section = None
            else:
                raise _err(ln, raw, parts[0], "malformed reindex entry")
        elif section == "fiber":
            head = parts[0]
            if parts == ["}"]:
                if fblock.top is None:
                    raise ParseError(fblock.line, 1,
                                     f"fiber {objects[owner]!r} has no top")
                fibers[owner] = fblock
                section = None
            elif head == "elements":
                if parts[-1] != ";":
                    raise _err(ln, raw, head, "elements list must end with ';'")
                for e in parts[1:-1]:
                    fblock.elements.append(intern(_ident(ln, raw, e, "element")))
            elif head == "top" and len(parts) == 2:
                fblock.top = _ident(ln, raw, parts[1], "element")
            elif head == "leq" and len(parts) == 3:
                fblock.pairs.append((parts[1], parts[2]))
            else:
                raise _err(ln, raw, head, f"malformed fiber entry {head!r}")
        elif section == "core":
            for tok in parts:
                if tok == "}":
                    section = None
                    break
                core.append(known_object(ln, raw, tok))
        else:
            head = parts[0]
            if head == "base" and parts[1:] == ["{"]:
                section = "base"
            elif head == "fiber" and len(parts) == 3 and parts[2] == "{":
                owner = known_object(ln, raw, _ident(ln, raw, parts[1], "object"))
                section = "fiber"
                fblock = _FiberBlock(ln)
            elif head == "reindex" and len(parts) == 3 and parts[2] == "{":
                owner = known_arrow(ln, raw, _ident(ln, raw, parts[1], "arrow"))
                section = "reindex"
                rblock = _ReindexBlock(ln)
                put_target, put_source = rblock.targets.append, rblock.sources.append
                put_line = rblock.lines.append
            else:
                raise _err(ln, raw, head, f"unknown section {head!r}")
    if section is not None:
        raise ParseError(ln, 1, "unterminated section")
    rows = np.concatenate([np.array(c, dtype=np.intp).reshape(-1, 3) for c in compose])
    return _Read(objects, arrows, src, tgt, identity, rows, terminal, binary,
                 fibers, reindex, core)


def _transitive_closure(leq: np.ndarray) -> np.ndarray:
    """Warshall's algorithm, one row-and-column step per element."""
    for k in range(len(leq)):
        leq |= leq[:, k, None] & leq[None, k, :]
    return leq


def _fiber(name: str, block: _FiberBlock | None) -> FinInfSL:
    """The inf-semilattice of a fiber block: the reflexive-transitive
    closure of its cover pairs, with the meets derived from it."""
    if block is None:
        raise ParseError(1, 1, f"object {name!r} has no fiber block")
    elements, lno = block.elements, block.line
    if len(set(elements)) != len(elements) or not elements:
        raise ParseError(lno, 1, f"fiber of {name!r} has duplicate or no elements")
    idx = {e: i for i, e in enumerate(elements)}
    leq = np.eye(len(elements), dtype=bool)
    for x, y in block.pairs:
        if x not in idx or y not in idx:
            raise ParseError(lno, 1, f"fiber of {name!r} mentions unknown element")
        leq[idx[x], idx[y]] = True
    try:
        fib = lattice_from_leq(elements, _transitive_closure(leq))
    except MalformedPresentation as exc:
        raise ParseError(lno, 1, f"fiber of {name!r}: {exc}")
    if idx.get(block.top) != fib.top:
        raise ParseError(lno, 1, f"fiber of {name!r}: declared top is not the top")
    return fib


def _reindex_table(name: str, block: _ReindexBlock | None, fb: FinInfSL, fa: FinInfSL,
                   b: str, a: str) -> np.ndarray:
    """The table of a reindex block from the fiber of b to the fiber of a,
    one dict lookup per source, and per target unless the block lists the
    targets in fiber order; the first bad entry in block order is named."""
    if block is None:
        raise ParseError(1, 1, f"arrow {name!r} has no reindex block")
    ys = np.fromiter(map(fa.index.get, block.sources, repeat(-1)), np.int32, len(block.sources))
    if tuple(block.targets) == fb.elements:         # total, none repeated
        xs, repeated = np.arange(fb.n), False
    else:
        xs = np.fromiter(map(fb.index.get, block.targets, repeat(-1)), np.intp, len(ys))
        repeated = np.ones(len(xs), dtype=bool)
        repeated[np.unique(xs, return_index=True)[1]] = False
    bad = (xs < 0) | (ys < 0) | repeated
    if bad.any():
        k = int(np.argmax(bad))
        if xs[k] < 0:
            msg = f"element {block.targets[k]!r} not in the fiber of {b!r}"
        elif ys[k] < 0:
            msg = f"element {block.sources[k]!r} not in the fiber of {a!r}"
        else:
            msg = f"duplicate entry for {block.targets[k]!r}"
        raise ParseError(block.lines[k], 1, msg)
    table = np.full(fb.n, -1, dtype=np.int32)
    table[xs] = ys
    if (table < 0).any():
        missing = fb.elements[int(np.flatnonzero(table < 0)[0])]
        raise ParseError(block.line, 1,
                         f"reindex of {name!r} is partial: no entry for {missing!r}")
    return table


def parse_doctrine(text: str) -> DoctrineData:
    """Line-oriented parse: section headers end with '{', '}' closes a
    section, one declaration per line, variadic lists end with ';'.

    Errors come in this order: line-level errors in line order, then the
    missing objects or terminal, the category tables, the fibers in object
    order and the reindex blocks in arrow order."""
    r = _read_lines(text)
    if not r.objects:
        raise ParseError(1, 1, "no objects declared")
    if r.terminal is None:
        raise ParseError(1, 1, "no terminal declared")
    id_arr = [r.identity.get(o, -1) for o in range(len(r.objects))]
    try:
        cat = FinCat.from_indices(r.objects, r.arrows, r.src, r.tgt, id_arr, r.compose)
    except MalformedPresentation as exc:
        raise ParseError(1, 1, str(exc))
    fibers = [_fiber(o, r.fibers.get(i)) for i, o in enumerate(r.objects)]
    reindex: list[MonotoneMap] = []
    for f, name in enumerate(r.arrows):
        a, b = r.src[f], r.tgt[f]
        table = _reindex_table(name, r.reindex.get(f), fibers[b], fibers[a],
                               r.objects[b], r.objects[a])
        reindex.append(MonotoneMap(fibers[b], fibers[a], table))
    pc = ProductChoice(r.terminal, r.binary)
    scope = WindowScope(tuple(r.core) if r.core is not None else tuple(range(len(r.objects))))
    return DoctrineData(cat, pc, scope, fibers, reindex)


def _cover_pairs(fib: FinInfSL) -> list[tuple[int, int]]:
    lt = fib.leq & ~np.eye(fib.n, dtype=bool)
    via = lt @ lt                    # bool matmul: no count to wrap
    cov = lt & ~via
    return [(int(i), int(j)) for i, j in np.argwhere(cov)]


def emit_doctrine(P: DoctrineData) -> str:
    C = P.cat
    arrows, objects, src, tgt = C.arrows, C.objects, C.src.tolist(), C.tgt.tolist()
    out: list[str] = ["base {", "  objects " + " ".join(objects) + " ;"]
    out += [f"  arrow {f} {objects[a]} {objects[b]}" for f, a, b in zip(arrows, src, tgt)]
    out += [f"  identity {o} = {arrows[i]}" for o, i in zip(objects, C.id_arr.tolist())]
    gi, fi = np.nonzero(C.comp >= 0)
    out += [f"  compose {arrows[g]} {arrows[f]} = {arrows[h]}"
            for g, f, h in zip(gi.tolist(), fi.tolist(), C.comp[gi, fi].tolist())]
    out.append(f"  terminal {objects[P.products.terminal]}")
    out += [f"  product {objects[a]} {objects[b]} = {objects[p]} {arrows[p1]} {arrows[p2]}"
            for (a, b), (p, p1, p2) in P.products.binary.items()]
    out.append("}")
    for o, fib in zip(objects, P.fibers):
        out += [f"fiber {o} {{", "  elements " + " ".join(fib.elements) + " ;",
                f"  top {fib.elements[fib.top]}"]
        out += [f"  leq {fib.elements[i]} {fib.elements[j]}" for i, j in _cover_pairs(fib)]
        out.append("}")
    for f, a, b, m in zip(arrows, src, tgt, P.reindex):
        out.append(f"reindex {f} {{")
        out += [f"  {x} -> {P.fibers[a].elements[y]}"
                for x, y in zip(P.fibers[b].elements, m.table.tolist())]
        out.append("}")
    out.append("core { " + " ".join(objects[o] for o in P.scope.core) + " }")
    return "\n".join(out) + "\n"
