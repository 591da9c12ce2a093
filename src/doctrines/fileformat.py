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
of compose lines and reindex blocks in canonical form (single spaces, bare
newlines, no comment), whose names are ASCII of at most 16 bytes, are read in
bulk from their bytes; any other layout or name is read line by line, to the
same result and the same errors.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from itertools import repeat
from sys import intern
from typing import NamedTuple, Sequence

import numpy as np

from .doctrine import DoctrineData
from .errors import MalformedPresentation, ParseError, guard
from .fincat import FIBER_ELEMENT_CAP, FinCat, ProductChoice, WindowScope
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
    lines: Sequence[int] = field(default_factory=list)
    words: np.ndarray | None = None    # read in bulk: (target and source, entries, 2 words)
    span: tuple[int, int] = (0, 0)     # read in bulk: the entries' place in the text


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
_BULK = {("base", "compose"), (None, "reindex")}     # (section, head) where bulk runs start
_MASK = np.array([[(1 << 8 * min(k, 8)) - 1 for k in range(17)],          # the first k of 16
                  [(1 << 8 * max(k - 8, 0)) - 1 for k in range(17)]], np.uint64)   # bytes, as 2 words
_MIX = np.uint64(0x9E3779B97F4A7C15)


def _layout(*parts: bytes):
    """A canonical line by the bytes around its names: the count of its bytes
    up to 0x20, each part's start among them from the line's \\n, the part
    sizes, and the parts to match (a byte alone is a space or the \\n)."""
    spaces, sizes = np.cumsum([sum(b <= 32 for b in p) for p in parts]), [len(p) for p in parts]
    match = [(j, _MASK[:, len(p)], np.frombuffer(p.ljust(16, b"\0"), "<u8"))
             for j, p in enumerate(parts) if len(p) > 1]
    return spaces[-1], np.r_[0, spaces[:-1] + 1] - spaces[-1], np.array(sizes), match


_COMPOSE = _layout(b"  compose ", b" ", b" = ", b"\n")
_HEADER, _ENTRY, _CLOSE = (_layout(b"reindex ", b" {\n"), _layout(b"  ", b" -> ", b"\n"),
                           _layout(b"}\n"))


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


class _Names:
    """Distinct names to find names read as bytes in: each of 1 to 16 ASCII
    bytes but NUL as two little-endian 64-bit words, in a hash table of 16 to
    32 slots a name with linear probing, confirmed word for word."""

    def __init__(self, names):
        self.size = len(names)
        fit = [i for i, s in enumerate(names)
               if s.isascii() and 0 < len(s) <= 16 and "\0" not in s]
        words = np.zeros((2, len(names) + 1), np.uint64)    # the last column, for -1, is no name
        words[:, fit] = np.frombuffer(b"".join(names[i].encode().ljust(16, b"\0") for i in fit),
                                      "<u8").reshape(-1, 2).T
        self.words, self.bits, self.reach = words, (16 * len(fit) + 1).bit_length(), 1
        table = [-1] * ((1 << self.bits) + len(fit))
        for i, s in zip(fit, self.slot(*words[:, fit]).tolist()):
            k = table.index(-1, s)
            table[k], self.reach = i, max(self.reach, k - s + 1)   # reach: the longest probe
        self.table = np.array(table, np.intp)

    def slot(self, w0: np.ndarray, w1: np.ndarray) -> np.ndarray:
        return (((w0 ^ (w1 * _MIX)) * _MIX) >> np.uint64(64 - self.bits)).astype(np.intp)

    def find(self, words: np.ndarray) -> np.ndarray:
        """The index of the name of each pair of words (the last axis), or -1."""
        (w0, w1), (n0, n1) = words.reshape(-1, 2).T, self.words
        slot = self.slot(w0, w1)
        i = self.table[slot]
        found = np.where((n0[i] == w0) & (n1[i] == w1), i, -1)
        todo = np.flatnonzero(found < 0)
        for d in range(1, self.reach if len(todo) else 1):
            i = self.table[slot[todo] + d]
            hit = (n0[i] == w0[todo]) & (n1[i] == w1[todo])
            found[todo[hit]] = i[hit]
            todo = todo[~hit]
        return found.reshape(words.shape[:-1])


def _canonical(text: str, pos: int, layouts: tuple):
    """The lines from pos, about _PIECE characters of whole lines, read as
    bytes up to the first line that fits none of the layouts: the position
    after each line, the layout it fits, and per layout the two words of
    each name in its lines, a (names, lines, 2) array.  A line fits a layout
    with names of 1 to 16 bytes between its bytes, and no other byte up to
    0x20 than theirs, no # and only ASCII."""
    chunk = text[pos:text.find("\n", pos + _PIECE) + 1 or len(text)]
    if "#" in chunk:
        chunk = chunk[:chunk.index("#")]
    if not chunk.isascii():
        chunk = chunk[:re.search("[^\x00-\x7f]", chunk).start()]
    buf = chunk.encode("ascii") + bytes(48)     # room to read 16 bytes past any part
    v = np.frombuffer(buf, np.uint8, len(chunk))
    at16 = np.ndarray((len(buf) - 15,), "V16", buf, strides=(1,))   # the 16 bytes at each byte
    ws = np.flatnonzero(v <= 32)
    c = v[ws]
    cut = np.append((c == 32) | (c == 10), False).argmin()
    last = np.flatnonzero(c[:cut] == 10) + 1         # each line's \n in ws, from 1
    ws = np.concatenate(([-1], ws[:cut]))
    count, kind, names = last.copy(), np.full(len(last), -1), []
    count[1:] -= last[:-1]
    for k, (spaces, offset, size, match) in enumerate(layouts):
        rows = np.flatnonzero(count == spaces)
        at = ws[offset[:, None] + last[rows]]   # where each part starts: after the line
        at[0] += 1                              # before, then at a name's end
        fits = np.ones(len(rows), dtype=bool)
        for j, mask, word in match:
            w = at16[at[j]].view("<u8").reshape(-1, 2)
            fits &= w[:, 0] & mask[0] == word[0]
            if mask[1]:
                fits &= w[:, 1] & mask[1] == word[1]
        b = at[:-1] + size[:-1, None]
        n = at[1:] - b
        fits &= ((n - 1).view(np.uint64) < 16).all(axis=0)
        kind[rows[fits]] = k
        w, n = at16[b].view("<u8").reshape(*b.shape, 2), np.minimum(n, 16)
        w[..., 0] &= _MASK[0][n]
        w[..., 1] &= _MASK[1][n]
        names.append(w)
    fit = np.append(kind >= 0, False).argmin()
    return pos + 1 + ws[last[:fit]], kind[:fit], names


def _compose_run(text: str, pos: int, arrows: _Names, out: list) -> tuple[int, int]:
    """Read compose lines from pos in bulk, up to the first that is not
    `  compose g f = h` with g, f, h among the arrows: the position and the
    number of lines reached."""
    lines = 0
    while True:
        after, _, (words,) = _canonical(text, pos, (_COMPOSE,))
        found = arrows.find(words[:, :len(after)])      # g, f and h, by line
        n = np.append((found >= 0).all(axis=0), False).argmin()
        if not n:
            return pos, lines
        out.append(found[:, :n].T.astype(np.int32))
        pos, lines = int(after[n - 1]), lines + n


def _reindex_blocks(text: str, pos: int, ln: int, arrows: _Names,
                    out: dict[int, _ReindexBlock]) -> tuple[int, int]:
    """Read reindex blocks from pos in bulk, the first with its header at
    line ln, while the lines go on with `reindex f {` for an arrow f,
    entries `  x -> y` and `}`: the position and the number of lines
    reached.  A block keeps the words of its entries' names and their span
    in the text, for the fibers, which may come later."""
    lines = 0
    while True:
        after, kind, (heads, entries, _) = _canonical(text, pos, (_HEADER, _ENTRY, _CLOSE))
        arrow = arrows.find(heads[0])
        kind[kind == 0] -= arrow[:(kind == 0).sum()] < 0         # no arrow: fits none
        goes_on = (kind >= 0) & ((kind == 0) == (np.r_[2, kind[:-1]] == 2))
        shut = np.flatnonzero(kind[:np.append(goes_on, False).argmin()] == 2).tolist()
        if not shut:
            return pos, lines
        starts = np.r_[pos, after].tolist()
        for i, (h, s) in enumerate(zip(np.flatnonzero(kind == 0).tolist(), shut)):
            line = ln + lines + h
            out[int(arrow[i])] = _ReindexBlock(line, [], [], range(line + 1, line + s - h),
                                               entries[:, h - 2 * i:s - 2 * i - 1],
                                               (starts[h + 1], starts[s]))
        pos, lines = starts[shut[-1] + 1], lines + shut[-1] + 1


def _by_name(text: str, block: _ReindexBlock | None) -> _ReindexBlock | None:
    """A block as read by name: one read in bulk reads its span."""
    if block is None or block.words is None:
        return block
    parts = text[block.span[0]:block.span[1]].split()
    return _ReindexBlock(block.line, parts[0::3], parts[2::3], block.lines)


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

    names = _Names(arrows)       # the arrows' names for the bulk readers
    ln = bulk_from = 0           # no bulk read starts before bulk_from
    jump: list[int] = []         # where the lines resume after a bulk read
    for at, raw in _lines(text, jump):
        ln += 1
        parts = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not parts:
            continue
        if at >= bulk_from and (section, parts[0]) in _BULK:
            if names.size != len(arrows):
                names = _Names(arrows)
            if section == "base":
                stop, n = _compose_run(text, at, names, compose)
                compose.append([])
                put = compose[-1].append
            else:
                stop, n = _reindex_blocks(text, at, ln, names, reindex)
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
                for tok in (parts[1], parts[2], parts[4]):
                    put(known_arrow(ln, raw, tok))
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
    rows = np.concatenate([np.asarray(c, dtype=np.int32).reshape(-1, 3) for c in compose])
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
    guard(f"fiber elements of {name!r}", len(elements), FIBER_ELEMENT_CAP)
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
    """The table of a reindex block from the fiber of b to the fiber of a, by
    name, one dict lookup per entry; the first bad entry in block order is
    named."""
    if block is None:
        raise ParseError(1, 1, f"arrow {name!r} has no reindex block")
    ys = np.fromiter(map(fa.index.get, block.sources, repeat(-1)), np.int32, len(block.sources))
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


def _found_tables(r: _Read, fibers: list[FinInfSL]) -> dict[int, np.ndarray]:
    """The tables of the blocks read in bulk, by arrow, where the block lists
    its targets in fiber order and every name is found word for word in the
    final fibers; the blocks of arrows with the same ends are found at once."""
    names, ends, tables = functools.cache(lambda o: _Names(fibers[o].elements)), {}, {}
    for f, block in r.reindex.items():
        if block.words is not None and block.words.shape[1] == fibers[r.tgt[f]].n:
            ends.setdefault((r.tgt[f], r.src[f]), []).append(f)
    for (b, a), fs in ends.items():
        words = np.concatenate([r.reindex[f].words for f in fs], axis=1)
        xs = names(b).find(words[0]).reshape(len(fs), -1)
        ys = names(a).find(words[1]).reshape(len(fs), -1).astype(np.int32)
        found = (xs == np.arange(fibers[b].n)).all(axis=1) & (ys >= 0).all(axis=1)
        tables.update((f, y) for f, y, ok in zip(fs, ys, found) if ok)
    return tables


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
    found = _found_tables(r, fibers)
    reindex: list[MonotoneMap] = []
    for f, name in enumerate(r.arrows):
        a, b = r.src[f], r.tgt[f]
        table = found.get(f)
        if table is None:
            table = _reindex_table(name, _by_name(text, r.reindex.get(f)), fibers[b], fibers[a],
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
