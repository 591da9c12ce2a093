"""Doctrine files for the benchmark: a writer for fs2 from its finite-set
description, seeded faults that really break a law, and a small reader that
checks witnesses against a file's own tables.

None of this uses the program.  The writer emits the sections of the file
grammar (base, fiber, reindex, core) from `oracle.fs2_window`; the reader
keeps every table as written, so a faulty file reads back faulty.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

import numpy as np

import oracle


# ---------------------------------------------------------------------------
# reading
# ---------------------------------------------------------------------------


class DtnText:
    """Tables of a doctrine file, looked up by name in its text as written,
    so a faulty file reads back faulty.  Only the entries a check needs are
    read, which keeps lookups in the 27 MB fs2 file cheap."""

    def __init__(self, text: str):
        self.text = "\n" + text
        self._up: dict[str, dict[str, set[str]]] = {}

    def objects(self) -> list[str]:
        return re.search(r"^  objects (.*) ;$", self.text, re.M).group(1).split()

    def arrows(self) -> dict[str, tuple[str, str]]:
        return {f: (a, b) for f, a, b in
                re.findall(r"^  arrow (\S+) (\S+) (\S+)$", self.text, re.M)}

    def _line(self, prefix: str) -> str | None:
        k = self.text.find("\n" + prefix)
        if k < 0:
            return None
        return self.text[k + 1:self.text.index("\n", k + 1)]

    def arrow(self, f: str) -> tuple[str, str]:
        _, _, a, b = self._line(f"  arrow {f} ").split()
        return a, b

    def compose(self, g: str, f: str) -> str | None:
        line = self._line(f"  compose {g} {f} = ")
        return line.split()[-1] if line else None

    def _block(self, header: str) -> list[list[str]]:
        k = self.text.index(f"\n{header} {{\n")
        body = self.text[k:self.text.index("\n}", k + 1)]
        return [line.split() for line in body.splitlines()[2:]]

    def reindex(self, f: str) -> dict[str, str]:
        return {x: y for x, _, y in self._block(f"reindex {f}")}

    def top(self, obj: str) -> str:
        return next(p[1] for p in self._block(f"fiber {obj}") if p[0] == "top")

    def _above(self, obj: str) -> dict[str, set[str]]:
        """For each element of the fiber over obj, the elements above it:
        the reflexive-transitive closure of the cover pairs."""
        if obj not in self._up:
            block = self._block(f"fiber {obj}")
            covers: dict[str, list[str]] = {}
            for p in block:
                if p[0] == "leq":
                    covers.setdefault(p[1], []).append(p[2])
            closure = {}
            for z in next(p[1:-1] for p in block if p[0] == "elements"):
                seen, todo = {z}, [z]
                while todo:
                    for w in covers.get(todo.pop(), ()):
                        if w not in seen:
                            seen.add(w)
                            todo.append(w)
                closure[z] = seen
            self._up[obj] = closure
        return self._up[obj]

    def meet(self, obj: str, x: str, y: str) -> str:
        above = self._above(obj)
        lower = [z for z, up in above.items() if x in up and y in up]
        return next(z for z in lower if all(z in above[w] for w in lower))


# ---------------------------------------------------------------------------
# writing fs2
# ---------------------------------------------------------------------------


class Fs2Tables:
    """fs2 as index tables: composition, and reindexing as preimage tables
    (mask over the target -> mask over the source)."""

    def __init__(self):
        self.win = oracle.fs2_window()
        self.comp = self.win.comp.copy()
        self.pre = [self.win.preimage(f) for f in range(len(self.win.names))]


def fs2_lines(t: Fs2Tables) -> list[str]:
    w = t.win
    names = w.names
    out = ["base {", "  objects " + " ".join(str(s) for s in oracle.SIZES) + " ;"]
    out += [f"  arrow {nm} {s} {g}" for nm, s, g in zip(names, w.src, w.tgt)]
    out += [f"  identity {s} = id{s}" for s in oracle.SIZES]
    gi, fi = np.nonzero(t.comp >= 0)
    out += [f"  compose {names[g]} {names[f]} = {names[h]}"
            for g, f, h in zip(gi.tolist(), fi.tolist(), t.comp[gi, fi].tolist())]
    out.append("  terminal 1")
    for a, b, p, pr1, pr2 in oracle.products():
        out.append(f"  product {a} {b} = {p} {oracle.arrow_name(p, a, pr1)}"
                   f" {oracle.arrow_name(p, b, pr2)}")
    out.append("}")
    for q in oracle.SIZES:
        n = 1 << q
        out.append(f"fiber {q} {{")
        out.append("  elements " + " ".join(f"s{m}" for m in range(n)) + " ;")
        out.append(f"  top s{n - 1}")
        out += [f"  leq s{m} s{m | 1 << i}"
                for m in range(n) for i in range(q) if not m >> i & 1]
        out.append("}")
    for f, nm in enumerate(names):
        out.append(f"reindex {nm} {{")
        out += [f"  s{m} -> s{p}" for m, p in enumerate(t.pre[f].tolist())]
        out.append("}")
    out.append("core { " + " ".join(str(c) for c in oracle.CORE) + " }")
    return out


# ---------------------------------------------------------------------------
# seeded faults
# ---------------------------------------------------------------------------


def breaks_associativity(comp: np.ndarray, g0: int, f0: int) -> bool:
    """Whether some triple (h, g, f) whose evaluation reads the entry
    comp[g0, f0] has (h∘g)∘f != h∘(g∘f).  Triples that do not read it
    evaluate on the unaltered table, which is associative."""
    def fails(h, g, f):
        hg, gf = comp[h, g], comp[g, f]
        return hg >= 0 and gf >= 0 and comp[hg, f] != comp[h, gf]

    triples = [(g0, f0, f) for f in np.flatnonzero(comp[f0] >= 0)]
    triples += [(h, g0, f0) for h in np.flatnonzero(comp[:, g0] >= 0)]
    triples += [(h, g, f0) for h, g in zip(*np.nonzero(comp == g0))]   # h∘g = g0
    triples += [(g0, g, f) for g, f in zip(*np.nonzero(comp == f0))]   # g∘f = f0
    return any(fails(*t) for t in triples)


def breaks_reindex_law(win: oracle.FinSetWindow, comp: np.ndarray, pre: list[np.ndarray],
                       f0: int) -> bool:
    """Whether reindexing along f0 fails to preserve top or meets (meets in
    a powerset fiber are intersections of masks), or P(g∘f) != P(f)∘P(g)
    for some composable pair that reads P(f0)."""
    t = pre[f0]
    if t[-1] != (1 << int(win.src[f0])) - 1:
        return True
    m = np.arange(len(t))
    if (t[m[:, None] & m[None, :]] != (t[:, None] & t[None, :])).any():
        return True
    pairs = [(f0, f) for f in np.flatnonzero(comp[f0] >= 0)]
    pairs += [(g, f0) for g in np.flatnonzero(comp[:, f0] >= 0)]
    pairs += list(zip(*np.nonzero(comp == f0)))
    return any(not np.array_equal(pre[comp[g, f]], pre[f][pre[g]]) for g, f in pairs)


@dataclass
class CompFault:
    g: int
    f: int
    old: int
    new: int


@dataclass
class ReindexFault:
    arrow: int
    mask: int
    old: int
    new: int


def pick_comp_fault(t: Fs2Tables, rng: random.Random, part: int, parts: int) -> CompFault:
    """Re-point one composite g∘f of non-identity arrows at another arrow of
    the same type, drawn from the given part of the compose section until
    the brute-force search finds a broken triple."""
    w = t.win
    ids = {w.index[f"id{s}"] for s in oracle.SIZES}
    gi, fi = np.nonzero(t.comp >= 0)
    lo, hi = part * len(gi) // parts, (part + 1) * len(gi) // parts
    while True:
        k = rng.randrange(lo, hi)
        g, f = int(gi[k]), int(fi[k])
        if g in ids or f in ids:
            continue
        old = int(t.comp[g, f])
        others = [int(x) for x in w.hom(int(w.src[old]), int(w.tgt[old])) if x != old]
        if not others:
            continue
        new = rng.choice(others)
        t.comp[g, f] = new
        broken = breaks_associativity(t.comp, g, f)
        t.comp[g, f] = old
        if broken:
            return CompFault(g, f, old, new)


def pick_reindex_fault(t: Fs2Tables, rng: random.Random, part: int, parts: int) -> ReindexFault:
    """Change one entry of the reindexing along a non-identity arrow from
    the given part of the arrows, drawn until the brute-force search finds a
    broken top, meet or functoriality law."""
    w = t.win
    ids = {w.index[f"id{s}"] for s in oracle.SIZES}
    n = len(w.names)
    while True:
        f = rng.randrange(part * n // parts, (part + 1) * n // parts)
        if f in ids or int(w.src[f]) == 0:
            continue
        mask = rng.randrange(1 << int(w.tgt[f]))
        old = int(t.pre[f][mask])
        new = rng.choice([x for x in range(1 << int(w.src[f])) if x != old])
        t.pre[f][mask] = new
        broken = breaks_reindex_law(w, t.comp, t.pre, f)
        t.pre[f][mask] = old
        if broken:
            return ReindexFault(f, mask, old, new)


def apply_comp_fault(lines: list[str], t: Fs2Tables, fault: CompFault) -> list[str]:
    names = t.win.names
    line = f"  compose {names[fault.g]} {names[fault.f]} = {names[fault.old]}"
    k = lines.index(line)
    out = list(lines)
    out[k] = f"  compose {names[fault.g]} {names[fault.f]} = {names[fault.new]}"
    return out


def apply_reindex_fault(lines: list[str], t: Fs2Tables, fault: ReindexFault) -> list[str]:
    k = lines.index(f"reindex {t.win.names[fault.arrow]} {{") + 1 + fault.mask
    if lines[k] != f"  s{fault.mask} -> s{fault.old}":
        raise ValueError(f"unexpected reindex line {lines[k]!r}")
    out = list(lines)
    out[k] = f"  s{fault.mask} -> s{fault.new}"
    return out


# ---------------------------------------------------------------------------
# witnesses, checked against a file's own tables
# ---------------------------------------------------------------------------


def confirm_associativity_witness(d: DtnText, h: str, g: str, f: str) -> bool:
    """(h∘g)∘f != h∘(g∘f) in the file's composition table."""
    hg, gf = d.compose(h, g), d.compose(g, f)
    if hg is None or gf is None:
        return False
    left, right = d.compose(hg, f), d.compose(h, gf)
    return left is not None and right is not None and left != right


def confirm_reindex_witness(d: DtnText, witness: list[str]) -> bool:
    """A top, meet or functoriality failure at the reported arrow and
    elements, as the doctrine-law check words them."""
    *args, message = witness
    if message == "top not preserved" and len(args) == 1:
        (f,) = args
        a, b = d.arrow(f)
        return d.reindex(f)[d.top(b)] != d.top(a)
    if message == "meet not preserved" and len(args) == 3:
        f, x, y = args
        a, b = d.arrow(f)
        r = d.reindex(f)
        return r[d.meet(b, x, y)] != d.meet(a, r[x], r[y])
    if message.startswith("reindex(g∘f)") and len(args) == 3:
        g, f, x = args
        gf = d.compose(g, f)
        return gf is not None and d.reindex(gf)[x] != d.reindex(f)[d.reindex(g)[x]]
    return False
