import functools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from doctrines import fileformat, fixtures
from doctrines.errors import ParseError
from doctrines.fileformat import _lines, emit_doctrine, parse_doctrine

from oracles import doctrine_equal
from test_laws import NO_SHRINK

GOLDEN = Path(__file__).parent / "data" / "golden"
PARSE_CASES = json.loads((GOLDEN / "parse_errors.json").read_text())


@pytest.fixture(scope="module")
def fs2_text(fs2):
    return emit_doctrine(fs2)


@pytest.mark.parametrize("name", ["triv", "chain", "nochoice", "mixedfail"])
def test_round_trip_small(name):
    P = fixtures.BUILTIN_FIXTURES[name]()
    text = emit_doctrine(P)
    Q = parse_doctrine(text)
    assert doctrine_equal(P, Q)
    # parse-emit-parse is the identity on canonical form
    assert emit_doctrine(Q) == text


def test_round_trip_finite_set_window(fs2, fs2_text):
    Q = parse_doctrine(fs2_text)
    assert doctrine_equal(fs2, Q)


def test_round_trip_completions(completions):
    """Built categories and doctrines are emittable and re-ingest equal."""
    from doctrines.doctrine import sub_doctrine
    from doctrines.fincat import WindowScope
    P, E, X, tp, er, q = completions["fs2"]
    for D in (q.doctrine, sub_doctrine(tp.cat, tp.pc, WindowScope(tp.scope.core))):
        text = emit_doctrine(D)
        Q = parse_doctrine(text)
        assert doctrine_equal(D, Q)


def test_unknown_object_position():
    with pytest.raises(ParseError) as exc:
        parse_doctrine("base {\n  objects A ;\n  arrow f A B\n}\n")
    assert exc.value.line == 3
    assert exc.value.col == 13


def test_unknown_element_in_reindex(chain):
    text = emit_doctrine(chain).replace("v2 -> u1", "v9 -> u1", 1)
    with pytest.raises(ParseError) as exc:
        parse_doctrine(text)
    assert "v9" in str(exc.value)


def test_partial_reindex_rejected(chain):
    lines = emit_doctrine(chain).splitlines()
    drop = next(i for i, ln in enumerate(lines) if ln.strip() == "v2 -> u1")
    text = "\n".join(lines[:drop] + lines[drop + 1:])
    with pytest.raises(ParseError) as exc:
        parse_doctrine(text)
    assert "partial" in str(exc.value)


def test_no_meet_fiber_rejected():
    text = """base {
  objects A ;
  arrow idA A A
  identity A = idA
  compose idA idA = idA
  terminal A
  product A A = A idA idA
}
fiber A {
  elements x y t ;
  top t
  leq x t
  leq y t
}
reindex idA {
  x -> x
  y -> y
  t -> t
}
"""
    with pytest.raises(ParseError) as exc:
        parse_doctrine(text)
    assert "lower bound" in str(exc.value) or "meet" in str(exc.value)


def test_declared_top_must_be_top(chain):
    text = emit_doctrine(chain).replace("top v2", "top v1", 1)
    with pytest.raises(ParseError):
        parse_doctrine(text)


def test_duplicate_arrow_rejected():
    text = """base {
  objects A ;
  arrow f A A
  arrow f A A
}
"""
    with pytest.raises(ParseError):
        parse_doctrine(text)


@pytest.mark.parametrize("old, new, error", [
    pytest.param("arrow idT T T", "arrow idT T Q", (3, 15, "unknown object 'Q'"), id="endpoint"),
    pytest.param("identity T = idT", "identity T = zz", (4, 16, "unknown arrow 'zz'"),
                 id="identity"),
    pytest.param("compose idT idT = idT", "compose idT zz = idT", (5, 15, "unknown arrow 'zz'"),
                 id="compose-entry"),
    pytest.param("core { T }", "core { T zz }", (23, 10, "unknown object 'zz'"), id="core"),
])
def test_unknown_names_are_parse_errors(triv, old, new, error):
    """The parser resolves every name it reads, and names the one it does
    not know where it stands: an arrow's endpoint, an identity, a
    composite, a core object."""
    with pytest.raises(ParseError) as exc:
        parse_doctrine(emit_doctrine(triv).replace(old, new))
    assert (exc.value.line, exc.value.col, exc.value.msg) == error


def test_comments_and_blank_lines(triv):
    text = emit_doctrine(triv)
    noisy = "# leading comment\n\n" + text.replace(
        "terminal T", "terminal T  # chosen terminal")
    Q = parse_doctrine(noisy)
    assert doctrine_equal(triv, Q)


@pytest.mark.parametrize("case", PARSE_CASES, ids=[c["name"] for c in PARSE_CASES])
def test_parse_matches_golden(case):
    """One input per error the parser raises, plus first-error order,
    comments, line ends and repeated entries: the (line, col, message) of
    the error, or the canonical text of what parses, as the name-keyed
    parser gave them."""
    if "error" in case:
        with pytest.raises(ParseError) as exc:
            parse_doctrine(case["text"])
        assert [exc.value.line, exc.value.col, exc.value.msg] == case["error"]
    else:
        assert emit_doctrine(parse_doctrine(case["text"])) == case["emit"]


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 8, 1 << 20])
def test_lines_read_in_chunks_are_splitlines(chunk):
    """Cut anywhere, the chunked reader gives the lines of splitlines, for
    every line break splitlines knows, blank lines and a missing last break;
    where it gives a position, the line starts there after a newline, and a
    position put on jump resumes the lines there."""
    text = "a b\r\nc\rd\n\ne\x0cf\x0bg\x1ch\x85i\u2028j\u2029\r\n\n  k  \r\r\nlast"
    plain = "a b\n\n  c d \nlast line\n\n"
    for t in (text, text + "\n", plain, ""):
        got = list(_lines(t, [], chunk))
        assert [raw for _, raw in got] == t.splitlines()
        assert all(t.startswith(raw, at) and t[at - 1:at] in ("", "\n")
                   for at, raw in got if at >= 0)
    assert all(at >= 0 for at, _ in _lines(plain, [], chunk))
    jump, seen = [], []
    for at, raw in _lines(plain, jump, chunk):
        seen.append(raw)
        if raw == "a b":
            jump.append(plain.index("last"))
    assert seen == ["a b", "last line", ""]


def test_core_keyword_alone_is_a_parse_error(triv):
    text = emit_doctrine(triv).replace("core { T }", "core")
    with pytest.raises(ParseError) as exc:
        parse_doctrine(text)
    assert (exc.value.line, exc.value.col, exc.value.msg) == (23, 1, "unknown section 'core'")


def _one_fiber_file(elements, top, covers) -> str:
    lines = ["base {", "  objects A ;", "  arrow idA A A", "  identity A = idA",
             "  compose idA idA = idA", "  terminal A", "  product A A = A idA idA", "}",
             "fiber A {", "  elements " + " ".join(elements) + " ;", f"  top {top}"]
    lines += [f"  leq {x} {y}" for x, y in covers]
    lines += ["}", "reindex idA {"] + [f"  {e} -> {e}" for e in elements] + ["}", "core { A }"]
    return "\n".join(lines) + "\n"


def test_lattice_with_256_elements_between_bottom_and_top():
    """Bottom, 256 atoms, top: exactly 256 elements lie between bottom and
    top, a count that wraps to 0 in uint8."""
    atoms = [f"a{i}" for i in range(256)]
    covers = [("b", a) for a in atoms] + [(a, "t") for a in atoms]
    text = _one_fiber_file(["b"] + atoms + ["t"], "t", covers)
    P = parse_doctrine(text)
    fib = P.fibers[0]
    assert fib.validate() is None
    assert fib.le(fib.index["b"], fib.index["t"])
    assert fib.meet_of(fib.index["a0"], fib.index["a255"]) == fib.index["b"]
    emitted = emit_doctrine(P)
    assert sum(ln.startswith("  leq ") for ln in emitted.splitlines()) == 512
    assert emitted == text
    assert doctrine_equal(parse_doctrine(emitted), P)


def test_parse_fs2_file_peak_memory(fs2_text, tmp_path):
    """A process that reads the emitted fs2 file (27 MB) and parses it peaks
    below 105 MB, 1.1 times the 95.7 MB of the byte-level reader (106.8 MB
    with the str-token bulk readers, 118.8 MB with the per-line reader)."""
    path = tmp_path / "fs2.dtn"
    path.write_text(fs2_text)
    # the child's own high-water mark: its ru_maxrss would start from this
    # process's, which Linux carries over into a spawned child
    child = ("import sys\n"
             "from pathlib import Path\n"
             "from doctrines.fileformat import parse_doctrine\n"
             "parse_doctrine(Path(sys.argv[1]).read_text())\n"
             "print(Path('/proc/self/status').read_text().split('VmHWM:')[1].split()[0])\n")
    paths = [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    out = subprocess.run([sys.executable, "-c", child, str(path)], capture_output=True,
                         text=True, env=env, check=True, timeout=240)
    peak_mb = int(out.stdout.split()[-1]) / 1024      # VmHWM is in kB
    assert peak_mb < 105, peak_mb


# ---------------------------------------------------------------------------
# bulk reading against the per-line reader
# ---------------------------------------------------------------------------


def _per_line(monkeypatch):
    """Turn the bulk readers off: what is left is the per-line reader."""
    monkeypatch.setattr(fileformat, "_compose_run", lambda text, pos, *rest: (pos, 0))
    monkeypatch.setattr(fileformat, "_reindex_blocks", lambda text, pos, *rest: (pos, 0))


def _read(text):
    """What the line pass gathers, in comparable form, or its ParseError; a
    reindex block read in bulk is shown by the names in its span."""
    try:
        r = fileformat._read_lines(text)
    except ParseError as exc:
        return exc.line, exc.col, exc.msg
    named = {f: fileformat._by_name(text, b) for f, b in r.reindex.items()}
    return (r.objects, r.arrows, r.src, r.tgt, r.identity, r.compose.tolist(), r.terminal,
            r.binary, {o: (b.elements, b.top, b.pairs, b.line) for o, b in r.fibers.items()},
            {f: (list(b.targets), list(b.sources), list(b.lines), b.line)
             for f, b in named.items()}, r.core)


def _parsed(text):
    try:
        return emit_doctrine(parse_doctrine(text))
    except ParseError as exc:
        return exc.line, exc.col, exc.msg


def _both_ways(monkeypatch, text, how=_read):
    """how(text) read with the bulk readers, the lines they took, and
    how(text) read line by line."""
    taken = []
    with monkeypatch.context() as m:
        for name in ("_compose_run", "_reindex_blocks"):
            def counted(*args, real=getattr(fileformat, name)):
                out = real(*args)
                taken.append(out[1])
                return out
            m.setattr(fileformat, name, counted)
        bulk = how(text)
    with monkeypatch.context() as m:
        _per_line(m)
        return bulk, sum(taken), how(text)


@pytest.fixture(scope="module")
def fs2_regions(fs2_text):
    """Two readable cuts of the emitted fs2 text, each with the index of a
    line to fault: the base section with its first four 64 KB chunks of
    compose lines, and a line in the middle of the second chunk; and the
    file without compose lines up to ten reindex blocks past the first
    128 KB, and the middle entry of the first of those blocks."""
    text = fs2_text
    piece = fileformat._PIECE
    c0, t0 = text.index("\n  compose ") + 1, text.index("\n  terminal ") + 1
    compose = text[:text.index("\n", c0 + 4 * piece) + 1] + "}\n"
    k = compose.count("\n", 0, compose.index("\n", c0 + piece + piece // 2))
    reindex = text[:c0] + text[t0:]
    start = reindex.index("\n}\n", 2 * piece) + 3           # the header of the faulted block
    end = start
    for _ in range(10):
        end = reindex.index("\n}\n", end) + 3
    body = reindex[start:reindex.index("\n}\n", start)].count("\n")
    return (compose, k + 1), (reindex[:end], reindex.count("\n", 0, start) + 1 + body // 2)


def _compose_faults(g, f, h, c, d, e):
    """Each fault by name: the lines that replace the line compose g f = h
    and the next one, compose c d = e."""
    line, nxt = f"  compose {g} {f} = {h}", f"  compose {c} {d} = {e}"
    return {
        "unknown-g": [f"  compose zz {f} = {h}", nxt],
        "unknown-f": [f"  compose {g} zz = {h}", nxt],
        "unknown-h": [f"  compose {g} {f} = zz", nxt],
        "four-tokens": [f"  compose {g} {f} {h}", nxt],
        "six-tokens": [f"  compose {g} {f} = {h} {h}", nxt],
        "no-equals": [f"  compose {g} {f} {h} {h}", nxt],
        "tokens-moved-to-next-line": [f"  compose {g} {f} =", f"  {h} compose {c} {d} = {e}"],
        "comment-line": [line, "# a comment", nxt],
        "trailing-comment": [line + "  # a comment", nxt],
        "comment-in-token": [line + "#c", nxt],
        "blank-line": [line, "", nxt],
        "tab": [f"  compose {g}\t{f} = {h}", nxt],
        "carriage-return": [f"  compose {g} {f} =\r{h}", nxt],
        "crlf-line-end": [line + "\r", nxt],
        "form-feed": [f"  compose {g} {f}\x0c= {h}", nxt],
        "line-separator": [f"  compose {g} {f} = {h}\u2028", nxt],
        "indented-close": [line, "  }", nxt],
        "repeated-entry": [line, nxt, f"  compose {g} {f} = {e}"],
        "unindented": [line, f"compose {c} {d} = {e}"],
    }


def _reindex_faults(x, y, nxt):
    """Each fault by name: the lines that replace the entry x -> y and the
    line nxt after it."""
    line = f"  {x} -> {y}"
    return {
        "two-tokens": [f"  {x} ->", nxt],
        "four-tokens": [f"  {x} -> {y} {y}", nxt],
        "unknown-target": [f"  zz -> {y}", nxt],
        "unknown-source": [f"  {x} -> zz", nxt],
        "indented-close": [line, "  }", nxt],
        "comment-line": [line, "# a comment", nxt],
        "trailing-comment": [line + " # a comment", nxt],
        "comment-in-token": [line + "#c", nxt],
        "blank-line": [line, "", nxt],
        "tab": [f"  {x}\t-> {y}", nxt],
        "tab-between-sources": [f"  {x} -> {y}\t{y}", nxt],
        "two-spaces": [f"  {x}  -> {y}", nxt],
        "form-feed-after-source": [f"  {x} -> {y}\x0c{y}", nxt],
        "carriage-return": [f"  {x} ->\r{y}", nxt],
        "form-feed": [f"  {x}\x0c-> {y}", nxt],
        "line-separator": [f"  {x} ->\u2028{y}", nxt],
        "repeated-entry": [line, nxt, line],
        "entries-moved": [f"  {x} -> {y} " + nxt.split()[0], "  " + " ".join(nxt.split()[1:])],
    }


COMPOSE_FAULTS = list(_compose_faults(*"gfhcde"))
REINDEX_FAULTS = list(_reindex_faults("x", "y", "  z -> w"))


@pytest.mark.parametrize("fault", COMPOSE_FAULTS)
def test_compose_chunk_fault_reads_as_per_line(fs2_regions, monkeypatch, fault):
    """A fault in the middle of a 64 KB chunk of compose lines: the bulk
    reader takes the chunk before it (and those after it, if the fault is
    no error), and the reader gives the per-line reader's error or what it
    gathers."""
    (text, k), _ = fs2_regions
    lines = text.split("\n")
    _, g, f, _, h = lines[k].split()
    _, c, d, _, e = lines[k + 1].split()
    lines[k:k + 2] = _compose_faults(g, f, h, c, d, e)[fault]
    bulk, taken, oracle = _both_ways(monkeypatch, "\n".join(lines))
    assert bulk == oracle
    assert taken > fileformat._PIECE // 50     # the lines of at least one chunk


def test_arrow_named_compose_reads_as_per_line(fs2_regions, monkeypatch):
    """An arrow named compose: canonical compose lines naming it are read in
    bulk, and a line of six tokens followed by one of four, whose tokens line
    up as in two canonical lines, is the per-line reader's error."""
    (text, k), _ = fs2_regions
    lines = text.split("\n")
    g = lines[k].split()[1]
    renamed = re.sub(rf"(?<= ){re.escape(g)}(?=[ \n])", "compose", text)
    assert renamed.count(" compose compose ") > 1
    lines = renamed.split("\n")
    _, g, f, _, h = lines[k].split()
    _, c, d, _, e = lines[k + 1].split()
    shifted = lines[:k] + [f"  compose {g} {f} = {h} compose", f"  compose {c} = {e}"]
    bulk, taken, oracle = _both_ways(monkeypatch, renamed)
    assert bulk == oracle and not isinstance(bulk[0], int)
    assert taken == renamed.count("\n  compose ")
    bulk, _, oracle = _both_ways(monkeypatch, "\n".join(shifted + lines[k + 2:]))
    assert bulk == oracle == (k + 1, 3, "malformed compose entry")


@pytest.mark.parametrize("fault", REINDEX_FAULTS + ["header-form-feed"])
def test_reindex_block_fault_reads_as_per_line(fs2_regions, monkeypatch, fault):
    """A fault in a reindex block past the first 128 KB: the bulk reader
    takes the blocks before it, the reader gives the per-line reader's error
    or what it gathers, and parsing gives the per-line parse's error."""
    _, (text, k) = fs2_regions
    lines = text.split("\n")
    if fault == "header-form-feed":
        k = max(i for i in range(k) if lines[i].startswith("reindex "))
        lines[k] = lines[k].replace(" {", "\x0c{")
    else:
        x, _, y = lines[k].split()
        lines[k:k + 2] = _reindex_faults(x, y, lines[k + 1])[fault]
    faulty = "\n".join(lines)
    bulk, taken, oracle = _both_ways(monkeypatch, faulty)
    assert bulk == oracle
    assert taken > 2 * fileformat._PIECE // 20
    bulk, _, oracle = _both_ways(monkeypatch, faulty, _parsed)
    assert bulk == oracle


def test_fs2_file_reads_as_per_line(fs2_text, monkeypatch):
    """The whole emitted fs2 file: the bulk readers take all but a few
    hundred of its lines, and the reader gathers what the per-line reader
    gathers."""
    text = fs2_text
    bulk, taken, oracle = _both_ways(monkeypatch, text)
    assert bulk == oracle
    assert text.count("\n") - taken < 3000


_NOISE = [" ", "\t", "\n", "\r", "\r\n", "\x0c", "\x1f", "\x85", "\u2028", "#", "=", "->",
          "{", "}", "\n}\n", "compose ", "\n  compose ", "zz", "\n\n", "\nreindex "]


@functools.lru_cache(maxsize=None)
def _small_canonical_text() -> str:
    """The canonical text of the subobject doctrine of chain's relation
    completion: 49 compose lines and 17 reindex blocks."""
    from doctrines.compare import analysis
    from doctrines.doctrine import sub_doctrine
    tp = analysis(fixtures.chain_fixture()).tp()
    return emit_doctrine(sub_doctrine(tp.cat, tp.pc, tp.scope))


@functools.lru_cache(maxsize=None)
def _short_canonical_text() -> str:
    """The small canonical text with short names (objects o0, ..., arrows
    f0, ..., elements e0, ...), which the bulk readers read."""
    text = _small_canonical_text()
    names = {}
    for kind, found in (("o", re.findall(r"^  objects (.*) ;$", text, re.M)),
                        ("f", re.findall(r"^  arrow (\S+) ", text, re.M)),
                        ("e", re.findall(r"^  elements (.*) ;$", text, re.M))):
        for name in " ".join(found).split():
            names.setdefault(name, f"{kind}{len(names)}")
    return re.sub(r"\S+", lambda m: names.get(m[0], m[0]), text)


EDITS = st.lists(st.tuples(st.floats(0, 1), st.integers(0, 3), st.sampled_from(_NOISE)),
                 min_size=1, max_size=3)


def _edited(text, edits, *hows):
    """Edits, each replacing up to three characters from a space or line
    break on by a token, a space or a line break, read in chunks of about
    256 characters: the reader gives the per-line reader's error or what it
    gathers."""
    for where, cut, noise in edits:
        spots = [m.start() for m in re.finditer(r"\s", text)]
        k = spots[int(where * (len(spots) - 1))]
        text = text[:k] + noise + text[k + cut:]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(fileformat, "_PIECE", 256)
        m.setattr(fileformat._lines, "__defaults__", (256,))
        for how in hows:
            bulk, _, oracle = _both_ways(m, text, how)
            assert bulk == oracle


@settings(max_examples=300, phases=NO_SHRINK)
@given(EDITS)
def test_edited_text_reads_as_per_line(edits):
    """Random edits of a small canonical text whose names are too long for
    the bulk readers."""
    _edited(_small_canonical_text(), edits, _read)


@settings(max_examples=300, phases=NO_SHRINK)
@given(EDITS)
def test_edited_short_name_text_reads_as_per_line(edits):
    """Random edits of the same text with short names, which the bulk
    readers read, also parsed."""
    _edited(_short_canonical_text(), edits, _read, _parsed)


def test_short_name_text_is_read_in_bulk(monkeypatch):
    """The text the edits above start from: the bulk readers take all its
    compose and reindex lines, and it parses as it reads line by line."""
    text = _short_canonical_text()
    bulk, taken, oracle = _both_ways(monkeypatch, text, _parsed)
    assert bulk == oracle == text
    assert taken == _bulk_lines(text)


# ---------------------------------------------------------------------------
# names read as bytes: the bulk readers' own edges
# ---------------------------------------------------------------------------


def _word_text(arrows, fibers, reindex_after=None, moves=()):
    """A canonical text over objects A and B (fiber elements given in
    order, each a chain), an arrow of each name from A to B but the first,
    the identity of A, and the identity of B as `i`: g after f is g, and
    reindexing along an arrow into B sends each element to the one in the
    same place in the fiber of A.  reindex_after names the fiber block put
    after the reindex blocks; moves are (line, new line) replacements."""
    (ea, eb), objs = fibers, ["A", "B"]
    src = ["A"] + ["A"] * (len(arrows) - 1) + ["B"]
    tgt = ["A"] + ["B"] * (len(arrows) - 1) + ["B"]
    names = arrows + ["i"]
    lines = ["base {", "  objects A B ;"]
    lines += [f"  arrow {f} {a} {b}" for f, a, b in zip(names, src, tgt)]
    lines += [f"  identity A = {arrows[0]}", "  identity B = i"]
    lines += [f"  compose {g} {f} = {g}" for g, a in zip(names, src)
              for f, b in zip(names, tgt) if b == a]
    lines += ["  terminal A", f"  product A A = A {arrows[0]} {arrows[0]}", "}"]
    blocks = {}
    for o, els in zip(objs, fibers):
        blocks[o] = [f"fiber {o} {{", "  elements " + " ".join(els) + " ;", f"  top {els[-1]}"]
        blocks[o] += [f"  leq {x} {y}" for x, y in zip(els, els[1:])] + ["}"]
    for o in objs:
        if o != reindex_after:
            lines += blocks[o]
    for f, a, b in zip(names, src, tgt):
        froms, tos = (ea if b == "A" else eb), (ea if a == "A" else eb)
        lines += [f"reindex {f} {{"] + [f"  {x} -> {tos[min(k, len(tos) - 1)]}"
                                         for k, x in enumerate(froms)] + ["}"]
    lines += blocks.get(reindex_after, []) + ["core { A B }"]
    for old, new in moves:
        lines[lines.index(old)] = new
    return "\n".join(lines) + "\n"


def _bulk_lines(text):
    """The compose lines and the lines of the reindex blocks of text, which
    come after its fibers."""
    return text.count("\n  compose ") + text[text.index("\nreindex "):].count("\n") - 2


def _impostor(names, like):
    """A name not among names that shares its first 8 bytes with like, and
    whose hash slot holds a name with the same first 8 bytes."""
    table = fileformat._Names(names)
    same = [i for i, s in enumerate(names) if s[:8] == like[:8]]
    for k in range(100000):
        cand = like[:8] + f"~{k}"
        w = np.frombuffer(cand.encode().ljust(16, b"\0"), "<u8")
        if cand not in names and table.table[table.slot(w[:1], w[1:])[0]] in same:
            return cand
    raise AssertionError("no impostor")


ODD_ARROWS = ["id", "a" * 16, "abcdefgh1", "abcdefgh2", "abcdefgh", "f"]
ODD_ELEMENTS = (["x", "e" * 16, "abcdefghX", "abcdefghY", "t"], ["y", "abcdefghX", "e" * 16, "u"])


@pytest.mark.parametrize("odd", [None, "fé", "é", "a" * 17, "e" * 17])
def test_names_read_as_bytes_read_as_per_line(monkeypatch, odd):
    """Names of 16 bytes and names equal in their first 8 bytes, as arrows
    and as fiber elements, are read in bulk; with a non-ASCII name or one of
    17 bytes added, as an arrow or an element, the text reads and parses as
    line by line and re-emits as itself."""
    arrows, (ea, eb) = list(ODD_ARROWS), ODD_ELEMENTS
    if odd and odd[0] in "fa":
        arrows.insert(3, odd)
    elif odd:
        ea, eb = ea[:2] + [odd] + ea[2:], eb[:1] + [odd] + eb[1:]
    text = _word_text(arrows, (ea, eb))
    bulk, taken, oracle = _both_ways(monkeypatch, text)
    assert bulk == oracle and not isinstance(bulk[0], int)
    if odd is None:
        assert taken == _bulk_lines(text)
    bulk, _, oracle = _both_ways(monkeypatch, text, _parsed)
    assert bulk == oracle == text


@pytest.mark.parametrize("where", ["compose", "target", "source"])
def test_impostor_names_read_as_per_line(monkeypatch, where):
    """A name sharing its first 8 bytes and its hash slot with a known one,
    as a composite or in a reindex block: the per-line reader's error."""
    text = _word_text(ODD_ARROWS, ODD_ELEMENTS)
    if where == "compose":
        fake = _impostor(ODD_ARROWS + ["i"], "abcdefgh2")
        old = "  compose abcdefgh2 id = abcdefgh2"
        text = text.replace(old + "\n", f"  compose abcdefgh2 id = {fake}\n")
    else:
        names, old, like = ((ODD_ELEMENTS[1], f"  abcdefghX -> {'e' * 16}\n", "abcdefghX")
                            if where == "target" else
                            (ODD_ELEMENTS[0], "  u -> abcdefghY\n", "abcdefghY"))
        fake, k = _impostor(names, like), text.index("reindex f {")
        text = text[:k] + text[k:].replace(old, old.replace(like, fake), 1)
    assert fake in text
    for how in (_read, _parsed):
        bulk, _, oracle = _both_ways(monkeypatch, text, how)
        assert bulk == oracle
    assert isinstance(oracle[0], int) and fake in oracle[2]


def test_element_with_two_places_reads_as_per_line(monkeypatch):
    """The same element names in two fibers in different orders: each block
    is found in its own fibers."""
    text = _word_text(["id", "f", "g"], (["p", "q", "r", "s"], ["s", "r", "q", "p"]))
    bulk, taken, oracle = _both_ways(monkeypatch, text, _parsed)
    assert bulk == oracle == text
    assert taken == _bulk_lines(text)


@pytest.mark.parametrize("fiber", ["after", "redeclared"])
def test_fiber_after_its_reindex_blocks_reads_as_per_line(monkeypatch, fiber):
    """A fiber block after the reindex blocks into and out of it, and one
    declared before them and again after them with its elements in another
    order: the blocks are found in the fibers as the text leaves them."""
    els = (["p", "q", "r", "t"], ["y", "u"])
    text = _word_text(["id", "f", "g"], els, reindex_after="A")
    if fiber == "redeclared":
        k = text.index("fiber B {")
        text = text[:k] + "fiber A {\n  elements q p r t ;\n  top t\n}\n" + text[k:]
    bulk, taken, oracle = _both_ways(monkeypatch, text, _parsed)
    assert bulk == oracle and not isinstance(bulk, tuple)
    assert taken >= text.count("\n  compose ") + 3 * 6
    assert _both_ways(monkeypatch, text)[0] == _both_ways(monkeypatch, text)[2]


def test_compose_run_after_new_arrows_is_read_in_bulk(monkeypatch):
    """Compose lines, then new arrow lines, then compose lines naming the
    new arrows: both runs are read in bulk, as line by line."""
    text = _word_text(["id", "f", "g"], (["p", "t"], ["u"]))
    lines = text.split("\n")
    k = next(i for i, ln in enumerate(lines) if ln.startswith("  compose "))
    late = ["  arrow h A B", "  arrow k A B"]
    late += [f"  compose {g} id = {g}" for g in ("h", "k")]
    late += [f"  compose i {g} = {g}" for g in ("h", "k")]
    text = "\n".join(lines[:k + 3] + late + lines[k + 3:])
    text = text.replace("core { A B }", "reindex h {\n  u -> p\n}\nreindex k {\n  u -> t\n}\n"
                        "core { A B }")
    bulk, taken, oracle = _both_ways(monkeypatch, text)
    assert bulk == oracle and not isinstance(bulk[0], int)
    assert taken == _bulk_lines(text)
    bulk, _, oracle = _both_ways(monkeypatch, text, _parsed)
    assert bulk == oracle


def test_oversized_fiber_is_refused_before_its_tables():
    """A fiber of more elements than the cap is refused with its full
    count, before its order is allocated."""
    from doctrines.errors import ResourceCap
    from doctrines.fincat import FIBER_ELEMENT_CAP
    n = FIBER_ELEMENT_CAP + 1
    els = [f"a{i}" for i in range(n)]
    with pytest.raises(ResourceCap) as exc:
        parse_doctrine(_one_fiber_file(els, els[-1], zip(els, els[1:])))
    assert (exc.value.what, exc.value.size, exc.value.cap) == ("fiber elements of 'A'", n, 1024)
