import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from doctrines import fixtures
from doctrines.errors import ParseError
from doctrines.fileformat import _lines, emit_doctrine, parse_doctrine

from oracles import doctrine_equal

GOLDEN = Path(__file__).parent / "data" / "golden"
PARSE_CASES = json.loads((GOLDEN / "parse_errors.json").read_text())


@pytest.mark.parametrize("name", ["triv", "chain", "nochoice", "mixedfail"])
def test_round_trip_small(name):
    P = fixtures.BUILTIN_FIXTURES[name]()
    text = emit_doctrine(P)
    Q = parse_doctrine(text)
    assert doctrine_equal(P, Q)
    # parse-emit-parse is the identity on canonical form
    assert emit_doctrine(Q) == text


def test_round_trip_finite_set_window(fs2):
    text = emit_doctrine(fs2)
    Q = parse_doctrine(text)
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
    every line break splitlines knows, blank lines and a missing last break."""
    text = "a b\r\nc\rd\n\ne\x0cf\x0bg\x1ch\x85i\u2028j\u2029\r\n\n  k  \r\r\nlast"
    assert list(_lines(text, chunk)) == text.splitlines()
    assert list(_lines(text + "\n", chunk)) == (text + "\n").splitlines()
    assert list(_lines("", chunk)) == []


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


def test_parse_fs2_file_peak_memory():
    """Parsing the emitted fs2 file (27 MB) stays well below the 400 MB that
    name-keyed composition tables took."""
    child = ("import resource\n"
             "from doctrines import fixtures\n"
             "from doctrines.fileformat import emit_doctrine, parse_doctrine\n"
             "parse_doctrine(emit_doctrine(fixtures.fs2()))\n"
             "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    paths = [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    out = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                         env=env, check=True, timeout=240)
    peak_mb = int(out.stdout.split()[-1]) / 1024      # ru_maxrss is in KiB on Linux
    assert peak_mb < 300, peak_mb
