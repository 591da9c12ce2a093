import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import crafted
from doctrines import compare, fincat, fixtures
from doctrines.cli import SUMMARY, main
from doctrines.cli import _compare_summary as compare_summary, _harness_exit as harness_exit
from doctrines.errors import FormulaMismatch, WindowClosure
from doctrines.fileformat import emit_doctrine
from doctrines.report import CAPPED, FAIL, INFO, NOT_APPLICABLE, PASS, Check, Report

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
ROOT = Path(__file__).parent.parent


def run(*args, timeout=240):
    return subprocess.run([sys.executable, "-m", "doctrines", *args],
                          capture_output=True, text=True, cwd=ROOT,
                          timeout=timeout)


def test_check_exit_codes_small():
    assert run("check", "fixtures/triv.dtn").returncode == 0
    assert run("check", "fixtures/chain.dtn").returncode == 0
    assert run("check", "mixedfail").returncode == 1


def test_check_builtin_name_resolution():
    r = run("check", "fixtures/triv")  # no file: resolves to the builtin
    assert r.returncode == 0
    assert "EED: yes" in r.stdout


def test_check_chain_reports_partial_comprehensions():
    r = run("check", "chain")
    assert r.returncode == 0
    assert "partial (missing for" in r.stdout
    assert "v:v0" in r.stdout
    assert "rule of choice: holds" in r.stdout


def test_check_broken_compose_entry():
    r = run("check", str(DATA / "broken.dtn"))
    assert r.returncode == 1
    assert "g" in r.stderr and "f" in r.stderr


def test_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.dtn"
    bad.write_text("base {\n  objects A ;\n  arrow f A Q\n}\n")
    r = run("check", str(bad))
    assert r.returncode == 2
    assert "line 3" in r.stderr


def test_missing_file_exit_2():
    assert run("check", "no/such/file.dtn").returncode == 2


def test_check_fs2_within_budget():
    import time
    t0 = time.monotonic()
    r = run("check", "fs2")
    elapsed = time.monotonic() - t0
    assert r.returncode == 0
    assert "EED: yes" in r.stdout
    assert "comprehensions: full" in r.stdout
    assert elapsed < 15  # generous subprocess bound; the in-process budget is 5s


def test_complete_counts():
    r = run("complete", "triv", "--kind", "tp")
    assert r.returncode == 0
    assert "objects: 4" in r.stdout
    assert "exact: yes" in r.stdout
    assert "poset: yes" in r.stdout
    r = run("complete", "chain", "--kind", "gr")
    assert "objects: 5" in r.stdout
    assert "full comprehensions: yes" in r.stdout


def test_complete_fs2_tp_counts():
    r = run("complete", "fs2", "--kind", "tp")
    assert r.returncode == 0
    assert "objects: 8" in r.stdout
    assert "iso classes: 3" in r.stdout
    assert "exact: yes" in r.stdout


def test_complete_emits_reingestible_file(tmp_path):
    out = tmp_path / "q.dtn"
    r = run("complete", "chain", "--kind", "qp", "--out", str(out))
    assert r.returncode == 0
    r2 = run("check", str(out))
    assert r2.returncode in (0, 1)  # well-formed; laws may or may not close
    assert "category-laws" in r2.stdout


def test_complete_resource_cap_exit_3():
    r = run("complete", "chain", "--kind", "tp", "--cap-enum", "1")
    assert r.returncode == 3
    assert "resource cap" in r.stderr


def test_universal_reports_a_restricted_base_not_applicable(tmp_path, capsys):
    """chain with u left out of its core: the enumeration from the base is
    restricted, which is not a cap, so `universal` exits 0 and says why."""
    path = tmp_path / "chain_v.dtn"
    path.write_text((ROOT / "fixtures" / "chain.dtn").read_text()
                    .replace("core { u v }", "core { v }"))
    assert main(["universal", str(path)]) == 0
    assert capsys.readouterr().out.endswith(
        "  [n/a] base-window  witness=base has non-core objects; enumeration restricted\n")


def test_compare_summaries():
    r = run("compare", "chain")
    assert r.returncode == 0
    assert "fulc: not applicable" in r.stdout
    r = run("compare", "nochoice")
    assert r.returncode == 0
    assert "rule of choice failed" in r.stdout or "rule_of_choice" in r.stdout \
        or "rule of choice" in r.stdout


def test_compare_summary_names_a_capped_comparison(capsys):
    """Under an enumeration cap of 1 the comparison functor of chain is never
    built, so the converse's derived choice never runs: its line says so."""
    assert main(["compare", "chain", "--cap-enum", "1"]) == 0
    out = capsys.readouterr().out
    assert "[capped] comparison-is-equivalence" in out
    assert out.endswith(
        "  axc: hypothesis weak full comprehensions failed (witness u, u0, v, v0);"
        " conclusion unclaimed\n"
        "  converse: capped (resource cap exceeded: hom candidates needs 59 > cap 1)\n")


def test_compare_reports_a_capped_inclusion(capsys):
    """Under an enumeration cap of 100, fs2's relation completion is never
    built: the inclusion harness reports the cap as a check, and every
    report and the summary are printed."""
    assert main(["compare", "fs2", "--cap-enum", "100"]) == 0
    out = capsys.readouterr().out
    cap = "resource cap exceeded: hom candidates needs 503 > cap 100"
    assert f"  [capped] inclusion-faithful  witness={cap}\n" in out
    assert [line for line in out.splitlines() if not line.startswith(" ")] == [
        "comprehension-completion", "reflexive-inclusion-equivalence",
        "quotient-comparison-equivalence", "choice-from-equivalence", "summary:"]
    assert f"  fulc: capped ({cap})\n" in out


def test_composition_table_cap_is_exit_3(monkeypatch, capsys):
    """A category whose composition table would exceed the cell cap is
    refused before the table exists."""
    monkeypatch.setattr(fincat, "TABLE_CELL_CAP", 8)
    assert main(["check", "fixtures/chain.dtn"]) == 3
    assert "resource cap exceeded: composition table cells needs" in capsys.readouterr().err


def test_oversized_category_file_exits_3_under_a_memory_limit(tmp_path):
    """12,000 objects with only their identities need a 144,000,000-cell
    table, about 1.6 GiB; under a 1 GiB address-space limit, set on the
    child alone, the file is refused by the cap and not by the allocator."""
    n = 12000
    path = tmp_path / "identities.dtn"
    path.write_text("\n".join(
        ["base {", "  objects " + " ".join(f"o{i}" for i in range(n)) + " ;",
         *(f"  arrow i{i} o{i} o{i}" for i in range(n)),
         *(f"  identity o{i} = i{i}" for i in range(n)),
         *(f"  compose i{i} i{i} = i{i}" for i in range(n)),
         "  terminal o0", "}"]) + "\n")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    r = subprocess.run([sys.executable, "-m", "doctrines", "check", str(path)],
                       capture_output=True, text=True, cwd=ROOT, timeout=240,
                       preexec_fn=limit_memory)
    assert (r.returncode, r.stderr) == (3, "resource cap: resource cap exceeded: composition"
                                           " table cells needs 144000000 > cap 16777216\n")


def test_oversized_fiber_file_exits_3_under_a_memory_limit(tmp_path):
    """A fiber of one element more than the cap (1,024) is refused with its
    full count before its tables exist, with and without a 1 GiB
    address-space limit set on the child alone."""
    els = [f"a{i}" for i in range(fincat.FIBER_ELEMENT_CAP + 1)]
    path = tmp_path / "fiber.dtn"
    path.write_text("\n".join(
        ["base {", "  objects A ;", "  arrow idA A A", "  identity A = idA",
         "  compose idA idA = idA", "  terminal A", "  product A A = A idA idA", "}",
         "fiber A {", "  elements " + " ".join(els) + " ;", f"  top {els[-1]}",
         *(f"  leq {x} {y}" for x, y in zip(els, els[1:])), "}",
         "reindex idA {", *(f"  {e} -> {e}" for e in els), "}", "core { A }"]) + "\n")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    for limit in (None, limit_memory):
        r = subprocess.run([sys.executable, "-m", "doctrines", "check", str(path)],
                           capture_output=True, text=True, cwd=ROOT, timeout=240,
                           preexec_fn=limit)
        assert (r.returncode, r.stderr) == (3, "resource cap: resource cap exceeded: fiber"
                                               " elements of 'A' needs 1025 > cap 1024\n")


@pytest.mark.parametrize("n", [128, 512, 513])
def test_relation_completion_is_refused_on_its_full_candidate_count(tmp_path, n):
    """A one-object file whose fiber is an n-element chain has n relation
    objects, and each of the n × n pairs has the n elements of P(A×A) as
    candidate arrows: the completion is refused on all n³ of them."""
    path = tmp_path / "chain.dtn"
    path.write_text(crafted.chain_file(n))
    r = run("complete", str(path), "--kind", "tp")
    assert (r.returncode, r.stderr) == (3, "resource cap: resource cap exceeded: hom"
                                           f" candidates needs {n ** 3} > cap 1048576\n")


@pytest.mark.parametrize("kind, message", [
    ("tp", "relation completion arrows needs at least 4097 > cap 4096"),
    ("gr", "points category arrows needs 5151 > cap 4096")])
def test_completions_past_the_table_arrows_are_refused_in_arrows(tmp_path, kind, message):
    """The 101-element chain file's relation and points completions both
    have 5,151 arrows: each is refused in arrows against the 4,096 whose
    table the table cap admits, the relation completion on the arrows it
    decided before it stopped."""
    path = tmp_path / "chain101.dtn"
    path.write_text(crafted.chain_file(101))
    r = run("complete", str(path), "--kind", kind)
    assert (r.returncode, r.stderr) == (3, f"resource cap: resource cap exceeded: {message}\n")


def test_compare_summary_names_a_comparison_not_computable(monkeypatch, capsys):
    """On a fresh fs2, every hypothesis of axc holds but the comparison
    functor cannot be built: the axc line gives the reason, not FAIL."""
    def no_comparison(*args):
        raise FormulaMismatch("comparison", "injected")

    monkeypatch.setattr(fixtures, "_FS2_CACHE", {})
    monkeypatch.setattr(compare, "functor_L", no_comparison)
    assert main(["compare", "fs2"]) == 0
    out = capsys.readouterr().out
    assert "  axc: not computable (formula mismatch in comparison: injected)\n" in out
    assert "  converse: not applicable (witness formula mismatch in comparison: injected)\n" in out


def _completed(name: str, tmp_path) -> str:
    """The comprehension completion of a shipped fixture, written as a file."""
    path = tmp_path / f"{name}_c.dtn"
    P = fixtures.BUILTIN_FIXTURES[name]()
    path.write_text(emit_doctrine(compare.analysis(P).gr().doctrine))
    return str(path)


def _claimed_failure(checks: list[dict]) -> bool:
    """A failed check, in a JSON rendering, that is no hypothesis (by name or
    by context) and whose claim is not withdrawn: the rule README states."""
    return any(c["status"] == FAIL and not c["name"].startswith("hypothesis-")
               and c.get("data", {}).get("context") != "hypothesis"
               and c.get("data", {}).get("claimed", True)
               or _claimed_failure(c.get("children", [])) for c in checks)


@pytest.mark.parametrize("name", ["triv", "chain", "nochoice", "fs2", "triv_c", "chain_c"])
def test_compare_summary_says_fail_exactly_as_the_exit_code(capsys, tmp_path, name):
    """Each harness's summary line says FAIL exactly when its report holds a
    claimed failure, and `compare` exits 1 exactly when one does."""
    path = _completed(name.removesuffix("_c"), tmp_path) if name.endswith("_c") else name
    code = main(["compare", path])
    lines = capsys.readouterr().out.split("summary:\n")[1].splitlines()
    assert main(["--json", "compare", path]) == code
    failed = [_claimed_failure(json.loads(line)["checks"])
              for line in capsys.readouterr().out.splitlines()]
    assert ["FAIL" in line for line in lines] == failed
    assert code == (1 if any(failed) else 0)


def test_compare_on_the_completion_of_chain_claims_no_converse(tmp_path, capsys):
    """chain's comprehension completion fails the rule of choice, so its
    comparison functor is no equivalence: the converse's hypothesis fails
    and its derived choice is unclaimed, which is no violation."""
    assert main(["compare", _completed("chain", tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "  [FAIL] comparison-is-equivalence  context=hypothesis\n" in out
    assert out.endswith("  converse: pass (hypotheses incomplete, unclaimed)\n")


def test_compare_summary_names_a_completion_not_applicable(monkeypatch, capsys):
    """A points category that cannot be built is not applicable, and its
    line says so, as the exit code 0 does."""
    def no_points(self):
        raise WindowClosure(("u", "v"), "injected")

    monkeypatch.setattr(compare.Analysis, "gr", no_points)
    assert main(["compare", "chain"]) == 0
    out = capsys.readouterr().out
    assert "comprehension-completion\n  [ok] base-is-eed  context=hypothesis\n  [n/a] build" in out
    assert "  cthn: not applicable (window closure violated: missing product uxv (injected))\n" in out


@pytest.mark.parametrize("checks, line", [
    ([Check("base-is-eed", FAIL, data={"context": "hypothesis"}),
      Check("inclusion-faithful", FAIL, data={"claimed": False})],
     "fulc: unclaimed (base is not elementary existential)"),
    ([Check("base-is-eed", PASS, data={"context": "hypothesis"}),
      Check("inclusion-faithful", FAIL)], "fulc: FAIL"),
    ([Check("full-comprehensions", NOT_APPLICABLE, (("u", "u0"),),
            {"reason": "base lacks full comprehensions"})],
     "fulc: not applicable (base lacks full comprehensions)"),
    ([Check("base-is-eed", FAIL, data={"context": "hypothesis"}),
      Check("inclusion-faithful", CAPPED, "cap")], "fulc: capped (cap)"),
    ([Check("base-is-eed", PASS, data={"context": "hypothesis"}),
      Check("inclusion-faithful", PASS), Check("image-of-top-identity", INFO)],
     "fulc: equivalence"),
])
def test_one_state_decides_the_summary_and_the_exit(checks, line):
    """A claimed failure reads FAIL and exits 1; a cap or a check not
    applicable comes before a failed hypothesis, which withdraws the claims
    that rest on it."""
    reports = [Report(title, [Check("x", PASS)]) for title in SUMMARY]
    reports[1].checks = checks
    assert compare_summary(reports).splitlines()[2] == f"  {line}"
    assert harness_exit(reports) == (1 if line.endswith("FAIL") else 0)


@pytest.mark.parametrize("argv", [["compare", "chain", "--condition-v", "alt"],
                                  ["check", "chain", "--cap-enum", "5"],
                                  ["universal", "chain", "--condition-v", "strict"],
                                  ["complete", "chain", "--kind", "tp", "--cap-fibers", "512"],
                                  ["compare", "chain", "--cap-fibers", "512"],
                                  ["universal", "chain", "--cap-fibers", "512"]])
def test_options_a_command_does_not_read_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_compare_fs2():
    r = run("compare", "fs2")
    assert r.returncode == 0
    assert "fulc: equivalence" in r.stdout
    assert "axc: hypotheses ok, L equivalence" in r.stdout
    assert "converse: pass" in r.stdout


def test_universal_exit_codes():
    assert run("universal", "triv").returncode == 0
    assert run("universal", "fs2").returncode == 3


def test_json_reports_are_valid():
    r = run("--json", "check", "triv")
    assert r.returncode == 0
    for line in r.stdout.splitlines():
        json.loads(line)


def test_demo_byte_identical():
    r = run("demo")
    assert r.returncode == 0
    assert r.stdout == (GOLDEN / "demo.txt").read_text()


@pytest.mark.parametrize("command, path, code", [
    ("check", "triv", 0), ("check", "chain", 0), ("check", "fs2", 0),
    ("check", "nochoice", 1),
    ("compare", "triv", 0), ("compare", "chain", 0), ("compare", "fs2", 0),
    ("compare", "nochoice", 0),
    ("universal", "triv", 0), ("universal", "chain", 0),
])
def test_json_reports_match_golden(capsys, command, path, code):
    """In-process, so a doctrine's analysis may already be filled by other
    tests; the bytes must still be those of the golden file."""
    assert main(["--json", command, path]) == code
    assert capsys.readouterr().out == (GOLDEN / f"{command}_{path}.json").read_text()


@pytest.mark.parametrize("path, code, err", [
    ("tests/data/broken.dtn", 1,
     "violation: composite has wrong source or target at ('g', 'f')\n"),
    ("no/such/file.dtn", 2,
     "parse error: line 0, col 0: no such file or fixture: no/such/file.dtn\n"),
])
def test_load_refusals_in_process(capsys, monkeypatch, path, code, err):
    """A file whose category is broken, and a path that is neither a file
    nor a fixture, as the subprocess tests above see them.  The paths are
    read from the root of the checkout, so the test ids name no checkout."""
    monkeypatch.chdir(ROOT)
    assert main(["check", path]) == code
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("kind, summary", [
    ("qp", "  objects: 2\n  arrow classes: 3\n"),
    ("gr", "  objects: 6\n  arrows: 17\n  full comprehensions: yes\n"),
])
def test_complete_names_failed_eed_part(capsys, tmp_path, kind, summary):
    """nochoice satisfies the doctrine laws but fails stability: `complete`
    still writes its completion and exits 1, naming the failed part of the
    EED verdict and its witness on stderr."""
    out = tmp_path / f"{kind}.dtn"
    assert main(["complete", "nochoice", "--kind", kind, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == f"complete --kind {kind}\n{summary}wrote {out}\n"
    assert captured.err == "violation: eed fails: stability at (u, m, a)\n"
    assert out.read_text().startswith("base {")


def _numpy_ma_after(statement: str) -> str:
    """What a fresh process prints for `'numpy.ma' in sys.modules` after
    running the statement with its standard output captured."""
    child = ("import contextlib, io, sys\n"
             "from doctrines.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             f"    {statement}\n"
             "print('numpy.ma' in sys.modules)\n")
    r = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                       cwd=ROOT, timeout=240)
    assert r.returncode == 0, r.stderr
    return r.stdout


@pytest.mark.parametrize("argv", [["complete", "fs2", "--kind", "tp"], ["demo"],
                                  ["universal", "chain"]])
def test_commands_do_not_import_numpy_ma(argv):
    """`numpy.ma` costs 10-17 ms to import in a fresh process, and numpy
    imports it lazily from `np.unique`; the commands that build completions
    run without it."""
    assert _numpy_ma_after(f"main({argv!r})") == "False\n"


@pytest.mark.parametrize("preset", [None, "2"])
def test_import_asks_for_one_blas_thread(preset):
    """Importing the package sets both BLAS thread variables to 1 before
    numpy loads, and keeps a value the user has set."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    if preset:
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = preset
    r = subprocess.run([sys.executable, "-c",
                        "import os, doctrines\n"
                        "print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])"],
                       capture_output=True, text=True, cwd=ROOT, env=env, timeout=240)
    assert r.returncode == 0, r.stderr
    assert r.stdout == f"{preset or 1} {preset or 1}\n"
