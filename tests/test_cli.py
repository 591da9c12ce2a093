import json
import subprocess
import sys
from pathlib import Path

import pytest

from doctrines.cli import main

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
    r = run("complete", "chain", "--kind", "tp", "--cap-fibers", "1")
    assert r.returncode == 3
    assert "resource cap" in r.stderr


def test_compare_summaries():
    r = run("compare", "chain")
    assert r.returncode == 0
    assert "fulc: not applicable" in r.stdout
    r = run("compare", "nochoice")
    assert r.returncode == 0
    assert "rule of choice failed" in r.stdout or "rule_of_choice" in r.stdout \
        or "rule of choice" in r.stdout


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
    ("universal", "triv", 0),
])
def test_json_reports_match_golden(capsys, command, path, code):
    """In-process, so a doctrine's analysis may already be filled by other
    tests; the bytes must still be those of the golden file."""
    assert main(["--json", command, path]) == code
    assert capsys.readouterr().out == (GOLDEN / f"{command}_{path}.json").read_text()
