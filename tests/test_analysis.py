"""The memoized analysis: every reader gets the same verdicts, each part is
computed once per doctrine, and no report can change what is kept."""

import gc
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest

from doctrines import cli, compare, fincat, fixtures
from doctrines.cli import check_report, main
from doctrines.compare import (analysis, verify_axc, verify_converse_axc,
                               verify_cthn, verify_fulc)
from doctrines.completions import Caps, build_erp, build_gr, build_qp, build_tp
from doctrines.doctrine import sub_doctrine
from doctrines.errors import MalformedPresentation, ResourceCap
from doctrines.fileformat import emit_doctrine
from doctrines.fincat import WindowScope

GOLDEN = Path(__file__).parent / "data" / "golden"
HARNESSES = (verify_cthn, verify_fulc, verify_axc, verify_converse_axc)


def _count_calls(monkeypatch, name):
    """Count the calls of `name` through the bindings `compare` and `cli`
    hold, keyed by the id of the first argument."""
    calls = Counter()
    for mod in (compare, cli):
        original = getattr(mod, name, None)
        if original is None:
            continue

        def counted(first, *args, _original=original, **kwargs):
            calls[id(first)] += 1
            return _original(first, *args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    return calls


def test_check_file_validates_each_law_once(tmp_path, monkeypatch, capsys):
    tp = analysis(fixtures.fs2()).tp()
    path = tmp_path / "fs2-tp.dtn"
    path.write_text(emit_doctrine(sub_doctrine(tp.cat, tp.pc, WindowScope(tp.scope.core))))
    category = _count_calls(monkeypatch, "validate_category")
    products = _count_calls(monkeypatch, "validate_products")
    assert main(["check", str(path)]) in (0, 1)
    assert "category-laws" in capsys.readouterr().out
    assert sum(category.values()) == 1
    assert sum(products.values()) == 1


def _calls_of(fn, run) -> int:
    """How often `fn` runs while `run()` does, through any binding."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is fn.__code__:
            calls.append(frame.f_code)
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return len(calls)


def test_building_and_checking_fs2_validates_its_products_once(monkeypatch, capsys):
    """The fixture builder leaves the verdict to the analysis, and the
    Window derives the pairing table without validating."""
    monkeypatch.setattr(fixtures, "_FS2_CACHE", {})
    assert _calls_of(fincat.validate_products, lambda: main(["check", "fs2"])) == 1
    assert "chosen-products" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["triv", "chain", "fs2"])
def test_completions_do_not_validate_products(name):
    """The completions' chosen products are searched (tp, er, qp) or carried
    by a lemma (gr), and their pairing tables come from the Window."""
    P = fixtures.BUILTIN_FIXTURES[name]()
    _, E, X = analysis(P).eed()
    builds = [lambda: build_tp(P, E, X), lambda: build_erp(P, E, build_tp(P, E, X)),
              lambda: build_qp(P, E, X)]
    if name != "fs2":                 # fs2's points category is over the arrow cap
        builds.append(lambda: build_gr(P))
    for build in builds:
        assert _calls_of(fincat.validate_products, build) == 0


def test_demo_builds_each_relation_completion_once(monkeypatch, capsys):
    builds = _count_calls(monkeypatch, "build_tp")
    assert main(["demo"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "demo.txt").read_text()
    assert builds and max(builds.values()) == 1


def test_demo_decides_exactness_once_per_completion(monkeypatch, capsys):
    """`demo` prints the exactness of each relation completion and checks it
    again as the universal property's hypothesis; the verdict kept on the
    category serves the second read."""
    decided = Counter()
    kept = []
    original = fincat._exactness_verdict

    def counted(C, core):
        kept.append(C)
        decided[(id(C), core)] += 1
        return original(C, core)
    monkeypatch.setattr(fincat, "_exactness_verdict", counted)
    asked = _count_calls(monkeypatch, "check_exact")
    assert main(["demo"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "demo.txt").read_text()
    assert decided and max(decided.values()) == 1
    assert sum(asked.values()) > sum(decided.values())


def test_caps_share_the_parts_no_cap_reaches(monkeypatch, capsys):
    """Under a cap other than the default, `complete` reads the eed verdict
    that `check_report` kept: the doctrine laws and structure are decided
    once per doctrine, only the completions once per cap."""
    monkeypatch.setattr(fixtures, "_FS2_CACHE", {})
    decided = _count_calls(monkeypatch, "eed_checks")
    assert main(["complete", "fs2", "--kind", "tp", "--cap-enum", "2000000"]) == 0
    assert capsys.readouterr().out.startswith("complete --kind tp\n")
    assert list(decided.values()) == [1]


@pytest.mark.parametrize("name", ["triv", "chain", "nochoice"])
def test_reports_same_cold_and_warm(name):
    make = fixtures.BUILTIN_FIXTURES[name]
    cold = [h(make()).to_json() for h in HARNESSES]
    P = make()
    check_report(P)
    for h in HARNESSES:
        h(P)
    assert [h(P).to_json() for h in HARNESSES] == cold


def test_reports_never_change_kept_checks():
    """nochoice is not elementary existential, so verify_cthn marks every
    check it reports unclaimed, the points doctrine's eed tree included;
    the trees the analyses keep stay unmarked."""
    P = fixtures.nochoice()
    before = check_report(P)[0].to_json()
    rep = verify_cthn(P)
    eed = next(c for c in rep.checks if c.name == "eed")
    assert all(c.data.get("claimed") is False for c in eed.walk())
    hat = analysis(P).gr().doctrine
    for doctrine in (P, hat):
        tree, _, _ = analysis(doctrine).eed()
        assert all("claimed" not in c.data for c in tree.walk())
    assert check_report(P)[0].to_json() == before


def test_errors_are_kept_and_raised_again(monkeypatch):
    builds = _count_calls(monkeypatch, "build_tp")
    P = fixtures.chain_fixture()
    with pytest.raises(ResourceCap) as first:
        analysis(P, Caps(enum=1)).tp()
    with pytest.raises(ResourceCap) as again:
        analysis(P, Caps(enum=1)).er()
    assert again.value is not first.value
    assert (str(again.value), again.value.size, again.value.cap) == \
        (str(first.value), first.value.size, first.value.cap)
    assert builds[id(P)] == 1
    analysis(P).tp()
    assert builds[id(P)] == 2


@pytest.mark.parametrize("part", ["tp", "er", "L", "rule_of_choice", "qp"])
def test_parts_need_the_discovered_structure(part):
    """mixedfail has no elementary structure: every part built on it raises
    an error that names the failed discovery, kept and raised again."""
    an = analysis(fixtures.mixedfail())
    assert an.eed()[1] is None
    with pytest.raises(MalformedPresentation) as first:
        getattr(an, part)()
    with pytest.raises(MalformedPresentation) as again:
        getattr(an, part)()
    assert "needs the elementary structure, whose discovery failed" in str(first.value)
    assert again.value is not first.value and str(again.value) == str(first.value)


@pytest.mark.parametrize("name", ["chain", "nochoice"])
def test_analysis_is_freed_with_its_doctrine(name):
    """Nothing an analysis keeps, a kept error included, refers back to the
    doctrine, so dropping the doctrine frees it without waiting for the
    cycle collector."""
    P = fixtures.BUILTIN_FIXTURES[name]()
    for h in HARNESSES:
        h(P)
    gone = weakref.ref(P)
    gc.disable()
    try:
        del P
        assert gone() is None
    finally:
        gc.enable()
