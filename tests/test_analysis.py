"""The memoized analysis: every reader gets the same verdicts, each part is
computed once per doctrine, and no report can change what is kept."""

import gc
import weakref
from collections import Counter
from pathlib import Path

import pytest

from doctrines import cli, compare, fixtures
from doctrines.cli import check_report, main
from doctrines.compare import (analysis, verify_axc, verify_converse_axc,
                               verify_cthn, verify_fulc)
from doctrines.completions import Caps
from doctrines.doctrine import sub_doctrine
from doctrines.errors import ResourceCap
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


def test_demo_builds_each_relation_completion_once(monkeypatch, capsys):
    builds = _count_calls(monkeypatch, "build_tp")
    assert main(["demo"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "demo.txt").read_text()
    assert builds and max(builds.values()) == 1


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
        analysis(P, Caps(fibers=1)).tp()
    with pytest.raises(ResourceCap) as again:
        analysis(P, Caps(fibers=1)).er()
    assert again.value is not first.value
    assert (str(again.value), again.value.size, again.value.cap) == \
        (str(first.value), first.value.size, first.value.cap)
    assert builds[id(P)] == 1
    analysis(P).tp()
    assert builds[id(P)] == 2


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
