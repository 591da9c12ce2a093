"""The universal-property searches against the plain loops they replaced.

Limits, monos, joint monicity and product validation are
decided by counting cones (`fincat` module docstring), and comprehensions
by counting factorizations.  On random small categories of finite maps, on
the fixtures and their tp completions, and on corrupted product choices,
each must give the results of the former loops in `oracles.py`, in order.
Product cones are searched once per category and pair, and a search lists
at most one cone per endomorphism."""

import copy
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as strat

import crafted
import oracles
from doctrines import completions, fincat, fixtures
from doctrines.compare import analysis
from doctrines.completions import choose_products
from doctrines.fincat import (Cone, ProductChoice, WindowScope, check_exact, equalizer,
                              factor_counts, greedy_product_core, is_coequalizer_of, is_mono,
                              is_regular_epi, jointly_monic, mediating, product_cone, pullback,
                              terminal_object, validate_products)
from doctrines.structure import verify_comprehension_arrow
from test_laws import concrete_categories, corrupted_doctrines


def _arrows(C, objects=None):
    """The arrows between the given objects (default: all), in id order."""
    return np.arange(C.n_arrows) if objects is None else \
        np.flatnonzero(np.isin(C.src, objects) & np.isin(C.tgt, objects))


def _pairs(C, same_source: bool, objects=None):
    """Arrow pairs with a common target, and a common source when asked,
    between the given objects (default: all), in id order."""
    arrows = _arrows(C, objects)
    f, g = np.repeat(arrows, len(arrows)), np.tile(arrows, len(arrows))
    keep = (C.tgt[f] == C.tgt[g]) & ((C.src[f] == C.src[g]) | (not same_source))
    return list(zip(f[keep].tolist(), g[keep].tolist()))


def assert_limits_match(C, stride: int = 1, objects=None):
    """Pullbacks of every `stride`-th cospan, equalizers of every
    `stride`-th parallel pair and product cones of every pair, between
    `objects` (default: all), are the former loops' first limiting cones;
    each cospan's cone counts are the lengths of the former listing, apex
    by apex."""
    for f, g in _pairs(C, False, objects)[::stride]:
        cones = [Cone(z, (p, q)) for z, p, q in oracles.cospan_cones(C, f, g)]
        assert fincat._cospan_counts(C, f, g).tolist() == \
            [sum(1 for cone in cones if cone.apex == z) for z in range(C.n_objects)]
        assert pullback(C, f, g) == oracles.first_limiting_cone(C, cones)
    for f, g in _pairs(C, True, objects)[::stride]:
        assert equalizer(C, f, g) == oracles.first_limiting_cone(C, oracles.forks(C, f, g))
    for a, b in itertools.product(range(C.n_objects) if objects is None else objects, repeat=2):
        assert product_cone(C, a, b) == \
            oracles.first_limiting_cone(C, oracles.product_cones(C, a, b))


def assert_monos_match(C, objects=None):
    """Every arrow, and every span between `objects` (default: all) with a
    common source, whatever its targets."""
    assert [is_mono(C, f) for f in range(C.n_arrows)] == \
        [oracles.is_mono(C, f) for f in range(C.n_arrows)]
    spans = [(f, g) for f, g in itertools.product(_arrows(C, objects).tolist(), repeat=2)
             if C.src[f] == C.src[g]]
    assert [jointly_monic(C, span) for span in spans] == \
        [oracles.jointly_monic(C, *span) for span in spans]


@settings(max_examples=40)
@given(concrete_categories())
def test_limiting_cones_match_oracle(sample):
    """Every third cospan and parallel pair: the former loops are slow."""
    assert_limits_match(sample[0], 3)


@settings(max_examples=60)
@given(concrete_categories())
def test_monos_and_jointly_monic_spans_match_oracle(sample):
    assert_monos_match(sample[0])


@pytest.mark.parametrize("name", ["triv", "chain", "fs2"])
def test_limits_match_oracle_on_fixtures(name, request):
    """Everything on the fixture's base and tp completion, but on fs2's base
    (949 arrows) only the cospans, parallel pairs and object pairs of the
    core 0, 1, 2, each searched over all five apexes: the former loops take
    up to 1.4 s for one cospan into 8, and try every one of the 300,000
    spans over (8, 8), which has no product."""
    P = request.getfixturevalue(name)
    for C, objects in ((analysis(P).tp().cat, None),
                       (P.cat, P.scope.core if name == "fs2" else None)):
        assert_limits_match(C, 1, objects)
        assert_monos_match(C, objects)


@settings(max_examples=60)
@given(concrete_categories())
def test_mediators_and_factor_counts_match_oracle(sample):
    """The mediators of every cone over every span, and the factorizations
    through every arrow, against the former mediator table."""
    C = sample[0]
    for f in range(C.n_arrows):
        counts = factor_counts(C, f)
        for z in range(C.n_objects):
            table = oracles.mediators(C, z, (f,))
            assert [counts[h] for h in C.hom(z, int(C.tgt[f]))] == \
                [len(table.get((int(h),), [])) for h in C.hom(z, int(C.tgt[f]))]
    for legs in [(f, g) for f, g in itertools.product(range(C.n_arrows), repeat=2)
                 if C.src[f] == C.src[g]][::5]:
        for z in range(C.n_objects):
            table = oracles.mediators(C, z, legs)
            for cone in itertools.product(C.hom(z, int(C.tgt[legs[0]])).tolist(),
                                          C.hom(z, int(C.tgt[legs[1]])).tolist()):
                assert mediating(C, cone, legs).tolist() == table.get(cone, [])


@settings(max_examples=60)
@given(concrete_categories())
def test_coequalizer_arrows_match_oracle(sample):
    """The universal coequalizers of every parallel pair, in id order."""
    C = sample[0]
    for r, s in _pairs(C, same_source=True):
        found = [q for q in C.outof(int(C.tgt[r])).tolist() if is_coequalizer_of(C, q, r, s)]
        assert found == oracles.coequalizer_arrows(C, r, s)


def _validated(validate, C, binary, terminal):
    """The report on a fresh product choice, given by names."""
    return validate(C, crafted.choice(C, terminal, binary))


@pytest.fixture(scope="session")
def product_bases(triv, chain, fs2):
    """Each fixture's base and tp completion with its chosen products."""
    out = []
    for P in (triv, chain, fs2):
        tp = analysis(P).tp()
        out += [(P.cat, P.products), (tp.cat, tp.pc)]
    return out


def test_product_validation_matches_oracle_on_fixtures(product_bases):
    for C, pc in product_bases:
        terminal, binary = crafted.choice_names(C, pc)
        got = _validated(validate_products, C, binary, terminal)
        assert got.ok and got == _validated(oracles.validate_products, C, binary, terminal)


def _former_product_witness(C, a: int, b: int, p1: int, p2: int):
    """The former mediator-table scan: at the first apex with a fault, the
    least cone with more than one mediator and the most mediators of any
    cone there, else the first cone in product order with none."""
    for z in range(C.n_objects):
        table = oracles.mediators(C, z, (p1, p2))
        dups = [cone for cone, ms in table.items() if len(ms) > 1]
        if dups:
            return min(dups), max(len(ms) for ms in table.values())
        missing = [cone for cone in itertools.product(C.hom(z, a).tolist(), C.hom(z, b).tolist())
                   if cone not in table]
        if missing:
            return missing[0], 0
    return None


def _chain_with_idempotent():
    """chain's u <= v with an idempotent e on u that m absorbs, m∘e = m:
    the span (m, m) from u over (v, v) has the mediators idu and e for its
    cone (m, m) at u."""
    return crafted.build(
        ["u", "v"], [("idu", "u", "u"), ("idv", "v", "v"), ("m", "u", "v"), ("e", "u", "u")],
        {"u": "idu", "v": "idv"},
        {("idu", "idu"): "idu", ("idv", "idv"): "idv", ("m", "idu"): "m", ("idv", "m"): "m",
         ("e", "idu"): "e", ("idu", "e"): "e", ("e", "e"): "e", ("m", "e"): "m"})


@pytest.mark.parametrize("case", ["chain missing", "chain duplicated",
                                  "fs2 missing", "fs2 duplicated", "fs2 duplicated and missing"])
def test_product_validation_names_the_former_witness(chain, fs2, case):
    """A chosen product replaced by a span with a missing or a duplicated
    mediator: the report names the former scan's cone and count."""
    C, pc = (chain.cat, chain.products) if case.startswith("chain") else (fs2.cat, fs2.products)
    terminal, chosen = crafted.choice_names(C, pc)
    key, span = {
        "chain missing": (("v", "v"), ("u", "m", "m")),
        "chain duplicated": (("v", "v"), ("u", "m", "m")),
        "fs2 missing": (("2", "2"), ("2", "id2", "id2")),
        "fs2 duplicated": (("2", "2"), ("8", "a8_2_170", "a8_2_204")),          # bits 0, 1
        "fs2 duplicated and missing": (("2", "2"), ("8", "a8_2_170", "a8_2_0")),  # bit 0, 0
    }[case]
    binary = {**chosen, key: span}
    if case == "chain duplicated":           # (u, u) and (u, v) are no products there
        C, binary = _chain_with_idempotent(), {key: span}
    a, b = (C.obj_index[o] for o in key)
    cone, most = _former_product_witness(C, a, b, C.arr_index[span[1]], C.arr_index[span[2]])
    assert ("duplicated" in case) == (most > 1)
    report = _validated(validate_products, C, binary, terminal)
    assert (report.ok, report.law, report.witness) == \
        (False, "Product", tuple(C.arrows[x] for x in cone))
    assert report.message == (f"cone has {most} mediating arrows into {span[0]}" if most
                              else f"cone has no mediating arrow into {span[0]}")
    assert report == _validated(oracles.validate_products, C, binary, terminal)


@settings(max_examples=300)
@given(strat.data())
def test_product_validation_matches_oracle_on_corrupted_choices(product_bases, data):
    """Up to two corruptions of a chosen product or the terminal: projections
    swapped, one replaced by another arrow of its type or by any arrow, a
    span from another apex, another terminal.  The report must be the former
    code-table validation's."""
    C, pc = data.draw(strat.sampled_from([b for b in product_bases if b[0].n_arrows > 1]))
    terminal, binary = crafted.choice_names(C, pc)
    for _ in range(data.draw(strat.sampled_from([1, 1, 2]))):
        kind = data.draw(strat.sampled_from(["swap", "typed", "typed", "any", "apex", "apex",
                                             "apex", "terminal"]))
        # a swap is well typed on a square A×A only
        key = data.draw(strat.sampled_from(sorted(k for k in binary
                                                  if kind != "swap" or k[0] == k[1])))
        p, *legs = binary[key]
        if kind == "swap":
            legs.reverse()
        elif kind in ("typed", "any"):
            i = data.draw(strat.integers(0, 1))
            pool = (C.hom(C.obj_index[p], C.obj_index[key[i]]).tolist() if kind == "typed"
                    else range(C.n_arrows))
            others = [C.arrows[f] for f in pool if C.arrows[f] != legs[i]]
            if others:
                legs[i] = data.draw(strat.sampled_from(others))
        elif kind == "apex":
            z = data.draw(strat.sampled_from([z for z in range(C.n_objects) if C.objects[z] != p]))
            p = C.objects[z]
            for j, o in enumerate(key):
                h = C.hom(z, C.obj_index[o]).tolist()
                legs[j] = C.arrows[data.draw(strat.sampled_from(h))] if h else legs[j]
        else:
            terminal = data.draw(strat.sampled_from([o for o in C.objects if o != terminal]))
        binary[key] = (p, *legs)
    assert _validated(validate_products, C, binary, terminal) == \
        _validated(oracles.validate_products, C, binary, terminal)


def _pairing_matches_oracle(C, pc):
    """A Window over a fresh copy of the choice pairs every cone over every
    chosen product with the one mediator the oracle's table holds for it."""
    win = fincat.Window(C, ProductChoice(pc.terminal, dict(pc.binary)), WindowScope(()))
    for (a, b), (_, p1, p2) in pc.binary.items():
        for z in range(C.n_objects):
            cones = itertools.product(C.hom(z, a).tolist(), C.hom(z, b).tolist())
            assert {cone: [win.pair(*cone)] for cone in cones} == oracles.mediators(C, z, (p1, p2))


def test_pairing_matches_oracle_on_fixtures(triv, chain, fs2):
    """The fixture bases and their tp, er, qp and gr categories; fs2's
    points category is over the default arrow cap."""
    for P in (triv, chain, fs2):
        an = analysis(P)
        _pairing_matches_oracle(P.cat, P.products)
        for part in (an.tp, an.er, an.qp) + ((an.gr,) if P is not fs2 else ()):
            assert part().pc is not None
            _pairing_matches_oracle(part().cat, part().pc)


@settings(max_examples=60)
@given(concrete_categories())
def test_pairing_matches_oracle_on_chosen_products(sample):
    pc = choose_products(sample[0])
    if pc is not None:
        _pairing_matches_oracle(sample[0], pc)


@settings(max_examples=60)
@given(corrupted_doctrines())
def test_comprehension_arrows_match_oracle(P):
    """Every arrow into every object, for every element, strict and weak, on
    powerset doctrines with up to two corrupted entries."""
    C = P.cat
    for a in range(C.n_objects):
        for el in range(P.fibers[a].n):
            for c in C.into(a).tolist():
                for strict in (True, False):
                    assert verify_comprehension_arrow(P, a, el, c, strict) == \
                        oracles.verify_comprehension_arrow(P, a, el, c, strict)


def test_product_cones_searched_once_per_category(chain, monkeypatch):
    """choose_products, greedy_product_core and check_exact share one cone
    search per (a, b) on a copy of a completion category."""
    C = copy.deepcopy(analysis(chain).tp().cat)
    calls, searches, inside = [], [], []
    search, first_limit = fincat.product_cone, fincat._first_limit

    def counted_product_cone(C, a, b):
        calls.append((a, b))
        inside.append(True)
        try:
            return search(C, a, b)
        finally:
            inside.pop()

    def counted_first_limit(C, counts, cones_at):
        if inside:
            searches.append(counts)
        return first_limit(C, counts, cones_at)

    for module in (fincat, completions):
        monkeypatch.setattr(module, "product_cone", counted_product_cone)
    monkeypatch.setattr(fincat, "_first_limit", counted_first_limit)
    choose_products(C)
    check_exact(C, WindowScope(greedy_product_core(C)))
    kept = [key for key in C._kept if key[0] == "product_cone"]
    assert len(searches) == len(set(calls)) == len(kept) < len(calls)


def test_copies_start_with_an_empty_cone_memo(chain):
    C = analysis(chain).tp().cat
    assert product_cone(C, 0, 0) is product_cone(C, 0, 0)
    assert ("product_cone", 0, 0) in C._kept
    assert copy.copy(C)._kept == {}
    assert copy.deepcopy(C)._kept == {}
    assert pickle.loads(pickle.dumps(C))._kept == {}


def test_copies_start_without_counting_tables(chain):
    """The cone-counting kernel's tables (hom sizes, histogram blocks,
    joint-monicity verdicts), the pullback memo and the regular-epi
    verdicts are dropped by every copy, and the tables the kernel hands out
    are read-only."""
    C = analysis(chain).tp().cat
    f = int(C.into(0)[-1])
    assert pullback(C, f, f) is not None and pullback(C, f, f) is pullback(C, f, f)
    regular = is_regular_epi(C, f)
    assert C._kept["is_regular_epi", f] == regular
    kinds = {key[0] for key in C._kept}
    assert {"hom_sizes", "histograms", "jointly_monic", "pullback"} <= kinds
    for table in [value for key, value in C._kept.items() if key[0] in ("hom_sizes", "histograms")]:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0
    for D in (copy.copy(C), copy.deepcopy(C), pickle.loads(pickle.dumps(C))):
        assert D._kept == {}
        assert pullback(D, f, f) == pullback(C, f, f)
        assert is_regular_epi(D, f) == regular


def test_equalizer_clause_names_first_failing_pair():
    """Maps 2 -> 2 in a finite-set window without the empty set: the pairs
    that agree nowhere, (id, swap) and (c0, c1), have no equalizer, and the
    finitely-complete witness is the first of them in arrow-id order."""
    cat, _, _, lookup = fixtures.finset_window([1, 2, 4], [2])
    two = cat.obj_index["2"]
    values = {cat.arr_index[name]: vals for (a, b, vals), name in lookup.items()
              if (a, b) == (2, 2)}
    disjoint = [(f, g) for f, g in itertools.combinations(sorted(values), 2)
                if all(x != y for x, y in zip(values[f], values[g]))]
    assert len(disjoint) == 2
    for f, g in itertools.combinations(cat.hom(two, two).tolist(), 2):
        assert (equalizer(cat, f, g) is None) == ((f, g) in disjoint)
    v = check_exact(cat, WindowScope((two,)))
    assert not v.finitely_complete and not v.regular and not v.exact
    f, g = disjoint[0]
    assert v.witness == {"core": ("2",), "finitely_complete": (cat.arrows[f], cat.arrows[g])}


def _two_points():
    """Two objects and their identities: no object has an arrow from both."""
    return crafted.build(["a", "b"], [("ida", "a", "a"), ("idb", "b", "b")],
                         {"a": "ida", "b": "idb"}, {("ida", "ida"): "ida", ("idb", "idb"): "idb"})


def _fs2_window():
    return fixtures.fs2().cat


@pytest.mark.parametrize("make", [crafted.v_poset, crafted.nofact_category,
                                  crafted.meet_not_pullback, _fs2_window, _two_points])
def test_terminal_object_matches_definition(make):
    C = make()
    assert terminal_object(C) == oracles.terminal_object(C)


def test_exactness_names_a_missing_terminal():
    C = _two_points()
    assert terminal_object(C) is None
    v = check_exact(C)
    assert not v.finitely_complete and not v.regular and not v.exact
    assert v.witness == {"core": ("a", "b"), "finitely_complete": "no terminal object"}


def _listed_cones(monkeypatch) -> list[tuple[fincat.FinCat, list[tuple[int, int]]]]:
    """Per limit search, its category and the apexes at which it listed
    cones, each with the number of cones listed there."""
    searches = []
    first_limit = fincat._first_limit

    def counted(C, counts, cones_at):
        apexes = []
        searches.append((C, apexes))

        def listing(x):
            cones = list(cones_at(x))
            apexes.append((x, len(cones)))
            return cones
        return first_limit(C, counts, listing)
    monkeypatch.setattr(fincat, "_first_limit", counted)
    return searches


def _assert_endomorphisms_bound(searches):
    """The lemma in `_first_limit`: at an apex x that can hold a limit the
    cones number |hom(x, x)|, so a search lists at most Σ_x |hom(x, x)|
    <= n_arrows of them."""
    assert searches
    for C, apexes in searches:
        assert all(n == len(C.hom(x, x)) for x, n in apexes)
        assert sum(n for _, n in apexes) <= \
            sum(len(C.hom(x, x)) for x in range(C.n_objects)) <= C.n_arrows


@settings(max_examples=30)
@given(concrete_categories())
def test_limit_searches_list_at_most_the_endomorphisms(sample):
    """Every pullback, equalizer and product cone of a random category,
    and its exactness."""
    C = copy.deepcopy(sample[0])
    with pytest.MonkeyPatch.context() as monkeypatch:
        searches = _listed_cones(monkeypatch)
        for f, g in _pairs(C, False):
            pullback(C, f, g)
        for f, g in _pairs(C, True):
            equalizer(C, f, g)
        for a, b in itertools.product(range(C.n_objects), repeat=2):
            product_cone(C, a, b)
        check_exact(C)
    _assert_endomorphisms_bound(searches)


@pytest.mark.parametrize("name", ["triv", "chain", "fs2"])
def test_completion_searches_list_at_most_the_endomorphisms(monkeypatch, name):
    """Every limit search made while a fresh fixture's completions are
    built and their exactness decided (fs2's points category is over the
    arrow cap)."""
    monkeypatch.setattr(fixtures, "_FS2_CACHE", {})
    searches = _listed_cones(monkeypatch)
    P = fixtures.BUILTIN_FIXTURES[name]()
    an = analysis(P)
    cats = [an.tp().cat, an.er().cat, an.qp().cat] + ([an.gr().cat] if name != "fs2" else [])
    for C in cats:
        check_exact(C)
    assert {id(C) for C, _ in searches} == {id(C) for C in cats}
    _assert_endomorphisms_bound(searches)
