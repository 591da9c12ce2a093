"""The universal-property searches against the plain loops they replaced.

Limiting cones, monos, joint monicity, coequalizers, weak pullbacks,
comprehensions and product validation all read one mediator table
(`fincat.mediators`); on random small categories of finite maps and their
powerset doctrines, or on corrupted product choices, each must give the
results of the former loops in `oracles.py`, in order.  Product cones are
searched once per category, pair and cap."""

import copy
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as strat

import oracles
from doctrines import completions, fincat, fixtures
from doctrines.compare import analysis
from doctrines.completions import choose_products
from doctrines.doctrine import _is_weak_pullback, weak_pullback
from doctrines.errors import ResourceCap
from doctrines.fincat import (Cone, ProductChoice, WindowScope, check_exact, cospan_cones,
                              equalizer, greedy_product_core, is_coequalizer_of, is_mono,
                              jointly_monic, product_cone, validate_products)
from doctrines.structure import verify_comprehension_arrow
from test_laws import concrete_categories, corrupted_doctrines


def _pairs(C, same_source: bool):
    """Arrow pairs with a common target, and a common source when asked."""
    return [(f, g) for f, g in itertools.product(range(C.n_arrows), repeat=2)
            if C.tgt[f] == C.tgt[g] and (not same_source or C.src[f] == C.src[g])]


def _cone_lists(C):
    """The candidate lists the limit searches hand to `_limiting_cones`:
    spans over every object pair, cospan cones, forks of parallel pairs."""
    for a, b in itertools.product(range(C.n_objects), repeat=2):
        yield [Cone(z, (int(p), int(q))) for z in range(C.n_objects)
               for p in C.hom(z, a) for q in C.hom(z, b)]
    for f, g in _pairs(C, same_source=False)[::7]:
        yield [Cone(z, (p, q)) for z, p, q in oracles.cospan_cones(C, f, g)]
    for f, g in _pairs(C, same_source=True)[::3]:
        yield [Cone(z, (int(e),)) for z in range(C.n_objects)
               for e in C.hom(z, int(C.src[f])) if C.comp[f, e] == C.comp[g, e]]


@settings(max_examples=40)
@given(concrete_categories())
def test_limiting_cones_match_oracle(sample):
    C = sample[0]
    for cones in _cone_lists(C):
        assert list(fincat._limiting_cones(C, cones)) == oracles.limiting_cones(C, cones)


@settings(max_examples=60)
@given(concrete_categories())
def test_monos_and_jointly_monic_spans_match_oracle(sample):
    C = sample[0]
    assert [is_mono(C, f) for f in range(C.n_arrows)] == \
        [oracles.is_mono(C, f) for f in range(C.n_arrows)]
    spans = [(f, g) for f, g in itertools.product(range(C.n_arrows), repeat=2)
             if C.src[f] == C.src[g]]
    assert [jointly_monic(C, span) for span in spans] == \
        [oracles.jointly_monic(C, *span) for span in spans]


@settings(max_examples=60)
@given(concrete_categories())
def test_coequalizer_arrows_match_oracle(sample):
    """The universal coequalizers of every parallel pair, in id order."""
    C = sample[0]
    for r, s in _pairs(C, same_source=True):
        found = [q for q in C.outof(int(C.tgt[r])).tolist() if is_coequalizer_of(C, q, r, s)]
        assert found == oracles.coequalizer_arrows(C, r, s)


@settings(max_examples=40)
@given(concrete_categories())
def test_weak_pullbacks_match_oracle(sample):
    """The cospan cones in order, every cone's weak-pullback verdict and the
    first weak pullback of every cospan."""
    C = sample[0]
    for f, g in _pairs(C, same_source=False)[::4]:
        cones = list(cospan_cones(C, f, g))
        assert cones == oracles.cospan_cones(C, f, g)
        assert [_is_weak_pullback(C, cones, p, q) for _, p, q in cones] == \
            [oracles.is_weak_pullback(C, f, g, *cone) for cone in cones]
        assert weak_pullback(C, f, g) == oracles.weak_pullback(C, f, g)


def _validated(validate, C, binary, terminal):
    """The report and the pairing table, in order, of a fresh product choice."""
    pc = ProductChoice(terminal, dict(binary))
    return validate(C, pc), list(pc.pairing.items())


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
        got = _validated(validate_products, C, pc.binary, pc.terminal)
        assert got[0].ok and got == _validated(oracles.validate_products, C, pc.binary,
                                               pc.terminal)


@settings(max_examples=300)
@given(strat.data())
def test_product_validation_matches_oracle_on_corrupted_choices(product_bases, data):
    """Up to two corruptions of a chosen product or the terminal: projections
    swapped, one replaced by another arrow of its type or by any arrow, a
    span from another apex, another terminal.  The report and the pairing
    table must be the former code-table validation's."""
    C, pc = data.draw(strat.sampled_from([b for b in product_bases if b[0].n_arrows > 1]))
    binary, terminal = dict(pc.binary), pc.terminal
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
    search per (a, b, cap) on a copy of a completion category."""
    C = copy.deepcopy(analysis(chain).tp().cat)
    calls, searches, inside = [], [], []
    search, limiting_cones = fincat.product_cone, fincat._limiting_cones

    def counted_product_cone(C, a, b, cap=None):
        calls.append((a, b, cap))
        inside.append(True)
        try:
            return search(C, a, b, cap)
        finally:
            inside.pop()

    def counted_limiting_cones(C, cones, cap=None):
        if inside:
            searches.append(cones)
        return limiting_cones(C, cones, cap)

    for module in (fincat, completions):
        monkeypatch.setattr(module, "product_cone", counted_product_cone)
    monkeypatch.setattr(fincat, "_limiting_cones", counted_limiting_cones)
    choose_products(C)
    check_exact(C, WindowScope(greedy_product_core(C)))
    assert len(searches) == len(set(calls)) == len(C._product_cones) < len(calls)


def test_copies_start_with_an_empty_cone_memo(chain):
    C = analysis(chain).tp().cat
    assert product_cone(C, 0, 0) is product_cone(C, 0, 0)
    assert C._product_cones
    assert copy.copy(C)._product_cones == {}
    assert copy.deepcopy(C)._product_cones == {}
    assert pickle.loads(pickle.dumps(C))._product_cones == {}


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
    v = check_exact(cat, WindowScope(("2",)))
    assert not v.finitely_complete and not v.regular and not v.exact
    f, g = disjoint[0]
    assert v.witness == {"core": ("2",), "finitely_complete": (cat.arrows[f], cat.arrows[g])}


@pytest.mark.parametrize("search, what", [(fincat.pullback, "cone enumeration"),
                                          (weak_pullback, "weak pullback cone enumeration")])
def test_cone_enumeration_caps(chain, search, what):
    """The cospan (idv, idv) of chain has the cones (u, m, m) and
    (v, idv, idv); a cap of one refuses them before any search."""
    C = chain.cat
    idv = C.arr_index["idv"]
    assert len(list(cospan_cones(C, idv, idv))) == 2
    with pytest.raises(ResourceCap) as raised:
        search(C, idv, idv, cap=1)
    assert (raised.value.what, raised.value.size, raised.value.cap) == (what, 2, 1)
