"""One pass of the `constructions` workload, run inside one process.

Each pass builds fresh fixtures, so no memo table filled by an earlier pass
(the doctrine's adjoint cache, the category's hom caches) is reused, and
calls the paper's constructions on them directly.  Outputs are checked from
their attributes and against `oracle`, never by calling the program.  The
program's functions are looked up on their modules at each call, so a traced
pass goes through the wrappers that `tracing` installs there.
"""

from __future__ import annotations

import time
from collections import defaultdict

from doctrines import compare, completions, doctrine, fileformat, fincat, fixtures, structure
from doctrines.completions import Caps
from doctrines.fincat import WindowScope
from doctrines.structure import ElementaryWitness

import dtn
import oracle
import tracing

FIXTURES = ("triv", "chain", "nochoice", "fs2")
EXPECTED = oracle.fs2_expected()
FAILED = object()
# span coverage is reported for operations at least this long; in shorter
# calls the timer's and the wrapper's own cost dominate
MIN_COVERAGE_WALL = 0.05


def fresh(name: str):
    """A newly built fixture; fs2 is memoized by the fixtures module, so its
    memo is dropped first."""
    fixtures._FS2_CACHE.clear()
    return fixtures.BUILTIN_FIXTURES[name]()


def law_check(name: str) -> None:
    """The set-up check of a fixture: category, products, window, doctrine."""
    P = fresh(name)
    for what, rep in (("category", fincat.validate_category(P.cat)),
                      ("products", fincat.validate_products(P.cat, P.products)),
                      ("doctrine", doctrine.validate_doctrine(P))):
        if not rep.ok:
            raise SystemExit(f"{name}: {what} laws fail at {rep.witness}: {rep.message}")
    if P.window.check_closure():
        raise SystemExit(f"{name}: window not closed")


# ---------------------------------------------------------------------------
# checks on reports, walked from their attributes
# ---------------------------------------------------------------------------


def _walk(checks):
    for c in checks:
        yield c
        yield from _walk(c.children)


def _statuses(rep) -> set[str]:
    return {c.status for c in _walk(rep.checks)}


def _claimed_failures(rep) -> list[str]:
    """Failures the report claims, as opposed to failed hypotheses."""
    return [c.name for c in _walk(rep.checks)
            if c.status == "fail" and not c.name.startswith("hypothesis-")
            and c.data.get("context") != "hypothesis" and c.data.get("claimed", True)]


def _no_claimed_failure(rep):
    bad = _claimed_failures(rep)
    return f"claimed failures {bad}" if bad else None


def _capped_not_failed(rep):
    st = _statuses(rep)
    if "capped" not in st or "fail" in st:
        return f"expected capped and no failure, got {sorted(st)}"
    return None


def _equivalence(rep):
    st = _statuses(rep)
    if st & {"fail", "not-applicable", "capped"}:
        return f"expected an equivalence, got {sorted(st)}"
    return None


def _l_equivalence(rep):
    checks = list(_walk(rep.checks))
    hyp = [c.name for c in checks if c.name.startswith("hypothesis-") and c.status != "pass"]
    concl = [c for c in checks if c.name == "conclusion-comparison-equivalence"]
    if hyp or not concl or concl[0].data.get("measured") != "pass":
        return f"expected hypotheses ok and an L equivalence, got hypotheses {hyp}"
    return None


def _confirmed(rep):
    st = _statuses(rep)
    base = rep.summary.get("morphisms-from-base")
    if st & {"fail", "capped"} or not base or base != rep.summary.get("morphisms-from-completion"):
        return f"expected confirmed, got {sorted(st)} {rep.summary}"
    return None


# ---------------------------------------------------------------------------
# the pass
# ---------------------------------------------------------------------------


class Pass:
    """Times each operation, counts attempts and failures, and collects the
    checks that did not hold."""

    def __init__(self, spans: list | None = None):
        self.groups: dict[str, float] = defaultdict(float)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.problems: list[str] = []
        self.coverage: list[float] = []
        self._spans = spans

    def op(self, group: str, label: str, fn, check=None, needs=()):
        self.attempted += 1
        if any(x is FAILED for x in needs):
            self.failed += 1
            self.failures.append(f"{label}: not run, an input failed")
            return FAILED
        first = len(self._spans) if self._spans is not None else 0
        t = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:
            out = FAILED
            self.failed += 1
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
        wall = time.perf_counter() - t
        self.groups[group] += wall
        if self._spans is not None and wall >= MIN_COVERAGE_WALL:
            self.coverage.append(tracing.covered(self._spans[first:]) / wall)
        if out is not FAILED and check is not None:
            problem = check(out)
            if problem:
                self.problems.append(f"{label}: {problem}")
        return out


def run_pass(order, spans: list | None = None) -> Pass:
    p = Pass(spans)
    caps = Caps()
    for name in order:
        P = fresh(name)
        fs2 = name == "fs2"

        def eed_ok(res):
            root, E, X = res
            want = "fail" if name == "nochoice" else "pass"
            if root.status != want or E is None or X is None:
                return f"EED {root.status}, expected {want}"
            if fs2:
                eq = {P.cat.objects[a]: P.fibers[P.window.prod(a, a)[0]].elements[d]
                      for a, d in E.delta.items()}
                if eq != EXPECTED.equality:
                    return f"equality {eq}, expected {EXPECTED.equality}"
            return None

        res = p.op("structure", f"{name} eed_checks", lambda: compare.eed_checks(P), eed_ok)
        _, E, X = res if res is not FAILED else (None, None, None)
        p.op("structure", f"{name} comprehension_table", lambda: structure.comprehension_table(P),
             lambda ct: None if not fs2 or (ct.strict_complete and ct.full)
             else "expected full comprehensions")
        want_choice = ("v", "u", "a") if name == "nochoice" else ()
        p.op("structure", f"{name} rule of choice", lambda: structure.check_rule_of_choice(P, X),
             lambda v: None if (v.ok, tuple(v.witness)) == (not want_choice, want_choice)
             else f"rule of choice {v.ok} {v.witness}, expected witness {want_choice}",
             needs=(res,))
        if name != "nochoice":
            tp = p.op("completions", f"{name} build_tp",
                      lambda: completions.build_tp(P, E, X, caps=caps),
                      lambda t: _counts(t.cat, EXPECTED.tp_objects, EXPECTED.tp_arrows)
                      if fs2 else None, needs=(res,))
            er = p.op("completions", f"{name} build_erp",
                      lambda: completions.build_erp(P, E, tp, caps),
                      lambda e: None if not fs2 or len(e.objects) == EXPECTED.reflexive_objects
                      else f"{len(e.objects)} reflexive objects", needs=(tp,))
            q = p.op("completions", f"{name} build_qp", lambda: completions.build_qp(P, E, X, caps),
                     lambda q: _counts(q.cat, EXPECTED.qp_objects, EXPECTED.qp_arrows)
                     if fs2 else None, needs=(res,))
            p.op("completions", f"{name} functor_L", lambda: completions.functor_L(P, E, X, q, er),
                 lambda L: None if len(L.functor.arr_map) == q.cat.n_arrows
                 else "L is not defined on every arrow class", needs=(q, er))
            p.op("completions", f"{name} check_exact",
                 lambda: fincat.check_exact(tp.cat, WindowScope(tp.scope.core), caps.enum),
                 lambda ex: None if ex.exact else "relation completion not exact", needs=(tp,))
            sub = p.op("completions", f"{name} sub_doctrine",
                       lambda: doctrine.sub_doctrine(tp.cat, tp.pc, WindowScope(tp.scope.core)),
                       needs=(tp,))
            p.op("completions", f"{name} emit_doctrine", lambda: fileformat.emit_doctrine(sub),
                 lambda text: _emitted(text, tp.cat, fs2), needs=(sub,))
        for harness, check in (("verify_cthn", _capped_not_failed if fs2 else _no_claimed_failure),
                               ("verify_fulc", _equivalence if fs2 else _no_claimed_failure),
                               ("verify_axc", _l_equivalence if fs2 else _no_claimed_failure),
                               ("verify_converse_axc",
                                _equivalence if fs2 else _no_claimed_failure)):
            p.op("harnesses", f"{name} {harness}",
                 lambda h=harness: getattr(compare, h)(P, caps=caps), check)
        if name != "nochoice":
            p.op("universal", f"{name} verify_universal",
                 lambda: compare.verify_universal(P, tp.cat, tp.pc, tp.scope, caps),
                 _capped_not_failed if fs2 else _confirmed, needs=(tp,))
        if fs2:
            p.op("witness", "fs2 equality-tensor law, equality at 1 altered",
                 lambda: structure.check_delta_product_law(P, _altered_equality(P, E)),
                 _tensor_law_witness, needs=(res,))
    return p


def _counts(cat, objects: int, arrows: int):
    if (cat.n_objects, cat.n_arrows) != (objects, arrows):
        return f"{cat.n_objects} objects, {cat.n_arrows} arrows; expected {objects}, {arrows}"
    return None


def _emitted(text: str, cat, fs2: bool):
    """The emitted file, read back, has the completion's object and arrow
    counts; on fs2 those are the oracle's."""
    d = dtn.DtnText(text)
    got = (len(d.objects()), len(d.arrows()))
    want = (EXPECTED.tp_objects, EXPECTED.tp_arrows) if fs2 else (cat.n_objects, cat.n_arrows)
    return None if got == want else f"emitted {got}, expected {want}"


def _altered_equality(P, E) -> ElementaryWitness:
    """fs2's equality with the witness at object 1 moved to the other
    element of P(1×1)."""
    one = P.cat.obj_index["1"]
    delta = dict(E.delta)
    delta[one] = 1 - delta[one]
    return ElementaryWitness(delta)


def _tensor_law_witness(verdict):
    """The law must fail, first at the pair the oracle finds."""
    equality = {q: oracle.equality_mask(q) for q in oracle.CORE}
    equality[1] = 0
    want = oracle.first_tensor_mismatch(equality)
    if verdict.ok or tuple(verdict.witness) != want:
        return f"verdict {verdict.ok} witness {verdict.witness}, expected FAIL at {want}"
    return None
