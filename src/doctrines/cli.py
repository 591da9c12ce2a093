"""Command-line surface.

Exit codes are exhaustive and mutually exclusive: 0 all demanded checks
pass, 1 a law or theorem violation, 2 malformed input, 3 a resource cap met
while reading a file, while `complete` builds its completion or decides its
exactness, or while `universal` builds the relation completion or decides
its one verdict.  `compare` and `universal` exit as `Report.state` says:
1 when a claimed check failed, so `compare` exits 0 on a harness it prints
`[capped]` or `[n/a]`, and `universal` exits 0 when its one verdict is `[n/a]`.
`check` verifies the doctrine is elementary existential on its core;
`complete` builds one of the completions and emits it; `compare` runs the
theorem harnesses; `demo` runs every shipped fixture and prints the headline
numbers, byte-stably.  `complete`, `compare` and `universal` stop with exit 1
when the doctrine laws fail, since their constructions assume them.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import fixtures
from .completions import Caps, build_erp, build_gr, build_qp, build_tp, transitive_extension
from .compare import (eed_checks, verify_axc, verify_cthn, verify_converse_axc,
                      verify_fulc, verify_universal)
from .doctrine import DoctrineData, sub_doctrine, validate_doctrine
from .errors import FormulaMismatch, MalformedPresentation, ParseError, ResourceCap, WindowClosure
from .fileformat import emit_doctrine, parse_doctrine
from .fincat import (DEFAULT_ENUM_CAP, ValidationReport, check_exact, iso_classes,
                     validate_category, validate_products)
from .report import CAPPED, FAIL, HYPOTHESIS, INFO, NOT_APPLICABLE, PASS, Check, Report, _fmt
from .structure import check_rule_of_choice, comprehension_table

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_CAP = 3
HARNESSES = (verify_cthn, verify_fulc, verify_axc, verify_converse_axc)


def load_doctrine(path: str) -> DoctrineData:
    """A readable file wins; otherwise shipped fixture names resolve to the
    in-memory builders (fs2 is generated, not stored)."""
    p = Path(path)
    if p.is_file():
        P = parse_doctrine(p.read_text())
        for _, v in _base_laws(P):
            if not v.ok:
                raise MalformedPresentation(f"{v.message} at {v.witness}")
        return P
    name = p.name
    if name.endswith(".dtn"):
        name = name[:-4]
    if name in fixtures.BUILTIN_FIXTURES:
        return fixtures.BUILTIN_FIXTURES[name]()
    raise ParseError(0, 0, f"no such file or fixture: {path}")


def _base_laws(P: DoctrineData):
    """The category laws, then the chosen products, by check name, each
    kept on P: `load_doctrine` reads them on a parsed file and
    `check_report` reads them again."""
    yield "category-laws", P.kept(("category",), lambda: validate_category(P.cat))
    yield "chosen-products", P.kept(("products",),
                                    lambda: validate_products(P.cat, P.products))


def _law(rep: Report, name: str, v: ValidationReport) -> bool:
    rep.add(Check(name, PASS if v.ok else FAIL,
                  (v.witness + (v.message,)) if not v.ok else None))
    return v.ok


def check_report(P: DoctrineData) -> tuple[Report, bool]:
    """The full verification pipeline; the boolean is the gate for exit 0."""
    rep = Report("check")
    if not all(_law(rep, name, v) for name, v in _base_laws(P)):
        return rep, False
    missing = P.window.check_closure()
    rep.add(Check("window-closure", PASS if not missing else FAIL,
                  missing or None))
    if missing or not _law(rep, "doctrine-laws", validate_doctrine(P)):
        return rep, False
    eed, E, X = eed_checks(P)
    rep.add(eed)
    is_eed = eed.status == PASS
    rep.summary["EED"] = "yes" if is_eed else "no"
    if E is not None:
        rep.summary["equality"] = {
            P.cat.objects[a]: P.fibers[P.window.prod(a, a)[0]].elements[d]
            for a, d in E.delta.items()}
    ct = comprehension_table(P)
    if ct.strict_complete and ct.full:
        rep.summary["comprehensions"] = "full"
    elif ct.complete and ct.full:
        rep.summary["comprehensions"] = "weak full"
    else:
        misses = ", ".join(f"{o}:{e}" for o, e in ct.missing(P))
        rep.summary["comprehensions"] = f"partial (missing for {misses})" \
            if misses else "not full"
    ob, ar = P.cat.objects, P.cat.arrows
    rep.add(Check("comprehensions", INFO,
                  data={"table": [f"{ob[e.obj]}:{P.fibers[e.obj].elements[e.element]}={e.kind}"
                                  + (f"[{ar[e.arrow]}]" if e.arrow is not None else "")
                                  for e in ct.entries],
                        "full": ct.full}))
    if X is not None:
        roc = check_rule_of_choice(P, X)
        rep.summary["rule of choice"] = "holds" if roc.ok else \
            f"fails (witness {', '.join(map(str, roc.witness))})"
        rep.add(Check("rule-of-choice", INFO,
                      data={"verdict": "holds" if roc.ok else "fails",
                            "witness": roc.witness or None}))
    return rep, is_eed


def _doctrine_laws_hold(P: DoctrineData) -> bool:
    """The completions and harnesses assume the doctrine laws; say so on
    stderr when they fail."""
    vd = validate_doctrine(P)
    if not vd.ok:
        print(f"violation: doctrine laws fail at {vd.witness}: {vd.message}",
              file=sys.stderr)
    return vd.ok


def cmd_check(args) -> int:
    P = load_doctrine(args.path)
    rep, ok = check_report(P)
    _print_report(rep, args)
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_complete(args) -> int:
    P = load_doctrine(args.path)
    verdict, ok = check_report(P)
    caps = Caps(args.cap_enum)
    out = Report(f"complete --kind {args.kind}")
    _, E, X = eed_checks(P)
    if E is None or X is None:
        _print_report(out, args)
        print("cannot complete: structure discovery failed", file=sys.stderr)
        return EXIT_VIOLATION
    if not _doctrine_laws_hold(P):
        return EXIT_VIOLATION
    emitted: DoctrineData | None = None
    if args.kind == "gr":
        gr = build_gr(P, caps)
        hct = comprehension_table(gr.doctrine)
        out.summary["objects"] = gr.cat.n_objects
        out.summary["arrows"] = gr.cat.n_arrows
        out.summary["full comprehensions"] = \
            "yes" if hct.strict_complete and hct.full else "no"
        emitted = gr.doctrine
    elif args.kind in ("tp", "er"):
        tp = build_tp(P, E, X, caps)
        comp = tp if args.kind == "tp" else build_erp(P, E, tp, caps)
        cat = comp.cat
        out.summary["objects"] = cat.n_objects
        out.summary["arrows"] = cat.n_arrows
        out.summary["iso classes"] = len(iso_classes(cat))
        poset = all(len(cat.hom(a, b)) <= 1
                    for a in range(cat.n_objects) for b in range(cat.n_objects))
        out.summary["poset"] = "yes" if poset else "no"
        if args.kind == "tp":
            ex = check_exact(cat, comp.scope, caps.enum)
            out.summary["exact"] = "yes" if ex.exact else "no"
            out.summary["exactness core"] = len(ex.core)
        if comp.pc is None:
            print("completed category has no terminal; cannot emit", file=sys.stderr)
            return EXIT_VIOLATION
        emitted = sub_doctrine(cat, comp.pc, comp.scope)
    elif args.kind == "qp":
        q = build_qp(P, E, X, caps)
        out.summary["objects"] = q.cat.n_objects
        out.summary["arrow classes"] = q.cat.n_arrows
        emitted = q.doctrine
    _print_report(out, args)
    if args.out and emitted is not None:
        Path(args.out).write_text(emit_doctrine(emitted))
        print(f"wrote {args.out}")
    for eed in verdict.checks:
        if eed.name == "eed" and eed.status == FAIL:
            bad = next(c for c in eed.children if c.status == FAIL)
            print(f"violation: eed fails: {bad.name} at {_fmt(bad.witness)}", file=sys.stderr)
    return EXIT_OK if ok else EXIT_VIOLATION


def _harness_exit(reports: list[Report], cap_is_exit: bool = False) -> int:
    states = [rep.state()[0] for rep in reports]
    if cap_is_exit and CAPPED in states:
        return EXIT_CAP
    return EXIT_VIOLATION if FAIL in states else EXIT_OK


def cmd_compare(args) -> int:
    P = load_doctrine(args.path)
    if not _doctrine_laws_hold(P):
        return EXIT_VIOLATION
    caps = Caps(args.cap_enum)
    reports = [verify(P, caps) for verify in HARNESSES]
    for rep in reports:
        _print_report(rep, args)
    if not args.json:
        print(_compare_summary(reports))
    return _harness_exit(reports)


def _fmt_witness(w) -> str:
    if isinstance(w, (list, tuple)):
        return ", ".join(_fmt_witness(x) for x in w)
    return str(w)


def _failed(hypotheses: list[Check]) -> str:
    """Each failed hypothesis and its witness; one without a witness (the
    base's eed check) only if no other failed."""
    shown = [h for h in hypotheses if h.witness is not None] or hypotheses
    return "; ".join(h.label() + " failed" + ("" if h.witness is None else
                     f" (witness {_fmt_witness(h.witness)})") for h in shown)


# each harness's summary line by report title: its short name and its
# phrase for each state (`Report.state`) where it differs from PHRASES
PHRASES = {FAIL: "FAIL", PASS: "pass", CAPPED: "capped ({witness})",
           NOT_APPLICABLE: "not applicable ({reason})",
           HYPOTHESIS: "unclaimed (base is not elementary existential)"}
SUMMARY = {
    "comprehension-completion": (
        "cthn", {CAPPED: "capped (points category exceeds the configured bound)"}),
    "reflexive-inclusion-equivalence": ("fulc", {PASS: "equivalence"}),
    "quotient-comparison-equivalence": ("axc", {
        PASS: "hypotheses ok, L equivalence", NOT_APPLICABLE: "not computable ({witness})",
        HYPOTHESIS: "hypothesis {failed}; conclusion unclaimed"}),
    "choice-from-equivalence": ("converse", {
        NOT_APPLICABLE: "not applicable (witness {witness})",
        HYPOTHESIS: "pass (hypotheses incomplete, unclaimed)"}),
}


def _compare_summary(reports) -> str:
    """One line per harness, filled from the first check that makes its
    state (`witness`, `reason`) or from every one (`failed`)."""
    lines = ["summary:"]
    for rep in reports:
        name, phrases = SUMMARY[rep.title]
        state, checks = rep.state()
        first = checks[0] if checks else Check("", state)
        lines.append(f"  {name}: " + {**PHRASES, **phrases}[state].format(
            witness=first.witness, reason=first.data.get("reason", first.witness),
            failed=_failed(checks)))
    return "\n".join(lines)


def cmd_universal(args) -> int:
    P = load_doctrine(args.path)
    caps = Caps(args.cap_enum)
    _, E, X = eed_checks(P)
    if E is None or X is None:
        print("violation: structure discovery failed", file=sys.stderr)
        return EXIT_VIOLATION
    if not _doctrine_laws_hold(P):
        return EXIT_VIOLATION
    tp = build_tp(P, E, X, caps)
    rep = verify_universal(P, tp.cat, tp.pc, tp.scope, caps)
    _print_report(rep, args)
    return _harness_exit([rep], cap_is_exit=True)


def cmd_demo(args) -> int:
    out = []
    caps = Caps()
    shown: dict[str, DoctrineData] = {}
    for name in ("triv", "chain", "fs2", "nochoice"):
        P = shown[name] = fixtures.BUILTIN_FIXTURES[name]()
        out.append(f"== {name} ==")
        rep, ok = check_report(P)
        for k, v in rep.summary.items():
            out.append(f"  {k}: {_fmt(v)}")
        out.append(f"  check exit: {0 if ok else 1}")
        _, E, X = eed_checks(P)
        if E is None or X is None:
            continue
        if ok:
            tp = build_tp(P, E, X, caps)
            er, q = build_erp(P, E, tp, caps), build_qp(P, E, X, caps)
            ex = check_exact(tp.cat, tp.scope, caps.enum)
            out.append(f"  relation completion: objects={tp.cat.n_objects}"
                       f" arrows={tp.cat.n_arrows}"
                       f" iso-classes={len(iso_classes(tp.cat))}"
                       f" exact={'yes' if ex.exact else 'no'}"
                       f" (core {len(ex.core)})")
            out.append(f"  reflexive objects: {len(er.objects)};"
                       f" quotient objects: {len(q.objects)},"
                       f" arrow classes: {q.cat.n_arrows}")
        out.append("  " + _compare_summary([verify(P, caps) for verify in HARNESSES])
                   .replace("\n", "\n  "))
    # headline: the universal property confirmed small, capped large
    P = shown["triv"]
    _, E, X = eed_checks(P)
    tp = build_tp(P, E, X, caps)
    u = verify_universal(P, tp.cat, tp.pc, tp.scope)
    out.append("== universal property ==")
    out.append(f"  triv against its completion: "
               f"{'confirmed' if u.state()[0] == PASS else 'FAIL'}"
               f" (morphisms {u.summary.get('morphisms-from-base')}"
               f" = {u.summary.get('morphisms-from-completion')})")
    P2 = shown["fs2"]
    _, E2, X2 = eed_checks(P2)
    tp2 = build_tp(P2, E2, X2, caps)
    u2 = verify_universal(P2, tp2.cat, tp2.pc, tp2.scope)
    out.append(f"  fs2 against its completion: "
               f"{'capped (resource cap, reported not failed)' if u2.state()[0] == CAPPED else 'unexpected'}")
    # transitive extension headline on the 2-carrier
    o2 = P2.cat.obj_index["2"]
    fib = P2.fibers[P2.window.prod(o2, o2)[0]]
    tr = transitive_extension(P2, o2, fib.index["s15"], E2.delta[o2])
    out.append(f"  smallest transitive extension of the full relation on the"
               f" 2-carrier: {fib.elements[tr]}")
    sys.stdout.write("\n".join(out) + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="doctrines",
        description="workbench for indexed finite inf-semilattices and their completions")
    ap.add_argument("--json", action="store_true", help="machine-readable reports")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("path")
        p.add_argument("--cap-enum", type=int, default=DEFAULT_ENUM_CAP)

    p_check = sub.add_parser("check", help="verify the doctrine is elementary existential")
    p_check.add_argument("path")
    p_check.set_defaults(fn=cmd_check)
    p_complete = sub.add_parser("complete", help="build a completion and emit it")
    common(p_complete)
    p_complete.add_argument("--kind", choices=("gr", "tp", "er", "qp"), required=True)
    p_complete.add_argument("--out")
    p_complete.set_defaults(fn=cmd_complete)
    p_compare = sub.add_parser("compare", help="run the theorem harnesses")
    common(p_compare)
    p_compare.set_defaults(fn=cmd_compare)
    p_universal = sub.add_parser(
        "universal", help="check the universal property against the relation completion")
    common(p_universal)
    p_universal.set_defaults(fn=cmd_universal)
    p_demo = sub.add_parser("demo", help="run all fixtures, print headline numbers")
    p_demo.set_defaults(fn=cmd_demo)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceCap as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (MalformedPresentation, WindowClosure, FormulaMismatch) as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


def _print_report(rep: Report, args) -> None:
    if getattr(args, "json", False):
        print(rep.to_json())
    else:
        sys.stdout.write(rep.to_text())


if __name__ == "__main__":
    sys.exit(main())
