"""Command-line surface.

Exit codes are exhaustive and mutually exclusive: 0 all demanded checks
pass, 1 a law or theorem violation, 2 malformed input, 3 a resource cap.
`check` verifies the doctrine is elementary existential on its core;
`complete` builds one of the completions and emits it; `compare` runs the
theorem harnesses; `demo` runs every shipped fixture and prints the headline
numbers, byte-stably.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import fixtures
from .completions import Caps, transitive_extension
from .compare import (analysis, verify_axc, verify_cthn, verify_converse_axc,
                      verify_fulc, verify_universal)
from .doctrine import DoctrineData, sub_doctrine
from .errors import (DesNotClosed, FormulaMismatch, MalformedPresentation,
                     NoWeakPullback, ParseError, ResourceCap, WindowClosure)
from .fileformat import emit_doctrine, parse_doctrine
from .fincat import ValidationReport, WindowScope, check_exact, iso_classes
from .report import FAIL, INFO, NOT_APPLICABLE, PASS, Check, Report, _fmt

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_CAP = 3


def load_doctrine(path: str) -> DoctrineData:
    """A readable file wins; otherwise shipped fixture names resolve to the
    in-memory builders (fs2 is generated, not stored)."""
    p = Path(path)
    if p.is_file():
        P = parse_doctrine(p.read_text())
        an = analysis(P)
        for verdict in (an.category, an.products):
            v = verdict()
            if not v.ok:
                raise MalformedPresentation(f"{v.message} at {v.witness}")
        return P
    name = p.name
    if name.endswith(".dtn"):
        name = name[:-4]
    if name in fixtures.BUILTIN_FIXTURES:
        return fixtures.BUILTIN_FIXTURES[name]()
    raise ParseError(0, 0, f"no such file or fixture: {path}")


def _law(rep: Report, name: str, v: ValidationReport) -> bool:
    rep.add(Check(name, PASS if v.ok else FAIL,
                  (v.witness + (v.message,)) if not v.ok else None))
    return v.ok


def check_report(P: DoctrineData) -> tuple[Report, bool]:
    """The full verification pipeline; the boolean is the gate for exit 0."""
    rep = Report("check")
    an = analysis(P)
    if not (_law(rep, "category-laws", an.category())
            and _law(rep, "chosen-products", an.products())):
        return rep, False
    missing = P.window.check_closure()
    rep.add(Check("window-closure", PASS if not missing else FAIL,
                  missing or None))
    if missing or not _law(rep, "doctrine-laws", an.doctrine_laws()):
        return rep, False
    eed, E, X = an.eed()
    rep.add(eed)
    is_eed = eed.status == PASS
    rep.summary["EED"] = "yes" if is_eed else "no"
    if E is not None:
        rep.summary["equality"] = {
            P.cat.objects[a]: P.fibers[P.window.prod(a, a)[0]].elements[d]
            for a, d in E.delta.items()}
    ct = an.comprehensions()
    if ct.strict_complete and ct.full:
        rep.summary["comprehensions"] = "full"
    elif ct.complete and ct.full:
        rep.summary["comprehensions"] = "weak full"
    else:
        misses = ", ".join(f"{o}:{e}" for o, e in ct.missing())
        rep.summary["comprehensions"] = f"partial (missing for {misses})" \
            if misses else "not full"
    rep.add(Check("comprehensions", INFO,
                  data={"table": [f"{e.obj}:{e.element}={e.kind}"
                                  + (f"[{e.arrow}]" if e.arrow else "")
                                  for e in ct.entries],
                        "full": ct.full}))
    if X is not None:
        roc = an.rule_of_choice()
        rep.summary["rule of choice"] = "holds" if roc.ok else \
            f"fails (witness {', '.join(map(str, roc.witness))})"
        rep.add(Check("rule-of-choice", INFO,
                      data={"verdict": "holds" if roc.ok else "fails",
                            "witness": roc.witness or None}))
    return rep, is_eed


def cmd_check(args) -> int:
    P = load_doctrine(args.path)
    rep, ok = check_report(P)
    _print_report(rep, args)
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_complete(args) -> int:
    P = load_doctrine(args.path)
    _, ok = check_report(P)
    an = analysis(P, Caps(args.cap_fibers, args.cap_enum), args.condition_v)
    out = Report(f"complete --kind {args.kind}")
    _, E, X = an.eed()
    if E is None or X is None:
        _print_report(out, args)
        print("cannot complete: structure discovery failed", file=sys.stderr)
        return EXIT_VIOLATION
    emitted: DoctrineData | None = None
    if args.kind == "gr":
        gr = an.gr()
        hct = analysis(gr.doctrine).comprehensions()
        out.summary["objects"] = gr.cat.n_objects
        out.summary["arrows"] = gr.cat.n_arrows
        out.summary["full comprehensions"] = \
            "yes" if hct.strict_complete and hct.full else "no"
        emitted = gr.doctrine
    elif args.kind in ("tp", "er"):
        comp = an.tp() if args.kind == "tp" else an.er()
        cat = comp.cat
        out.summary["objects"] = cat.n_objects
        out.summary["arrows"] = cat.n_arrows
        out.summary["iso classes"] = len(iso_classes(cat))
        poset = all(len(cat.hom(a, b)) <= 1
                    for a in range(cat.n_objects) for b in range(cat.n_objects))
        out.summary["poset"] = "yes" if poset else "no"
        if args.kind == "tp":
            ex = check_exact(cat, WindowScope(comp.scope.core), an.caps.enum)
            out.summary["exact"] = "yes" if ex.exact else "no"
            out.summary["exactness core"] = len(ex.core)
        if comp.pc is None:
            print("completed category has no terminal; cannot emit", file=sys.stderr)
            return EXIT_VIOLATION
        emitted = sub_doctrine(cat, comp.pc, WindowScope(comp.scope.core))
    elif args.kind == "qp":
        q = an.qp()
        out.summary["objects"] = q.cat.n_objects
        out.summary["arrow classes"] = q.cat.n_arrows
        emitted = q.doctrine
    _print_report(out, args)
    if args.out and emitted is not None:
        Path(args.out).write_text(emit_doctrine(emitted))
        print(f"wrote {args.out}")
    return EXIT_OK if ok else EXIT_VIOLATION


def _claimed_failures(rep: Report):
    for c in rep.walk():
        if (c.status == FAIL and not c.name.startswith("hypothesis-")
                and c.data.get("context") != "hypothesis"
                and c.data.get("claimed", True)):
            yield c


def _harness_exit(reports: list[Report], cap_is_exit: bool = False) -> int:
    if cap_is_exit and any(rep.any_capped() for rep in reports):
        return EXIT_CAP
    for rep in reports:
        if any(True for _ in _claimed_failures(rep)):
            return EXIT_VIOLATION
    return EXIT_OK


def cmd_compare(args) -> int:
    P = load_doctrine(args.path)
    caps = Caps(args.cap_fibers, args.cap_enum)
    vd = analysis(P, caps).doctrine_laws()
    if not vd.ok:
        print(f"violation: doctrine laws fail at {vd.witness}: {vd.message}",
              file=sys.stderr)
        return EXIT_VIOLATION
    reports = [verify_cthn(P, caps), verify_fulc(P, caps),
               verify_axc(P, condition_v=args.condition_v, caps=caps),
               verify_converse_axc(P, caps)]
    for rep in reports:
        _print_report(rep, args)
    if not args.json:
        print(_compare_summary(reports))
    return _harness_exit(reports)


def _fmt_witness(w) -> str:
    if isinstance(w, (list, tuple)):
        return ", ".join(_fmt_witness(x) for x in w)
    return str(w)


def _compare_summary(reports) -> str:
    cthn, fulc, axc, conv = reports
    lines = ["summary:"]
    if cthn.any_capped():
        lines.append("  cthn: capped (points category exceeds the configured bound)")
    elif any(c.status == FAIL and c.data.get("context") == "hypothesis"
             for c in cthn.walk()):
        lines.append("  cthn: unclaimed (base is not elementary existential)")
    else:
        lines.append("  cthn: " + ("pass" if not cthn.any_failed() else "FAIL"))
    na = [c for c in fulc.walk() if c.status == NOT_APPLICABLE]
    if na:
        lines.append(f"  fulc: not applicable ({na[0].data.get('reason', na[0].witness)})")
    else:
        lines.append("  fulc: " + ("equivalence" if not fulc.any_failed() else "FAIL"))
    hyp_fail = [c for c in axc.walk()
                if c.status == FAIL and c.name.startswith("hypothesis-")]
    concl = [c for c in axc.walk() if c.name == "conclusion-comparison-equivalence"]
    if hyp_fail:
        parts = "; ".join(
            f"{h.name.removeprefix('hypothesis-').replace('-', ' ')}"
            f" failed (witness {_fmt_witness(h.witness)})" for h in hyp_fail)
        lines.append(f"  axc: hypothesis {parts}; conclusion unclaimed")
    elif concl and concl[0].data.get("measured") == "pass":
        lines.append("  axc: hypotheses ok, L equivalence")
    else:
        lines.append("  axc: FAIL")
    na2 = [c for c in conv.walk() if c.status == NOT_APPLICABLE]
    conv_hyp = [c for c in conv.walk()
                if c.status == FAIL and c.name.startswith("hypothesis-")]
    conv_real = [c for c in conv.walk()
                 if c.status == FAIL and not c.name.startswith("hypothesis-")
                 and c.data.get("context") != "hypothesis"]
    if na2:
        lines.append(f"  converse: not applicable (witness {na2[0].witness})")
    elif conv_real:
        lines.append("  converse: FAIL")
    elif conv_hyp:
        lines.append("  converse: pass (hypotheses incomplete, unclaimed)")
    else:
        lines.append("  converse: pass")
    return "\n".join(lines)


def cmd_universal(args) -> int:
    P = load_doctrine(args.path)
    an = analysis(P, Caps(args.cap_fibers, args.cap_enum))
    _, E, X = an.eed()
    if E is None or X is None:
        print("violation: structure discovery failed", file=sys.stderr)
        return EXIT_VIOLATION
    tp = an.tp()
    rep = verify_universal(P, tp.cat, tp.pc, tp.scope, an.caps)
    _print_report(rep, args)
    return _harness_exit([rep], cap_is_exit=True)


def cmd_demo(args) -> int:
    out = []
    caps = Caps()
    shown: dict[str, DoctrineData] = {}
    for name in ("triv", "chain", "fs2", "nochoice"):
        P = shown[name] = fixtures.BUILTIN_FIXTURES[name]()
        an = analysis(P, caps)
        out.append(f"== {name} ==")
        rep, ok = check_report(P)
        for k, v in rep.summary.items():
            out.append(f"  {k}: {_fmt(v)}")
        out.append(f"  check exit: {0 if ok else 1}")
        _, E, X = an.eed()
        if E is None or X is None:
            continue
        if ok:
            tp, er, q = an.tp(), an.er(), an.qp()
            ex = check_exact(tp.cat, WindowScope(tp.scope.core), caps.enum)
            out.append(f"  relation completion: objects={tp.cat.n_objects}"
                       f" arrows={tp.cat.n_arrows}"
                       f" iso-classes={len(iso_classes(tp.cat))}"
                       f" exact={'yes' if ex.exact else 'no'}"
                       f" (core {len(ex.core)})")
            out.append(f"  reflexive objects: {len(er.objects)};"
                       f" quotient objects: {len(q.objects)},"
                       f" arrow classes: {q.cat.n_arrows}")
        reports = [verify_cthn(P, caps), verify_fulc(P, caps),
                   verify_axc(P, caps=caps), verify_converse_axc(P, caps)]
        out.append("  " + _compare_summary(reports).replace("\n", "\n  "))
    # headline: the universal property confirmed small, capped large
    P = shown["triv"]
    tp = analysis(P, caps).tp()
    u = verify_universal(P, tp.cat, tp.pc, tp.scope)
    out.append("== universal property ==")
    out.append(f"  triv against its completion: "
               f"{'confirmed' if not u.any_failed() and not u.any_capped() else 'FAIL'}"
               f" (morphisms {u.summary.get('morphisms-from-base')}"
               f" = {u.summary.get('morphisms-from-completion')})")
    P2 = shown["fs2"]
    tp2 = analysis(P2, caps).tp()
    u2 = verify_universal(P2, tp2.cat, tp2.pc, tp2.scope)
    out.append(f"  fs2 against its completion: "
               f"{'capped (resource cap, reported not failed)' if u2.any_capped() else 'unexpected'}")
    # transitive extension headline on the 2-carrier
    o2 = P2.cat.obj_index["2"]
    fib = P2.fibers[P2.window.prod(o2, o2)[0]]
    tr = transitive_extension(P2, o2, fib.index["s15"], analysis(P2, caps).eed()[1].delta[o2])
    out.append(f"  smallest transitive extension of the full relation on the"
               f" 2-carrier: {fib.elements[tr]}")
    text = "\n".join(out) + "\n"
    sys.stdout.write(text)
    return EXIT_OK


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="doctrines",
        description="workbench for indexed finite inf-semilattices and their completions")
    ap.add_argument("--json", action="store_true", help="machine-readable reports")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("path")
        p.add_argument("--cap-fibers", type=int, default=512)
        p.add_argument("--cap-enum", type=int, default=1 << 20)
        p.add_argument("--condition-v", choices=("strict", "alt"), default="strict")

    p_check = sub.add_parser("check", help="verify the doctrine is elementary existential")
    common(p_check)
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
    except (MalformedPresentation, WindowClosure, DesNotClosed,
            FormulaMismatch, NoWeakPullback) as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


def _print_report(rep: Report, args) -> None:
    if getattr(args, "json", False):
        print(rep.to_json())
    else:
        sys.stdout.write(rep.to_text())


if __name__ == "__main__":
    sys.exit(main())
