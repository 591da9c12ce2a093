"""The benchmark: time to verdict on fs2, the paper's constructions, and
doctrine files with injected faults.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that has `src/doctrines`.  One run sets
up the workload, then runs whole passes of its operations, one at a time,
until S seconds have been measured.  With `--trace 0` the last line of
standard output is the result with the end-to-end metrics; with `--trace 1`
passes alternate untraced and traced, and the result carries the per-layer
metrics.  The line before it gives each workload's own groups of operations.
See README.md for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import dtn  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402

# fresh set-up processes per run, setup_s is their median; the constructions
# set-up checks every fixture's laws and takes seconds, the others well under one
SETUPS = {"fs2-cli": 5, "constructions": 3, "files-faults": 5}
RUN_LIMIT = 170.0     # seconds; a run stops starting operations after this
EXPECTED = oracle.fs2_expected()


class Fatal(Exception):
    """The benchmark cannot run here."""


@dataclass
class Op:
    group: str
    argv: list[str]
    code: int                      # expected exit code
    check: object                  # (stdout, stderr) -> problem or None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)


class Runner:
    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def spawn(self, argv: list[str], tag: str) -> tuple[float, int | None, str, str]:
        """Run one process to its end: (wall, exit code or None on timeout,
        stdout, stderr)."""
        out, err = self.work / f"{tag}.out", self.work / f"{tag}.err"
        with open(out, "w") as fo, open(err, "w") as fe:
            t = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=self.env, cwd=self.work)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                code = None
            wall = time.perf_counter() - t
        return wall, code, out.read_text(), err.read_text()

    def setup(self, workload: str, count: int) -> list[float]:
        """Set-up times of fresh processes: from start to `ready`."""
        times = []
        for i in range(count):
            t = time.perf_counter()
            _, code, out, err = self.spawn(
                [sys.executable, str(BENCH / "child.py"), "setup", workload], f"setup{i}")
            if code != 0:
                raise Fatal(f"set-up failed ({code}): {err.strip()[-2000:]}")
            times.append(float(out.split()[-1]) - t)
        return times

    def run_op(self, op: Op, tally: Tally, traced: bool, tag: str):
        """Run one CLI operation; returns (wall, spans or None)."""
        tally.attempted += 1
        spans_path = self.work / f"{tag}.spans.json"
        if traced:
            argv = [sys.executable, str(BENCH / "child.py"), "cli", str(spans_path),
                    repr(time.perf_counter()), *op.argv]
        else:
            argv = [sys.executable, "-m", "doctrines", *op.argv]
        wall, code, out, err = self.spawn(argv, tag)
        label = " ".join(op.argv)
        # a crash also exits with 1, the code of a violation
        if code not in (0, 1, 2, 3) or "Traceback (most recent call last)" in err:
            tally.failed += 1
            tally.failures.append(f"{label}: exit {code}: {err.strip()[-500:]}")
            return wall, None
        if code != op.code:
            tally.problems.append(f"{label}: exit {code}, expected {op.code}: {err.strip()[-300:]}")
        else:
            problem = op.check(out, err)
            if problem:
                tally.problems.append(f"{label}: {problem}")
        spans = json.loads(spans_path.read_text()) if traced else None
        return wall, spans


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _equality_line() -> str:
    return "equality: {" + ", ".join(f"{k}: {v}" for k, v in EXPECTED.equality.items()) + "}"


def _missing(text: str, wanted: list[str]) -> str | None:
    lines = {ln.strip() for ln in text.splitlines()}
    gone = [w for w in wanted if w not in lines]
    return f"missing {gone}" if gone else None


def check_fs2_verdict(out: str, err: str) -> str | None:
    """`check` on fs2: elementary existential, the oracle's equality, full
    comprehensions, rule of choice."""
    return _missing(out, ["EED: yes", _equality_line(), "comprehensions: full",
                          "rule of choice: holds"])


def check_compare(out: str, err: str) -> str | None:
    lines = {ln.strip() for ln in out.splitlines()}
    if not any(ln.startswith("cthn: capped") for ln in lines):
        return "cthn is not reported capped"
    return _missing(out, ["fulc: equivalence", "axc: hypotheses ok, L equivalence",
                          "converse: pass"])


def check_complete(kind: str, path: Path):
    if kind == "tp":
        want = [f"objects: {EXPECTED.tp_objects}", f"arrows: {EXPECTED.tp_arrows}",
                f"iso classes: {EXPECTED.tp_iso_classes}", "exact: yes"]
        counts = (EXPECTED.tp_objects, EXPECTED.tp_arrows)
    else:
        want = [f"objects: {EXPECTED.qp_objects}", f"arrow classes: {EXPECTED.qp_arrows}"]
        counts = (EXPECTED.qp_objects, EXPECTED.qp_arrows)

    def check(out: str, err: str) -> str | None:
        problem = _missing(out, want)
        if problem:
            return problem
        if not path.is_file():
            return f"{path.name} not written"
        d = dtn.DtnText(path.read_text())
        got = (len(d.objects()), len(d.arrows()))
        return None if got == counts else f"{path.name} has {got}, expected {counts}"
    return check


def _section(text: str, name: str) -> str:
    m = re.search(rf"^== {re.escape(name)} ==\n(.*?)(?=^== |\Z)", text, re.M | re.S)
    return m.group(1) if m else ""


class DemoCheck:
    """The headline numbers of `demo`, and the same bytes on every pass."""

    def __init__(self):
        self.first: str | None = None

    def __call__(self, out: str, err: str) -> str | None:
        if self.first is None:
            self.first = out
        elif out != self.first:
            return "demo output differs from the first pass"
        fs2 = _section(out, "fs2")
        problem = _missing(fs2, [
            _equality_line(), "comprehensions: full", "rule of choice: holds",
            f"reflexive objects: {EXPECTED.reflexive_objects}; quotient objects:"
            f" {EXPECTED.qp_objects}, arrow classes: {EXPECTED.qp_arrows}",
            "fulc: equivalence", "axc: hypotheses ok, L equivalence", "converse: pass"])
        if problem:
            return "fs2 " + problem
        rel = f"relation completion: objects={EXPECTED.tp_objects} arrows={EXPECTED.tp_arrows}" \
              f" iso-classes={EXPECTED.tp_iso_classes} exact=yes"
        if rel not in fs2:
            return f"fs2 lacks {rel!r}"
        if "rule of choice: fails (witness v, u, a)" not in _section(out, "nochoice"):
            return "nochoice does not fail the rule of choice at (v, u, a)"
        universal = _section(out, "universal property")
        if "triv against its completion: confirmed" not in universal or \
                "fs2 against its completion: capped" not in universal:
            return "universal property headline changed"
        return None


_ASSOC = re.compile(r"violation: \(h∘g\)∘f != h∘\(g∘f\) at (\(.*\))$", re.M)
_CHECK_FAIL = re.compile(r"^\s+\[FAIL\] doctrine-laws  witness=\((.*)\)$", re.M)
_COMPARE_FAIL = re.compile(r"^violation: doctrine laws fail at (\(.*\)): (.*)$", re.M)


def check_associativity_witness(path: Path):
    def check(out: str, err: str) -> str | None:
        m = _ASSOC.search(err)
        if not m:
            return f"no associativity witness in {err.strip()[-200:]!r}"
        h, g, f = ast.literal_eval(m.group(1))
        if not dtn.confirm_associativity_witness(dtn.DtnText(path.read_text()), h, g, f):
            return f"witness {(h, g, f)} is not a failing triple of the file"
        return None
    return check


def reindex_witness(out: str, err: str) -> list[str] | None:
    m = _CHECK_FAIL.search(out)
    if m:
        return m.group(1).split(", ")
    m = _COMPARE_FAIL.search(err)
    if m:
        return [*ast.literal_eval(m.group(1)), m.group(2)]
    return None


def check_reindex_witness(path: Path, arrow: str | None = None, law: str | None = None):
    def check(out: str, err: str) -> str | None:
        w = reindex_witness(out, err)
        if w is None:
            return "no doctrine-law witness"
        if arrow is not None and (w[0], w[-1]) != (arrow, law):
            return f"witness {w}, expected {law} at {arrow}"
        if not dtn.confirm_reindex_witness(dtn.DtnText(path.read_text()), w):
            return f"witness {w} is not a failure of the file's reindexing"
        return None
    return check


def check_nochoice(path: Path):
    def check(out: str, err: str) -> str | None:
        problem = _missing(out, ["EED: no", "rule of choice: fails (witness v, u, a)"])
        if problem:
            return problem
        if ("v", "u") in dtn.DtnText(path.read_text()).arrows().values():
            return "the file has an arrow v -> u"
        return None
    return check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def fs2_cli_ops(work: Path) -> list[Op]:
    tp, qp = work / "tp.dtn", work / "qp.dtn"
    return [
        Op("check_s", ["check", "fs2"], 0, check_fs2_verdict),
        Op("compare_s", ["compare", "fs2"], 0, check_compare),
        Op("complete_s", ["complete", "fs2", "--kind", "tp", "--out", str(tp)], 0,
           check_complete("tp", tp)),
        Op("complete_s", ["complete", "fs2", "--kind", "qp", "--out", str(qp)], 0,
           check_complete("qp", qp)),
        Op("demo_s", ["demo"], 0, DemoCheck()),
    ]


def files_faults_ops(work: Path, rng: random.Random) -> list[Op]:
    """Write the fs2 file and four faulty copies, and the operations on them
    and on the shipped violating files.  The two faults of each kind are
    drawn one from each half of their section, so that where a fault sits
    in the file varies less between seeds."""
    t = dtn.Fs2Tables()
    lines = dtn.fs2_lines(t)
    files = {"clean": lines}
    for part, name in enumerate(("comp-a", "comp-b")):
        files[name] = dtn.apply_comp_fault(lines, t, dtn.pick_comp_fault(t, rng, part, 2))
    for part, name in enumerate(("reindex-c", "reindex-d")):
        files[name] = dtn.apply_reindex_fault(lines, t, dtn.pick_reindex_fault(t, rng, part, 2))
    path = {name: work / f"{name}.dtn" for name in files}
    for name, body in files.items():
        path[name].write_text("\n".join(body) + "\n")
    mixed, nochoice = ROOT / "fixtures" / "mixedfail.dtn", ROOT / "fixtures" / "nochoice.dtn"
    for p in (mixed, nochoice):
        if not p.is_file():
            raise Fatal(f"missing {p.relative_to(ROOT)}")
    return [
        Op("check_file_s", ["check", str(path["clean"])], 0, check_fs2_verdict),
        Op("witness_s", ["check", str(path["comp-a"])], 1,
           check_associativity_witness(path["comp-a"])),
        Op("witness_s", ["compare", str(path["comp-b"])], 1,
           check_associativity_witness(path["comp-b"])),
        Op("witness_s", ["check", str(path["reindex-c"])], 1,
           check_reindex_witness(path["reindex-c"])),
        Op("witness_s", ["compare", str(path["reindex-d"])], 1,
           check_reindex_witness(path["reindex-d"])),
        Op("witness_s", ["check", str(mixed)], 1,
           check_reindex_witness(mixed, "m", "top not preserved")),
        Op("witness_s", ["compare", str(mixed)], 1,
           check_reindex_witness(mixed, "m", "top not preserved")),
        Op("witness_s", ["check", str(nochoice)], 1, check_nochoice(nochoice)),
    ]


def cli_passes(runner: Runner, ops: list[Op], rng: random.Random, seconds: float,
               trace: bool, tally: Tally) -> list[dict]:
    """Whole passes over the operations, in an order drawn from the seed,
    until `seconds` have been measured."""
    passes = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds and time.monotonic() < runner.deadline:
        order = rng.sample(ops, len(ops))
        for traced in ([False, True] if trace else [False]):
            for name in ("tp.dtn", "qp.dtn"):
                (runner.work / name).unlink(missing_ok=True)   # written anew by `complete`
            groups: dict[str, float] = {}
            layers = dict.fromkeys(tracing.layer_metrics([]), 0.0) if traced else None
            coverage = []
            for i, op in enumerate(order):
                wall, spans = runner.run_op(op, tally, traced, f"op{i}")
                groups[op.group] = groups.get(op.group, 0.0) + wall
                if spans is not None:
                    for k, v in tracing.layer_metrics(spans).items():
                        layers[k] += v
                    coverage.append(tracing.covered(spans) / wall)
            passes.append({"traced": traced, "groups": groups, "wall": sum(groups.values()),
                           "layers": layers, "coverage": min(coverage, default=0.0)})
    return passes


def constructions_passes(runner: Runner, seed: int, seconds: float, trace: bool,
                         tally: Tally) -> tuple[list[dict], float]:
    """The constructions worker runs the passes in its own process; its
    set-up is timed like the other set-up processes."""
    result = runner.work / "constructions.json"
    t = time.perf_counter()
    _, code, out, err = runner.spawn(
        [sys.executable, str(BENCH / "child.py"), "constructions", str(result), str(seed),
         str(seconds), "1" if trace else "0"], "worker")
    if code != 0 or not result.is_file():
        raise Fatal(f"constructions worker failed ({code}): {err.strip()[-2000:]}")
    setup = float(out.split()[1]) - t
    passes = json.loads(result.read_text())
    for p in passes:
        tally.attempted += p["attempted"]
        tally.failed += p["failed"]
        tally.failures += p["failures"]
        tally.problems += p["problems"]
    return passes, setup


def median_of(passes: list[dict], key) -> float:
    return statistics.median(key(p) for p in passes)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("fs2-cli", "constructions", "files-faults"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "doctrines" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'doctrines'} is missing", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, time.monotonic() + RUN_LIMIT)
    rng = random.Random(args.seed)
    tally = Tally()
    trace = bool(args.trace)
    try:
        if args.workload == "constructions":
            # the worker's own set-up is the last sample
            setups = [] if trace else runner.setup(args.workload, SETUPS[args.workload] - 1)
            passes, worker_setup = constructions_passes(runner, args.seed, args.seconds,
                                                        trace, tally)
            setups.append(worker_setup)
        else:
            setups = [] if trace else runner.setup(args.workload, SETUPS[args.workload])
            ops = fs2_cli_ops(work) if args.workload == "fs2-cli" else \
                files_faults_ops(work, rng)
            passes = cli_passes(runner, ops, rng, args.seconds, trace, tally)
    except Fatal as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 1
    finally:
        for path in work.glob("*.dtn"):
            path.unlink()
    for line in tally.failures + tally.problems:
        print(line, file=sys.stderr)
    plain = [p for p in passes if not p["traced"]]
    groups = {g: round(median_of(plain, lambda p: p["groups"][g]), 4)
              for g in plain[0]["groups"]}
    print(json.dumps({"workload": args.workload, "passes": len(plain), "groups_s": groups}))
    if trace:
        traced = [p for p in passes if p["traced"]]
        metrics = {k: median_of(traced, lambda p: p["layers"][k])
                   for k in traced[0]["layers"]}
        metrics["trace.overhead_pct"] = 100 * (median_of(traced, lambda p: p["wall"])
                                               / median_of(plain, lambda p: p["wall"]) - 1)
        metrics["trace.coverage_pct"] = 100 * median_of(traced, lambda p: p["coverage"])
        units = tracing.UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "pass_s": median_of(plain, lambda p: p["wall"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
