"""Processes that `run.py` starts, each in a fresh interpreter.

    child.py setup WORKLOAD
        import the program and build the workload's in-memory doctrines, then
        print `ready <perf_counter>` and exit
    child.py cli SPANS SPAWNED ARGV...
        run `doctrines ARGV...` in-process with every public function traced,
        and write the spans to SPANS; SPAWNED is the parent's clock reading
        when it started this process
    child.py constructions RESULT SEED SECONDS TRACE
        set up as `setup constructions` does, print `ready`, run one warm-up
        pass, then passes of the constructions workload for SECONDS, and
        write them to RESULT

`perf_counter` reads a clock shared by every process of the machine, so the
parent can subtract its own readings from a child's.
"""

import json
import random
import sys
import time


def ready() -> None:
    print(f"ready {time.perf_counter()!r}", flush=True)


def setup(workload: str) -> None:
    import doctrines.cli  # noqa: F401  the import every program process pays
    if workload == "fs2-cli":
        from doctrines import fixtures
        fixtures.fs2()
    elif workload == "constructions":
        import constructions
        for name in constructions.FIXTURES:
            constructions.law_check(name)


def traced_cli(spans_path: str, spawned: float, argv: list[str]) -> int:
    import doctrines.cli
    import tracing
    # interpreter start and the import of the program
    startup = ["startup", "startup", spawned, time.perf_counter(), -1, 0]
    tracer = tracing.Tracer()
    tracer.install()
    tracer.spans.append(startup)
    try:
        return doctrines.cli.main(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh, separators=(",", ":"))


def constructions_worker(result_path: str, seed: int, seconds: float, trace: bool) -> None:
    setup("constructions")
    ready()
    import constructions
    import tracing
    rng = random.Random(seed)
    tracer = tracing.Tracer()
    constructions.run_pass(constructions.FIXTURES)   # warm-up, not reported
    passes = []
    start = time.perf_counter()
    while True:
        order = rng.sample(constructions.FIXTURES, len(constructions.FIXTURES))
        runs = [False, True] if trace else [False]
        for traced in runs:
            if traced:
                tracer.install()
            try:
                p = constructions.run_pass(order, tracer.spans if traced else None)
            finally:
                tracer.uninstall()
            passes.append({
                "traced": traced, "groups": p.groups, "wall": sum(p.groups.values()),
                "attempted": p.attempted, "failed": p.failed, "failures": p.failures,
                "problems": p.problems,
                "layers": tracing.layer_metrics(tracer.spans) if traced else None,
                "coverage": min(p.coverage, default=0.0) if traced else None})
            if traced:
                spans = list(tracer.spans)
                tracer.spans.clear()
        if time.perf_counter() - start >= seconds:
            break
    if trace:
        with open(result_path + ".spans.json", "w") as fh:
            json.dump(spans, fh)
    with open(result_path, "w") as fh:
        json.dump(passes, fh)


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        setup(argv[1])
        ready()
        return 0
    if mode == "cli":
        return traced_cli(argv[1], float(argv[2]), argv[3:])
    if mode == "constructions":
        constructions_worker(argv[1], int(argv[2]), float(argv[3]), argv[4] == "1")
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
