"""Benchmark harness for ramseylab.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 35 --trace 0

Runs one seeded workload (sweep, arrow or report; see queries.py) in this
process against the library in ../src, closed loop: one query after the
other, on one thread.  The query list runs in rounds until --seconds have
passed.  Each round is preceded by its own set-up, a fresh import of the
library plus building the workload's inputs; `setup_s` is the median
set-up.  A fixed reference loop runs after every query, untimed, and
`norm_wall_s` is the median round with each query's time rescaled by the
host speed that loop measured around it (see REF_UNIT_S); the plain mean
round is `wall_s` in the detail line.  The answers of the first round are checked
by untimed oracles; every later round, and the traced round, must repeat
them exactly, and so must any earlier run of the same code and seed in this
checkout (recorded under out/).

--trace 1 runs untraced rounds for half the time, then one traced set-up
and round, and reports the per-layer metrics instead.  Spans go to
out/spans-<workload>-<seed>.jsonl.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
Without a library to import it exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MODULES = ("structures", "tuple_types", "colorings", "arrow", "reductions", "diagrams", "blueprints", "cli")

sys.path.insert(0, str(HERE))
from queries import BUILDERS, CONFIRMED, REFUTED, sha256  # noqa: E402
from spans import Tracer  # noqa: E402


class SetupError(RuntimeError):
    pass


def load_library() -> SimpleNamespace:
    """Import ramseylab afresh from ../src, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "ramseylab" or n.startswith("ramseylab.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    try:
        pkg = importlib.import_module("ramseylab")
    except ImportError as exc:
        raise SetupError(f"cannot import ramseylab from {SRC}: {exc}") from None
    if Path(pkg.__file__).resolve().parent != SRC / "ramseylab":
        raise SetupError(f"ramseylab imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"ramseylab.{m}") for m in MODULES})


class PhaseClock:
    """Accumulates timed seconds per phase and per query group."""

    def __init__(self):
        self.phases: Counter = Counter()
        self.groups: Counter = Counter()
        self.queries: Counter = Counter()
        self.group = self.query = ""

    @contextlib.contextmanager
    def __call__(self, phase):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            self.phases[phase] += elapsed
            self.groups[self.group] += elapsed
            self.queries[self.query] += elapsed


# The host's speed drifts by up to 1.4x in phases of seconds to minutes
# (other guests share its cores), and CPU time drifts with it.  So each
# query's time is also rescaled by the speed of a fixed reference loop run
# right before and right after it: `norm_wall_s` is the round's time on a
# host where one probe unit takes REF_UNIT_S.
REF_UNIT_S = 0.001
PROBE_SHARE = 0.2  # probe time per timed second; it is not timed itself


def probe_unit() -> int:
    """A fixed piece of pure-Python work like the library's own: tuples,
    dict lookups, arithmetic, a keyed sort."""
    table: dict = {}
    acc = 0
    for i in range(1500):
        t = (i, i & 7, i % 5)
        table[t] = table.get(t, 0) + 1
        acc += len(t) + (t[1] ^ t[2])
    return acc + len(sorted(table, key=lambda x: (x[2], x[0])))


def probe(units: int) -> float:
    """Seconds per probe unit, over `units` units."""
    t0 = time.perf_counter()
    for _ in range(units):
        probe_unit()
    return (time.perf_counter() - t0) / units


def run_round(queries, tracer=None) -> tuple[PhaseClock, list]:
    """Run the query list once, with a host probe after every query.  Sets
    `clock.norm`, the rescaled total, and `clock.unit_s`, the mean probe
    unit.  The probes run outside the tracer's query regions."""
    gc.collect()
    clock = PhaseClock()
    answers = []
    unit = probe(10)
    clock.norm, clock.norm_groups, units = 0.0, Counter(), []
    for q in queries:
        clock.group, clock.query = q.group, q.id
        region = tracer.region(f"query:{q.id}") if tracer else contextlib.nullcontext()
        with region:
            try:
                answers.append(q.run(clock))
            except Exception as exc:  # a query that raises counts as failed
                q.last = None
                answers.append({"q": q.id, "error": f"{type(exc).__name__}: {exc}"})
        elapsed = clock.queries[q.id]
        after = probe(max(1, math.ceil(PROBE_SHARE * elapsed / REF_UNIT_S)))
        scaled = elapsed * REF_UNIT_S / ((unit + after) / 2)
        clock.norm += scaled
        clock.norm_groups[q.group] += scaled
        units.append(after)
        unit = after
    clock.unit_s = statistics.mean(units)
    return clock, answers


def judge(queries, answers) -> list[str]:
    verdicts = []
    for q, answer in zip(queries, answers):
        if "error" in answer:
            verdicts.append("error")
            continue
        try:
            verdicts.append(q.judge())
        except Exception:  # the oracle could not even read the answer back
            verdicts.append(REFUTED)
    return verdicts


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(HERE.parent).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def agrees_with_earlier_runs(key: str, digest: str) -> bool:
    """Compare the answer digest with earlier runs of the same code, workload
    and seed in this checkout, and record it."""
    store = OUT / "answers.json"
    seen = json.loads(store.read_text()) if store.exists() else {}
    earlier = seen.setdefault(key, digest)
    tmp = store.with_suffix(f".{os.getpid()}")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    os.replace(tmp, store)
    return earlier == digest


def bench(args, workdir: Path) -> tuple[dict, dict]:
    build = BUILDERS[args.workload]
    tiny = args.size == "tiny"
    # every round gets its own set-up: a fresh import starts the library's
    # caches cold, as a new CLI process does, and set-up times sampled all
    # through the run are steadier than a burst of them at its start
    rounds, setups = [], []
    budget = args.seconds / 2 if args.trace else args.seconds
    start = time.perf_counter()
    consistent = True
    while not rounds or time.perf_counter() - start < budget:
        t0 = time.perf_counter()
        queries = build(load_library(), args.seed, tiny, workdir)
        setups.append(time.perf_counter() - t0)
        clock, answers = run_round(queries)
        if not rounds:
            first, verdicts = answers, judge(queries, answers)
        consistent &= answers == first
        rounds.append(clock)

    walls = [sum(c.phases.values()) for c in rounds]
    norms = [c.norm for c in rounds]
    digest = sha256(json.dumps(first, sort_keys=True).encode())
    key = f"{code_digest()}:{args.workload}:{args.seed}:{args.size}"
    consistent &= agrees_with_earlier_runs(key, digest)
    tally = Counter(verdicts)
    failed = tally[REFUTED] + tally["error"]
    attempted = len(queries)
    # each group's mean timed seconds per round next to its deterministic
    # work counters
    groups = {
        g: {"s": statistics.mean([c.groups[g] for c in rounds]),
            "norm_s": statistics.median([c.norm_groups[g] for c in rounds])}
        for g in sorted(rounds[0].groups)
    }
    for q, answer, verdict in zip(queries, first, verdicts):
        entry = groups[q.group]
        for field in ("nodes", "work", "colorings_checked", "bytes"):
            if field in answer:
                entry[field] = entry.get(field, 0) + answer[field]
        entry[verdict] = entry.get(verdict, 0) + 1
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "setup_runs": [round(s, 6) for s in setups],
        "rounds": len(rounds),
        "round_wall_s": [round(w, 6) for w in walls],
        "round_norm_wall_s": [round(w, 6) for w in norms],
        "probe_unit_ms": [round(c.unit_s * 1000, 6) for c in rounds],
        "wall_s": statistics.mean(walls),
        "phase_s": {p: statistics.mean([c.phases[p] for c in rounds]) for p in sorted(rounds[0].phases)},
        "groups": groups,
        "answers_sha256": digest,
        "verdicts": dict(tally),
        "failed_frac": failed / attempted,
        "consistent": consistent,
    }
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "norm_wall_s": (statistics.median(norms), "s"),
        "decided_frac": (tally[CONFIRMED] / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }

    if args.trace:
        tracer = Tracer()
        lib = load_library()
        tracer.install(lib)
        try:
            with tracer.region("setup"):
                queries = build(lib, args.seed, tiny, workdir)
            clock, answers = run_round(queries, tracer)
        finally:
            tracer.uninstall()
        consistent &= answers == first
        traced_wall = sum(clock.phases.values())
        detail["traced_wall_s"] = traced_wall
        detail["traced_norm_wall_s"] = clock.norm
        detail["consistent"] = consistent
        phases = dict(detail["phase_s"], overhead=clock.norm - statistics.median(norms))
        metrics = tracer.metrics(phases)
        spans_file = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        with open(spans_file, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        detail["spans"] = len(tracer.spans)

    result = {
        "correct": consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BUILDERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to run rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the smoke test")
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    cwd = os.getcwd()
    try:
        os.chdir(workdir)  # report paths are relative to it
        result, detail = bench(args, workdir)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}: {result['attempted']} queries, "
          f"{detail['rounds']} rounds, answers_sha256 {detail['answers_sha256']}")
    print(f"  {'failed_frac':48s} {detail['failed_frac']:.6g} ratio ({result['failed']} of {result['attempted']})")
    print(f"  {'wall_s (mean per round, not rescaled)':48s} {detail['wall_s']:.6g} s")
    for phase, seconds in detail["phase_s"].items():
        print(f"  {phase + ' (mean per round)':48s} {seconds:.6g} s")
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
