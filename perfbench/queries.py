"""Seeded query lists for the benchmark workloads, and the oracles that
check every answer.

A query does its untimed preparation itself (a fresh copy of its coloring,
so no query warms another's type cache), times only the library call
through `clock(phase)`, and returns a JSON-ready answer.  `judge` then checks
the last answer with an untimed oracle and returns CONFIRMED, REFUTED, or
OPEN for an answer that is not definitive (`unknown`, or an absence cut
short by a budget).

Library functions are always looked up through the module objects in `lib`
at call time, so the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import re
from pathlib import Path

CONFIRMED, REFUTED, OPEN = "confirmed", "refuted", "open"

# direct-search absences on universes up to this size are re-checked by
# testing every big member subset; larger ones by the blueprint pipeline
BRUTE_FORCE_MAX = 16
# holds verdicts on at most this many colorings are re-checked on all of
# them, larger ones on a seeded sample of this size
HOLDS_ALL_MAX = 4096
HOLDS_SAMPLE = 256


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _dumps(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def confirm_subset(lib, col, subset, level) -> str:
    """Re-verify a reported subset on a fresh copy of its coloring."""
    witness = lib.colorings.type_homogeneity_witness(col.copy(), subset)
    big = lib.structures.subset_is_big(col.base, subset, level)
    return CONFIRMED if witness is not None and big else REFUTED


def has_homogeneous_subset(lib, col, level) -> bool:
    """Independent existence check for a level-big homogeneous subset."""
    if col.base.size <= BRUTE_FORCE_MAX:
        fresh = col.copy()
        return any(
            lib.colorings.type_homogeneity_witness(fresh, cand) is not None
            for cand in lib.colorings.iter_big_member_subsets(col.base, level)
        )
    return lib.blueprints.derive_homogeneous(col.copy(), level).found


class SearchQuery:
    """Direct homogeneous-subset search on one seeded coloring."""

    def __init__(self, lib, qid, group, col, level):
        self.lib, self.id, self.group = lib, qid, group
        self.col, self.level = col, level

    def run(self, clock) -> dict:
        col = self.col.copy()
        with clock("search"):
            res = self.lib.colorings.find_type_homogeneous(col, self.level)
        self.last = res
        return {
            "q": self.id,
            "found": res.found,
            "subset": list(res.subset) if res.found else None,
            "exhaustive": res.exhaustive,
            "nodes": res.nodes,
        }

    def judge(self) -> str:
        res = self.last
        if res.found:
            return confirm_subset(self.lib, self.col, res.subset, self.level)
        if not res.exhaustive:
            return OPEN
        return REFUTED if has_homogeneous_subset(self.lib, self.col, self.level) else CONFIRMED


class ReduceQuery:
    """reduce_chicolor or reduce_ceq on one seeded coloring."""

    def __init__(self, lib, qid, group, col, level):
        self.lib, self.id, self.group = lib, qid, group
        self.col, self.level = col, level

    def run(self, clock) -> dict:
        col = self.col.copy()
        red = self.lib.reductions
        reduce = red.reduce_chicolor if col.base.cls.kind == "chi_color" else red.reduce_ceq
        with clock("reduce"):
            rep = reduce(col, self.level)
        self.last = rep
        return {
            "q": self.id,
            "status": rep.status,
            "subset": list(rep.subset) if rep.subset is not None else None,
            "exhaustive": rep.exhaustive,
            "work": rep.work,
            "stages": [[st.name, st.status, st.work] for st in rep.stages],
        }

    def judge(self) -> str:
        rep = self.last
        if rep.subset is not None:
            return confirm_subset(self.lib, self.col, rep.subset, self.level)
        if not rep.exhaustive:
            return OPEN
        # an exhaustive absence must survive direct search on a fresh coloring
        direct = self.lib.colorings.find_type_homogeneous(self.col.copy(), self.level)
        return REFUTED if direct.found else CONFIRMED


class RelationQuery:
    """One arrow_check call in any of the three modes."""

    def __init__(self, lib, qid, group, cls, ambient, sub, arity, colors, mode,
                 seed=0, samples=200, budget=None):
        self.lib, self.id, self.group = lib, qid, group
        self.query = lib.arrow.ArrowQuery(cls, ambient, sub, arity, colors)
        self.mode, self.seed, self.samples, self.budget = mode, seed, samples, budget

    def run(self, clock) -> dict:
        with clock("anneal" if self.mode == "counterexample" else self.mode):
            v = self.lib.arrow.arrow_check(
                self.query, mode=self.mode, seed=self.seed,
                samples=self.samples, budget=self.budget,
            )
        self.last = v
        cx = v.counterexample
        return {
            "q": self.id,
            "status": v.status,
            "work": v.work,
            "colorings_checked": v.colorings_checked,
            "notes": list(v.notes),
            "counterexample": sha256(_dumps(cx.to_doc())) if cx is not None else None,
        }

    def judge(self) -> str:
        v, q = self.last, self.query
        # R(3,3) = 6 (Radziszowski, Small Ramsey Numbers, EJC DS1); for
        # linear orders type-homogeneous means monochromatic
        classical = (q.cls.kind, q.arity, q.colors, q.sub_level) == ("or", 2, 2, 3)
        if classical:
            expected = "holds" if q.ambient_level >= 6 else "fails"
            if v.status not in (expected, "unknown"):
                return REFUTED
        if v.status == "fails":
            ok = self.lib.arrow.verify_refutation(q, v.counterexample)
            return CONFIRMED if ok else REFUTED
        if v.status == "holds":
            return CONFIRMED if classical or self._every_coloring_has_subset() else REFUTED
        return OPEN

    def _every_coloring_has_subset(self) -> bool:
        q, lib = self.query, self.lib
        base = lib.structures.make_canonical(q.cls, q.ambient_level)
        tuples = list(itertools.combinations(range(base.size), q.arity))
        if q.colors ** len(tuples) <= HOLDS_ALL_MAX:
            tables = itertools.product(range(q.colors), repeat=len(tuples))
        else:
            rng = random.Random(self.id)
            tables = (
                [rng.randrange(q.colors) for _ in tuples] for _ in range(HOLDS_SAMPLE)
            )
        for digits in tables:
            col = lib.colorings.Coloring(base, q.arity, q.colors, dict(zip(tuples, digits)))
            if not lib.colorings.find_type_homogeneous(col, q.sub_level).found:
                return False
        return True


def invoke_cli(lib, argv) -> int:
    try:
        return lib.cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects its input this way
        return exc.code if isinstance(exc.code, int) else 3


class ReportQuery:
    """One CLI invocation with --json --out, then `check --report` on it.
    Paths are relative to the work directory the harness runs in, so the
    report bytes do not depend on where the checkout lives."""

    def __init__(self, lib, qid, group, argv, out):
        self.lib, self.id, self.group = lib, qid, group
        self.argv, self.out = list(argv), out

    def run(self, clock) -> dict:
        out = Path(self.out)
        out.unlink(missing_ok=True)
        emit = self.argv + ["--json", "--out", self.out]
        check = ["check", "--report", self.out, "--json", "--out", self.out + ".check"]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            with clock("emit"):
                code = invoke_cli(self.lib, emit)
            with clock("check"):
                check_code = invoke_cli(self.lib, check)
        data = out.read_bytes() if out.exists() else b""
        self.last = (code, check_code)
        answer = {
            "q": self.id,
            "exit": code,
            "check_exit": check_code,
            "bytes": len(data),
            "sha256": sha256(data),
        }
        if code not in (0, 1, 2) or check_code != 0:
            answer["stderr"] = sink.getvalue()[-300:]
        return answer

    def judge(self) -> str:
        code, check_code = self.last
        return CONFIRMED if code in (0, 1, 2) and check_code == 0 else REFUTED


# ---------------------------------------------------------------- workloads


def build_sweep(lib, seed: int, tiny: bool, workdir: Path) -> list:
    """Homogeneous-subset search and reductions on seeded random colorings,
    over all seven class kinds."""
    S, C = lib.structures, lib.colorings
    rng = random.Random(seed)
    queries: list = []

    def family(text, lam, level, seeds, reduce=False, arity=2):
        cls = lib.cli.parse_class(text)
        base = S.make_canonical(cls, lam)
        for cseed in seeds:
            col = C.random_coloring(base, arity, 2, cseed)
            tag = f"{text}@{lam}/L{level}"
            if reduce:
                queries.append(ReduceQuery(lib, f"reduce:{tag}#{cseed}", f"reduce:{tag}", col, level))
            queries.append(SearchQuery(lib, f"search:{tag}#{cseed}", f"search:{tag}", col, level))

    def drawn(n):
        return [rng.randrange(2 ** 31) for _ in range(n)]

    # the acceptance test's C5 shapes: seed s takes the window k*s .. k*s+k-1
    # of its coloring seeds, so seed 0 runs exactly its first k colorings
    k = 2 if tiny else 32
    c5 = range(k * seed, k * seed + k)
    family("chi_color:2", 40, 3, c5, reduce=True)
    family("ceq", 6, 2, c5, reduce=True)
    if tiny:
        family("or", 8, 4, drawn(2))
        family("n_tree:2", 2, 2, drawn(1))
        return queries
    family("ceq", 3, 2, drawn(8), reduce=True)
    family("ceq", 4, 2, drawn(8), reduce=True)
    # exhaustive absences, the slow tail; eight at 16 rather than two at 20,
    # whose per-coloring cost carried most of the seed-to-seed spread
    family("chi_color:3", 16, 3, drawn(8))
    family("or", 12, 5, drawn(8))
    family("or", 16, 3, drawn(4), arity=3)
    family("chi_or:2", 5, 3, drawn(8))
    family("chi_or:3", 4, 2, drawn(4))
    family("n_tree:2", 3, 2, drawn(8))
    family("ordered_graph", 12, 5, drawn(8))
    family("hypergraph:2:2", 10, 4, drawn(8))
    return queries


# (class, ambient, sub, arity, colors): the R(3,3) table, then small verdicts
# on the other classes and on or triples and 3 colours, all under the
# default ceiling
_EXHAUSTIVE = [("or", a, 3, 2, 2) for a in range(1, 7)] + [
    ("chi_or:2", 3, 1, 2, 2),
    ("chi_or:2", 3, 2, 2, 2),
    ("chi_color:2", 3, 1, 2, 2),
    ("chi_color:2", 3, 2, 2, 2),
    ("n_tree:1", 5, 2, 2, 2),
    ("n_tree:2", 1, 1, 2, 2),
    ("ceq", 2, 2, 2, 2),
    ("ceq", 3, 2, 1, 2),
    ("ordered_graph", 5, 3, 2, 2),
    ("ordered_graph", 6, 3, 2, 2),
    ("hypergraph:2:2", 6, 3, 2, 2),
    ("or", 6, 4, 3, 2),
    ("or", 6, 3, 2, 3),
]


def build_arrow(lib, seed: int, tiny: bool, workdir: Path) -> list:
    """Partition relations in the exhaustive, randomized and counterexample
    modes."""
    rng = random.Random(seed)
    queries: list = []
    exhaustive = [e for e in _EXHAUSTIVE if e[1] <= 5] if tiny else _EXHAUSTIVE
    for text, amb, sub, n, c in exhaustive:
        cls = lib.cli.parse_class(text)
        qid = f"exhaustive:{text}/{amb}/{sub}/n{n}c{c}"
        queries.append(RelationQuery(lib, qid, "exhaustive", cls, amb, sub, n, c, "exhaustive"))
    order = lib.cli.parse_class("or")
    for amb in (5, 6):
        for _ in range(1 if tiny else 4):
            s = rng.randrange(2 ** 31)
            queries.append(RelationQuery(
                lib, f"randomized:or/{amb}#{s}", "randomized", order, amb, 3, 2, 2,
                "randomized", seed=s, samples=10 if tiny else 300,
            ))
    # 3 colours stay below R(3,3,3) = 17, so refutations exist; the flip
    # budget is fixed, so the time per flip is what moves.  The cost of a
    # descent depends on its trajectory, so each ambient gets two of them.
    for amb in (6,) if tiny else (10, 11, 12):
        for _ in range(1 if tiny else 2):
            s = rng.randrange(2 ** 31)
            queries.append(RelationQuery(
                lib, f"counterexample:or/{amb}#{s}", "counterexample", order, amb, 3, 2, 3,
                "counterexample", seed=s, budget=20 if tiny else 500,
            ))
    return queries


def fiber_target(lib, size: int, seed: int):
    """Extraction target of `size` fibers, each of size+1 points rotated by
    unary functions f1..f_size, with seeded relations that depend only on
    the fiber coordinates and on the order of the fibers.  The fiber base
    points form an indiscernible sequence, so extraction keeps the whole
    index."""
    D = lib.diagrams
    k = size + 1
    total = size * k
    rng = random.Random(seed)
    sig = D.OutputSignature(
        functions=tuple((f"f{s}", 1) for s in range(1, k)),
        relations=(("R", 2), ("U", 1)),
    )
    functions = {
        f"f{s}": {(x,): x - x % k + (x % k + s) % k for x in range(total)}
        for s in range(1, k)
    }
    marked = [rng.randrange(2) for _ in range(k)]
    unary = frozenset((x,) for x in range(total) if marked[x % k])
    bits = {
        (cmp, a, b): rng.randrange(2)
        for cmp in (-1, 0, 1) for a in range(k) for b in range(k)
    }
    pairs = frozenset(
        (x, y)
        for x in range(total)
        for y in range(total)
        if bits[((x // k > y // k) - (x // k < y // k), x % k, y % k)]
    )
    target = D.TargetStructure(sig, total, functions, {"R": pairs, "U": unary}, {})
    return target, tuple(i * k for i in range(size))


def build_report(lib, seed: int, tiny: bool, workdir: Path) -> list:
    """Certificate round trips through the CLI: emit a JSON report, then
    re-verify it with `check --report`.  Blueprint files are extracted here,
    in set-up."""
    S, B = lib.structures, lib.blueprints
    rng = random.Random(seed)
    queries: list = []

    def report(qid, argv):
        out = re.sub(r"[^A-Za-z0-9_.-]", "-", qid) + ".json"
        queries.append(ReportQuery(lib, qid, qid.split(":")[0], argv, out))

    order = lib.cli.parse_class("or")
    for size in (2,) if tiny else (2, 3, 4):
        target, assignment = fiber_target(lib, size, rng.randrange(2 ** 31))
        index = S.make_canonical(order, size)
        ex = B.extract_blueprint(target, assignment, index, 2, 2, (1, 2))
        if ex.blueprint is None:
            raise RuntimeError(f"no blueprint extracted from the size-{size} fiber target")
        name = f"bp-{size}.json"
        (workdir / name).write_bytes(_dumps(ex.blueprint.to_doc()))
        for level in (3,) if tiny else (6, 9, 12):
            report(f"em:{size}/{level}", ["em", "--blueprint", name, "--level", str(level)])
    k = 1 if tiny else 4
    for cseed in range(k * seed, k * seed + k):
        report(f"reduce:chi_color:2/{cseed}", ["reduce", "--cls", "chi_color:2", "--level", "3",
                                               "--ambient", "40", "--seed", str(cseed)])
        report(f"reduce:ceq/{cseed}", ["reduce", "--cls", "ceq", "--level", "2",
                                       "--ambient", "6", "--seed", str(cseed)])
    s = [str(rng.randrange(2 ** 31)) for _ in range(4)]
    report(f"extract:chi_or:2/{s[0]}", ["extract", "--cls", "chi_or:2", "--level", "2",
                                        "--ambient", "3", "--seed", s[0]])
    report(f"arrow:counterexample/{s[1]}", ["arrow", "--cls", "or", "--ambient", "5", "--sub", "3",
                                            "-n", "2", "-c", "2", "--mode", "counterexample",
                                            "--seed", s[1]])
    report(f"arrow:randomized/{s[2]}", ["arrow", "--cls", "or", "--ambient", "5", "--sub", "3",
                                        "-n", "2", "-c", "2", "--mode", "randomized",
                                        "--seed", s[2], "--samples", "60"])
    if not tiny:
        report(f"extract:or/{s[3]}", ["extract", "--cls", "or", "--level", "4",
                                      "--ambient", "10", "--seed", s[3]])
        report("table:or", ["table", "--cls", "or", "-n", "2", "-c", "2", "--sub-levels", "1,2,3",
                            "--ambient-levels", "1,2,3,4,5,6"])
        report("types:ceq", ["types", "--cls", "ceq", "-n", "4"])
    return queries


BUILDERS = {"sweep": build_sweep, "arrow": build_arrow, "report": build_report}
