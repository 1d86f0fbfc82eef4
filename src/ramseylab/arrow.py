"""Finite structural partition relation checks.

A query asks whether every coloring of the increasing `arity`-tuples of the
canonical `ambient_level`-big structure with `colors` colors admits a closed,
member-inducing, `sub_level`-big, type-homogeneous subset.  For the classes
whose canonical structure embeds into every equally big member the verdict
transfers to arbitrary ambients; for ordered graphs and hypergraphs it is a
statement about the canonical ambient only (see structures.embeds_canonically).

Three modes:

  exhaustive      enumerate every coloring (odometer over the tuple table) and
                  certify each one; a failing coloring is re-verified by an
                  independent search before it is reported.
  randomized      seeded sample of colorings, each searched exhaustively or up
                  to a node budget; can refute, never proves holds.
  counterexample  simulated-annealing descent on the number of candidate
                  subsets consistent with the coloring; a zero-energy coloring
                  is verified exhaustively before a refutation is reported.

Work counters are deterministic node counts, never wall-clock times.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

from .colorings import (
    Coloring,
    find_type_homogeneous,
    iter_big_member_subsets,
    random_coloring,
)
from .structures import (
    ClassKind,
    FinStructure,
    make_canonical,
    require_fields,
    subset_closure,
    subset_induces_member,
    subset_is_big,
)
from .tuple_types import tuple_type

DEFAULT_CEILING = 2 ** 26
_MATERIALIZE_CAP = 20  # largest universe whose subset lattice we enumerate


class SearchSpaceTooLarge(ValueError):
    """Raised when exhaustive enumeration would exceed the coloring ceiling."""


@dataclass(frozen=True)
class ArrowQuery:
    cls: ClassKind
    ambient_level: int
    sub_level: int
    arity: int
    colors: int

    def __post_init__(self):
        if self.ambient_level < 0 or self.sub_level < 0:
            raise ValueError("levels must be nonnegative")
        if self.arity < 1:
            raise ValueError("arity must be at least 1")
        if self.colors < 1:
            raise ValueError("colors must be at least 1")

    def to_doc(self) -> dict:
        return {
            "class": self.cls.to_doc(),
            "ambient_level": self.ambient_level,
            "sub_level": self.sub_level,
            "arity": self.arity,
            "colors": self.colors,
        }

    @staticmethod
    def from_doc(doc: dict) -> "ArrowQuery":
        require_fields(
            doc,
            {"class": dict, "ambient_level": int, "sub_level": int, "arity": int, "colors": int},
            "arrow query",
        )
        return ArrowQuery(
            ClassKind.from_doc(doc["class"]),
            doc["ambient_level"],
            doc["sub_level"],
            doc["arity"],
            doc["colors"],
        )


@dataclass
class Verdict:
    status: str  # "holds" | "fails" | "unknown"
    mode: str
    work: int
    colorings_checked: int
    counterexample: Coloring | None = None
    notes: tuple[str, ...] = ()

    def to_doc(self) -> dict:
        doc = {
            "status": self.status,
            "mode": self.mode,
            "work": self.work,
            "colorings_checked": self.colorings_checked,
            "notes": list(self.notes),
        }
        if self.counterexample is not None:
            doc["counterexample"] = self.counterexample.to_doc()
        return doc


def _candidate_groups(base: FinStructure, sub_level: int, arity: int, tuple_index: dict):
    """Materialized candidate subsets with their same-type tuple groups.

    Each candidate is paired with the groups of tuple-table indices that share
    a type within it; a coloring is consistent with the candidate exactly when
    every group is monochromatic, so singleton groups are dropped.
    """
    return [
        (cand, _same_type_groups(base, cand, arity, tuple_index))
        for cand in iter_big_member_subsets(base, sub_level)
    ]


def _same_type_groups(base: FinStructure, subset, arity: int, tuple_index: dict) -> list[list[int]]:
    """Tuple-table indices of the `arity`-tuples of `subset`, grouped by type;
    singleton groups are dropped."""
    groups: dict = {}
    for combo in itertools.combinations(subset, arity):
        groups.setdefault(tuple_type(base, combo), []).append(tuple_index[combo])
    return [g for g in groups.values() if len(g) > 1]


def _advance(digits: list[int], colors: int) -> bool:
    """Step the odometer to the next coloring; False once it wraps around."""
    i = len(digits) - 1
    while i >= 0:
        digits[i] += 1
        if digits[i] < colors:
            return True
        digits[i] = 0
        i -= 1
    return False


def _consistent(digits: list[int], groups) -> bool:
    for g in groups:
        c0 = digits[g[0]]
        for gi in g[1:]:
            if digits[gi] != c0:
                return False
    return True


def verify_refutation(query: ArrowQuery, col: Coloring) -> bool:
    """Independent exhaustive check that a coloring refutes the query."""
    base = make_canonical(query.cls, query.ambient_level)
    if col.base != base or col.arity != query.arity or col.colors != query.colors:
        return False
    if not col.is_total():
        return False
    res = find_type_homogeneous(col, query.sub_level)
    return res.exhaustive and not res.found


def _exhaustive(query: ArrowQuery, ceiling: int) -> Verdict:
    base = make_canonical(query.cls, query.ambient_level)
    tuples = list(itertools.combinations(range(base.size), query.arity))
    ntup = len(tuples)
    total = query.colors ** ntup
    if total > ceiling:
        raise SearchSpaceTooLarge(
            f"{query.colors}^{ntup} colorings exceed the ceiling {ceiling}; "
            "use the randomized or counterexample mode"
        )
    tuple_index = {tup: i for i, tup in enumerate(tuples)}
    work = 0
    if base.size <= _MATERIALIZE_CAP:
        cands = _candidate_groups(base, query.sub_level, query.arity, tuple_index)
        work += len(cands)
        for cand, groups in cands:
            if not groups:
                # every tuple of this candidate has its own type, so any
                # coloring whatsoever is homogeneous on it
                return Verdict(
                    "holds",
                    "exhaustive",
                    work,
                    0,
                    notes=(
                        f"subset {list(cand)} realizes pairwise distinct types",
                    ),
                )
        digits = [0] * ntup
        checked = 0
        while True:
            checked += 1
            good = False
            for cand, groups in cands:
                work += 1
                if _consistent(digits, groups):
                    good = True
                    break
            if not good:
                col = Coloring(
                    base,
                    query.arity,
                    query.colors,
                    {tuples[i]: digits[i] for i in range(ntup)},
                )
                if not verify_refutation(query, col):
                    raise AssertionError(
                        "candidate scan and direct search disagree on a coloring"
                    )
                return Verdict("fails", "exhaustive", work, checked, col)
            if not _advance(digits, query.colors):
                return Verdict("holds", "exhaustive", work, checked)
    # universe too large for the subset lattice: search each coloring directly
    digits = [0] * ntup
    col = Coloring(base, query.arity, query.colors, {tup: 0 for tup in tuples})
    checked = 0
    while True:
        checked += 1
        for i, tup in enumerate(tuples):
            col.table[tup] = digits[i]
        res = find_type_homogeneous(col, query.sub_level)
        work += res.nodes
        if not res.found:
            frozen = col.copy()
            if not verify_refutation(query, frozen):
                raise AssertionError("refutation failed independent verification")
            return Verdict("fails", "exhaustive", work, checked, frozen)
        if not _advance(digits, query.colors):
            return Verdict("holds", "exhaustive", work, checked)


def _randomized(query: ArrowQuery, seed: int, samples: int, budget: int | None) -> Verdict:
    base = make_canonical(query.cls, query.ambient_level)
    rng = random.Random(seed)
    work = 0
    inconclusive = 0
    for k in range(samples):
        sub_seed = rng.randrange(2 ** 32)
        col = random_coloring(base, query.arity, query.colors, sub_seed)
        res = find_type_homogeneous(col, query.sub_level, budget=budget)
        work += res.nodes
        if res.found:
            continue
        if res.exhaustive:
            return Verdict(
                "fails",
                "randomized",
                work,
                k + 1,
                col,
                notes=(f"sample {k} (seed {sub_seed}) admits no homogeneous subset",),
            )
        inconclusive += 1
    notes = (f"{samples} samples searched, {inconclusive} hit the budget",)
    return Verdict("unknown", "randomized", work, samples, notes=notes)


def _counterexample(query: ArrowQuery, seed: int, budget: int | None) -> Verdict:
    base = make_canonical(query.cls, query.ambient_level)
    tuples = list(itertools.combinations(range(base.size), query.arity))
    ntup = len(tuples)
    tuple_index = {tup: i for i, tup in enumerate(tuples)}
    rng = random.Random(seed)

    enumerated = base.size <= _MATERIALIZE_CAP
    if enumerated:
        pool = _candidate_groups(base, query.sub_level, query.arity, tuple_index)
    else:
        # seeded sample of candidate subsets; misses are repaired below by
        # adding whatever the verification search finds
        pool = []
        seen = set()
        target = min(2 * base.size, 64)
        for _ in range(40 * target):
            if len(pool) >= target:
                break
            keep = [e for e in range(base.size) if rng.random() < 0.5]
            closed = subset_closure(base, keep)
            if closed in seen:
                continue
            if subset_induces_member(base, closed) and subset_is_big(base, closed, query.sub_level):
                seen.add(closed)
                pool.append((closed, _same_type_groups(base, closed, query.arity, tuple_index)))
    if not pool:
        return Verdict(
            "unknown",
            "counterexample",
            0,
            0,
            notes=("no candidate subsets found to steer the descent",),
        )
    for cand, groups in pool:
        if not groups:
            return Verdict(
                "unknown",
                "counterexample",
                len(pool),
                0,
                notes=(
                    f"subset {list(cand)} realizes pairwise distinct types; "
                    "no coloring can refute the query",
                ),
            )

    digits = [rng.randrange(query.colors) for _ in range(ntup)]

    def energy() -> int:
        return sum(1 for _, groups in pool if _consistent(digits, groups))

    steps = budget if budget is not None else 20000
    e = energy()
    work = 0
    attempts = 0
    temp0 = max(1.0, len(pool) / 4)
    for step in range(steps):
        work += 1
        if e == 0:
            attempts += 1
            col = Coloring(
                base,
                query.arity,
                query.colors,
                {tuples[i]: digits[i] for i in range(ntup)},
            )
            res = find_type_homogeneous(col, query.sub_level)
            work += res.nodes
            if res.exhaustive and not res.found:
                return Verdict(
                    "fails",
                    "counterexample",
                    work,
                    attempts,
                    col,
                    notes=(f"refutation found after {step} flips",),
                )
            if enumerated:
                raise AssertionError(
                    "enumerated candidate pool and direct search disagree"
                )
            # the sampled pool missed this subset; learn it and keep going
            pool.append((res.subset, _same_type_groups(base, res.subset, query.arity, tuple_index)))
            e = energy()
            continue
        temp = temp0 * (0.999 ** step)
        i = rng.randrange(ntup)
        old = digits[i]
        new = rng.randrange(query.colors)
        if new == old:
            continue
        digits[i] = new
        e2 = energy()
        if e2 <= e or rng.random() < math.exp((e - e2) / max(temp, 1e-9)):
            e = e2
        else:
            digits[i] = old
    return Verdict(
        "unknown",
        "counterexample",
        work,
        attempts,
        notes=(f"no refutation within {steps} flips (final energy {e})",),
    )


def arrow_check(
    query: ArrowQuery,
    mode: str = "exhaustive",
    seed: int = 0,
    samples: int = 200,
    budget: int | None = None,
    ceiling: int = DEFAULT_CEILING,
) -> Verdict:
    """Decide or probe the partition relation for `query`.  See the module
    docstring for the three modes."""
    if mode == "exhaustive":
        return _exhaustive(query, ceiling)
    if mode == "randomized":
        return _randomized(query, seed, samples, budget)
    if mode == "counterexample":
        return _counterexample(query, seed, budget)
    raise ValueError(f"unknown mode {mode!r}")


@dataclass
class TableReport:
    cls: ClassKind
    arity: int
    colors: int
    rows: list = field(default_factory=list)
    least_holds: dict = field(default_factory=dict)

    def to_doc(self) -> dict:
        return {
            "class": self.cls.to_doc(),
            "arity": self.arity,
            "colors": self.colors,
            "rows": self.rows,
            "least_holds": {str(mu): lam for mu, lam in sorted(self.least_holds.items())},
        }


def ramsey_table(
    cls: ClassKind,
    arity: int,
    colors: int,
    sub_levels,
    ambient_levels,
    mode: str = "exhaustive",
    seed: int = 0,
    samples: int = 200,
    budget: int | None = None,
    ceiling: int = DEFAULT_CEILING,
) -> TableReport:
    """Verdict grid over (ambient, sub) level pairs plus, per sub level, the
    least ambient level at which the relation holds.

    Cross-checks the grid against the two monotonicities (verdicts improve
    with more ambient room and with a smaller target) and raises on any
    violation, since one would mean an implementation bug.
    """
    sub_levels = sorted(set(sub_levels))
    ambient_levels = sorted(set(ambient_levels))
    report = TableReport(cls, arity, colors)
    status: dict[tuple[int, int], str] = {}
    for mu in sub_levels:
        for lam in ambient_levels:
            verdict = arrow_check(
                ArrowQuery(cls, lam, mu, arity, colors),
                mode=mode,
                seed=seed,
                samples=samples,
                budget=budget,
                ceiling=ceiling,
            )
            status[(lam, mu)] = verdict.status
            report.rows.append(
                {
                    "ambient_level": lam,
                    "sub_level": mu,
                    "status": verdict.status,
                    "work": verdict.work,
                }
            )
    for mu in sub_levels:
        for lo, hi in itertools.combinations(ambient_levels, 2):
            if status[(lo, mu)] == "holds" and status[(hi, mu)] == "fails":
                raise AssertionError(
                    f"monotonicity violated in ambient level at sub level {mu}"
                )
    for lam in ambient_levels:
        for lo, hi in itertools.combinations(sub_levels, 2):
            if status[(lam, hi)] == "holds" and status[(lam, lo)] == "fails":
                raise AssertionError(
                    f"monotonicity violated in sub level at ambient level {lam}"
                )
    for mu in sub_levels:
        held = [lam for lam in ambient_levels if status[(lam, mu)] == "holds"]
        report.least_holds[mu] = min(held) if held else None
    return report
