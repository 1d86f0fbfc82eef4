"""Finite structural partition relation checks.

A query asks whether every coloring of the increasing `arity`-tuples of the
canonical `ambient_level`-big structure with `colors` colors admits a closed,
member-inducing, `sub_level`-big, type-homogeneous subset.  For the classes
whose canonical structure embeds into every equally big member the verdict
transfers to arbitrary ambients; for ordered graphs and hypergraphs it is a
statement about the canonical ambient only (see structures.embeds_canonically).

Homogeneity is hereditary, so the candidate pool of a query is the minimal
big subsets of its ambient (structures.minimal_big_subsets), at most
`_POOL_CAP` of them, each with its same-type groups.

Three modes:

  exhaustive      certify every coloring through one coloring per orbit
                  under renaming the colors, by scanning the pool when it
                  fits under the bound and there are two or more colors, or
                  else by searching the coloring directly.
  randomized      seeded sample of colorings; can refute, never proves
                  holds.  A sample that admits no homogeneous subset is the
                  refutation.  Each sample is decided on the pool: it has
                  a homogeneous subset exactly when some candidate is
                  homogeneous on it, which the candidates' `_ties` test in
                  pool order; the work is the candidates tested.  A pool
                  over the bound is not built, and each sample is searched
                  instead, exhaustively or up to a node budget, for work
                  counted in search nodes.
  counterexample  focused Metropolis descent on the number of pool candidates
                  consistent with the coloring (the live ones).  Each step
                  draws a live candidate, one tuple of its same-type groups
                  and another color for it, flips it, and undoes an uphill
                  flip with probability 1 - exp(-delta / T) at the fixed
                  temperature T = `_TEMPERATURE`, after WalkSAT (Selman,
                  Kautz & Cohen 1994) and focused Metropolis search (Seitz,
                  Alava & Orponen 2005).  The energy and the live list are
                  kept exact across single-tuple flips by updating only the
                  same-type groups that hold the flipped tuple.  The pool is
                  complete, so a zero-energy coloring is a refutation; a pool
                  over the bound gives `unknown` and no descent, and so does
                  one color, which leaves no move.

Every engine returns its `fails` through `_refuted`, which re-verifies a
copy of the refuting coloring with `verify_refutation`, an exhaustive walker
search: another engine for the pool's refutations, the same one run again for
the walker's own; and raises InternalCheckError if it does not refute.

One tuple table per query serves every engine: the increasing tuples in
lexicographic order and one coloring over them that the engines repaint,
whose `Coloring.type_id` types each tuple once per query, however many
candidates hold it and samples search it.  The pool scan is bit-parallel
(bit-slicing, Biham 1997; broadword computing, Knuth, TAOCP 4A 7.1.3): it
takes the colorings in blocks of at most 2^`_BLOCK_BITS`, one bit each,
that share their leading digits and run through every value of their
trailing ones, and tests a whole block against a candidate in a few
integer operations.  A coloring's position is its index in
`itertools.product` order; a refuting coloring's digits are decoded from
its index only when one is found.

Renaming the colors never changes whether a coloring admits a homogeneous
subset, so the exhaustive mode visits, in product order, only the
restricted-growth colorings (`_restricted_growth`), one per orbit and the
least of it: about colors^ntup / colors! of them.  The first refuting
coloring in product order is the least of its orbit, so the refutation
found is the same.  `colorings_checked` counts the colorings certified, not
those visited: colors^ntup on a `holds`, and the product index of the
refutation plus one on a `fails`.  `work` counts what was done for the
colorings visited.  Work counters are deterministic counts (candidates
scanned or tested, search nodes, flips), never wall-clock times.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field

from .colorings import Coloring, find_type_homogeneous, random_colors
from .structures import (
    ClassKind,
    InternalCheckError,
    _is_int,
    make_canonical,
    minimal_big_subsets,
    require_fields,
)

DEFAULT_CEILING = 2 ** 26
_POOL_CAP = 2 ** 16  # most minimal candidate subsets a pool holds
_TEMPERATURE = 0.4  # of the counterexample descent's Metropolis acceptance
_BLOCK_BITS = 12  # a block of the pool scan holds at most 2^12 colorings


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
        if not all(map(_is_int, (self.ambient_level, self.sub_level, self.arity, self.colors))):
            raise ValueError(f"levels, arity and colors must be integers: {self}")
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


class _TupleTable:
    """The increasing `arity`-tuples of a query's canonical ambient, in
    lexicographic order, with one coloring over them that the engines paint
    and whose type ids key the same-type groups."""

    def __init__(self, query: ArrowQuery):
        self.base = make_canonical(query.cls, query.ambient_level)
        self.tuples = list(itertools.combinations(range(self.base.size), query.arity))
        self.index = {tup: i for i, tup in enumerate(self.tuples)}
        self.col = Coloring(self.base, query.arity, query.colors, dict.fromkeys(self.tuples, 0))

    def paint(self, digits) -> Coloring:
        """The shared coloring with tuple i colored digits[i]."""
        self.col.table.update(zip(self.tuples, digits))
        return self.col

    def groups(self, subset) -> list[list[int]]:
        """Table indices of the `arity`-tuples of `subset`, grouped by type.

        A coloring is consistent with the subset exactly when every group is
        monochromatic, so singleton groups are dropped.
        """
        groups: dict[int, list[int]] = {}
        type_id, index = self.col.type_id, self.index
        for combo in itertools.combinations(subset, self.col.arity):
            groups.setdefault(type_id(combo), []).append(index[combo])
        return [g for g in groups.values() if len(g) > 1]

    def candidates(self, sub_level: int) -> list | None:
        """Every minimal `sub_level`-big subset of the ambient with its
        same-type groups, or None when there are more than `_POOL_CAP`."""
        cands = list(itertools.islice(minimal_big_subsets(self.base, sub_level), _POOL_CAP + 1))
        if len(cands) > _POOL_CAP:
            return None
        return [(cand, self.groups(cand)) for cand in cands]


def _distinct_types(pool) -> str | None:
    """A note naming a candidate that realizes pairwise distinct types, so
    that every coloring whatsoever is homogeneous on it and the query holds,
    or None when there is no such candidate."""
    for cand, groups in pool:
        if not groups:
            return f"subset {list(cand)} realizes pairwise distinct types"
    return None


class _Energy:
    """The number of pool candidates consistent with `digits` (every
    same-type group monochromatic), kept exact across single-tuple flips.

    Each group keeps a count of its tuples in every color, each candidate the
    number of its groups that are not monochromatic, and each tuple index the
    groups that hold it.  A tuple lies in at most one group of a candidate,
    so a flip walks only the groups listed for that tuple.  The consistent
    (live) candidates are kept in the list `live`, with each one's position
    in `at`, so a flip adds or swap-removes a candidate in O(1) and the
    energy is the length of the list.  `digits` is shared with the caller
    and changed only through `flip`.
    """

    def __init__(self, pool, digits: list[int], colors: int):
        self.digits = digits
        self.mixed: list[int] = []  # per candidate: groups not monochromatic
        self.holders: list[list] = [[] for _ in digits]
        for k, (_, groups) in enumerate(pool):
            mixed = 0
            for g in groups:
                counts = [0] * colors
                for i in g:
                    counts[digits[i]] += 1
                entry = (counts, len(g), k)
                for i in g:
                    self.holders[i].append(entry)
                mixed += max(counts) < len(g)
            self.mixed.append(mixed)
        self.live = [k for k, mixed in enumerate(self.mixed) if not mixed]
        self.at = [0] * len(self.mixed)  # position in `live`, while live
        for j, k in enumerate(self.live):
            self.at[k] = j

    @property
    def value(self) -> int:
        return len(self.live)

    def flip(self, i: int, new: int) -> int:
        """Paint tuple i with color `new`; returns the change in energy."""
        old = self.digits[i]
        self.digits[i] = new
        mixed, live, at = self.mixed, self.live, self.at
        delta = 0
        for counts, size, k in self.holders[i]:
            if counts[old] == size:
                if not mixed[k]:
                    delta -= 1
                    last = live.pop()
                    if last != k:
                        live[at[k]] = last
                        at[last] = at[k]
                mixed[k] += 1
            counts[old] -= 1
            counts[new] += 1
            if counts[new] == size:
                mixed[k] -= 1
                if not mixed[k]:
                    delta += 1
                    at[k] = len(live)
                    live.append(k)
        return delta


def verify_refutation(query: ArrowQuery, col: Coloring) -> bool:
    """Exhaustive walker check that a coloring refutes the query: independent
    of the pool scan and the descent, but the same search again for the walker's own."""
    base = make_canonical(query.cls, query.ambient_level)
    if col.base != base or col.arity != query.arity or col.colors != query.colors:
        return False
    if not col.is_total():
        return False
    res = find_type_homogeneous(col, query.sub_level)
    return res.exhaustive and not res.found


def _refuted(query: ArrowQuery, col: Coloring, mode: str, work: int, checked: int, *notes: str) -> Verdict:
    """The `fails` verdict of every engine: a copy of the refuting coloring,
    re-verified by `verify_refutation` before it is reported."""
    col = col.copy()
    if not verify_refutation(query, col):
        raise InternalCheckError(f"{mode} refutation failed independent verification")
    return Verdict("fails", mode, work, checked, col, notes)


def _product_digits(k: int, colors: int, ntup: int) -> list[int]:
    """The k-th element of `itertools.product(range(colors), repeat=ntup)`."""
    digits = [0] * ntup
    for i in range(ntup - 1, -1, -1):
        k, digits[i] = divmod(k, colors)
    return digits


def _product_index(digits, colors: int) -> int:
    """The index of `digits` in `itertools.product(range(colors), repeat=len(digits))`."""
    k = 0
    for d in digits:
        k = k * colors + d
    return k


def _restricted_growth(ntup: int, colors: int):
    """The colorings of `ntup` tuples that are restricted-growth strings, in
    `itertools.product` order: tuple 0 is colored 0, and each tuple's color
    is at most one more than the largest color before it.  Each orbit of
    colorings under renaming the colors holds exactly one such string, its
    lexicographically least member (value precedence, Law & Lee 2004;
    Knuth, TAOCP 4A 7.2.1.5); the module docstring says why that suffices.

    Yields the digits of every string, one list updated in place: the color
    of each tuple.  A step touches only the digits that change.
    """
    digits = [0] * ntup
    yield digits
    if ntup < 2:
        return
    top = colors - 1
    # cap[i] = min(1 + max(digits[:i]), top), the most digit i may reach;
    # digit 0 stays 0, and its cap 1 stops every carry there
    cap = [min(1, top)] * ntup
    cap[0] = 1
    last = ntup - 1
    while True:
        i = last
        while digits[i] == cap[i]:
            i -= 1
        if not i:
            return
        digits[i] += 1
        if i < last:
            # the digits after i were at their caps; they restart at 0 under
            # the cap that digit i's new value sets
            new = cap[i] + (digits[i] == cap[i] < top)
            for j in range(i + 1, ntup):
                digits[j] = 0
                cap[j] = new
        yield digits


@functools.cache
def _block_masks(colors: int, low: int) -> tuple[tuple, tuple]:
    """The masks of a pool scan block whose `low` trailing digits run
    through its colors**low positions in product order, position p at bit p:

    pattern[j][x]: the positions where trailing digit j is x, runs of `run`
    repeating with period run * colors, built by doubling;

    growth[m + 1]: the positions whose trailing digits continue a prefix
    whose largest digit is m (-1 for no prefix) as a restricted-growth
    string, built by the first trailing digit t over growth one digit
    shorter: t <= m keeps m, t = m + 1 raises it, and a 0 past the top
    stops it.
    """
    size = colors ** low
    full = (1 << size) - 1
    pattern = []
    for j in range(low):
        run = colors ** (low - 1 - j)
        zero, span = (1 << run) - 1, run * colors
        while span < size:
            zero |= zero << span
            span *= 2
        pattern.append(tuple((zero & full) << (x * run) for x in range(colors)))
    growth, width = [1] * (colors + 1) + [0], 1
    for _ in range(low):
        rep, grown = 0, [growth[1]]
        for m in range(colors):
            rep |= 1 << (m * width)
            grown.append(growth[m + 1] * rep | growth[m + 2] << (m + 1) * width)
        growth, width = grown + [0], width * colors
    return tuple(pattern), tuple(growth)


def _scan_pool(cands, ntup: int, colors: int) -> tuple[int, int | None]:
    """Scan one coloring per orbit under renaming the colors (see
    `_restricted_growth`), in `itertools.product` order, against the pool
    `cands` until one has no consistent candidate.  Returns the work, the
    1-based index of the first consistent candidate summed over the
    colorings scanned (the pool size for one with none), and the product
    index of the first coloring with no consistent candidate, or None.

    The colorings go in blocks of `colors`**low, one bit each: the leading
    `high` digits are one restricted-growth prefix, and position p of the
    block gives the trailing `low` digits the product index p.  Each set of
    positions is one integer, so one integer operation tests the whole block.
    """
    low = 0
    while low < ntup and colors ** (low + 1) <= 1 << _BLOCK_BITS:
        low += 1
    high, size = ntup - low, colors ** low
    full = (1 << size) - 1
    pattern, growth = _block_masks(colors, low)
    # per candidate, the positions where its wholly trailing groups are
    # monochromatic, and its other groups as (first tuple, mask of leading
    # tuples, patterns of the trailing ones); a group is monochromatic on
    # the OR over colors of the AND of its tuples' patterns
    pool = []
    for _, groups in cands:
        const, lead = full, []
        for g in groups:
            rows = [pattern[i - high] for i in g if i >= high]
            if min(g) < high:
                lead.append((min(g), sum(1 << i for i in g if i < high), rows))
                continue
            mono = 0
            for x in range(colors):
                each = full
                for row in rows:
                    each &= row[x]
                mono |= each
            const &= mono
        pool.append((const, lead))

    def scan(pre, left):
        # the work of the block of prefix `pre` over the positions `left`,
        # and those of them that no candidate covers; a group's leading
        # tuples are monochromatic when the prefix's mask of its first
        # tuple's color covers them
        cmasks = [0] * colors
        for i, x in enumerate(pre):
            cmasks[x] |= 1 << i
        work, count = 0, left.bit_count()
        for const, lead in pool:
            work += count
            cover = const
            for first, lm, rows in lead:
                x = pre[first]
                if cmasks[x] & lm != lm:
                    break
                for row in rows:
                    cover &= row[x]
            else:
                rest = left & ~cover
                if rest != left:
                    left, count = rest, rest.bit_count()
                    if not left:
                        break
        return work, left

    work = 0
    for pre in _restricted_growth(high, colors):
        start = growth[max(pre, default=-1) + 1]
        spent, left = scan(pre, start)
        if left:
            # the lowest position left refutes; the work stops there
            bit = (left & -left).bit_length() - 1
            spent, _ = scan(pre, start & ((2 << bit) - 1))
            return work + spent, _product_index(pre, colors) * size + bit
        work += spent
    return work, None


def _exhaustive(query: ArrowQuery, ceiling: int) -> Verdict:
    ntup = math.comb(make_canonical(query.cls, query.ambient_level).size, query.arity)
    # checked before the table is built; 2^ntup alone passes the ceiling once
    # ntup reaches its bit length, so the power is only formed while small
    if (query.colors > 1 and ntup >= ceiling.bit_length()) or query.colors ** ntup > ceiling:
        raise SearchSpaceTooLarge(
            f"{query.colors}^{ntup} colorings exceed the ceiling {ceiling}; "
            "use the randomized or counterexample mode"
        )
    table = _TupleTable(query)
    # one color leaves one coloring, which a direct search settles for less
    # than building the pool costs
    cands = table.candidates(query.sub_level) if query.colors > 1 else None
    if cands is not None:
        note = _distinct_types(cands)
        if note is not None:
            return Verdict("holds", "exhaustive", len(cands), 0, notes=(note,))
        # the cost is the candidates scanned per coloring
        work, failing = _scan_pool(cands, ntup, query.colors)
        work += len(cands)
    else:
        # too many candidates to hold, or one color: search one coloring per
        # orbit directly; the cost is the search nodes
        work = 0
        failing = None
        for digits in _restricted_growth(ntup, query.colors):
            res = find_type_homogeneous(table.paint(digits), query.sub_level)
            work += res.nodes
            if not res.found:
                failing = _product_index(digits, query.colors)
                break
    if failing is None:
        return Verdict("holds", "exhaustive", work, query.colors ** ntup)
    col = table.paint(_product_digits(failing, query.colors, ntup))
    return _refuted(query, col, "exhaustive", work, failing + 1)


def _ties(groups) -> list[tuple[int, int]]:
    """Each same-type group's first table index paired with each of its
    others: a coloring is homogeneous on the subset whose groups these are
    (`_TupleTable.groups`) exactly when it colors both of every pair alike."""
    return [(g[0], i) for g in groups for i in g[1:]]


def _first_homogeneous(pool, digits) -> int:
    """The 1-based position of the first subset in `pool`, each given by its
    `_ties`, on which `digits` is homogeneous, or 0 when there is none."""
    for pos, ties in enumerate(pool, 1):
        for i, j in ties:
            if digits[i] != digits[j]:
                break
        else:
            return pos
    return 0


def _randomized(query: ArrowQuery, seed: int, samples: int, budget: int | None) -> Verdict:
    """Search seeded samples for one that admits no homogeneous subset.

    Each sample is decided on the pool: homogeneity is hereditary, so it has
    a homogeneous subset exactly when some minimal candidate is homogeneous
    on it (`_first_homogeneous` over the candidates' `_ties`), and the work
    is the candidates tested.  Past `_POOL_CAP` each sample is painted and
    searched, up to `budget` nodes, and the work is the search nodes; the
    note counts the searches that hit the budget.
    """
    table = _TupleTable(query)
    cands = table.candidates(query.sub_level)
    pool = None if cands is None else [_ties(groups) for _, groups in cands]
    rng = random.Random(seed)
    work = inconclusive = 0
    for k in range(samples):
        sub_seed = rng.randrange(2 ** 32)
        digits = random_colors(len(table.tuples), query.colors, sub_seed)
        if pool is not None:
            tested = _first_homogeneous(pool, digits)
            work += tested or len(pool)
            if tested:
                continue
        else:
            res = find_type_homogeneous(table.paint(digits), query.sub_level, budget=budget)
            work += res.nodes
            if res.found or not res.exhaustive:
                inconclusive += not res.found  # the search hit the budget
                continue
        note = f"sample {k} (seed {sub_seed}) admits no homogeneous subset"
        return _refuted(query, table.paint(digits), "randomized", work, k + 1, note)
    notes = (f"{samples} samples searched, {inconclusive} hit the budget",)
    return Verdict("unknown", "randomized", work, samples, notes=notes)


def _counterexample(query: ArrowQuery, seed: int, budget: int | None) -> Verdict:
    table = _TupleTable(query)
    pool = table.candidates(query.sub_level)
    if pool is None:
        note = f"more than {_POOL_CAP} minimal candidate subsets; no descent was run"
        return Verdict("unknown", "counterexample", 0, 0, notes=(note,))
    note = _distinct_types(pool)
    if note is not None:
        note += "; no coloring can refute the query"
        return Verdict("unknown", "counterexample", len(pool), 0, notes=(note,))

    rng = random.Random(seed)
    colors = query.colors
    digits = [rng.randrange(colors) for _ in table.tuples]
    energy = _Energy(pool, digits, colors)
    live = energy.live
    if live and colors == 1:
        note = "one color leaves no move; 0 flips made"
        return Verdict("unknown", "counterexample", 0, 0, notes=(note,))
    # only recoloring a tuple of its same-type groups can break a candidate
    moves = [[i for g in groups for i in g] for _, groups in pool]
    steps = budget if budget is not None else 20000
    flips = 0
    while live:
        if flips == steps:
            note = f"no refutation within {steps} flips (final energy {len(live)})"
            return Verdict("unknown", "counterexample", steps, 0, notes=(note,))
        flips += 1
        ts = moves[live[rng.randrange(len(live))]]
        i = ts[rng.randrange(len(ts))]
        old = digits[i]
        delta = energy.flip(i, (old + 1 + rng.randrange(colors - 1)) % colors)
        if delta > 0 and rng.random() >= math.exp(-delta / _TEMPERATURE):
            energy.flip(i, old)
    # no candidate is homogeneous, and the pool holds them all
    note = f"refutation found after {flips} flips"
    return _refuted(query, table.paint(digits), "counterexample", flips, 1, note)


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
    if not all(map(_is_int, (seed, samples, ceiling))):
        raise ValueError(f"seed {seed!r}, samples {samples!r} and ceiling {ceiling!r} must be integers")
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    if budget is not None and not _is_int(budget):
        raise ValueError(f"budget {budget!r} must be None or an integer")
    if budget is not None and budget < 0:
        raise ValueError("budget must be nonnegative")
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


def ramsey_table(cls: ClassKind, arity: int, colors: int, sub_levels, ambient_levels, **probe) -> TableReport:
    """Verdict grid over (ambient, sub) level pairs plus, per sub level, the
    least ambient level at which the relation holds; each cell is
    `arrow_check(query, **probe)`.

    Cross-checks the grid against the two monotonicities (verdicts improve
    with more ambient room and with a smaller target): a cell that holds
    while a cell with no less ambient room and no larger target fails is an
    implementation bug, and raises InternalCheckError.  An empty level list
    is an input error: a grid with no cells checks nothing.
    """
    sub_levels = sorted(set(sub_levels))
    ambient_levels = sorted(set(ambient_levels))
    if not sub_levels or not ambient_levels:
        raise ValueError("sub and ambient level lists must be nonempty")
    report = TableReport(cls, arity, colors)
    status: dict[tuple[int, int], str] = {}
    for mu in sub_levels:
        for lam in ambient_levels:
            verdict = arrow_check(ArrowQuery(cls, lam, mu, arity, colors), **probe)
            status[(lam, mu)] = verdict.status
            report.rows.append(
                {
                    "ambient_level": lam,
                    "sub_level": mu,
                    "status": verdict.status,
                    "work": verdict.work,
                }
            )
    held = [cell for cell, s in status.items() if s == "holds"]
    failed = [cell for cell, s in status.items() if s == "fails"]
    for (lam, mu), (lam2, mu2) in itertools.product(held, failed):
        if lam <= lam2 and mu2 <= mu:
            raise InternalCheckError(
                f"monotonicity violated: holds at ambient {lam} sub {mu}, fails at ambient {lam2} sub {mu2}"
            )
    for mu in sub_levels:
        report.least_holds[mu] = min((lam for lam, m in held if m == mu), default=None)
    return report
