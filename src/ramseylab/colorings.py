"""Colorings of increasing tuples and type-homogeneous subsets.

A coloring assigns one of c colors to every increasing n-tuple of a base
structure.  A subset is type-homogeneous when the color of a tuple inside it
depends only on the tuple's quantifier-free type; the witness is the induced
map from realized types to colors.

Candidate subsets are always closed under the class functions before anything
else happens, so types computed in the ambient base agree with types computed
in the induced structure.  One per-kind rule, `Kind.admit`, decides which
subsets are closed and induce members (for chi_color the positional ones, the
j-th element carrying residue j), for the walker and for every check alike.

One depth-first walker, `_Walk`, serves every search over admissible
subsets, `find_type_homogeneous` and `iter_big_member_subsets` alike.  It
decides the elements in increasing order, include-first, pruning on the
admission rules, on witness conflicts when it carries a coloring, checked
forward onto the elements still to come, and on the per-group counts of
the elements a subset may still hold; the first subset it reaches is
therefore the lexicographically least qualifying one, which keeps every
search result deterministic and reproducible.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass, field

from .structures import (
    FinStructure,
    InternalCheckError,
    _is_int,
    from_doc as structure_from,
    is_member,
    require_fields,
    require_inside,
    subset_closure,
    subset_induces_member,
    subset_is_big,
    to_doc as structure_doc,
)
from .tuple_types import TupleType, require_tuple, type_coder, type_fragment

_INT = frozenset({int})
_LIST = frozenset({list})


class Coloring:
    """Total map from increasing `arity`-tuples of `base` to colors 0..colors-1.

    The table may deliberately cover only part of the tuple space when a
    search is restricted to a subset of the universe (extraction does this);
    `is_total` reports whether the full space is covered.  The constructor
    checks every color, bools refused; only `from_doc` checks the keys.

    `type_id` numbers tuple types once per coloring, in first-sight order
    (`_types`: tuple -> id; `type_of` reads the type back), interning each
    tuple's type code (`type_coder`, built on the first typing), which names
    the type within one base and arity; the fragment is computed and a
    `TupleType` built once per new code.  A tuple is checked to be an
    increasing `arity`-tuple inside the universe the first time it is
    typed, and a base that is not a member of its class types nothing;
    the walker and `arrow`'s tuple table intern theirs unchecked.
    Types depend on the base alone, so a repaint keeps every id; a `copy`
    starts afresh.
    """

    __slots__ = ("base", "arity", "colors", "table", "_types", "_codes", "_kinds", "_coder")

    def __init__(self, base: FinStructure, arity: int, colors: int, table: dict):
        if not (_is_int(arity) and arity >= 1 and _is_int(colors) and colors >= 1):
            raise ValueError(f"arity {arity!r} and colors {colors!r} must be integers of at least 1")
        self.base = base
        self.arity = arity
        self.colors = colors
        self.table = dict(table)
        values = self.table.values()
        # type() is exact, so a bool is refused; the range test reads the few distinct values
        if not (_INT.issuperset(map(type, values)) and all(0 <= c < colors for c in set(values))):
            tup, c = next(e for e in self.table.items() if type(e[1]) is not int or not 0 <= e[1] < colors)
            raise ValueError(f"color {c!r} for {tup} is not an integer in the palette 0..{colors - 1}")
        self._types: dict[tuple, int] = {}
        self._codes: dict = {}  # type code -> id
        self._kinds: list[TupleType] = []  # id -> type
        self._coder = None

    @classmethod
    def from_function(cls, base: FinStructure, arity: int, colors: int, fn) -> "Coloring":
        return cls(base, arity, colors, {tup: fn(tup) for tup in itertools.combinations(range(base.size), arity)})

    def color(self, tup: tuple[int, ...]) -> int:
        try:
            return self.table[tup]
        except KeyError:
            raise ValueError(f"coloring has no entry for tuple {tup}") from None

    def type_id(self, tup: tuple[int, ...]) -> int:
        t = self._types.get(tup)
        if t is None:
            require_tuple(self.base, tup)
            if len(tup) != self.arity:
                raise ValueError(f"tuple {tup} is not a {self.arity}-tuple")
            t = self._intern(tup)
        return t

    def _intern(self, tup: tuple[int, ...]) -> int:
        # type_id without its checks, for callers whose tuples are known to
        # be increasing `arity`-tuples inside the universe
        coder = self._coder
        if coder is None:
            coder = self._coder = type_coder(self.base)
        code = coder(tup)
        t = self._codes.get(code)
        if t is None:
            t = self._codes[code] = len(self._kinds)
            self._kinds.append(TupleType(self.base.cls, self.arity, type_fragment(self.base, tup)))
        self._types[tup] = t
        return t

    def type_of(self, tup: tuple[int, ...]) -> TupleType:
        return self._kinds[self.type_id(tup)]

    def all_tuples(self):
        return itertools.combinations(range(self.base.size), self.arity)

    def is_total(self) -> bool:
        return all(map(self.table.__contains__, self.all_tuples()))

    def entries(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.table.items())

    def copy(self) -> "Coloring":
        return Coloring(self.base, self.arity, self.colors, self.table)

    def to_doc(self) -> dict:
        return {
            "base": structure_doc(self.base),
            "arity": self.arity,
            "colors": self.colors,
            "entries": [[*tup, c] for tup, c in self.entries()],
        }

    @staticmethod
    def from_doc(doc: dict) -> "Coloring":
        """Inverse of `to_doc`.  Raises ValueError on a row that is not
        arity + 1 integers, a tuple that is not strictly increasing inside the
        universe, or a repeated tuple; the constructor checks the colors.  The
        table may be partial.  The rows are checked column by column first;
        when a check fails or a tuple repeats, they are read again row by row,
        to name the first bad one."""
        require_fields(doc, {"base": dict, "arity": int, "colors": int, "entries": list}, "coloring")
        base = structure_from(doc["base"])
        arity, entries, size = doc["arity"], doc["entries"], base.size
        # type() is exact, so bools and other int subclasses are refused
        if (
            arity >= 1
            and _LIST.issuperset(map(type, entries))
            and set(map(len, entries)) == {arity + 1}
            and _INT.issuperset(map(type, itertools.chain.from_iterable(entries)))
        ):
            cols = list(zip(*entries))
            if 0 <= min(cols[0]) and max(cols[arity - 1]) < size and all(
                all(map(operator.lt, a, b)) for a, b in zip(cols, cols[1:arity])
            ):
                col = Coloring(base, arity, doc["colors"], zip(zip(*cols[:arity]), cols[arity]))
                if len(col.table) == len(entries):
                    return col

        def pairs():
            for row in entries:
                if not (isinstance(row, list) and len(row) == arity + 1 and _INT.issuperset(map(type, row))):
                    raise ValueError(f"coloring entry {row!r} is not {arity + 1} integers")
                tup = tuple(row[:arity])
                if not (0 <= tup[0] and tup[-1] < size and all(map(operator.lt, tup, tup[1:]))):
                    raise ValueError(f"coloring tuple {tup} is not increasing inside the universe 0..{size - 1}")
                yield tup, row[arity]
        # the constructor refuses a bad arity before it reads the first row
        col = Coloring(base, arity, doc["colors"], pairs())
        if len(col.table) != len(entries):
            seen: set = set()
            tup = next(tup for tup, _ in pairs() if tup in seen or seen.add(tup))
            raise ValueError(f"coloring tuple {tup} appears twice")
        return col


def random_colors(count: int, colors: int, seed: int) -> list[int]:
    """`count` colors drawn by random.Random(seed).randrange(colors), one
    after another; the seeded draw rule behind every random coloring.

    randrange(colors) draws `colors.bit_length()` random bits until they
    fall below `colors`; the loop below makes the same draws, without
    randrange's argument checks."""
    if colors < 1:
        raise ValueError("colors must be at least 1")
    getrandbits, bits = random.Random(seed).getrandbits, colors.bit_length()
    out = []
    for _ in range(count):
        r = getrandbits(bits)
        while r >= colors:
            r = getrandbits(bits)
        out.append(r)
    return out


def random_coloring(s: FinStructure, arity: int, colors: int, seed: int) -> Coloring:
    """Seeded uniform coloring.

    Colors are drawn by `random_colors` over the increasing tuples in
    lexicographic order, so a seed fixes the coloring completely.
    """
    digits = random_colors(math.comb(s.size, arity), colors, seed)
    return Coloring(s, arity, colors, dict(zip(itertools.combinations(range(s.size), arity), digits)))


@dataclass(frozen=True)
class HomogeneityWitness:
    """Map from realized tuple types to colors, sorted by type code."""

    entries: tuple[tuple[TupleType, int], ...]

    def as_dict(self) -> dict[TupleType, int]:
        return dict(self.entries)

    def to_doc(self) -> list:
        return [[t.to_doc(), c] for t, c in self.entries]

    @staticmethod
    def from_doc(doc: list) -> "HomogeneityWitness":
        require_fields({"entries": doc}, {"entries": [(dict, int)]}, "homogeneity witness")
        return HomogeneityWitness(
            tuple((TupleType.from_doc(t), c) for t, c in doc)
        )


def _witness_from_map(mapping: dict[TupleType, int]) -> HomogeneityWitness:
    return HomogeneityWitness(
        tuple(sorted(mapping.items(), key=lambda e: e[0].sort_key()))
    )


def type_homogeneity_witness(col: Coloring, subset) -> HomogeneityWitness | None:
    """Witness map for the closure of `subset`, or None when two tuples of the
    same type carry different colors.

    Raises ValueError when the closure does not induce a member of the class.
    """
    closed = subset_closure(col.base, subset)
    if not subset_induces_member(col.base, closed):
        raise ValueError("subset does not induce a member of the class")
    mapping: dict[TupleType, int] = {}
    for tup in itertools.combinations(closed, col.arity):
        c = col.color(tup)
        if mapping.setdefault(col.type_of(tup), c) != c:
            return None
    return _witness_from_map(mapping)


@dataclass
class SearchResult:
    subset: tuple[int, ...] | None
    witness: HomogeneityWitness | None
    exhaustive: bool
    nodes: int

    @property
    def found(self) -> bool:
        return self.subset is not None


class _Budget(Exception):
    pass


def _group_counts(base: FinStructure, level: int, elements: list[int]):
    """The walker's bigness bound as exact per-group counts: `group[j]` is
    the group of `elements[j]`, and `count(reach)` gives, over the elements
    set in the bitmask `reach`, each group's surplus (its count less its
    quota, `Kind.quotas(base, level)`) and `short`, `Kind.needed` less the
    number of groups at quota.  The slack, the needed-th largest surplus,
    is how many elements may go, whichever they are, before fewer than
    `needed` groups hold their quotas; it is negative exactly when `short`
    is positive.  At level 0 every subset is big: one group, quota 0."""
    spec = base.cls.spec
    needed, quotas = (1, [0]) if level == 0 else (spec.needed(base.cls, level), spec.quotas(base, level))
    if len(quotas) == 1:  # the one group holds every element
        group, masks = [0] * len(elements), [(1 << len(elements)) - 1]
    else:
        group, masks = [spec.group_of(base, e) for e in elements], [0] * len(quotas)
        for j, g in enumerate(group):
            masks[g] |= 1 << j
    groups = list(zip(masks, quotas))

    def count(reach: int) -> tuple[list[int], int]:
        surplus = [(reach & m).bit_count() - q for m, q in groups]
        return surplus, needed - len([r for r in surplus if r >= 0])

    return group, count


def _row(col: Coloring, elements: list[int], combo: tuple, after: int) -> dict[int, list[int]]:
    """The forward-checking row of `combo`: each type id of a tuple combo +
    (elements[j],), j > after, mapped to one bitmask over j per color c, of
    the j whose tuple has that type and a color other than c.  A tuple
    with no entry in the table is left out; taking it reports the gap."""
    types, table, intern = col._types, col.table, col._intern
    by_type: dict[int, list[int]] = {}
    for j in range(after + 1, len(elements)):
        tup = combo + (elements[j],)
        c = table.get(tup)
        if c is None:
            continue
        t = types.get(tup)
        if t is None:
            t = intern(tup)
        masks = by_type.get(t)
        if masks is None:
            masks = by_type[t] = [0] * col.colors
        masks[c] |= 1 << j
    row = {}
    for t, masks in by_type.items():
        every = 0
        for m in masks:
            every |= m
        row[t] = [every ^ m for m in masks]
    return row


@dataclass(eq=False)
class _Walk:
    """Depth-first walk over the admissible subsets of `elements`.

    `elements` are increasing; each is decided in turn, include-first, so
    subsets come out in lexicographic order.  An element is taken only when
    it passes the kind's membership veto, `Kind.admit`, and, when a
    coloring is given, keeps the incrementally maintained type -> color
    witness consistent, which is keyed by `Coloring.type_id`.

    One int bitmask over the indices of `elements`, `avail`, holds the
    chosen elements and the undecided ones that some completion may still
    take; stepping past an element clears its bit.  With a coloring of
    tuples of two or more elements the walk also checks forward (Haralick &
    Elliott 1980): an element is blocked, its bit cleared, when some tuple
    of it with arity - 1 chosen elements has a type that the witness
    already fixes to another color, and the walk steps over blocked
    elements without typing them.  The blocks come from rows (`_row`), one
    per chosen (arity - 1)-combination, each mapping a type id and a
    witness color to the later elements whose tuple with the combination
    has that type and another color.  A combination's row is built when the
    walk takes the combination's last element again, after the first
    subtree holding that element failed, so a first dive types no more
    tuples than a walk without rows; a combination with no row blocks
    nothing.  A take clears the masks of every fixed type from each new
    combination's row and of each newly fixed type from every chosen
    combination's row; undoing the take restores the saved `avail`.

    At node (chosen, i) `avail` is chosen + free, where free holds the
    elements from i on that may still be taken.  The group counts of
    `avail` are the walk's only bigness bound, kept exact as one surplus
    per group and `short` (`_group_counts`), and the walk prunes when
    `short` is positive.  Stepping past an element lowers its group's
    surplus alone, and raises `short` when that falls to -1.  A take saves
    the counts for its undo, and counts afresh from the group masks only
    when its blocks change `avail`.  With nothing blocked,
    as without a coloring, the bound is the one the counts of
    chosen + elements[i:] give.  Iterating yields every closed,
    member-inducing subset reached that `Kind.subset_big` finds level-big
    (every one at level 0), asked only from the least big size
    `least = Kind.min_size(cls, level)` on.  `nodes` counts the visited
    search nodes, one per step into a branch or out of a dead end and none
    per blocked element stepped over; visiting more than `budget` of them
    raises `_Budget`.

    The path is kept in a list, not on the call stack, so the depth of a
    walk is not bounded by Python's recursion limit.
    """

    base: FinStructure
    level: int
    elements: list[int]
    col: Coloring | None = None
    budget: int | None = None
    nodes: int = field(default=0, init=False)

    def __iter__(self):
        base, level, elements, col, budget = self.base, self.level, self.elements, self.col, self.budget
        spec = base.cls.spec
        veto, big = spec.admit, spec.subset_big
        least = spec.min_size(base.cls, level)
        group, count = _group_counts(base, level, elements)
        forward = col is not None and col.arity > 1
        if col is not None:
            types, table, intern, color, arity = col._types, col.table, col._intern, col.color, col.arity
        combinations = itertools.combinations
        chosen: list[int] = []
        witness: dict[int, int] = {}
        rows: dict[tuple, dict] = {}  # combination -> its row, once built
        live: list[dict] = []  # the rows of the chosen combinations

        if level == 0:
            yield ()
        # The node visited is (i, changed): elements before i are decided, and
        # changed says whether the step into it took an element.  `taken`
        # holds (index, witness type ids it added, and avail, len(live) and
        # the group counts before it) for each element taken on the current
        # path.  A dead end backtracks to the latest of them, undoes it and
        # visits the branch without it; a vetoed element, or one whose tuples
        # conflict with the witness, goes straight to the branch without it,
        # once the witness types it fixed are undone.  `seen` marks the
        # elements ever taken.
        taken: list[tuple[int, list[int], int, int, list[int], int]] = []
        i, changed = 0, False
        nodes, seen = 0, 0
        avail = (1 << len(elements)) - 1
        surplus, short = count(avail)
        while True:
            nodes += 1
            if budget is not None and nodes > budget:
                self.nodes = nodes
                raise _Budget
            k = len(chosen)
            if changed and k >= least and (level == 0 or big(base, chosen, level)):
                self.nodes = nodes
                yield tuple(chosen)
            free = avail >> i << i
            if free and short <= 0:
                if not avail >> i & 1:  # step over blocked elements
                    i = (free & -free).bit_length() - 1
                e = elements[i]
                added: list[int] = []
                if veto is None or veto(base, chosen, e):
                    # with no coloring there is no tuple to check
                    for combo in combinations(chosen, arity - 1) if col is not None else ():
                        tup = combo + (e,)
                        t = types.get(tup)
                        if t is None:
                            t = intern(tup)
                        c = table.get(tup)
                        if c is None:  # raises ValueError for a missing entry
                            c = color(tup)
                        known = witness.get(t)
                        if known is None:
                            witness[t] = c
                            added.append(t)
                        elif known != c:
                            break
                    else:
                        taken.append((i, added, avail, len(live), surplus, short))
                        if forward:
                            for row in live if added and live else ():
                                for t in added:
                                    masks = row.get(t)
                                    if masks is not None:
                                        avail &= ~masks[witness[t]]
                            if seen >> i & 1:
                                for combo in combinations(chosen, arity - 2):
                                    combo += (e,)
                                    row = rows.get(combo)
                                    if row is None:
                                        row = rows[combo] = _row(col, elements, combo, i)
                                    live.append(row)
                                    for t, masks in row.items():
                                        c = witness.get(t)
                                        if c is not None:
                                            avail &= ~masks[c]
                            else:
                                seen |= 1 << i
                        chosen.append(e)
                        surplus, short = count(avail) if avail != taken[-1][2] else (surplus[:], short)
                        i, changed = i + 1, True
                        continue
            elif not taken:
                self.nodes = nodes
                return
            else:
                i, added, avail, depth, surplus, short = taken.pop()
                chosen.pop()
                del live[depth:]
            for t in added:
                del witness[t]
            avail ^= 1 << i
            g = group[i]
            surplus[g] -= 1
            short += surplus[g] == -1
            i, changed = i + 1, False


def _elements(base: FinStructure, within) -> list[int]:
    if within is None:
        return list(range(base.size))
    elements = list(within)
    if not all(map(_is_int, elements)):
        raise ValueError(f"within {elements!r} holds a non-integer")
    elements = sorted(set(elements))
    require_inside(base, elements)
    return elements


def find_type_homogeneous(
    col: Coloring,
    level: int,
    budget: int | None = None,
    within=None,
) -> SearchResult:
    """Search for a closed, member-inducing, level-big, type-homogeneous
    subset of the base.

    Returns the lexicographically least such subset with its witness.  An
    absent result is a proof of nonexistence only when `exhaustive` is true;
    a budget (in visited search nodes) can cut the search short, which the
    flag records.  `within` restricts the search to a subset of the universe.
    """
    base = col.base
    if level < 0:
        raise ValueError("level must be nonnegative")
    if budget is not None and budget < 0:
        raise ValueError("budget must be nonnegative")
    if not is_member(base):
        raise ValueError("coloring base is not a member of its class")
    walk = _Walk(base, level, _elements(base, within), col, budget)
    try:
        found = next(iter(walk), None)
    except _Budget:
        return SearchResult(None, None, False, walk.nodes)
    if found is None:
        return SearchResult(None, None, True, walk.nodes)
    verified = type_homogeneity_witness(col, found)
    if verified is None or not subset_is_big(base, found, level):
        raise InternalCheckError("search returned a subset that fails re-verification")
    return SearchResult(found, verified, True, walk.nodes)


def iter_big_member_subsets(base: FinStructure, level: int, within=None):
    """Yield every closed, member-inducing, level-big subset of the member
    `base` in lexicographic order; meant for small universes (arrow checks)."""
    if level < 0:
        raise ValueError("level must be nonnegative")
    if not is_member(base):
        raise ValueError("base is not a member of its class")
    yield from _Walk(base, level, _elements(base, within))
