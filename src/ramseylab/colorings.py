"""Colorings of increasing tuples and type-homogeneous subsets.

A coloring assigns one of c colors to every increasing n-tuple of a base
structure.  A subset is type-homogeneous when the color of a tuple inside it
depends only on the tuple's quantifier-free type; the witness is the induced
map from realized types to colors.

Candidate subsets are always closed under the class functions before anything
else happens, so types computed in the ambient base agree with types computed
in the induced structure, and for chi_color only positional subsets (the j-th
element carrying residue j) are admitted, since only those induce members.

One depth-first walker, `_Walk`, serves every search over admissible
subsets.  It takes units (runs of increasing elements taken whole or not at
all) in increasing order, include-first, pruning on the admission rules, on
witness conflicts when it carries a coloring, and on cheap soundness bounds
for bigness; the first subset it reaches is therefore the lexicographically
least qualifying one, which keeps every search result deterministic and
reproducible.  `find_type_homogeneous` and `iter_big_member_subsets` walk
one element per unit; the block stage of `reductions.reduce_chicolor` walks
one residue block per unit.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .structures import (
    FinStructure,
    _is_int,
    from_doc as structure_from,
    is_member,
    require_fields,
    subset_closure,
    subset_induces_member,
    subset_is_big,
    to_doc as structure_doc,
)
from .tuple_types import TupleType, tuple_type


class Coloring:
    """Total map from increasing `arity`-tuples of `base` to colors 0..colors-1.

    The table may deliberately cover only part of the tuple space when a
    search is restricted to a subset of the universe (extraction does this);
    `is_total` reports whether the full space is covered.
    """

    __slots__ = ("base", "arity", "colors", "table", "_types")

    def __init__(self, base: FinStructure, arity: int, colors: int, table: dict):
        if arity < 1:
            raise ValueError("arity must be at least 1")
        if colors < 1:
            raise ValueError("colors must be at least 1")
        self.base = base
        self.arity = arity
        self.colors = colors
        self.table = dict(table)
        self._types: dict[tuple, TupleType] = {}

    @classmethod
    def from_function(cls, base: FinStructure, arity: int, colors: int, fn) -> "Coloring":
        table = {}
        for tup in itertools.combinations(range(base.size), arity):
            c = fn(tup)
            if not 0 <= c < colors:
                raise ValueError(f"color {c} for {tup} outside palette {colors}")
            table[tup] = c
        return cls(base, arity, colors, table)

    def color(self, tup: tuple[int, ...]) -> int:
        try:
            return self.table[tup]
        except KeyError:
            raise ValueError(f"coloring has no entry for tuple {tup}") from None

    def type_of(self, tup: tuple[int, ...]) -> TupleType:
        t = self._types.get(tup)
        if t is None:
            t = tuple_type(self.base, tup)
            self._types[tup] = t
        return t

    def all_tuples(self):
        return itertools.combinations(range(self.base.size), self.arity)

    def is_total(self) -> bool:
        return all(tup in self.table for tup in self.all_tuples())

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
        """Inverse of `to_doc`.  Raises ValueError on a malformed entry: a row
        that is not arity + 1 integers, a tuple that is not strictly
        increasing inside the universe, a color outside the palette, or a
        repeated tuple.  The table may be partial."""
        require_fields(doc, {"base": dict, "arity": int, "colors": int, "entries": list}, "coloring")
        base = structure_from(doc["base"])
        arity, colors = doc["arity"], doc["colors"]
        col = Coloring(base, arity, colors, {})
        for row in doc["entries"]:
            if not (isinstance(row, list) and len(row) == arity + 1 and all(map(_is_int, row))):
                raise ValueError(f"coloring entry {row!r} is not {arity + 1} integers")
            tup, c = tuple(row[:arity]), row[arity]
            if not all(a < b for a, b in zip((-1,) + tup, tup + (base.size,))):
                raise ValueError(f"coloring tuple {tup} is not increasing inside the universe 0..{base.size - 1}")
            if not 0 <= c < colors:
                raise ValueError(f"color {c} for {tup} outside palette {colors}")
            if tup in col.table:
                raise ValueError(f"coloring tuple {tup} appears twice")
            col.table[tup] = c
        return col


def random_coloring(s: FinStructure, arity: int, colors: int, seed: int) -> Coloring:
    """Seeded uniform coloring.

    Colors are drawn by random.Random(seed).randrange(colors) over the
    increasing tuples in lexicographic order, so a seed fixes the coloring
    completely.
    """
    rng = random.Random(seed)
    table = {}
    for tup in itertools.combinations(range(s.size), arity):
        table[tup] = rng.randrange(colors)
    return Coloring(s, arity, colors, table)


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
        t = col.type_of(tup)
        c = col.color(tup)
        if mapping.setdefault(t, c) != c:
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


@dataclass(eq=False)
class _Walk:
    """Depth-first walk over the admissible subsets built from whole units.

    `units` are runs of increasing elements, each run above the one before;
    a unit is taken whole or not at all, include-first, so subsets come out
    in lexicographic order.  Every element of a taken unit must pass the
    closure and positional admission rules, and, when a coloring is given,
    keep the incrementally maintained type -> color witness consistent; a
    unit vetoed partway is rolled back whole.  Branches that the class's
    pruning bound (`Kind.pruner`, built once per walk) rules out are pruned.
    Iterating yields every closed, member-inducing, level-big subset
    reached; `nodes` counts the visited search nodes, and visiting more than
    `budget` of them raises `_Budget`.

    The path is kept in a list, not on the call stack, so the depth of a
    walk is not bounded by Python's recursion limit.
    """

    base: FinStructure
    level: int
    units: list[tuple[int, ...]]
    col: Coloring | None = None
    budget: int | None = None
    nodes: int = field(default=0, init=False)

    def first(self) -> tuple[tuple[int, ...] | None, bool]:
        """The first subset of the walk, or None, and whether the walk stayed
        within its budget."""
        try:
            return next(iter(self), None), True
        except _Budget:
            return None, False

    def __iter__(self):
        base, level, units, col, budget = self.base, self.level, self.units, self.col, self.budget
        spec = base.cls.spec
        meet_ok, period, feasible = spec.admit, spec.period(base.cls), spec.pruner(base, level)
        flat = [e for unit in units for e in unit]
        starts = list(itertools.accumulate(map(len, units), initial=0))
        if col is not None:
            type_of, color, arity = col.type_of, col.color, col.arity
        chosen: list[int] = []
        witness: dict[TupleType, int] = {}

        def admit(e: int, added: list[TupleType]) -> bool:
            """Add `e` unless a rule vetoes it; witness types it fixes go to
            `added`, even when a later tuple of `e` then conflicts."""
            if meet_ok is not None and not meet_ok(base, chosen, e):
                return False
            if period and e % period != len(chosen) % period:
                return False
            if col is not None:
                for combo in itertools.combinations(chosen, arity - 1):
                    tup = combo + (e,)
                    t = type_of(tup)
                    c = color(tup)
                    known = witness.get(t)
                    if known is None:
                        witness[t] = c
                        added.append(t)
                    elif known != c:
                        return False
            chosen.append(e)
            return True

        if level == 0:
            yield ()
        # The node visited is (i, changed): units before i are decided, and
        # changed says whether the step into it took a unit.  `taken` holds
        # (unit index, len(chosen) before it, witness types it added) for each
        # unit taken on the current path.  A dead end backtracks to the latest
        # of them, undoes it and visits the branch without it; a unit vetoed
        # partway is undone the same way.
        taken: list[tuple[int, int, list[TupleType]]] = []
        i, changed = 0, False
        nodes = 0
        while True:
            nodes += 1
            if budget is not None and nodes > budget:
                self.nodes = nodes
                raise _Budget
            if changed and subset_is_big(base, chosen, level):
                self.nodes = nodes
                yield tuple(chosen)
            if i < len(units) and feasible(chosen, flat[starts[i]:]):
                added: list[TupleType] = []
                taken.append((i, len(chosen), added))
                for e in units[i]:
                    if not admit(e, added):
                        break
                else:
                    i, changed = i + 1, True
                    continue
            elif not taken:
                self.nodes = nodes
                return
            i, mark, added = taken.pop()
            del chosen[mark:]
            for t in added:
                del witness[t]
            i, changed = i + 1, False


def _units(base: FinStructure, within) -> list[tuple[int]]:
    order = sorted(set(within)) if within is not None else range(base.size)
    return [(e,) for e in order]


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
    if not is_member(base):
        raise ValueError("coloring base is not a member of its class")
    walk = _Walk(base, level, _units(base, within), col, budget)
    found, exhaustive = walk.first()
    if found is None:
        return SearchResult(None, None, exhaustive, walk.nodes)
    verified = type_homogeneity_witness(col, found)
    if verified is None or not subset_is_big(base, found, level):
        raise AssertionError("search returned a subset that fails re-verification")
    return SearchResult(found, verified, True, walk.nodes)


def iter_big_member_subsets(base: FinStructure, level: int, within=None):
    """Yield every closed, member-inducing, level-big subset in lexicographic
    order.  Intended for small universes (the exhaustive partition check)."""
    yield from _Walk(base, level, _units(base, within))
