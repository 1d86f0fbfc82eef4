"""Pins of the walker's results and node counts, and the walker against
the walk it replaced.

`find_type_homogeneous` and `iter_big_member_subsets` share one walker,
`colorings._Walk`.  Each pin fixes the subset it returns, its exhaustive
flag and the number of nodes it visits on a seeded colouring, so a change
to the walker's pruning, admission or witness bookkeeping that moves a
single node shows here.

`reference_search` keeps the walk without forward checking, with the
per-suffix group counts of `chi_or` and `ceq`, no group bound for
`chi_color`, and only the root rule for `n_tree`, no per-level counts.  On every pin's query and on a seeded grid the walker must
return its subset, witness and exhaustive flag in no more nodes.
"""

import itertools
import random

import pytest

from ramseylab.cli import parse_class
from ramseylab.colorings import (
    _elements,
    find_type_homogeneous,
    iter_big_member_subsets,
    random_coloring,
    type_homogeneity_witness,
)
from ramseylab.structures import ClassKind, make_canonical, tree_root

# (class, canonical level, search level, arity, coloring seed, budget,
#  within, subset, exhaustive, nodes); every coloring has 2 colours
SEARCH_PINS = [
    ("or", 12, 5, 2, 1, None, None, None, True, 150),
    ("or", 12, 5, 2, 2, None, None, (1, 3, 5, 8, 9), True, 76),
    ("or", 10, 4, 3, 3, None, None, (0, 1, 3, 6), True, 16),
    ("chi_or:2", 5, 3, 2, 4, None, None, None, True, 31),
    ("chi_or:2", 6, 2, 2, 4, None, None, (0, 1, 3, 6, 9), True, 11),
    ("chi_or:3", 4, 2, 2, 6, None, None, None, True, 65),
    ("chi_or:3", 4, 1, 2, 6, None, None, (0, 1, 5, 9), True, 17),
    ("chi_color:2", 40, 3, 2, 0, None, None, (0, 1, 2, 27, 74, 79), True, 143),
    ("chi_color:2", 40, 3, 2, 1, None, None, (0, 1, 4, 9, 18, 29), True, 588),
    # an exhaustive absence, the benchmark's slow shape
    ("chi_color:3", 16, 3, 2, 0, None, None, None, True, 6362),
    ("n_tree:2", 3, 2, 2, 7, None, None, None, True, 101),
    ("n_tree:2", 2, 1, 2, 7, None, None, (0, 1, 2), True, 4),
    ("n_tree:1", 6, 2, 2, 8, None, None, (0, 1, 4), True, 6),
    ("ceq", 6, 2, 2, 0, None, None, (0, 1, 2, 31, 34), True, 113),
    ("ceq", 6, 2, 2, 1, None, None, (0, 1, 8, 11), True, 173),
    ("ceq", 4, 2, 2, 9, None, None, (0, 5, 6, 9, 11), True, 160),
    ("ordered_graph", 12, 5, 2, 10, None, None, (0, 1, 5, 6, 9), True, 18),
    ("ordered_graph", 12, 5, 2, 11, None, None, None, True, 220),
    ("hypergraph:2:2", 10, 4, 2, 13, None, None, (0, 2, 3, 7), True, 36),
    ("hypergraph:2:2", 8, 4, 3, 12, None, None, (0, 1, 2, 3), True, 5),
    # searches cut short by a budget
    ("chi_color:3", 16, 3, 2, 0, 2000, None, None, False, 2001),
    ("or", 12, 5, 2, 1, 50, None, None, False, 51),
    # searches restricted to part of the universe
    ("or", 12, 4, 2, 1, None, range(1, 12, 2), None, True, 25),
    ("chi_color:2", 20, 2, 2, 3, None, range(2, 20), (2, 3, 4, 5), True, 5),
    ("n_tree:2", 3, 2, 2, 7, None, range(0, 10), None, True, 41),
    ("n_tree:2", 3, 2, 2, 7, None, range(1, 13), None, True, 1),  # root left out
    ("ceq", 6, 2, 2, 0, None, range(0, 30), (0, 1, 4, 24, 25), True, 122),
    ("chi_or:2", 6, 2, 2, 4, None, (0, 2, 3, 5, 6, 7, 8, 9, 10, 11), (0, 2, 10, 11), True, 14),
    ("chi_or:2", 5, 3, 2, 4, None, range(0, 5), None, True, 1),  # part 1 left out
]


# Node counts of the pins re-captured since they were first recorded, by
# row.  A pin's test name is the one it was first recorded under, so a
# re-capture updates what the pin checks without renaming it; the first
# counts are what `reference_search` still visits.
FIRST_CAPTURE = {
    0: 320,
    1: 101,
    3: 37,
    5: 75,
    8: 643,
    9: 53369,
    10: 180,
    13: 125,
    14: 194,
    15: 232,
    17: 428,
    18: 37,
    22: 31,
    24: 47,
    26: 126,
}


def _first(index: int) -> tuple:
    return SEARCH_PINS[index][:-1] + (FIRST_CAPTURE.get(index, SEARCH_PINS[index][-1]),)


@pytest.mark.parametrize(
    "cls, lam, level, arity, seed, budget, within, subset, exhaustive, nodes",
    SEARCH_PINS,
    ids=[
        "-".join(f"{name}{index}" if name in ("within", "subset") and value is not None else str(value)
                 for name, value in zip(("cls", "lam", "level", "arity", "seed", "budget", "within", "subset",
                                         "exhaustive", "nodes"), _first(index)))
        for index in range(len(SEARCH_PINS))
    ],
)
def test_search_pinned(cls, lam, level, arity, seed, budget, within, subset, exhaustive, nodes):
    col = random_coloring(make_canonical(parse_class(cls), lam), arity, 2, seed)
    res = find_type_homogeneous(col, level, budget=budget, within=within)
    assert (res.subset, res.exhaustive, res.nodes) == (subset, exhaustive, nodes)


# The walk without forward checking, as it was before rows and `blocked`.


def _suffix_pruner(base, level, elements):
    # the group bound as it was for chi_or and ceq: the group counts of
    # elements[i:] kept per suffix, so a node counts only chosen; and the
    # tree-root rule as it was for n_tree, which counted no other level
    spec = base.cls.spec
    if level == 0 or base.cls.kind not in ("chi_or", "ceq", "n_tree"):
        return None
    if base.cls.kind == "n_tree":
        root = tree_root(base)
        if root is None or base.level[root] != 0:
            return lambda chosen, i: False
        # the root is still to be decided while i is at most its index
        at = elements.index(root) if root in elements else -1
        return lambda chosen, i: i <= at or root in chosen
    group = {e: spec.group_of(base, e) for e in elements}
    counts = [0] * spec.groups(base)
    suffix = [counts]
    for e in reversed(elements):
        counts = counts.copy()
        counts[group[e]] += 1
        suffix.append(counts)
    suffix.reverse()
    needed = spec.needed(base.cls, level)

    def feasible(chosen, i):
        counts = suffix[i].copy()
        for e in chosen:
            counts[group[e]] += 1
        return len([c for c in counts if c >= level]) >= needed

    return feasible


class _OverBudget(Exception):
    pass


def _reference_walk(base, level, elements, col, budget, seen):
    """Yield what the walk without forward checking yields; `seen[0]`
    counts its nodes."""
    spec = base.cls.spec
    veto, big = spec.admit, spec.subset_big
    least = spec.min_size(base.cls, level)
    feasible = _suffix_pruner(base, level, elements)
    chosen, witness, taken = [], {}, []
    if level == 0:
        yield ()
    i, changed, n = 0, False, len(elements)
    while True:
        seen[0] += 1
        if budget is not None and seen[0] > budget:
            raise _OverBudget
        k = len(chosen)
        if changed and k >= least and (level == 0 or big(base, chosen, level)):
            yield tuple(chosen)
        if i < n and k + n - i >= least and (feasible is None or feasible(chosen, i)):
            e = elements[i]
            added = []
            if veto is None or veto(base, chosen, e):
                for combo in itertools.combinations(chosen, col.arity - 1) if col is not None else ():
                    tup = combo + (e,)
                    t, c = col.type_id(tup), col.color(tup)
                    known = witness.get(t)
                    if known is None:
                        witness[t] = c
                        added.append(t)
                    elif known != c:
                        break
                else:
                    chosen.append(e)
                    taken.append((i, added))
                    i, changed = i + 1, True
                    continue
        elif not taken:
            return
        else:
            i, added = taken.pop()
            chosen.pop()
        for t in added:
            del witness[t]
        i, changed = i + 1, False


def reference_search(col, level, budget=None, within=None):
    """(subset, witness, exhaustive, nodes) as the walk without forward
    checking finds them."""
    seen = [0]
    try:
        found = next(_reference_walk(col.base, level, _elements(col.base, within), col, budget, seen), None)
    except _OverBudget:
        return None, None, False, seen[0]
    witness = None if found is None else type_homogeneity_witness(col, found)
    return found, witness, True, seen[0]


def _agrees_with_reference(col, level, budget=None, within=None) -> tuple[int, int]:
    want = reference_search(col, level, budget, within)
    res = find_type_homogeneous(col.copy(), level, budget=budget, within=within)
    assert res.nodes <= want[3], (col.base.cls.label(), level, budget, within)
    if want[2] or res.exhaustive:
        # a budgeted search that now decides agrees with the unbudgeted one
        if not want[2]:
            want = reference_search(col, level, None, within)
        assert (res.subset, res.witness, res.exhaustive) == want[:3], (col.base.cls.label(), level, budget, within)
    else:
        assert (res.subset, res.witness) == (None, None)
    return res.nodes, want[3]


@pytest.mark.parametrize("index", range(len(SEARCH_PINS)))
def test_pins_match_the_walk_without_forward_checking(index):
    cls, lam, level, arity, seed, budget, within, _, _, nodes = _first(index)
    col = random_coloring(make_canonical(parse_class(cls), lam), arity, 2, seed)
    # the reference still visits each pin's first-captured node count
    assert _agrees_with_reference(col, level, budget, within)[1] == nodes


_GRID_KINDS = (
    ClassKind("or"),
    ClassKind("chi_or", chi=2),
    ClassKind("chi_color", chi=2),
    ClassKind("chi_color", chi=3),
    ClassKind("n_tree", height=2),
    ClassKind("ceq"),
    ClassKind("ordered_graph"),
    ClassKind("hypergraph", edge_arity=2, palette=2),
)


def test_grid_matches_the_walk_without_forward_checking():
    # every kind, levels 1-4, 2-3 colours, arity 1-3, with and without
    # `within`, each query once unbudgeted and once under a budget
    rng = random.Random(27)
    searches = saved = 0
    for cls in _GRID_KINDS:
        for _ in range(30):
            lam = rng.randint(2, 5 if cls.kind in ("ceq", "n_tree") else 7)
            base = make_canonical(cls, lam)
            if base.size > 24:
                continue
            arity, colors, level = rng.randint(1, 3), rng.randint(2, 3), rng.randint(1, 4)
            col = random_coloring(base, arity, colors, rng.randrange(10**6))
            within = None
            if rng.random() < 0.4:
                within = sorted(rng.sample(range(base.size), rng.randint(1, base.size)))
            nodes, old = _agrees_with_reference(col, level, within=within)
            _agrees_with_reference(col, level, budget=rng.randint(0, old), within=within)
            searches += 2
            saved += old - nodes
    assert searches > 300 and saved > 0


# (class, canonical level, bigness level, within, subsets yielded)
YIELD_PINS = [
    ("or", 6, 3, None, 42),
    ("or", 8, 3, range(1, 8, 2), 5),
    ("chi_or:2", 3, 2, None, 16),
    ("chi_color:2", 6, 2, None, 314),
    ("chi_color:3", 4, 2, None, 58),
    ("n_tree:2", 2, 1, None, 27),
    ("n_tree:1", 5, 2, None, 26),
    ("ceq", 3, 2, None, 256),
    # part 1 left out: nothing is big above level 0
    ("chi_or:2", 3, 2, range(0, 3), 0),
    ("chi_or:2", 3, 0, range(0, 3), 8),
    ("ceq", 3, 2, (0, 1, 3, 4, 5, 6, 8), 32),
    ("ceq", 3, 2, range(0, 6), 16),  # block 2 left out
]


@pytest.mark.parametrize("cls, lam, level, within, count", YIELD_PINS)
def test_big_member_subsets_pinned(cls, lam, level, within, count):
    base = make_canonical(parse_class(cls), lam)
    assert sum(1 for _ in iter_big_member_subsets(base, level, within)) == count
