"""Pins of the walker's results and node counts.

`find_type_homogeneous` and `iter_big_member_subsets` share one walker,
`colorings._Walk`.  Each pin fixes the subset it returns, its exhaustive
flag and the number of nodes it visits on a seeded colouring, so a change
to the walker's pruning, admission or witness bookkeeping that moves a
single node shows here.
"""

import pytest

from ramseylab.cli import parse_class
from ramseylab.colorings import find_type_homogeneous, iter_big_member_subsets, random_coloring
from ramseylab.structures import make_canonical

# (class, canonical level, search level, arity, coloring seed, budget,
#  within, subset, exhaustive, nodes); every coloring has 2 colours
SEARCH_PINS = [
    ("or", 12, 5, 2, 1, None, None, None, True, 320),
    ("or", 12, 5, 2, 2, None, None, (1, 3, 5, 8, 9), True, 101),
    ("or", 10, 4, 3, 3, None, None, (0, 1, 3, 6), True, 16),
    ("chi_or:2", 5, 3, 2, 4, None, None, None, True, 37),
    ("chi_or:2", 6, 2, 2, 4, None, None, (0, 1, 3, 6, 9), True, 11),
    ("chi_or:3", 4, 2, 2, 6, None, None, None, True, 75),
    ("chi_or:3", 4, 1, 2, 6, None, None, (0, 1, 5, 9), True, 17),
    ("chi_color:2", 40, 3, 2, 0, None, None, (0, 1, 2, 27, 74, 79), True, 143),
    ("chi_color:2", 40, 3, 2, 1, None, None, (0, 1, 4, 9, 18, 29), True, 643),
    # an exhaustive absence, the benchmark's slow shape
    ("chi_color:3", 16, 3, 2, 0, None, None, None, True, 53369),
    ("n_tree:2", 3, 2, 2, 7, None, None, None, True, 180),
    ("n_tree:2", 2, 1, 2, 7, None, None, (0, 1, 2), True, 4),
    ("n_tree:1", 6, 2, 2, 8, None, None, (0, 1, 4), True, 6),
    ("ceq", 6, 2, 2, 0, None, None, (0, 1, 2, 31, 34), True, 125),
    ("ceq", 6, 2, 2, 1, None, None, (0, 1, 8, 11), True, 194),
    ("ceq", 4, 2, 2, 9, None, None, (0, 5, 6, 9, 11), True, 232),
    ("ordered_graph", 12, 5, 2, 10, None, None, (0, 1, 5, 6, 9), True, 18),
    ("ordered_graph", 12, 5, 2, 11, None, None, None, True, 428),
    ("hypergraph:2:2", 10, 4, 2, 13, None, None, (0, 2, 3, 7), True, 37),
    ("hypergraph:2:2", 8, 4, 3, 12, None, None, (0, 1, 2, 3), True, 5),
    # searches cut short by a budget
    ("chi_color:3", 16, 3, 2, 0, 2000, None, None, False, 2001),
    ("or", 12, 5, 2, 1, 50, None, None, False, 51),
    # searches restricted to part of the universe
    ("or", 12, 4, 2, 1, None, range(1, 12, 2), None, True, 31),
    ("chi_color:2", 20, 2, 2, 3, None, range(2, 20), (2, 3, 4, 5), True, 5),
    ("n_tree:2", 3, 2, 2, 7, None, range(0, 10), None, True, 47),
    ("n_tree:2", 3, 2, 2, 7, None, range(1, 13), None, True, 1),  # root left out
    ("ceq", 6, 2, 2, 0, None, range(0, 30), (0, 1, 4, 24, 25), True, 126),
    ("chi_or:2", 6, 2, 2, 4, None, (0, 2, 3, 5, 6, 7, 8, 9, 10, 11), (0, 2, 10, 11), True, 14),
    ("chi_or:2", 5, 3, 2, 4, None, range(0, 5), None, True, 1),  # part 1 left out
]


@pytest.mark.parametrize(
    "cls, lam, level, arity, seed, budget, within, subset, exhaustive, nodes", SEARCH_PINS
)
def test_search_pinned(cls, lam, level, arity, seed, budget, within, subset, exhaustive, nodes):
    col = random_coloring(make_canonical(parse_class(cls), lam), arity, 2, seed)
    res = find_type_homogeneous(col, level, budget=budget, within=within)
    assert (res.subset, res.exhaustive, res.nodes) == (subset, exhaustive, nodes)


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
