"""The auxiliary colorings of both reductions against reference packers
written straight from the definitions in their docstrings."""

import itertools
import random

import pytest

from ramseylab.colorings import random_coloring
from ramseylab.reductions import aux_coloring_ceq, aux_coloring_chicolor
from ramseylab.structures import ClassKind, make_canonical


def _reference_chicolor(col, lam):
    """The color of g1 < .. < gn concatenates, over all residue tuples
    (i1..in) in lexicographic order, col(chi*g1 + i1, .., chi*gn + in) as
    base-c digits."""
    chi, n, c = col.base.cls.chi, col.arity, col.colors
    table = {}
    for gam in itertools.combinations(range(lam), n):
        value = 0
        for idx in itertools.product(range(chi), repeat=n):
            value = value * c + col.color(tuple(chi * g + i for g, i in zip(gam, idx)))
        table[gam] = value
    return table, c ** (chi ** n)


def _reference_ceq(col, pieces):
    """The color of b1 < .. < bn concatenates, over all count tuples
    (a1..an) summing to n in lexicographic order, the color of the tuple
    that takes the first aj representatives of block bj."""
    n, c = col.arity, col.colors
    ids = sorted(pieces)
    counts = [a for a in itertools.product(range(n + 1), repeat=n) if sum(a) == n]
    table = {}
    for combo in itertools.combinations(range(len(ids)), n):
        value = 0
        for a in counts:
            tup = sum((pieces[ids[slot]][:k] for slot, k in zip(combo, a)), ())
            value = value * c + col.color(tup)
        table[combo] = value
    return table, c ** len(counts)


@pytest.mark.parametrize("chi", [1, 2, 3])
@pytest.mark.parametrize("arity", [1, 2, 3])
def test_chicolor_packer_matches_the_reference(chi, arity):
    for lam, seed in itertools.product(range(5), range(3)):
        col = random_coloring(make_canonical(ClassKind("chi_color", chi=chi), lam), arity, 2 + seed, seed)
        aux = aux_coloring_chicolor(col)
        assert (aux.table, aux.colors) == _reference_chicolor(col, lam)
        assert aux.base == make_canonical(ClassKind("or"), lam)
        assert aux.arity == arity


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_ceq_packer_matches_the_reference_on_uneven_pieces(arity):
    for lam, seed in itertools.product(range(arity, 6), range(3)):
        base = make_canonical(ClassKind("ceq"), lam)
        col = random_coloring(base, arity, 2 + seed, seed)
        rng = random.Random(seed)
        # block b keeps n + (b + seed) mod (lam - n + 1) of its elements,
        # drawn at random, so pieces differ in length whenever lam > n
        pieces = {
            b: tuple(sorted(rng.sample(block, arity + (b + seed) % (lam - arity + 1))))
            for b, block in enumerate(base.blocks)
        }
        aux = aux_coloring_ceq(col, pieces)
        assert (aux.table, aux.colors) == _reference_ceq(col, pieces)
        assert aux.base == make_canonical(ClassKind("or"), len(pieces))
        assert aux.arity == arity


def test_ceq_packer_rejects_a_piece_shorter_than_the_arity():
    col = random_coloring(make_canonical(ClassKind("ceq"), 3), 2, 2, 0)
    with pytest.raises(ValueError, match="at least n representatives"):
        aux_coloring_ceq(col, {0: (0, 1), 1: (3,), 2: (6, 7)})
