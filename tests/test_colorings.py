"""Colorings, witnesses, and the homogeneous subset search."""

import itertools
import random
import re
import sys
from collections import Counter

import pytest

from helpers import SMALL_KINDS, random_member, time_limit
from ramseylab import colorings
from ramseylab.arrow import ArrowQuery, _TupleTable
from ramseylab.colorings import (
    Coloring,
    HomogeneityWitness,
    find_type_homogeneous,
    iter_big_member_subsets,
    random_coloring,
    random_colors,
    type_homogeneity_witness,
)
from ramseylab.structures import (
    TABLE,
    ClassKind,
    FinStructure,
    make_canonical,
    subset_closure,
    subset_induces_member,
    subset_is_big,
)
from ramseylab.tuple_types import tuple_type, type_fragment


def test_random_coloring_seeded():
    base = make_canonical(ClassKind("or"), 5)
    a = random_coloring(base, 2, 3, seed=7)
    b = random_coloring(base, 2, 3, seed=7)
    c = random_coloring(base, 2, 3, seed=8)
    assert a.table == b.table
    assert a.table != c.table
    assert a.is_total()
    assert all(0 <= v < 3 for v in a.table.values())


def test_coloring_entries_sorted():
    base = make_canonical(ClassKind("or"), 4)
    col = random_coloring(base, 2, 2, seed=0)
    entries = col.entries()
    assert [tup for tup, _ in entries] == sorted(tup for tup, _ in entries)


def test_from_function():
    base = make_canonical(ClassKind("or"), 5)
    col = Coloring.from_function(base, 2, 2, lambda t: (t[1] - t[0]) % 2)
    assert col.color((0, 3)) == 1
    assert col.color((1, 3)) == 0
    assert col.is_total()


def test_coloring_validation():
    base = make_canonical(ClassKind("or"), 3)
    with pytest.raises(ValueError):
        Coloring(base, 0, 2, {})
    with pytest.raises(ValueError):
        Coloring(base, 2, 0, {})
    with pytest.raises(ValueError):
        Coloring.from_function(base, 2, 2, lambda t: 5)
    # a bool would be written as JSON true, which from_doc refuses
    with pytest.raises(ValueError, match=re.escape("color True for (0, 1) is not an integer")):
        Coloring.from_function(make_canonical(ClassKind("or"), 4), 2, 2, lambda t: True)
    # the constructor checks every colour, whoever built the table
    for color in (7, -1, True, 1.0, None):
        with pytest.raises(ValueError, match=re.escape(f"color {color!r} for (0, 1) is not an integer in the palette 0..1")):
            Coloring(base, 2, 2, {(0, 2): 1, (0, 1): color})
    # so are arity and colors: a bool would be written as JSON true
    for arity, colors in ((True, 2), (2, True), (2.0, 2), (2, "2")):
        with pytest.raises(ValueError, match="must be integers"):
            Coloring(base, arity, colors, {})
    # partial tables are allowed on purpose; reads of missing tuples raise
    partial = Coloring(base, 2, 2, {(0, 1): 1})
    assert not partial.is_total()
    with pytest.raises(ValueError):
        partial.color((0, 2))
    # the walker reads the table directly, and still raises ValueError
    with pytest.raises(ValueError, match=re.escape("coloring has no entry for tuple (0, 2)")):
        find_type_homogeneous(partial, 3)


def test_walker_reports_a_gap_its_forward_row_left_out():
    # every pair of a linear order has one type, so each 3-subset tried
    # conflicts; the walk backtracks to the empty set and takes 1 again,
    # which builds 1's forward row without the missing (1, 2), and taking 2
    # next reads the gap
    table = {(0, 1): 0, (0, 2): 1, (0, 3): 0, (1, 3): 1, (2, 3): 0}
    partial = Coloring(make_canonical(ClassKind("or"), 4), 2, 2, table)
    with pytest.raises(ValueError, match=re.escape("coloring has no entry for tuple (1, 2)")):
        find_type_homogeneous(partial, 3)


def test_witness_against_bruteforce():
    for cls in SMALL_KINDS:
        for seed in range(15):
            rng = random.Random(seed)
            base = random_member(cls, rng, max_size=7)
            if base.size < 2:
                continue
            col = random_coloring(base, 2, 2, seed=seed)
            subset = subset_closure(
                base, tuple(sorted(rng.sample(range(base.size), rng.randrange(base.size + 1))))
            )
            if not subset_induces_member(base, subset):
                with pytest.raises(ValueError):
                    type_homogeneity_witness(col, subset)
                continue
            witness = type_homogeneity_witness(col, subset)
            groups = {}
            for tup in itertools.combinations(subset, 2):
                groups.setdefault(tuple_type(base, tup), set()).add(col.color(tup))
            clean = all(len(cs) == 1 for cs in groups.values())
            assert (witness is not None) == clean
            if witness is not None:
                got = witness.as_dict()
                for t, cs in groups.items():
                    assert got[t] == cs.pop()


def test_witness_closes_subset():
    cls = ClassKind("n_tree", height=2)
    base = make_canonical(cls, 2)
    col = Coloring.from_function(base, 2, 1, lambda t: 0)
    leaves = [v for v in range(base.size) if base.level[v] == 2]
    witness = type_homogeneity_witness(col, (leaves[0], leaves[-1]))
    # the meet joined the subset, so meet-involving types are covered too
    assert len(witness.entries) == len(
        {tuple_type(base, t) for t in itertools.combinations(subset_closure(base, (leaves[0], leaves[-1])), 2)}
    )


def test_search_is_lex_least():
    for cls in SMALL_KINDS:
        for seed in range(10):
            base = make_canonical(cls, 2)
            if base.size < 2 or base.size > 9:
                continue
            col = random_coloring(base, 2, 2, seed=seed)
            res = find_type_homogeneous(col, 2)
            qualifying = [
                sub
                for sub in iter_big_member_subsets(base, 2)
                if type_homogeneity_witness(col, sub) is not None
            ]
            if qualifying:
                assert res.found
                assert res.subset == qualifying[0], (cls.label(), seed)
            else:
                assert not res.found
                assert res.exhaustive


def test_search_result_verified():
    for cls in SMALL_KINDS:
        for seed in range(10):
            base = make_canonical(cls, 3 if cls.kind != "n_tree" else 2)
            col = random_coloring(base, 2, 2, seed=seed)
            res = find_type_homogeneous(col, 2)
            if not res.found:
                continue
            assert subset_induces_member(base, res.subset)
            assert subset_is_big(base, res.subset, 2)
            direct = type_homogeneity_witness(col, res.subset)
            assert direct is not None
            assert direct.entries == res.witness.entries


def test_search_level_zero():
    base = make_canonical(ClassKind("or"), 3)
    col = random_coloring(base, 2, 2, seed=0)
    res = find_type_homogeneous(col, 0)
    assert res.found and res.subset == ()


def test_search_within():
    base = make_canonical(ClassKind("or"), 6)
    col = Coloring.from_function(base, 2, 2, lambda t: (t[1] - t[0]) % 2)
    res = find_type_homogeneous(col, 2, within=(1, 3, 5))
    assert res.found
    assert set(res.subset) <= {1, 3, 5}
    assert res.witness.as_dict().popitem()[1] == 0  # gaps of 2 inside the odds


def test_search_budget():
    base = make_canonical(ClassKind("or"), 7)
    col = Coloring.from_function(base, 2, 2, lambda t: (t[1] - t[0]) % 2)
    full = find_type_homogeneous(col, 4)
    assert full.found and full.subset == (0, 2, 4, 6)  # the even fourtuple
    starved = find_type_homogeneous(col, 4, budget=3)
    assert starved.nodes <= 4  # the node that trips the limit is counted
    assert not starved.found
    assert not starved.exhaustive  # a budget stop never claims exhaustion
    generous = find_type_homogeneous(col, 4, budget=10_000)
    assert generous.found and generous.subset == full.subset


def test_iter_big_member_subsets_bruteforce():
    for cls in SMALL_KINDS:
        base = make_canonical(cls, 2)
        if base.size > 8:
            continue
        for level in (1, 2):
            got = list(iter_big_member_subsets(base, level))
            want = []
            for r in range(base.size + 1):
                for sub in itertools.combinations(range(base.size), r):
                    if (
                        subset_closure(base, sub) == sub
                        and subset_induces_member(base, sub)
                        and subset_is_big(base, sub, level)
                        and sub
                    ):
                        want.append(sub)
            want.sort()
            assert got == sorted(got), (cls.label(), level)
            assert set(got) == set(want), (cls.label(), level)


@time_limit(60)
def test_search_deeper_than_recursion_limit():
    base = make_canonical(ClassKind("or"), 1500)
    assert sys.getrecursionlimit() < base.size
    col = Coloring.from_function(base, 1, 1, lambda t: 0)
    res = find_type_homogeneous(col, 1500)
    assert res.found and res.exhaustive
    assert res.subset == tuple(range(1500))


@time_limit(60)
def test_iter_deeper_than_recursion_limit():
    base = make_canonical(ClassKind("or"), 1200)
    assert sys.getrecursionlimit() < base.size
    assert list(iter_big_member_subsets(base, 1200)) == [tuple(range(1200))]


@time_limit(10)
def test_iter_big_member_subsets_is_lazy():
    # 2^40 - 1 subsets qualify, so only a lazy walk returns the first at once
    subsets = iter_big_member_subsets(make_canonical(ClassKind("or"), 40), 1)
    assert next(subsets) == (0,)
    assert next(subsets) == (0, 1)


@pytest.mark.parametrize(
    "check",
    [
        lambda base: next(iter_big_member_subsets(base, -1)),
        lambda base: subset_is_big(base, [0], -1),
        lambda base: find_type_homogeneous(Coloring.from_function(base, 1, 1, lambda t: 0), -1),
    ],
    ids=["iter_big_member_subsets", "subset_is_big", "find_type_homogeneous"],
)
@pytest.mark.parametrize("cls", SMALL_KINDS, ids=ClassKind.label)
def test_negative_level_is_rejected(check, cls):
    with pytest.raises(ValueError, match="must be nonnegative"):
        check(make_canonical(cls, 3))


def test_iter_respects_within():
    base = make_canonical(ClassKind("or"), 5)
    got = list(iter_big_member_subsets(base, 2, within=(0, 2, 4)))
    assert all(set(sub) <= {0, 2, 4} for sub in got)
    assert (0, 2) in got and (0, 1) not in got


def test_within_outside_the_universe_is_rejected():
    base = make_canonical(ClassKind("or"), 3)
    col = random_coloring(base, 2, 2, seed=0)
    for within in ([-1, 7], [0, 3], [-1]):
        with pytest.raises(ValueError, match="outside universe"):
            list(iter_big_member_subsets(base, 1, within=within))
        with pytest.raises(ValueError, match="outside universe"):
            find_type_homogeneous(col, 1, within=within)


@pytest.mark.parametrize(
    "base",
    [
        # a level above the height would index past the per-level counts
        FinStructure(ClassKind("n_tree", height=2), 3, parent=(-1, 0, 1), level=(0, 1, 5)),
        FinStructure(ClassKind("chi_or", chi=2), 3, parts=(0, 2, 1)),
        FinStructure(ClassKind("ceq"), 3, blocks=((0, 2), (1,))),
    ],
    ids=["n_tree", "chi_or", "ceq"],
)
def test_non_member_base_is_rejected(base):
    col = Coloring.from_function(base, 1, 1, lambda t: 0)
    with pytest.raises(ValueError, match="not a member of its class"):
        find_type_homogeneous(col, 1)
    with pytest.raises(ValueError, match="not a member of its class"):
        next(iter_big_member_subsets(base, 1))


def test_within_must_hold_integers():
    base = make_canonical(ClassKind("or"), 4)
    col = random_coloring(base, 2, 2, seed=0)
    for within in ([True, 2], [1.0, 2, 3], [0, "1"]):
        with pytest.raises(ValueError, match="non-integer"):
            list(iter_big_member_subsets(base, 2, within=within))
        with pytest.raises(ValueError, match="non-integer"):
            find_type_homogeneous(col, 2, within=within)


def test_one_type_numbering_per_coloring():
    assert {cls.kind for cls in SMALL_KINDS} == set(TABLE)
    for cls in SMALL_KINDS:
        base = make_canonical(cls, 2)
        col = random_coloring(base, 2, 2, seed=0)
        tuples = list(itertools.combinations(range(base.size), 2))
        ids = [col.type_id(tup) for tup in tuples]
        types = [tuple_type(base, tup) for tup in tuples]
        # dense ids, numbered in order of first sight
        assert list(dict.fromkeys(ids)) == list(range(len(set(ids))))
        for (ia, ta), (ib, tb) in itertools.combinations(zip(ids, types), 2):
            assert (ia == ib) == (ta == tb), cls
        assert [col.type_of(tup) for tup in tuples] == types


def test_type_of_is_tuple_type_on_small_members():
    # type_id interns type codes and builds a TupleType once per new code;
    # what it hands back is the type tuple_type builds
    rng = random.Random(5)
    for cls in SMALL_KINDS:
        for _ in range(4):
            base = random_member(cls, rng, max_size=6)
            for n in range(1, min(base.size, 3) + 1):
                col = random_coloring(base, n, 2, seed=0)
                for tup in itertools.combinations(range(base.size), n):
                    assert col.type_of(tup) == tuple_type(base, tup), (cls.label(), tup)
                assert len(col._kinds) == len(col._codes) == len(set(col._kinds))
    col = random_coloring(make_canonical(ClassKind("or"), 4), 2, 2, seed=0)
    for tup, message in (((), "nonempty"), ((2, 1), "not strictly increasing"), ((1, 4), "outside universe")):
        with pytest.raises(ValueError, match=message):
            tuple_type(col.base, tup)
        with pytest.raises(ValueError, match=message):
            col.type_id(tup)


def test_type_of_checks_the_tuple_on_a_code_hit():
    # or has one code per arity and ceq's code of a pair is one bit: a tuple
    # of another arity, or outside the universe, must not read as a known type
    for cls in (ClassKind("or"), ClassKind("ceq")):
        col = random_coloring(make_canonical(cls, 3), 2, 2, seed=0)
        col.type_id((0, 1))
        for tup, message in (
            ((1,), "not a 2-tuple"),
            ((0, 1, 2), "not a 2-tuple"),
            ((), "nonempty"),
            ((1, 0), "not strictly increasing"),
            ((1, 1), "not strictly increasing"),
            ((-1, 0), "outside universe"),
            ((1, 9), "outside universe"),
        ):
            with pytest.raises(ValueError, match=message):
                col.type_of(tup)
        assert list(col._types) == [(0, 1)]


def test_typing_on_a_malformed_base_raises_value_error():
    bases = (
        FinStructure(ClassKind("chi_or", chi=2), 4, parts=(0, 1)),
        FinStructure(ClassKind("chi_or", chi=2), 4),
        FinStructure(ClassKind("ceq"), 4, blocks=((0, 1), (3,))),
        FinStructure(ClassKind("ceq"), 4, blocks=((0, 2), (1, 3))),
        FinStructure(ClassKind("n_tree", height=1), 3, parent=(-1, 5, 0), level=(0, 1, 1)),
        FinStructure(ClassKind("ordered_graph"), 3, edges={(2, 0)}),
        FinStructure(ClassKind("hypergraph", edge_arity=2, palette=2), 3, hyper=(((), 0), ((0,), 1))),
    )
    for base in bases:
        col = Coloring(base, 2, 2, {})  # typing waits for the first tuple
        for _ in range(2):
            with pytest.raises(ValueError, match="not a member"):
                col.type_of((0, 2))
        assert not col._types


def test_each_tuple_is_typed_once_per_coloring(monkeypatch):
    calls = Counter()

    def counted(base, tup):
        calls[tup] += 1
        return type_fragment(base, tup)

    monkeypatch.setattr(colorings, "type_fragment", counted)
    table = _TupleTable(ArrowQuery(ClassKind("chi_or", chi=2), 4, 2, 2, 2))
    col = table.paint(random_colors(len(table.tuples), 2, seed=1))
    res = find_type_homogeneous(col, 2)
    assert res.found  # so the witness was re-checked
    pool = table.candidates(2)
    assert pool and calls and max(calls.values()) == 1
    ids = {tup: col.type_id(tup) for tup in table.tuples}
    # types depend on the base alone: a repaint keeps every id
    assert table.paint(random_colors(len(table.tuples), 2, seed=2)) is col
    assert {tup: col.type_id(tup) for tup in table.tuples} == ids
    assert max(calls.values()) == 1
    fresh = col.copy()
    assert not fresh._types
    fresh.type_id(table.tuples[0])
    assert calls[table.tuples[0]] == 2


def test_random_colors_draw_as_randrange_does():
    # the draw stream is the one random.Random(seed).randrange(colors) gives
    for colors in range(1, 6):
        for seed in range(50):
            rng = random.Random(seed)
            assert random_colors(120, colors, seed) == [rng.randrange(colors) for _ in range(120)], (colors, seed)
    assert random_colors(0, 3, seed=1) == []


def test_random_colors_need_a_color():
    for count in (0, 3):
        with pytest.raises(ValueError, match="colors must be at least 1"):
            random_colors(count, 0, seed=0)
    with pytest.raises(ValueError, match="colors must be at least 1"):
        random_coloring(make_canonical(ClassKind("or"), 3), 2, 0, seed=0)
    assert random_colors(0, 1, seed=0) == []


def test_coloring_doc_roundtrip():
    for cls in SMALL_KINDS:
        base = make_canonical(cls, 2)
        col = random_coloring(base, 2, 3, seed=4)
        back = Coloring.from_doc(col.to_doc())
        assert back.base == col.base
        assert back.table == col.table
        assert back.colors == col.colors


def test_witness_doc_roundtrip():
    base = make_canonical(ClassKind("chi_or", chi=2), 2)
    col = random_coloring(base, 2, 1, seed=0)
    witness = type_homogeneity_witness(col, tuple(range(base.size)))
    assert witness is not None
    back = HomogeneityWitness.from_doc(witness.to_doc())
    assert back.entries == witness.entries


def test_coloring_from_doc_rejects_malformed_entries():
    base = make_canonical(ClassKind("or"), 4)
    doc = Coloring(base, 2, 2, {(0, 1): 1, (2, 3): 0}).to_doc()
    back = Coloring.from_doc(doc)  # partial tables are legal
    assert back.table == {(0, 1): 1, (2, 3): 0}
    bad_rows = (
        [0, 2, 7],  # color outside the palette
        [0, 2, -1],
        [0, 2],  # row too short
        [0, 1, 2, 0],  # row too long
        [1, 0, 0],  # not increasing
        [1, 1, 0],
        [-1, 2, 0],  # outside the universe
        [2, 4, 0],
        [0, 1.5, 0],  # not integers
        [0, True, 0],
        [2, 3, 1],  # duplicates the (2, 3) row
    )
    for row in bad_rows:
        mutated = dict(doc, entries=doc["entries"] + [row])
        with pytest.raises(ValueError):
            Coloring.from_doc(mutated)
    for mutated in ([doc], dict(doc, entries=7), {k: v for k, v in doc.items() if k != "colors"}):
        with pytest.raises(ValueError):
            Coloring.from_doc(mutated)
