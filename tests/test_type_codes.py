"""Type codes against fragments.

`Kind.type_code` names a type by arithmetic over per-element arrays;
`type_fragment` stays the definition.  A code is right when, for one base
and one arity, two tuples have equal codes exactly when they have equal
fragments, and `Coloring.type_id`, which interns codes, then numbers types
as interning fragments did.  The walker, its rows and `arrow`'s tuple
table intern tuples without `type_id`'s checks, and putting the checks back
changes nothing.
"""

import itertools
import random

from helpers import SMALL_KINDS, random_member
from test_arrow_pins import PINS, _sha256
from test_walk_pins import SEARCH_PINS

from ramseylab.arrow import ArrowQuery, arrow_check
from ramseylab.cli import parse_class
from ramseylab.colorings import Coloring, find_type_homogeneous, random_coloring
from ramseylab.reductions import reduce_ceq, reduce_chicolor
from ramseylab.structures import TABLE, ClassKind, is_member, make_canonical
from ramseylab.tuple_types import require_tuple, tuple_type, type_coder, type_fragment

KINDS = SMALL_KINDS + (
    ClassKind("n_tree", height=1),
    ClassKind("n_tree", height=3),
    ClassKind("hypergraph", edge_arity=3, palette=2),
    ClassKind("hypergraph", edge_arity=1, palette=3),
)


def _members(cls):
    """Canonical members at levels 1-3, then seeded random ones."""
    for mu in (1, 2, 3):
        yield make_canonical(cls, mu)
    rng = random.Random(cls.label())
    for _ in range(12):
        yield random_member(cls, rng, max_size=9)


def _fragment_numbering(base, tuples) -> list[int]:
    # the numbering Coloring kept before type codes: each tuple's fragment
    # interned in order of first sight
    ids: dict = {}
    return [ids.setdefault(type_fragment(base, tup), len(ids)) for tup in tuples]


def test_equal_codes_exactly_when_equal_fragments():
    assert {cls.kind for cls in KINDS} == set(TABLE)
    for cls in KINDS:
        for base in _members(cls):
            assert is_member(base), cls.label()
            code = type_coder(base)
            for n in (1, 2, 3):
                pairs = {(code(tup), type_fragment(base, tup)) for tup in itertools.combinations(range(base.size), n)}
                # one code per fragment and one fragment per code
                assert len({c for c, _ in pairs}) == len(pairs) == len({f for _, f in pairs}), (cls.label(), base, n)


def test_type_ids_reproduce_the_fragment_numbering():
    rng = random.Random(11)
    for cls in KINDS:
        for base in _members(cls):
            for n in (1, 2, 3):
                tuples = list(itertools.combinations(range(base.size), n))
                rng.shuffle(tuples)  # first sight need not follow the lexicographic order
                col = random_coloring(base, n, 2, seed=rng.randrange(1000))
                assert [col.type_id(tup) for tup in tuples] == _fragment_numbering(base, tuples), (cls.label(), n)
                assert [col.type_of(tup) for tup in tuples] == [tuple_type(base, tup) for tup in tuples]


def test_search_ids_follow_the_fragment_numbering():
    # the walker types tuples in its own order; _types keeps that order
    for cls in KINDS:
        base = make_canonical(cls, 3)
        for seed in range(3):
            col = random_coloring(base, 2, 2, seed=seed)
            res = find_type_homogeneous(col, 2, budget=2000)
            seen = list(col._types)
            assert seen, cls.label()
            assert list(col._types.values()) == _fragment_numbering(base, seen), (cls.label(), seed, res.nodes)


def _unchecked_typing_results() -> list:
    # every walker pin, both reductions on seeded colourings, and the
    # exhaustive arrow pins, each as the whole result it returns
    out = []
    for cls, lam, level, arity, seed, budget, within, subset, exhaustive, nodes in SEARCH_PINS:
        col = random_coloring(make_canonical(parse_class(cls), lam), arity, 2, seed)
        res = find_type_homogeneous(col, level, budget=budget, within=within)
        assert (res.subset, res.exhaustive, res.nodes) == (subset, exhaustive, nodes)
        out.append(res)
    for reduce, label, lam in ((reduce_chicolor, "chi_color:2", 3), (reduce_chicolor, "chi_color:3", 3),
                               (reduce_ceq, "ceq", 2), (reduce_ceq, "ceq", 3)):
        base = make_canonical(parse_class(label), lam)
        for seed in range(6):
            col = random_coloring(base, 2, 2, seed=seed)
            out += [reduce(col, level).to_doc() for level in (1, 2)]
    for cls, ambient, sub, arity, colors, mode, kwargs, digest in PINS:
        if mode == "exhaustive":
            doc = arrow_check(ArrowQuery(parse_class(cls), ambient, sub, arity, colors), mode=mode, **kwargs).to_doc()
            assert _sha256(doc) == digest
            out.append(doc)
    return out


def test_unchecked_typing_passes_the_checks(monkeypatch):
    plain = _unchecked_typing_results()
    intern, calls = Coloring._intern, []

    def checked(col, tup):
        require_tuple(col.base, tup)
        if len(tup) != col.arity:
            raise ValueError(f"tuple {tup} is not a {col.arity}-tuple")
        calls.append(tup)
        return intern(col, tup)

    monkeypatch.setattr(Coloring, "_intern", checked)
    assert _unchecked_typing_results() == plain
    assert len(calls) > 1000
