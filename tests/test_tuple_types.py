"""Tuple types: encoder vs brute force, restriction, enumeration."""

import base64
import itertools
import random

import pytest

from helpers import SMALL_KINDS, brute_type_count, random_member, same_type_bruteforce
from ramseylab import tuple_types
from ramseylab.structures import ClassKind, make_canonical, subset_closure
from ramseylab.tuple_types import TupleType, enumerate_types, restrict_type, tuple_type

FROZEN_COUNTS = [
    # class, arity, level, distinct types
    (ClassKind("or"), 1, None, 1),
    (ClassKind("or"), 2, None, 1),
    (ClassKind("or"), 3, None, 1),
    (ClassKind("chi_or", chi=2), 1, None, 2),
    (ClassKind("chi_or", chi=2), 2, None, 3),
    (ClassKind("chi_or", chi=2), 3, None, 4),
    (ClassKind("chi_or", chi=3), 2, None, 6),
    (ClassKind("chi_color", chi=2), 1, None, 2),
    (ClassKind("chi_color", chi=2), 2, None, 4),
    (ClassKind("chi_color", chi=3), 2, None, 9),
    (ClassKind("ceq"), 2, None, 2),
    (ClassKind("ceq"), 3, None, 4),
    (ClassKind("ceq"), 4, None, 8),
    (ClassKind("ordered_graph"), 2, None, 1),
    (ClassKind("ordered_graph"), 2, 3, 2),
    (ClassKind("hypergraph", edge_arity=2, palette=2), 1, 2, 2),
]


def test_frozen_type_counts():
    for cls, n, level, want in FROZEN_COUNTS:
        got = len(enumerate_types(cls, n, level))
        assert got == want, (cls.label(), n, level, got)


def test_counts_match_bruteforce():
    for cls, n, level, _ in FROZEN_COUNTS:
        assert len(enumerate_types(cls, n, level)) == brute_type_count(cls, n, level)


def test_counts_match_bruteforce_more():
    cases = [
        (ClassKind("n_tree", height=1), 2, None),
        (ClassKind("n_tree", height=2), 2, None),
        (ClassKind("ordered_graph"), 3, None),
        (ClassKind("hypergraph", edge_arity=2, palette=2), 2, None),
        (ClassKind("chi_or", chi=2), 2, 3),
    ]
    for cls, n, level in cases:
        assert len(enumerate_types(cls, n, level)) == brute_type_count(cls, n, level)


def test_equality_agrees_with_bruteforce():
    for cls in SMALL_KINDS:
        for seed in range(12):
            rng = random.Random(seed)
            s = random_member(cls, rng, max_size=7)
            if s.size < 2:
                continue
            n = rng.choice([1, 2])
            tups = list(itertools.combinations(range(s.size), n))
            rng.shuffle(tups)
            tups = tups[:8]
            for a in tups:
                for b in tups:
                    enc = tuple_type(s, a) == tuple_type(s, b)
                    assert enc == same_type_bruteforce(s, a, b), (cls.label(), a, b)


def test_type_invariant_under_ambient_extension():
    # computing in the small canonical or the big one makes no difference
    for cls in SMALL_KINDS:
        small = make_canonical(cls, 2)
        big = make_canonical(cls, 3)
        if cls.kind in ("chi_or", "ceq", "n_tree"):
            continue  # small is not an initial segment of big for these
        for tup in itertools.combinations(range(small.size), 2):
            assert tuple_type(small, tup) == tuple_type(big, tup)


def test_tuple_validation():
    s = make_canonical(ClassKind("or"), 4)
    with pytest.raises(ValueError):
        tuple_type(s, ())
    with pytest.raises(ValueError):
        tuple_type(s, (2, 2))
    with pytest.raises(ValueError):
        tuple_type(s, (3, 1))
    with pytest.raises(ValueError):
        tuple_type(s, (0, 4))


def test_restriction_matches_subtuple():
    for cls in SMALL_KINDS:
        for seed in range(20):
            rng = random.Random(seed)
            s = random_member(cls, rng, max_size=7)
            if s.size < 3:
                continue
            n = 3
            tup = tuple(sorted(rng.sample(range(s.size), n)))
            t = tuple_type(s, tup)
            for k in (1, 2):
                for positions in itertools.combinations(range(n), k):
                    sub = tuple(tup[i] for i in positions)
                    assert restrict_type(t, positions) == tuple_type(s, sub)


def test_restriction_composes():
    s = make_canonical(ClassKind("n_tree", height=2), 2)
    tup = (1, 2, 4, 5)
    t = tuple_type(s, tup)
    # restricting in two steps equals restricting once
    assert restrict_type(restrict_type(t, (0, 1, 2)), (0, 2)) == restrict_type(t, (0, 2))


def test_restriction_validation():
    t = enumerate_types(ClassKind("or"), 2)[0]
    with pytest.raises(ValueError):
        restrict_type(t, ())
    with pytest.raises(ValueError):
        restrict_type(t, (1, 0))
    with pytest.raises(ValueError):
        restrict_type(t, (0, 2))


def test_enumeration_monotone_in_level():
    for cls in SMALL_KINDS:
        lo = {t.code for t in enumerate_types(cls, 2, 2)}
        hi = {t.code for t in enumerate_types(cls, 2, 3)}
        assert lo <= hi


def test_enumeration_level_floor():
    # levels below the arity are clamped to it
    cls = ClassKind("chi_or", chi=2)
    assert enumerate_types(cls, 3, 1) == enumerate_types(cls, 3, 3)


def test_enumeration_deterministic_and_distinct():
    for cls in SMALL_KINDS:
        a = enumerate_types(cls, 2, 3)
        b = enumerate_types(cls, 2, 3)
        assert a == b
        assert len({t.code for t in a}) == len(a)


def test_closure_shows_up_in_tree_types():
    s = make_canonical(ClassKind("n_tree", height=2), 2)
    leaves = [v for v in range(s.size) if s.level[v] == 2]
    a, b = leaves[0], leaves[-1]
    closed = subset_closure(s, (a, b))
    assert len(closed) == 3  # the meet joins in
    t = tuple_type(s, (a, b))
    same = tuple_type(s, (leaves[1], leaves[-1]))
    assert t == same  # also meet at the root
    sibling = tuple_type(s, (leaves[0], leaves[1]))
    assert t != sibling  # meet is the common parent, different level


def test_doc_roundtrip():
    for cls in SMALL_KINDS:
        for t in enumerate_types(cls, 2, 2):
            back = TupleType.from_doc(t.to_doc())
            assert back == t
            assert back.sort_key() == t.sort_key()


def _b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


# codes the type loader must refuse; the canonical code of the first ceq pair
# type is {"blocks":[0,0],"gen":[0,1],"m":2}
BAD_CODES = {
    "spacing": _b64(b'{"blocks": [0,0], "gen": [0,1], "m": 2}'),
    "key-order": _b64(b'{"m":2,"gen":[0,1],"blocks":[0,0]}'),
    "json-list": _b64(b"[0,1]"),
    "not-base64": "not base64!",
    "bad-padding": "eyJ",
    "not-json": _b64(b"{m:2}"),
    "m-string": _b64(b'{"blocks":[0,0],"gen":[0,1],"m":"2"}'),
    "gen-missing": _b64(b'{"blocks":[0,0],"m":2}'),
    "boolean": _b64(b'{"blocks":[true,0],"gen":[0,1],"m":2}'),
    "object-inside": _b64(b'{"blocks":{},"gen":[0,1],"m":2}'),
    "nested-too-deep": _b64(b"[" * 100000 + b"]" * 100000),
}


@pytest.mark.parametrize("code", BAD_CODES.values(), ids=BAD_CODES)
def test_type_loader_rejects_noncanonical_code(code):
    doc = tuple_type(make_canonical(ClassKind("ceq"), 2), (0, 1)).to_doc()
    with pytest.raises(ValueError, match="tuple type code"):
        TupleType.from_doc({**doc, "code": code})


def test_typing_never_touches_json(monkeypatch):
    class NoJson:
        def __getattr__(self, name):
            raise AssertionError(f"json.{name} called")

    monkeypatch.setattr(tuple_types, "json", NoJson())
    for cls in SMALL_KINDS:
        for t in enumerate_types(cls, 3, 3):
            for positions in ((0,), (1, 2), (0, 2)):
                restrict_type(t, positions)


def _closure_type(s, tup) -> TupleType:
    """The type as computed before kinds with no functions skipped the
    closure: close the tuple, relabel along the order, sort the entries."""
    closed = subset_closure(s, tup)
    pos = {e: i for i, e in enumerate(closed)}
    entries = [("gen", tuple(pos[e] for e in tup)), ("m", len(closed))]
    entries += s.cls.spec.fragment(s, closed, pos)
    return TupleType(s.cls, len(tup), tuple(sorted(entries)))


_FAST_KINDS = SMALL_KINDS + (ClassKind("n_tree", height=1), ClassKind("hypergraph", edge_arity=3, palette=3))


@pytest.mark.parametrize("cls", _FAST_KINDS, ids=ClassKind.label)
def test_typing_matches_the_closure_computation(cls):
    # every tuple of arity 1-3 of each canonical member of up to 16 elements
    rng = random.Random(9)
    members = [s for s in (make_canonical(cls, lam) for lam in range(1, 17)) if s.size <= 16]
    members += [random_member(cls, rng, max_size=9) for _ in range(6)]
    tuples = 0
    for s in members:
        for n in (1, 2, 3):
            for tup in itertools.combinations(range(s.size), n):
                got = tuple_type(s, tup)
                want = _closure_type(s, tup)
                assert (got, got.fragment, got.code) == (want, want.fragment, want.code), (s, tup)
                tuples += 1
    assert tuples > 300


def test_enumeration_rejects_negative_level():
    with pytest.raises(ValueError, match="level must be nonnegative"):
        enumerate_types(ClassKind("or"), 2, -1)


def _enumerate_types_reference(cls, n, level=None):
    # the scan enumerate_types replaced: one TupleType per tuple, deduplicated
    base = make_canonical(cls, n if level is None else max(level, n))
    return list(dict.fromkeys(tuple_type(base, tup) for tup in itertools.combinations(range(base.size), n)))


def test_enumerate_types_matches_the_per_tuple_scan():
    for cls in SMALL_KINDS:
        for n in (1, 2, 3):
            for level in (None, n + 1):
                want = _enumerate_types_reference(cls, n, level)
                got = enumerate_types(cls, n, level)
                assert got == want, (cls.label(), n, level)
    # the coded scan at the sizes the CLI and blueprints ask for
    for cls, n, level in (
        (ClassKind("ceq"), 5, None),
        (ClassKind("hypergraph", edge_arity=2, palette=2), 4, 6),
        (ClassKind("hypergraph", edge_arity=3, palette=2), 3, 5),
        (ClassKind("n_tree", height=2), 3, 3),
        (ClassKind("n_tree", height=2), 4, None),
    ):
        assert enumerate_types(cls, n, level) == _enumerate_types_reference(cls, n, level), (cls.label(), n, level)
