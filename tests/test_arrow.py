"""Partition relation checks in all three modes."""

import itertools
import math
import random

import pytest

from ramseylab import arrow
from ramseylab.arrow import (
    ArrowQuery,
    DEFAULT_CEILING,
    SearchSpaceTooLarge,
    Verdict,
    _Energy,
    _product_digits,
    _product_index,
    _restricted_growth,
    _scan_pool,
    _TupleTable,
    arrow_check,
    ramsey_table,
    verify_refutation,
)
from ramseylab.cli import parse_class
from ramseylab.colorings import (
    find_type_homogeneous,
    iter_big_member_subsets,
    random_coloring,
    type_homogeneity_witness,
)
from ramseylab.structures import ClassKind, InternalCheckError, make_canonical
from test_arrow_pins import PINS

OR = ClassKind("or")


def _consistent(digits, groups) -> bool:
    """The digit-tuple reference scan: every same-type group monochromatic."""
    for g in groups:
        c0 = digits[g[0]]
        for gi in g[1:]:
            if digits[gi] != c0:
                return False
    return True


def test_frozen_or_holds_at_six():
    v = arrow_check(ArrowQuery(OR, 6, 3, 2, 2))
    assert v.status == "holds"
    assert v.mode == "exhaustive"
    assert v.counterexample is None


def test_frozen_or_fails_at_five():
    q = ArrowQuery(OR, 5, 3, 2, 2)
    v = arrow_check(q)
    assert v.status == "fails"
    assert v.counterexample is not None
    assert verify_refutation(q, v.counterexample)
    res = find_type_homogeneous(v.counterexample, 3)
    assert not res.found and res.exhaustive


def test_frozen_chi_or_distinct_types_shortcut():
    v = arrow_check(ArrowQuery(ClassKind("chi_or", chi=2), 3, 1, 2, 2))
    assert v.status == "holds"
    assert v.colorings_checked == 0  # one candidate realizes pairwise distinct types
    assert any("distinct types" in note for note in v.notes)


def test_frozen_tree_distinct_types_shortcut():
    v = arrow_check(ArrowQuery(ClassKind("n_tree", height=2), 2, 1, 2, 2))
    assert v.status == "holds"
    assert v.colorings_checked == 0


def test_counterexample_mode_on_a_distinct_types_candidate_is_unknown():
    # a candidate whose pairs all differ in type is homogeneous under every
    # coloring; counterexample mode cannot claim "holds", so it says so
    v = arrow_check(ArrowQuery(ClassKind("chi_or", chi=2), 3, 1, 2, 2), mode="counterexample")
    assert (v.status, v.mode, v.colorings_checked, v.counterexample) == ("unknown", "counterexample", 0, None)
    assert len(v.notes) == 1
    assert "distinct types" in v.notes[0] and v.notes[0].endswith("no coloring can refute the query")


def test_holds_with_single_color():
    v = arrow_check(ArrowQuery(OR, 3, 3, 2, 1))
    assert v.status == "holds"


def test_query_validation():
    with pytest.raises(ValueError):
        ArrowQuery(OR, -1, 1, 2, 2)
    with pytest.raises(ValueError):
        ArrowQuery(OR, 3, 2, 0, 2)
    with pytest.raises(ValueError):
        ArrowQuery(OR, 3, 2, 2, 0)
    # a bool would be written as JSON true, which from_doc refuses
    with pytest.raises(ValueError, match="must be integers"):
        ArrowQuery(OR, 3, True, True, 2)
    # a float would reach arrow_check and fail there with a TypeError
    with pytest.raises(ValueError, match="must be integers"):
        ArrowQuery(OR, 3.0, 1, 1, 2)


@pytest.mark.parametrize(
    "mode, probe",
    [
        ("randomized", {"samples": True}),  # would be written as JSON true
        ("counterexample", {"budget": True}),
        ("exhaustive", {"ceiling": 10.5}),
        ("randomized", {"samples": 2.5}),
        ("counterexample", {"budget": 2.5}),  # never equal to a flip count
        ("randomized", {"budget": 2.5}),
        ("randomized", {"seed": 1.5}),
        ("counterexample", {"seed": False}),
    ],
)
def test_probe_options_must_be_integers(mode, probe):
    with pytest.raises(ValueError, match="integer"):
        arrow_check(ArrowQuery(OR, 5, 3, 2, 2), mode=mode, **probe)


def test_query_doc_roundtrip():
    q = ArrowQuery(ClassKind("hypergraph", edge_arity=2, palette=2), 3, 2, 2, 2)
    assert ArrowQuery.from_doc(q.to_doc()) == q


def test_ceiling_guard():
    q = ArrowQuery(OR, 8, 3, 2, 2)  # 2^28 colorings
    with pytest.raises(SearchSpaceTooLarge):
        arrow_check(q)
    assert arrow_check(q, ceiling=2 ** 29, mode="randomized", samples=5).status in (
        "unknown",
        "fails",
    )


def test_ceiling_checked_before_the_table(monkeypatch):
    def refuse(query):
        raise AssertionError("the tuple table was built")

    monkeypatch.setattr(arrow, "_TupleTable", refuse)
    # C(100, 3) = 161700 triples; the power 2^161700 is never formed either
    with pytest.raises(SearchSpaceTooLarge, match=r"2\^161700 colorings exceed the ceiling"):
        arrow_check(ArrowQuery(OR, 100, 3, 3, 2))
    with pytest.raises(SearchSpaceTooLarge, match=r"2\^28 colorings"):
        arrow_check(ArrowQuery(OR, 8, 3, 2, 2), ceiling=2 ** 28 - 1)
    with pytest.raises(AssertionError, match="tuple table was built"):
        arrow_check(ArrowQuery(OR, 8, 3, 2, 2), ceiling=2 ** 28)


def test_randomized_refutes_five():
    q = ArrowQuery(OR, 5, 3, 2, 2)
    v = arrow_check(q, mode="randomized", seed=0, samples=200)
    assert v.status == "fails"
    assert verify_refutation(q, v.counterexample)
    assert v.colorings_checked <= 200


def test_randomized_never_claims_holds():
    v = arrow_check(ArrowQuery(OR, 6, 3, 2, 2), mode="randomized", seed=0, samples=30)
    assert v.status == "unknown"
    assert v.colorings_checked == 30


def test_counterexample_mode_refutes_five():
    q = ArrowQuery(OR, 5, 3, 2, 2)
    v = arrow_check(q, mode="counterexample", seed=1)
    assert v.status == "fails"
    assert verify_refutation(q, v.counterexample)


def test_counterexample_mode_gives_up_at_six():
    v = arrow_check(ArrowQuery(OR, 6, 3, 2, 2), mode="counterexample", seed=1, budget=2000)
    assert v.status == "unknown"
    assert v.counterexample is None


def test_counterexample_mode_seed_stable():
    q = ArrowQuery(OR, 5, 3, 2, 2)
    a = arrow_check(q, mode="counterexample", seed=3)
    b = arrow_check(q, mode="counterexample", seed=3)
    assert a.to_doc() == b.to_doc()


def test_counterexample_mode_with_one_color_makes_no_flip():
    # one color leaves no recoloring, so the descent returns at once; the
    # only coloring leaves a candidate homogeneous, so it refutes nothing
    v = arrow_check(ArrowQuery(OR, 5, 3, 2, 1), mode="counterexample", seed=0, budget=500)
    assert (v.status, v.work, v.colorings_checked, v.counterexample) == ("unknown", 0, 0, None)
    assert v.notes == ("one color leaves no move; 0 flips made",)


# flip budgets of the oracle runs: several times the flips the seeds take
_ORACLE_BUDGET = 10000
_HOLDS_BUDGET = 2000


@pytest.mark.parametrize("seed", range(3))
def test_counterexample_refutes_below_r333(seed):
    # R(3,3,3) = 17: some 3-coloring of the pairs of a 14-element order has no
    # monochromatic triangle
    q = ArrowQuery(OR, 14, 3, 2, 3)
    v = arrow_check(q, mode="counterexample", seed=seed, budget=_ORACLE_BUDGET)
    assert v.status == "fails"
    assert verify_refutation(q, v.counterexample)


@pytest.mark.parametrize("seed", range(2))
def test_counterexample_refutes_below_r443_for_triples(seed):
    # R(4,4;3) = 13: some 2-coloring of the triples of an 11-element order has
    # no 4-element subset with all its triples one color
    q = ArrowQuery(OR, 11, 4, 3, 2)
    v = arrow_check(q, mode="counterexample", seed=seed, budget=_ORACLE_BUDGET)
    assert v.status == "fails"
    assert verify_refutation(q, v.counterexample)


@pytest.mark.parametrize("query", [ArrowQuery(OR, 6, 3, 2, 2), ArrowQuery(ClassKind("ordered_graph"), 5, 3, 2, 2)],
                         ids=["or-6", "ordered_graph-5"])
def test_counterexample_never_refutes_a_relation_that_holds(query):
    assert arrow_check(query).status == "holds"
    for seed in range(10):
        v = arrow_check(query, mode="counterexample", seed=seed, budget=_HOLDS_BUDGET)
        assert (v.status, v.work, v.counterexample) == ("unknown", _HOLDS_BUDGET, None)


def test_verify_refutation_rejects_good_coloring():
    from ramseylab.colorings import Coloring
    from ramseylab.structures import make_canonical

    q = ArrowQuery(OR, 6, 3, 2, 2)
    base = make_canonical(OR, 6)
    col = Coloring.from_function(base, 2, 2, lambda t: 0)
    assert not verify_refutation(q, col)  # constant coloring is full of triangles


def test_verify_refutation_rejects_other_bases_and_partial_colorings():
    from ramseylab.colorings import Coloring
    from ramseylab.structures import make_canonical

    q = ArrowQuery(OR, 5, 3, 2, 2)
    refutation = arrow_check(q).counterexample
    assert verify_refutation(q, refutation)
    # the same colors over a larger ambient, and over another class
    wider = Coloring(make_canonical(OR, 6), 2, 2, refutation.table)
    assert not verify_refutation(q, wider)
    chi = Coloring(make_canonical(ClassKind("chi_color", chi=1), 5), 2, 2, refutation.table)
    assert not verify_refutation(q, chi)
    # one pair left uncolored
    partial = dict(refutation.table)
    del partial[(0, 1)]
    assert not verify_refutation(q, Coloring(refutation.base, 2, 2, partial))


def test_an_off_palette_table_never_reaches_verify_refutation():
    from ramseylab.colorings import Coloring
    from ramseylab.structures import make_canonical

    # R(3,3) = 6: every 2-colouring of K6 has a monochromatic triangle
    q = ArrowQuery(OR, 6, 3, 2, 2)
    assert arrow_check(q).status == "holds"
    # a pentagon and its complement, with the sixth vertex in a third colour:
    # no triangle is monochromatic, but the table is no 2-colouring
    k6 = make_canonical(OR, 6)
    table = {
        (a, b): 2 if b == 5 else 0 if b - a in (1, 4) else 1
        for a, b in itertools.combinations(range(6), 2)
    }
    with pytest.raises(ValueError, match="palette"):
        Coloring(k6, 2, 2, table)
    assert verify_refutation(ArrowQuery(OR, 6, 3, 2, 3), Coloring(k6, 2, 3, table))


def test_verdict_doc_shape():
    v = arrow_check(ArrowQuery(OR, 5, 3, 2, 2))
    doc = v.to_doc()
    assert doc["status"] == "fails"
    assert doc["mode"] == "exhaustive"
    assert isinstance(doc["work"], int)
    assert "counterexample" in doc
    assert Verdict.__name__  # imported symbol stays exercised


def test_table_small_grid():
    report = ramsey_table(OR, 2, 2, [1, 2, 3], [1, 2, 3, 4, 5, 6])
    assert len(report.rows) == 18
    assert report.least_holds[1] == 1
    assert report.least_holds[2] == 2
    assert report.least_holds[3] == 6  # the classic two-color triangle bound
    by_pair = {(r["ambient_level"], r["sub_level"]): r["status"] for r in report.rows}
    assert by_pair[(5, 3)] == "fails"
    assert by_pair[(6, 3)] == "holds"
    # holds is monotone in the ambient level along each row
    for mu in (1, 2, 3):
        seen_hold = False
        for lam in (1, 2, 3, 4, 5, 6):
            if by_pair[(lam, mu)] == "holds":
                seen_hold = True
            elif seen_hold:
                raise AssertionError((lam, mu))


def test_table_unresolved_least():
    report = ramsey_table(OR, 2, 2, [3], [1, 2, 3])
    assert report.least_holds[3] is None


@pytest.mark.parametrize(
    "statuses, sub_levels, ambient_levels, cells",
    [
        # more ambient room, same target: along the ambient axis only
        ({(5, 2): "holds", (6, 2): "fails"}, [2], [5, 6], "holds at ambient 5 sub 2, fails at ambient 6 sub 2"),
        # same ambient, smaller target: along the sub axis only
        ({(6, 3): "holds", (6, 2): "fails"}, [2, 3], [6], "holds at ambient 6 sub 3, fails at ambient 6 sub 2"),
    ],
    ids=["ambient", "sub"],
)
def test_table_monotonicity_violation_is_an_internal_check(monkeypatch, statuses, sub_levels, ambient_levels, cells):
    def fake(query, **probe):
        return Verdict(statuses[(query.ambient_level, query.sub_level)], "exhaustive", 0, 0)

    monkeypatch.setattr(arrow, "arrow_check", fake)
    with pytest.raises(InternalCheckError, match=f"monotonicity violated: {cells}"):
        ramsey_table(OR, 2, 2, sub_levels, ambient_levels)


@pytest.mark.parametrize("sub_levels, ambient_levels", [([], [1]), ([1], []), ([], [])])
def test_table_rejects_an_empty_level_list(sub_levels, ambient_levels):
    # a grid with no cells checks nothing, so it may not pass for a result
    with pytest.raises(ValueError, match="nonempty"):
        ramsey_table(OR, 2, 2, sub_levels, ambient_levels)


def test_table_doc_roundtrip_keys():
    report = ramsey_table(OR, 2, 2, [1, 2], [1, 2, 3])
    doc = report.to_doc()
    assert set(doc["least_holds"]) == {"1", "2"}  # JSON keys are strings


def test_default_ceiling_is_sane():
    assert DEFAULT_CEILING == 2 ** 26


def _rescan(digits, pool) -> int:
    return sum(_consistent(digits, groups) for _, groups in pool)


@pytest.mark.parametrize(
    "cls, ambient, sub, colors, most_groups, minimal",
    [
        (OR, 8, 3, 3, 1, False),
        (ClassKind("ceq"), 3, 2, 2, 2, False),
        (ClassKind("chi_or", chi=2), 5, 2, 2, 3, False),
        (ClassKind("ceq"), 4, 2, 3, 2, True),
    ],
    ids=["or-8", "ceq-3", "chi_or2-5", "ceq-4-minimal"],
)
def test_incremental_energy_matches_rescan(cls, ambient, sub, colors, most_groups, minimal):
    # seeded flips and flip-backs; after every step the kept energy and the
    # returned change equal a full rescan of the pool.  Besides the minimal
    # pool the descent steers by, pools of every big subset, whose candidates
    # hold more groups
    table = _TupleTable(ArrowQuery(cls, ambient, sub, 2, colors))
    if minimal:
        pool = table.candidates(sub)
    else:
        pool = [(cand, table.groups(cand)) for cand in iter_big_member_subsets(table.base, sub)]
    assert max(len(groups) for _, groups in pool) == most_groups
    rng = random.Random(ambient)
    digits = [rng.randrange(colors) for _ in table.tuples]
    energy = _Energy(pool, digits, colors)
    assert energy.value == _rescan(digits, pool)
    values = set()
    for _ in range(400):
        i = rng.randrange(len(digits))
        old, new = digits[i], rng.randrange(colors)
        before = energy.value
        delta = energy.flip(i, new)
        assert digits[i] == new
        assert energy.value == before + delta == _rescan(digits, pool)
        if rng.random() < 0.3:
            assert energy.flip(i, old) == -delta
            assert energy.value == before == _rescan(digits, pool)
        # the live list holds the consistent candidates, each at its position
        assert sorted(energy.live) == [k for k, (_, groups) in enumerate(pool) if _consistent(digits, groups)]
        assert all(energy.at[k] == j for j, k in enumerate(energy.live))
        values.add(energy.value)
    assert len(values) > 1


# (class, ambient, sub, arity, colors) with at most 2^10 colorings each
_SHAPES = [
    (OR, 5, 3, 2, 2),
    (ClassKind("ceq"), 3, 2, 1, 2),
    (ClassKind("chi_color", chi=2), 4, 2, 1, 2),
    (ClassKind("n_tree", height=1), 4, 2, 2, 2),
    (ClassKind("chi_or", chi=2), 4, 2, 1, 2),
]


@pytest.mark.parametrize("cls, ambient, sub, arity, colors", _SHAPES, ids=lambda v: getattr(v, "kind", v))
def test_minimal_pool_decides_like_the_lattice(cls, ambient, sub, arity, colors):
    # homogeneity is hereditary: on every coloring, some minimal candidate is
    # consistent exactly when some candidate of the whole lattice is
    table = _TupleTable(ArrowQuery(cls, ambient, sub, arity, colors))
    minimal = table.candidates(sub)
    lattice = [(cand, table.groups(cand)) for cand in iter_big_member_subsets(table.base, sub)]
    assert 0 < len(minimal) < len(lattice)
    assert {cand for cand, _ in minimal} <= {cand for cand, _ in lattice}
    for digits in itertools.product(range(colors), repeat=len(table.tuples)):
        some = any(_consistent(digits, groups) for _, groups in minimal)
        assert some == any(_consistent(digits, groups) for _, groups in lattice), digits


def test_counterexample_over_the_pool_bound_is_unknown():
    # 8 blocks of 8: C(8,3) * C(8,3)^3 minimal candidates, far over the bound
    v = arrow_check(ArrowQuery(ClassKind("ceq"), 8, 3, 2, 2), mode="counterexample")
    assert (v.status, v.work, v.colorings_checked) == ("unknown", 0, 0)
    assert v.notes == (f"more than {arrow._POOL_CAP} minimal candidate subsets; no descent was run",)


def test_exhaustive_over_the_pool_bound_searches_directly(monkeypatch):
    # the direct-search fork reaches the verdicts the pool scan reaches, over
    # the same restricted-growth colorings; the last query holds with 3 colors
    queries = [
        ArrowQuery(OR, 5, 3, 2, 2),
        ArrowQuery(OR, 6, 4, 3, 2),
        ArrowQuery(ClassKind("ceq"), 3, 2, 1, 2),
        ArrowQuery(ClassKind("n_tree", height=1), 4, 2, 2, 3),
    ]
    scanned = [arrow_check(q) for q in queries]
    assert scanned[-1].status == "holds"
    monkeypatch.setattr(arrow, "_POOL_CAP", 3)
    for q, want in zip(queries, scanned):
        assert _TupleTable(q).candidates(q.sub_level) is None
        got = arrow_check(q)
        assert (got.status, got.colorings_checked) == (want.status, want.colorings_checked)
        if want.counterexample is not None:
            assert got.counterexample.to_doc() == want.counterexample.to_doc()
        # and it searches the restricted-growth colorings only
        assert got.to_doc() == _product_scan(q, restricted=True).to_doc()


def test_counterexample_empty_pool_is_a_refutation():
    # two elements hold no triple: the pool is empty, the first coloring has
    # zero energy, and it is verified before it is reported, as in the
    # exhaustive mode
    q = ArrowQuery(OR, 2, 3, 2, 2)
    assert _TupleTable(q).candidates(3) == []
    v = arrow_check(q, mode="counterexample")
    assert (v.status, v.colorings_checked) == ("fails", 1)
    assert verify_refutation(q, v.counterexample)
    assert arrow_check(q).status == "fails"


def test_counterexample_pool_disagreeing_with_search_raises(monkeypatch):
    # one color: the whole order is homogeneous, so a pool that misses it
    # cannot pass the first coloring off as a refutation
    monkeypatch.setattr(_TupleTable, "candidates", lambda self, sub_level: [])
    with pytest.raises(InternalCheckError, match="counterexample refutation failed independent verification"):
        arrow_check(ArrowQuery(OR, 3, 3, 2, 1), mode="counterexample")


def test_a_painted_colour_outside_the_palette_is_refused_before_verification(monkeypatch):
    # `_TupleTable.paint` writes engine digits unchecked; the copy `_refuted`
    # takes is the one palette check a painted table gets
    def off_palette(k, colors, ntup):
        digits = _product_digits(k, colors, ntup)
        digits[0] = 2
        return digits

    def never(query, col):
        raise AssertionError("verify_refutation was called")

    monkeypatch.setattr(arrow, "_product_digits", off_palette)
    monkeypatch.setattr(arrow, "verify_refutation", never)
    with pytest.raises(ValueError, match="palette"):
        arrow_check(ArrowQuery(OR, 5, 3, 2, 2))


def _is_restricted_growth(digits) -> bool:
    """Tuple 0 colored 0, and each color at most one more than the largest before it."""
    return all(d <= 1 + max(digits[:i], default=-1) for i, d in enumerate(digits))


def _product_scan(q, restricted=False) -> Verdict:
    """The reference exhaustive mode: every coloring in `itertools.product`
    order, or only the restricted-growth ones, each certified by the
    digit-tuple scan of the pool when it fits under the bound and there are
    two or more colors, or else by a direct search, until one refutes."""
    table = _TupleTable(q)
    ntup = len(table.tuples)
    pool = table.candidates(q.sub_level) if q.colors > 1 else None
    work = 0
    if pool is not None:
        note = arrow._distinct_types(pool)
        if note is not None:
            return Verdict("holds", "exhaustive", len(pool), 0, notes=(note,))
        work = len(pool)
    for k, each in enumerate(itertools.product(range(q.colors), repeat=ntup)):
        if restricted and not _is_restricted_growth(each):
            continue
        if pool is not None:
            first = next((j for j, (_, groups) in enumerate(pool, 1) if _consistent(each, groups)), None)
            work += len(pool) if first is None else first
            refuted = first is None
        else:
            res = find_type_homogeneous(table.paint(each), q.sub_level)
            work += res.nodes
            refuted = not res.found
        if refuted:
            return Verdict("fails", "exhaustive", work, k + 1, table.paint(each).copy())
    return Verdict("holds", "exhaustive", work, q.colors ** ntup)


def _assert_matches_the_product_scan(q) -> None:
    # the scan of the restricted-growth colorings gives the verdict document
    # of the reference over them, work included; the full product scan finds
    # the same verdict, counterexample and colorings checked, for no less work
    got = arrow_check(q).to_doc()
    assert got == _product_scan(q, restricted=True).to_doc()
    full = _product_scan(q).to_doc()
    assert got["work"] <= full["work"]
    got["work"] = full["work"]
    assert got == full


@pytest.mark.parametrize("colors", [1, 2, 3, 4])
def test_restricted_growth_visits_the_least_coloring_of_each_orbit(colors):
    # the restricted-growth strings in product order, and Sum_{k <= colors}
    # S(ntup, k) of them: one per set partition of the tuples into at most
    # `colors` blocks
    for ntup in range(7):
        seen = [tuple(digits) for digits in _restricted_growth(ntup, colors)]
        want = [each for each in itertools.product(range(colors), repeat=ntup) if _is_restricted_growth(each)]
        assert seen == want
        stirling = [sum((-1) ** j * math.comb(k, j) * (k - j) ** ntup for j in range(k + 1)) // math.factorial(k)
                    for k in range(colors + 1)]
        assert len(seen) == sum(stirling)
        assert [_product_digits(_product_index(each, colors), colors, ntup) for each in seen] == list(map(list, seen))
        if colors == 2:
            # with 2 colors, the strings are those with tuple 0 colored 0
            assert [_product_index(each, 2) for each in seen] == list(range(2 ** ntup // 2 or 1))


# (class, ambient, sub, arity, colors): candidates of one and of two groups,
# both verdicts with 2 colors, with 3 and with 4, where a holds verdict runs
# through every restricted-growth position of its one block, and no tuple
# at all
_MASK_SHAPES = [
    (OR, 5, 3, 2, 2),
    (ClassKind("chi_color", chi=2), 3, 2, 1, 2),
    (ClassKind("ceq"), 3, 2, 1, 2),
    (ClassKind("n_tree", height=1), 4, 2, 2, 2),
    (OR, 4, 3, 2, 3),
    (ClassKind("chi_color", chi=2), 3, 2, 1, 3),
    (OR, 7, 3, 1, 3),
    (ClassKind("n_tree", height=1), 4, 2, 2, 3),
    (OR, 5, 2, 1, 4),
    (OR, 1, 1, 2, 3),
    (OR, 1, 2, 2, 3),
]


@pytest.mark.parametrize("cls, ambient, sub, arity, colors", _MASK_SHAPES, ids=lambda v: getattr(v, "kind", v))
def test_mask_scan_matches_the_digit_scan(cls, ambient, sub, arity, colors):
    # the mask scan sums the work the digit-tuple scan does over the
    # restricted-growth colorings up to the first with no consistent
    # candidate, stops there and gives its product index
    q = ArrowQuery(cls, ambient, sub, arity, colors)
    table = _TupleTable(q)
    pool = table.candidates(sub)
    ntup = len(table.tuples)
    assert _scan_pool(pool, ntup, colors) == _digit_scan(pool, ntup, colors)
    _assert_matches_the_product_scan(q)


def _digit_scan(pool, ntup, colors):
    """The reference pool scan: the work of the digit-tuple scan over the
    restricted-growth colorings up to the first with no consistent
    candidate, and that coloring's product index, or None."""
    work = 0
    for k, each in enumerate(itertools.product(range(colors), repeat=ntup)):
        if not _is_restricted_growth(each):
            continue
        first = next((j for j, (_, groups) in enumerate(pool, 1) if _consistent(each, groups)), None)
        work += len(pool) if first is None else first
        if first is None:
            return work, k
    return work, None


@pytest.mark.parametrize("colors, ntup, block", [(2, 15, 2 ** 12), (3, 9, 3 ** 7), (4, 8, 4 ** 6)])
@pytest.mark.parametrize("seed", range(3))
def test_block_scan_matches_the_digit_scan_across_blocks(colors, ntup, block, seed):
    # seeded pools of random groups over more tuples than one block spans,
    # so the leading digits take several restricted-growth prefixes: a
    # refutation past the first block, a holds through every block and the
    # empty pool
    rng = random.Random(seed)

    def candidates(n):
        return [(None, [rng.sample(range(ntup), rng.randint(2, 3)) for _ in range(rng.randint(1, 2))])
                for _ in range(n)]

    # the first candidate covers the first block, whose prefix is all 0
    later = [(None, [[0, 1]])] + candidates(6)
    work, failing = _digit_scan(later, ntup, colors)
    assert failing is not None and failing >= block
    assert _scan_pool(later, ntup, colors) == (work, failing)
    # every coloring repeats a color among tuple 0 and the last `colors`
    pigeons = [0] + list(range(ntup - colors, ntup))
    holds = candidates(6) + [(None, [list(pair)]) for pair in itertools.combinations(pigeons, 2)]
    work, failing = _scan_pool(holds, ntup, colors)
    assert failing is None and (work, failing) == _digit_scan(holds, ntup, colors)
    assert _scan_pool([], ntup, colors) == _digit_scan([], ntup, colors) == (0, 0)


@pytest.mark.parametrize("row", [row for row in PINS if row[5] == "exhaustive"], ids=lambda row: "-".join(map(str, row[:5])))
def test_exhaustive_pins_match_the_product_scan(row):
    cls, ambient, sub, arity, colors = row[:5]
    _assert_matches_the_product_scan(ArrowQuery(parse_class(cls), ambient, sub, arity, colors))


def _randomized_reference(q, seed, samples, budget):
    """The randomized mode with a fresh coloring per sample."""
    base = make_canonical(q.cls, q.ambient_level)
    rng = random.Random(seed)
    work = inconclusive = 0
    for k in range(samples):
        sub_seed = rng.randrange(2 ** 32)
        col = random_coloring(base, q.arity, q.colors, sub_seed)
        res = find_type_homogeneous(col, q.sub_level, budget=budget)
        work += res.nodes
        if res.found:
            continue
        if res.exhaustive:
            note = f"sample {k} (seed {sub_seed}) admits no homogeneous subset"
            return Verdict("fails", "randomized", work, k + 1, col, notes=(note,))
        inconclusive += 1
    notes = (f"{samples} samples searched, {inconclusive} hit the budget",)
    return Verdict("unknown", "randomized", work, samples, notes=notes)


# (class, ambient, sub, arity, colors): or@4 sub 2 candidates have no
# same-type group, ordered_graph and ceq subsets hold several groups, and
# or@8 sub 4 colours triples
_RANDOMIZED_GRID = [
    ("or", 5, 3, 2, 2),
    ("or", 6, 3, 2, 2),
    ("or", 4, 2, 2, 2),
    ("ceq", 3, 2, 2, 3),
    ("n_tree:2", 3, 2, 2, 2),
    ("chi_or:2", 4, 2, 2, 2),
    ("ordered_graph", 5, 3, 2, 2),
    ("or", 8, 4, 3, 2),
]


def test_randomized_on_the_shared_table_matches_fresh_colorings(monkeypatch):
    # each sample painted into one typed table, or decided by a subset an
    # earlier sample's search found, gives the status, colorings checked,
    # notes and refutation that a fresh random_coloring per sample gives;
    # the refutation handed back is a copy, which later paints of the table
    # leave alone.  A cap of 2 kept subsets is reached on most queries.
    tables = []

    class Recording(_TupleTable):
        def __init__(self, query):
            super().__init__(query)
            tables.append(self)

    monkeypatch.setattr(arrow, "_TupleTable", Recording)
    seen = set()
    saved = 0
    for row, seed, budget, cap in itertools.product(_RANDOMIZED_GRID, range(3), [None, 6], [arrow._KEPT_CAP, 2]):
        monkeypatch.setattr(arrow, "_KEPT_CAP", cap)
        cls, ambient, sub, arity, colors = row
        q = ArrowQuery(parse_class(cls), ambient, sub, arity, colors)
        want = _randomized_reference(q, seed, 200, budget).to_doc()
        got = arrow_check(q, mode="randomized", seed=seed, samples=200, budget=budget)
        doc = got.to_doc()
        saved += want.pop("work") - doc.pop("work")
        assert doc == want, (row, seed, budget, cap)
        seen.add(want["status"] if want["status"] == "fails" else want["notes"][0])
        if got.counterexample is not None:
            tables[-1].paint([colors - 1] * len(tables[-1].tuples))
            assert got.counterexample.to_doc() == want["counterexample"]
    assert "fails" in seen
    assert any(note.endswith(" hit the budget") and not note.endswith(" 0 hit the budget") for note in seen)
    assert saved > 0


def test_randomized_without_kept_subsets_is_the_reference(monkeypatch):
    # with no subset kept every sample is searched, so the work is the
    # search nodes alone, as in the reference
    monkeypatch.setattr(arrow, "_KEPT_CAP", 0)
    for row, seed in itertools.product(_RANDOMIZED_GRID, range(2)):
        cls, ambient, sub, arity, colors = row
        q = ArrowQuery(parse_class(cls), ambient, sub, arity, colors)
        got = arrow_check(q, mode="randomized", seed=seed, samples=100)
        assert got.to_doc() == _randomized_reference(q, seed, 100, None).to_doc(), (row, seed)


def test_kept_subset_cover_matches_the_witness():
    # the cover check on a found subset's same-type groups agrees with
    # type_homogeneity_witness on that subset, over seeded later samples
    hits = misses = 0
    for row in _RANDOMIZED_GRID:
        cls, ambient, sub, arity, colors = row
        table = _TupleTable(ArrowQuery(parse_class(cls), ambient, sub, arity, colors))
        rng = random.Random(f"{row}")
        found = []
        for _ in range(60):
            digits = [rng.randrange(colors) for _ in table.tuples]
            col = table.paint(digits)
            for subset in found:
                covered = arrow._first_homogeneous([arrow._ties(table.groups(subset))], digits) == 1
                assert covered == (type_homogeneity_witness(col, subset) is not None), (row, subset, digits)
                hits += covered
                misses += not covered
            res = find_type_homogeneous(col, sub)
            if res.found:
                found.append(res.subset)
    assert hits and misses