"""Reductions of chi_color and ceq colorings through linear-order auxiliaries."""

import itertools
import random
import re

import pytest

from helpers import time_limit
from ramseylab import reductions
from ramseylab.colorings import (
    Coloring,
    find_type_homogeneous,
    random_coloring,
    type_homogeneity_witness,
)
from ramseylab.reductions import (
    ReductionReport,
    aux_coloring_ceq,
    aux_coloring_chicolor,
    compositions_with_zeros,
    reduce_ceq,
    reduce_chicolor,
)
from ramseylab.structures import (
    ClassKind,
    make_canonical,
    subset_induces_member,
    subset_is_big,
)

CHI2 = ClassKind("chi_color", chi=2)
CEQ = ClassKind("ceq")


def _gap_coloring(lam):
    """Pairs inside one residue block get 1, pairs across blocks get 0."""
    base = make_canonical(CHI2, lam)
    return Coloring.from_function(
        base, 2, 2, lambda t: 1 if t[0] // 2 == t[1] // 2 else 0
    )


def test_reduce_rejects_wrong_inputs():
    col = random_coloring(make_canonical(ClassKind("or"), 4), 2, 2, seed=0)
    with pytest.raises(ValueError):
        reduce_chicolor(col, 1)
    with pytest.raises(ValueError):
        reduce_ceq(col, 1)
    # right kind, non-canonical base
    from ramseylab.structures import FinStructure

    odd = FinStructure(CEQ, 4, blocks=((0,), (1, 2, 3)))
    with pytest.raises(ValueError):
        reduce_ceq(random_coloring(odd, 2, 2, seed=0), 1)
    partial = Coloring(make_canonical(CHI2, 2), 2, 2, {(0, 1): 0})
    with pytest.raises(ValueError):
        reduce_chicolor(partial, 1)


def test_aux_chicolor_digits():
    base = make_canonical(CHI2, 2)  # blocks {0,1} and {2,3}
    col = random_coloring(base, 2, 2, seed=3)
    aux = aux_coloring_chicolor(col)
    assert aux.base.size == 2
    assert aux.colors == 2 ** 4
    want = 0
    for i1, i2 in itertools.product(range(2), repeat=2):
        want = want * 2 + col.color((0 + i1, 2 + i2))
    assert aux.color((0, 1)) == want


def test_aux_chicolor_unary():
    base = make_canonical(ClassKind("chi_color", chi=3), 2)
    col = random_coloring(base, 1, 2, seed=5)
    aux = aux_coloring_chicolor(col)
    assert aux.colors == 2 ** 3
    for g in range(2):
        want = 0
        for i in range(3):
            want = want * 2 + col.color((3 * g + i,))
        assert aux.color((g,)) == want


def test_reduce_chicolor_checks_its_coloring_once(monkeypatch):
    checked = []

    def counted(col, kind):
        checked.append(kind)
        return require(col, kind)

    require = reductions._require_canonical
    monkeypatch.setattr(reductions, "_require_canonical", counted)
    assert reduce_chicolor(_gap_coloring(3), 1).subset == (0, 1)
    assert checked == ["chi_color"]
    # the public packer still checks on its own
    partial = Coloring(make_canonical(CHI2, 2), 2, 2, {(0, 1): 0})
    with pytest.raises(ValueError, match="coloring must be total"):
        aux_coloring_chicolor(partial)
    assert checked == ["chi_color", "chi_color"]


def test_reduce_chicolor_constant():
    col = Coloring.from_function(make_canonical(CHI2, 3), 2, 2, lambda t: 0)
    report = reduce_chicolor(col, 2)
    assert report.status == "found"
    assert [st.name for st in report.stages] == ["aux", "aux_search", "lift"]
    assert report.subset == (0, 1, 2, 3)  # first two blocks
    assert all(c == 0 for _, c in report.witness.entries)


def test_reduce_chicolor_gap_level_one():
    report = reduce_chicolor(_gap_coloring(3), 1)
    assert report.status == "found"
    assert report.subset == (0, 1)  # one block is clean on its own
    assert report.witness.as_dict().popitem()[1] == 1


def test_reduce_chicolor_gap_level_two():
    # the auxiliary coloring is constant yet nothing lifts: within-block and
    # cross-block pairs share their residue type but not their color; direct
    # search finds a subset that is no union of residue blocks
    report = reduce_chicolor(_gap_coloring(4), 2)
    names = [st.name for st in report.stages]
    assert names == ["aux", "aux_search", "lift", "direct"]
    assert report.stages[2].status == "failed"
    assert report.stages[3].status == "ok"
    direct = find_type_homogeneous(_gap_coloring(4), 2)
    assert report.subset == direct.subset
    assert report.witness == direct.witness
    assert not any(a // 2 == b // 2 for a, b in itertools.combinations(report.subset, 2))


def test_reduce_chicolor_searches_directly_when_aux_exhausts():
    # the three pairs of positions get three different auxiliary colors, so
    # no three positions are homogeneous; the absence comes from direct search
    base = make_canonical(CHI2, 3)
    col = Coloring.from_function(
        base, 2, 3, lambda t: (t[0] // 2 + t[1] // 2) % 3 if t[0] // 2 != t[1] // 2 else 0
    )
    report = reduce_chicolor(col, 3)
    assert [(st.name, st.status) for st in report.stages] == [
        ("aux", "ok"), ("aux_search", "absent"), ("direct", "absent"),
    ]
    assert report.stages[1].details["exhaustive"]
    assert report.exhaustive and report.stages[-1].details["exhaustive"]
    assert not find_type_homogeneous(col, 3).found


def test_reduce_chicolor_budget():
    report = reduce_chicolor(_gap_coloring(4), 2, budget=1)
    assert report.status == "absent"
    assert not report.exhaustive


def test_reduce_chicolor_sound_on_random():
    for chi, lam in ((2, 3), (2, 4), (3, 3)):
        cls = ClassKind("chi_color", chi=chi)
        base = make_canonical(cls, lam)
        for seed in range(12):
            col = random_coloring(base, 2, 2, seed=seed)
            for level in (1, 2):
                report = reduce_chicolor(col, level)
                if report.status == "found":
                    sub = report.subset
                    assert subset_induces_member(base, sub)
                    assert subset_is_big(base, sub, level)
                    direct = type_homogeneity_witness(col, sub)
                    assert direct is not None
                    assert direct.entries == report.witness.entries
                elif report.exhaustive:
                    assert not find_type_homogeneous(col, level).found, (chi, lam, seed, level)


@time_limit(60)
def test_reduce_chicolor_failed_lift_returns_direct_search_subset():
    hits = {"ok": 0, "absent": 0}
    for chi, lam in ((2, 4), (3, 3)):
        base = make_canonical(ClassKind("chi_color", chi=chi), lam)
        for seed in range(12):
            col = random_coloring(base, 2, 2, seed=seed)
            for level in (1, 2):
                report = reduce_chicolor(col, level)
                stage = report.stages[-1]
                if stage.name == "lift" and stage.status == "ok":
                    continue
                assert stage.name == "direct"
                hits[stage.status] += 1
                direct = find_type_homogeneous(col, level)
                assert report.subset == direct.subset, (chi, lam, seed, level)
                assert report.exhaustive == direct.exhaustive
                assert stage.details == {"exhaustive": direct.exhaustive}
                assert stage.work == direct.nodes
    assert hits["ok"] and hits["absent"], hits


def test_compositions_with_zeros():
    assert compositions_with_zeros(1) == [(1,)]
    assert compositions_with_zeros(2) == [(0, 2), (1, 1), (2, 0)]
    three = compositions_with_zeros(3)
    assert len(three) == 10
    assert three[0] == (0, 0, 3) and three[-1] == (3, 0, 0)
    assert three == sorted(three)
    assert all(sum(c) == 3 and len(c) == 3 for c in three)


def test_aux_ceq_digits():
    base = make_canonical(CEQ, 2)  # blocks (0,1) and (2,3)
    col = random_coloring(base, 2, 3, seed=1)
    pieces = {0: (0, 1), 1: (2, 3)}
    aux = aux_coloring_ceq(col, pieces)
    assert aux.base.size == 2
    assert aux.colors == 3 ** 3
    want = col.color((2, 3))  # counts (0, 2)
    want = want * 3 + col.color((0, 2))  # counts (1, 1)
    want = want * 3 + col.color((0, 1))  # counts (2, 0)
    assert aux.color((0, 1)) == want


def test_aux_ceq_needs_enough_representatives():
    base = make_canonical(CEQ, 2)
    col = random_coloring(base, 2, 2, seed=0)
    with pytest.raises(ValueError):
        aux_coloring_ceq(col, {0: (0,), 1: (2, 3)})


def _pack_reference(col, pieces, shapes):
    # the row-by-row packer the column-by-column one replaced
    flat = [[(slot, off) for slot, offs in enumerate(shape) for off in offs] for shape in shapes]
    table = {}
    for gam in itertools.combinations(range(len(pieces)), col.arity):
        value = 0
        for pairs in flat:
            value = value * col.colors + col.color(tuple(pieces[gam[slot]][off] for slot, off in pairs))
        table[gam] = value
    return table


def test_pack_matches_the_row_by_row_reference():
    for n, c, seed in ((1, 3, 0), (2, 2, 1), (2, 3, 2), (3, 2, 3)):
        col = random_coloring(make_canonical(ClassKind("chi_color", chi=3), 5), n, c, seed=seed)
        shapes = [tuple((i,) for i in idx) for idx in itertools.product(range(3), repeat=n)]
        pieces = reductions._residue_blocks(3, 5)
        assert aux_coloring_chicolor(col).table == _pack_reference(col, pieces, shapes), (n, c)
        col = random_coloring(make_canonical(CEQ, 4), n, c, seed=seed)
        pieces = [block[:n] for block in col.base.blocks]
        shapes = [tuple(map(range, comp)) for comp in compositions_with_zeros(n)]
        got = aux_coloring_ceq(col, dict(enumerate(pieces)))
        assert got.table == _pack_reference(col, pieces, shapes), (n, c)
        assert got.colors == c ** len(shapes)


def test_aux_ceq_names_a_missing_tuple():
    col = random_coloring(make_canonical(CEQ, 3), 2, 2, seed=0)
    pieces = dict(enumerate(block[:2] for block in col.base.blocks))
    missing = (pieces[1][0], pieces[2][0])  # counts (1, 1) over blocks 1 and 2 read it
    partial = Coloring(col.base, 2, 2, {tup: v for tup, v in col.table.items() if tup != missing})
    with pytest.raises(ValueError, match=re.escape(f"coloring has no entry for tuple {missing}")):
        aux_coloring_ceq(partial, pieces)


def test_is_total_reads_every_tuple():
    col = random_coloring(make_canonical(CEQ, 3), 2, 2, seed=0)
    assert col.is_total()
    # as many entries as the tuple space holds, one of them off the space
    for stray in ((1, 0), (0, col.base.size)):
        table = dict(col.table)
        del table[(0, 1)]
        table[stray] = 0
        assert len(table) == len(col.table)
        assert not Coloring(col.base, 2, 2, table).is_total()


def test_reduce_ceq_constant():
    col = Coloring.from_function(make_canonical(CEQ, 3), 2, 2, lambda t: 1)
    report = reduce_ceq(col, 2)
    assert report.status == "found"
    assert [st.name for st in report.stages] == ["aux", "aux_search", "lift"]
    # width max(level, n) = 2: the first two elements of blocks 0 and 1
    assert report.subset == (0, 1, 3, 4)
    assert report.stages[0].details == {"palette": 2 ** 3, "positions": 3}
    assert all(c == 1 for _, c in report.witness.entries)


def test_reduce_ceq_block_pattern_coloring():
    # color by whether the pair shares a block: types decide colors, so the
    # whole base is homogeneous and every stage goes through
    base = make_canonical(CEQ, 3)
    col = Coloring.from_function(
        base, 2, 2, lambda t: 1 if t[0] // 3 == t[1] // 3 else 0
    )
    report = reduce_ceq(col, 2)
    assert report.status == "found"
    got = {c for _, c in report.witness.entries}
    assert got == {0, 1}


def test_reduce_ceq_sound_on_random():
    found = absent = 0
    for lam in (2, 3):
        base = make_canonical(CEQ, lam)
        for seed in range(25):
            col = random_coloring(base, 2, 2, seed=seed)
            for level in (1, 2):
                report = reduce_ceq(col, level)
                names = [st.name for st in report.stages]
                assert names in (
                    ["aux", "aux_search", "lift"],
                    ["aux", "aux_search", "lift", "direct"],
                    ["aux", "aux_search", "direct"],
                ), names
                if report.status == "found":
                    found += 1
                    sub = report.subset
                    assert subset_is_big(base, sub, level)
                    direct = type_homogeneity_witness(col, sub)
                    assert direct is not None
                    assert direct.entries == report.witness.entries
                else:
                    absent += 1
                    assert names[-1] == "direct"
    assert found and absent  # both paths exercised


@time_limit(60)
def test_reduce_ceq_absent_scope_is_flagged():
    # whenever nothing lifts, direct search decides: the report's subset,
    # flag and last-stage work are exactly that search's
    hits = {"ok": 0, "absent": 0, "lift": 0}
    for lam in (2, 3, 4):
        base = make_canonical(CEQ, lam)
        for seed in range(30):
            col = random_coloring(base, 2, 2, seed=seed)
            for level in (1, 2):
                report = reduce_ceq(col, level)
                stage = report.stages[-1]
                if stage.name == "lift":
                    assert stage.status == "ok"
                    hits["lift"] += 1
                    continue
                assert stage.name == "direct"
                hits[stage.status] += 1
                direct = find_type_homogeneous(col, level)
                assert report.subset == direct.subset, (lam, seed, level)
                assert report.exhaustive == direct.exhaustive == stage.details["exhaustive"]
                assert stage.work == direct.nodes
    assert all(hits.values()), hits


def test_reduce_ceq_short_pieces_search_directly():
    # ceq at ambient 1 is one block of one element: no piece holds a pair
    col = Coloring.from_function(make_canonical(CEQ, 1), 2, 2, lambda t: 0)
    report = reduce_ceq(col, 1)
    assert [st.name for st in report.stages] == ["direct"]
    direct = find_type_homogeneous(col, 1)
    assert report.subset == direct.subset
    assert report.exhaustive == direct.exhaustive
    assert report.stages[0].work == direct.nodes


def test_report_shapes():
    col = Coloring.from_function(make_canonical(CHI2, 3), 2, 2, lambda t: 0)
    report = reduce_chicolor(col, 2)
    doc = report.to_doc()
    assert doc["kind"] == "chi_color_to_or"
    assert doc["status"] == "found"
    assert doc["work"] == sum(st["work"] for st in doc["stages"])
    assert doc["subset"] == list(report.subset)
    assert isinstance(ReductionReport.status, property)
