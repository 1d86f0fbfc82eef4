"""Constructive reductions of colored-order and convex-equivalence colorings
to plain linear-order colorings.

Both reductions package a coloring of a richer class into an auxiliary
coloring of a linear order with a larger palette, find a homogeneous set for
the auxiliary coloring, and lift it back.  In the finite setting the lift is
not automatic: distinct tuple shapes that share a type can land on different
digits of the auxiliary palette, and the room needed to align them may be
missing at small sizes.  Every lift is therefore verification-gated.  When
no lift verifies, both reductions end in a `direct` stage that runs
`find_type_homogeneous` on the coloring itself, so an absent result, and its
exhaustiveness flag, always come from that search.  Reported subsets are
always re-verified from scratch.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .colorings import (
    Coloring,
    HomogeneityWitness,
    find_type_homogeneous,
    type_homogeneity_witness,
)
from .structures import (
    FinStructure,
    disjoint_orders,
    linear_order,
    make_canonical,
    subset_is_big,
)


@dataclass
class StageRecord:
    name: str
    status: str  # "ok" | "absent" | "failed"
    work: int = 0
    details: dict = field(default_factory=dict)

    def to_doc(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "work": self.work,
            "details": self.details,
        }


@dataclass
class ReductionReport:
    kind: str
    level: int
    stages: list[StageRecord]
    subset: tuple[int, ...] | None
    witness: HomogeneityWitness | None
    exhaustive: bool

    @property
    def status(self) -> str:
        return "found" if self.subset is not None else "absent"

    @property
    def work(self) -> int:
        return sum(st.work for st in self.stages)

    def to_doc(self) -> dict:
        doc = {
            "kind": self.kind,
            "level": self.level,
            "status": self.status,
            "stages": [st.to_doc() for st in self.stages],
            "work": self.work,
            "exhaustive": self.exhaustive,
        }
        if self.subset is not None:
            doc["subset"] = list(self.subset)
            doc["witness"] = self.witness.to_doc()
        return doc


def _require_canonical(col: Coloring, kind: str) -> int:
    base = col.base
    if base.cls.kind != kind:
        raise ValueError(f"expected a coloring over a {kind} base")
    lam = 0
    while base.cls.spec.min_size(base.cls, lam) < base.size:
        lam += 1
    if base != make_canonical(base.cls, lam):
        raise ValueError(f"base must be the canonical {kind} structure")
    if not col.is_total():
        raise ValueError("coloring must be total")
    return lam


def aux_coloring_chicolor(col: Coloring) -> Coloring:
    """Pack a chi_color coloring into a linear-order coloring.

    Positions 0..lam-1 index the residue blocks {chi*g, .., chi*g + chi - 1}.
    The auxiliary color of g1 < .. < gn concatenates, over all residue tuples
    (i1..in) in chi^n lexicographic order (first coordinate most significant),
    the colors col(chi*g1 + i1, .., chi*gn + in) as base-c digits.  Distinct
    positions make every such element tuple increasing.
    """
    lam = _require_canonical(col, "chi_color")
    chi = col.base.cls.chi
    n, c = col.arity, col.colors
    aux_base = make_canonical(linear_order(), lam)
    table = {}
    for gam in itertools.combinations(range(lam), n):
        value = 0
        for idx in itertools.product(range(chi), repeat=n):
            tup = tuple(chi * g + i for g, i in zip(gam, idx))
            value = value * c + col.color(tup)
        table[gam] = value
    return Coloring(aux_base, n, c ** (chi ** n), table)


def _finish(
    kind: str,
    col: Coloring,
    level: int,
    budget: int | None,
    stages: list[StageRecord],
    subset: tuple[int, ...] | None,
) -> ReductionReport:
    """Shared tail of both reductions.

    With no verified subset from the reduction's own stages, a final
    `direct` stage searches the coloring itself; an absence and its
    exhaustiveness flag are that search's.  Any subset is re-verified.
    """
    if subset is None:
        res = find_type_homogeneous(col, level, budget=budget)
        stages.append(
            StageRecord(
                "direct",
                "ok" if res.found else "absent",
                res.nodes,
                {"exhaustive": res.exhaustive},
            )
        )
        if not res.found:
            return ReductionReport(kind, level, stages, None, None, res.exhaustive)
        subset = res.subset
    witness = type_homogeneity_witness(col, subset)
    if witness is None or not subset_is_big(col.base, subset, level):
        raise AssertionError("reduction produced a subset that fails re-verification")
    return ReductionReport(kind, level, stages, subset, witness, True)


def reduce_chicolor(col: Coloring, level: int, budget: int | None = None) -> ReductionReport:
    """Find a homogeneous union of residue blocks via the linear-order
    auxiliary coloring.

    The auxiliary palette only constrains tuples whose positions are pairwise
    distinct; tuples that revisit a block share types with ones that do not,
    so a homogeneous set for the auxiliary coloring need not lift.  The lift
    is checked outright, and on failure, or when the auxiliary search finds
    nothing, direct search over all positional subsets takes over; every
    union of residue blocks is one of them.
    """
    lam = _require_canonical(col, "chi_color")
    chi = col.base.cls.chi
    stages: list[StageRecord] = []

    aux = aux_coloring_chicolor(col)
    stages.append(
        StageRecord(
            "aux",
            "ok",
            len(aux.table),
            {"palette": aux.colors, "positions": lam},
        )
    )

    res = find_type_homogeneous(aux, level, budget=budget)
    stages.append(
        StageRecord(
            "aux_search",
            "ok" if res.found else "absent",
            res.nodes,
            {"exhaustive": res.exhaustive}
            | ({"positions": list(res.subset)} if res.found else {}),
        )
    )

    subset: tuple[int, ...] | None = None
    if res.found:
        lifted = tuple(sorted(chi * g + i for g in res.subset for i in range(chi)))
        if type_homogeneity_witness(col, lifted) is not None and subset_is_big(col.base, lifted, level):
            stages.append(StageRecord("lift", "ok", 1, {"subset": list(lifted)}))
            subset = lifted
        else:
            stages.append(
                StageRecord(
                    "lift",
                    "failed",
                    1,
                    {"note": "auxiliary homogeneity did not transfer"},
                )
            )
    return _finish("chi_color_to_or", col, level, budget, stages, subset)


def compositions_with_zeros(n: int) -> list[tuple[int, ...]]:
    """All tuples (a1..an) of nonnegative counts summing to n, lexicographic."""
    if n < 1:
        return [()]
    return [comp for comp in itertools.product(range(n + 1), repeat=n) if sum(comp) == n]


def aux_coloring_ceq(col: Coloring, pieces: dict[int, tuple[int, ...]]) -> Coloring:
    """Pack a convex-equivalence coloring into a linear-order coloring over
    block ids.

    `pieces` maps each block id to its chosen representatives (at least n per
    block).  The auxiliary color of b1 < .. < bn concatenates, over all count
    tuples (a1..an) summing to n in lexicographic order, the color of the
    tuple that takes the first aj representatives of block bj.  Homogeneity
    of the source coloring on the pieces is what makes each digit independent
    of the representative choice; callers establish that first.
    """
    n, c = col.arity, col.colors
    ids = sorted(pieces)
    if any(len(pieces[b]) < n for b in ids):
        raise ValueError("every piece needs at least n representatives")
    comps = compositions_with_zeros(n)
    aux_base = make_canonical(linear_order(), len(ids))
    table = {}
    for combo in itertools.combinations(range(len(ids)), n):
        value = 0
        for comp in comps:
            tup: list[int] = []
            for slot, count in zip(combo, comp):
                tup.extend(pieces[ids[slot]][:count])
            value = value * c + col.color(tuple(tup))
        table[combo] = value
    return Coloring(aux_base, n, c ** len(comps), table)


def reduce_ceq(col: Coloring, level: int, budget: int | None = None) -> ReductionReport:
    """Three-stage reduction for convex-equivalence colorings.

    Stage one searches the coloring viewed over its block partition for a
    subset homogeneous with respect to full block patterns, with max(level, n)
    elements in every block.  Stage two packs that subset's representatives
    into a linear-order coloring of the block ids.  Stage three walks the
    homogeneous block-id sets of stage two in order and keeps the first whose
    union of pieces verifies as a type-homogeneous, level-big member; digit
    alignment across block positions is not guaranteed at finite sizes, so
    the verification gate does the final selection.  When stage one or three
    comes up empty, direct search on the coloring itself decides.
    """
    lam = _require_canonical(col, "ceq")
    n = col.arity
    s1 = max(level, n)
    stages: list[StageRecord] = []

    # stage 1: the same table read over the block partition
    part_base = FinStructure(
        disjoint_orders(lam),
        col.base.size,
        parts=tuple(col.base.block_of(e) for e in range(col.base.size)),
    )
    part_col = Coloring(part_base, n, col.colors, col.table)
    res1 = find_type_homogeneous(part_col, s1, budget=budget)
    stages.append(
        StageRecord(
            "partition_view",
            "ok" if res1.found else "absent",
            res1.nodes,
            {"per_block": s1, "exhaustive": res1.exhaustive},
        )
    )
    if not res1.found:
        return _finish("ceq_to_or", col, level, budget, stages, None)

    pieces: dict[int, list[int]] = {}
    for e in res1.subset:
        pieces.setdefault(col.base.block_of(e), []).append(e)
    pieces = {b: tuple(sorted(v)[:s1]) for b, v in pieces.items()}

    aux = aux_coloring_ceq(col, pieces)
    stages.append(
        StageRecord(
            "aux",
            "ok",
            len(aux.table),
            {"palette": aux.colors, "blocks": len(pieces)},
        )
    )

    # stage 3: verification-gated scan of the homogeneous block-id sets
    ids = sorted(pieces)
    work = 0
    subset: tuple[int, ...] | None = None
    scanned_all = True
    for combo in itertools.combinations(range(len(ids)), s1):
        work += 1
        if budget is not None and work > budget:
            scanned_all = False
            break
        values = {aux.color(sub) for sub in itertools.combinations(combo, n)}
        if len(values) > 1:
            continue
        cand = tuple(
            sorted(e for slot in combo for e in pieces[ids[slot]])
        )
        if type_homogeneity_witness(col, cand) is not None and subset_is_big(col.base, cand, level):
            subset = cand
            break
    stages.append(
        StageRecord(
            "lift_scan",
            "ok" if subset is not None else "absent",
            work,
            {"piece_size": s1, "sets_needed": s1, "exhaustive": scanned_all},
        )
    )
    return _finish("ceq_to_or", col, level, budget, stages, subset)
