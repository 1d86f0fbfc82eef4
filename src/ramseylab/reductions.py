"""Constructive reductions of colored-order and convex-equivalence colorings
to plain linear-order colorings.

Both reductions run one pipeline and differ only in their pieces and their
shapes.  Each cuts the base into pieces (residue blocks for colored orders,
the first elements of each canonical block for convex equivalences), and
`_pack` turns the coloring into an auxiliary coloring of a linear order
whose positions are the pieces.  A shape names, for each of the n slots,
the offsets it takes inside that slot's piece; the auxiliary color of n
positions concatenates, shape by shape, the colors of the tuples the shapes
draw from their pieces.  A colored order has one shape per residue tuple
(one offset per slot), a convex equivalence one per count tuple (a leading
run of each piece).  The pipeline searches the auxiliary coloring for a
homogeneous set and lifts it back to the union of its pieces.  In the finite
setting the lift is not automatic: distinct tuple shapes that share a type
can land on different digits of the auxiliary palette, and the room needed
to align them may be missing at small sizes.  Every lift is therefore
verification-gated.  When no lift verifies, or when the pieces are too short
to hold a shape, both reductions end in a `direct` stage that runs
`find_type_homogeneous` on the coloring itself, so an absent result, and its
exhaustiveness flag, always come from that search.  Each reported subset is
verified from scratch once: a lift by the gate that keeps it, a direct find
by `find_type_homogeneous`, and the report carries that check's witness.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field

from .colorings import (
    Coloring,
    HomogeneityWitness,
    find_type_homogeneous,
    type_homogeneity_witness,
)
from .structures import ClassKind, make_canonical, subset_is_big


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


def _pack(col: Coloring, pieces: list[tuple[int, ...]], shapes) -> Coloring:
    """The auxiliary linear-order coloring over positions 0..len(pieces)-1.

    A shape lists, for each of the n slots, the offsets it takes inside that
    slot's piece.  The auxiliary color of g1 < .. < gn concatenates, shape by
    shape (first shape most significant), as base-c digits, the color of the
    tuple that takes those offsets from pieces[g1] .. pieces[gn].  The digits
    are read column by column: one shape at a time, over all position tuples
    at once, one element column per (slot, offset) the shape takes.
    """
    n, c = col.arity, col.colors
    gams = list(itertools.combinations(range(len(pieces)), n))
    # rows[slot][k]: the piece that slot takes in the k-th position tuple
    rows = [list(map(pieces.__getitem__, map(operator.itemgetter(slot), gams))) for slot in range(n)]
    values = [0] * len(gams)
    for shape in shapes:
        columns = [map(operator.itemgetter(off), rows[slot]) for slot, offs in enumerate(shape) for off in offs]
        try:
            values = [v * c + d for v, d in zip(values, map(col.table.__getitem__, zip(*columns)))]
        except KeyError as missing:
            raise ValueError(f"coloring has no entry for tuple {missing.args[0]}") from None
    return Coloring(make_canonical(ClassKind("or"), len(pieces)), n, c ** len(shapes), dict(zip(gams, values)))


def _residue_blocks(chi: int, lam: int) -> list[tuple[int, ...]]:
    return [tuple(range(chi * g, chi * g + chi)) for g in range(lam)]


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
    shapes = [tuple((i,) for i in idx) for idx in itertools.product(range(chi), repeat=col.arity)]
    return _pack(col, _residue_blocks(chi, lam), shapes)


def _reduce(
    kind: str,
    col: Coloring,
    level: int,
    budget: int | None,
    aux: Coloring | None,
    pieces: list[tuple[int, ...]],
    aux_level: int,
) -> ReductionReport:
    """The pipeline both reductions share: search the auxiliary coloring,
    whose position g stands for the elements pieces[g], and lift a found
    set of positions to the union of their pieces.  The lift is kept only if
    it verifies, with the witness that check found.  Otherwise, or with no
    auxiliary coloring at all, a final `direct` stage searches the coloring
    itself, and the report carries that search's verified subset and
    witness, or its absence and exhaustiveness flag."""
    stages = []
    if aux is not None:
        stages.append(
            StageRecord("aux", "ok", len(aux.table), {"palette": aux.colors, "positions": len(pieces)})
        )
        res = find_type_homogeneous(aux, aux_level, budget=budget)
        stages.append(
            StageRecord(
                "aux_search",
                "ok" if res.found else "absent",
                res.nodes,
                {"exhaustive": res.exhaustive}
                | ({"positions": list(res.subset)} if res.found else {}),
            )
        )
        if res.found:
            lifted = tuple(sorted(e for g in res.subset for e in pieces[g]))
            witness = type_homogeneity_witness(col, lifted)
            if witness is not None and subset_is_big(col.base, lifted, level):
                stages.append(StageRecord("lift", "ok", 1, {"subset": list(lifted)}))
                return ReductionReport(kind, level, stages, lifted, witness, True)
            stages.append(
                StageRecord("lift", "failed", 1, {"note": "auxiliary homogeneity did not transfer"})
            )
    res = find_type_homogeneous(col, level, budget=budget)
    stages.append(
        StageRecord("direct", "ok" if res.found else "absent", res.nodes, {"exhaustive": res.exhaustive})
    )
    return ReductionReport(kind, level, stages, res.subset, res.witness, res.exhaustive)


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
    aux = aux_coloring_chicolor(col)
    pieces = _residue_blocks(col.base.cls.chi, aux.base.size)
    return _reduce("chi_color_to_or", col, level, budget, aux, pieces, level)


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
    tuple that takes the first aj representatives of block bj.  Only these
    tuples are read, so a homogeneous set of block ids need not make the
    coloring homogeneous on the union of its pieces; callers verify the lift.
    """
    by_id = [pieces[b] for b in sorted(pieces)]
    if any(len(piece) < col.arity for piece in by_id):
        raise ValueError("every piece needs at least n representatives")
    shapes = [tuple(map(range, comp)) for comp in compositions_with_zeros(col.arity)]
    return _pack(col, by_id, shapes)


def reduce_ceq(col: Coloring, level: int, budget: int | None = None) -> ReductionReport:
    """Find a homogeneous union of block prefixes via the linear-order
    auxiliary coloring over block ids.

    With width = max(level, n), each block contributes its first width
    elements as its piece, and the auxiliary search looks for width
    homogeneous block ids, whose union of pieces is level-big.  The digits
    read only tuples built from leading representatives, so the lift is
    checked outright; when it fails, when the auxiliary search finds
    nothing, or when the blocks are too short to hold an n-tuple, direct
    search on the coloring itself decides.
    """
    _require_canonical(col, "ceq")
    width = max(level, col.arity)
    pieces = [block[:width] for block in col.base.blocks]
    short = any(len(piece) < col.arity for piece in pieces)
    aux = None if short else aux_coloring_ceq(col, dict(enumerate(pieces)))
    return _reduce("ceq_to_or", col, level, budget, aux, pieces, width)
