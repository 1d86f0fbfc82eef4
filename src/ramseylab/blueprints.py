"""Blueprints: type-indexed diagrams and the term models they generate.

A blueprint assigns to every tuple type of an index class (up to a fixed
arity) a diagram over an output signature.  It is coherent when restricting
a type's diagram to a sub-tuple always gives the assigned diagram of the
restricted type.  A coherent blueprint turns any member of the index class
into a concrete target structure: instantiate every tuple's diagram, close
the instantiated equalities under congruence, and read each function value
and relation atom off the instantiated diagrams whose term classes cover its
arguments.  Coherence makes those diagrams agree; a value, atom or constant
that no instantiated diagram covers raises SupportOverflowError.  The
generators then sit inside the model as an indiscernible family, with each
tuple's diagram realized on its images.

Extraction runs the other way: given a target and an assignment of index
elements into it, shrink the index until the diagram of a tuple depends only
on its type, then read the blueprint off the survivors.  Homogeneity search
is reused from the coloring machinery by treating distinct diagrams as
colors, which is also how `derive_homogeneous` recovers a homogeneous subset
of an ordinary coloring through a purpose-built relational target.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .colorings import (
    Coloring,
    HomogeneityWitness,
    SearchResult,
    find_type_homogeneous,
    type_homogeneity_witness,
)
from .diagrams import Diagram, OutputSignature, TargetStructure, model_diagram, term_program
from .structures import ClassKind, FinStructure, InternalCheckError, is_member, require_fields, subset_is_big
from .structures import to_doc as structure_doc
from .tuple_types import TupleType, enumerate_types, restrict_type, type_fragment


class BlueprintDomainError(ValueError):
    """A tuple realizes a type the blueprint does not cover, or a required
    type is not realized where it must be read off."""


class SupportOverflowError(ValueError):
    """The instantiated diagrams leave a function value or relation atom
    undecided: its support is out of the blueprint's reach."""


@dataclass(frozen=True)
class Blueprint:
    """Type-indexed diagrams; a built blueprint is valid, as `__post_init__` runs `validate`."""

    cls: ClassKind
    sig: OutputSignature
    n_max: int
    depth: int
    levels: tuple[int, ...]
    assignments: tuple[tuple[TupleType, Diagram], ...]

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        if len(self.levels) != self.n_max:
            raise ValueError("levels must list one enumeration level per arity")
        object.__setattr__(
            self,
            "assignments",
            tuple(sorted(self.assignments, key=lambda e: e[0].sort_key())),
        )
        self.validate()

    def domain(self, arity: int) -> tuple[TupleType, ...]:
        return enumerate_types(self.cls, arity, self.levels[arity - 1])

    def as_map(self) -> dict[TupleType, Diagram]:
        return dict(self.assignments)

    def validate(self) -> None:
        table = self.as_map()
        if len(table) != len(self.assignments):
            raise ValueError("duplicate type in assignments")
        covered: set[TupleType] = set()
        for arity in range(1, self.n_max + 1):
            for t in self.domain(arity):
                if t not in table:
                    raise ValueError(f"type of arity {arity} missing from assignments")
                covered.add(t)
        if covered != set(table):
            raise ValueError("assignments cover types outside the domain")
        for t, d in self.assignments:
            if d.sig != self.sig or d.depth != self.depth or d.arity != t.arity:
                raise ValueError("diagram does not match blueprint parameters")
            d.validate()

    def to_doc(self) -> dict:
        return {
            "class": self.cls.to_doc(),
            "signature": self.sig.to_doc(),
            "n_max": self.n_max,
            "depth": self.depth,
            "levels": list(self.levels),
            "assignments": [[t.to_doc(), d.to_doc()] for t, d in self.assignments],
        }

    @staticmethod
    def from_doc(doc: dict) -> "Blueprint":
        require_fields(
            doc,
            {
                "class": dict,
                "signature": dict,
                "n_max": int,
                "depth": int,
                "levels": [int],
                "assignments": [(dict, dict)],
            },
            "blueprint",
        )
        sig = OutputSignature.from_doc(doc["signature"])
        return Blueprint(
            ClassKind.from_doc(doc["class"]),
            sig,
            doc["n_max"],
            doc["depth"],
            tuple(doc["levels"]),
            tuple(
                (TupleType.from_doc(t), Diagram.from_doc(d, sig))
                for t, d in doc["assignments"]
            ),
        )


def check_coherence(bp: Blueprint) -> list[dict]:
    """Failures of the restriction square; empty for a coherent blueprint.

    For every domain type and every nonempty proper position subset, the
    restricted type must lie in the lower domain and its assigned diagram
    must equal the restriction of the type's diagram.
    """
    table = bp.as_map()
    failures: list[dict] = []
    for arity in range(2, bp.n_max + 1):
        for t in bp.domain(arity):
            for positions, sub in _restrictions(t):
                if sub not in table:
                    reason = "restricted type outside domain"
                elif table[t].restrict(positions) != table[sub]:
                    reason = "diagram restriction does not commute"
                else:
                    continue
                failures.append(
                    {"type": t.to_doc(), "positions": list(positions), "reason": reason}
                )
    return failures


def _restrictions(t: TupleType):
    """Each nonempty proper position subset of t with its restricted type."""
    for k in range(1, t.arity):
        for positions in itertools.combinations(range(t.arity), k):
            yield positions, restrict_type(t, positions)


@dataclass
class EmModel:
    blueprint: Blueprint
    index: FinStructure
    target: TargetStructure
    generator_images: tuple[int, ...]

    def to_doc(self) -> dict:
        return {
            "blueprint": self.blueprint.to_doc(),
            "index": structure_doc(self.index),
            "target": self.target.to_doc(),
            "generator_images": list(self.generator_images),
        }


def _key_str(key) -> str:
    if key[0] == 0:
        return f"{key[1]}:{key[2]}"
    return f"{key[1]}({','.join(_key_str(k) for k in key[2:])})"


def _em_plan(diag: Diagram) -> tuple:
    """What instantiating `diag` reads: its term program, the (term,
    representative) pairs of its equalities, its representatives, and per
    relation the verdicts on their tuples in `itertools.product` order."""
    rows, reps = diag.atom_rows(), diag.reps()
    verdicts = [list(map(rows[r].__contains__, itertools.product(reps, repeat=a))) for r, a in diag.sig.relations]
    merges = [(i, r) for i, r in enumerate(diag.eq_reps) if r != i]
    return term_program(diag.sig, diag.arity, diag.depth), merges, reps, verdicts


def em_model(bp: Blueprint, index: FinStructure) -> EmModel:
    """Instantiate a coherent blueprint over a member of its index class.

    Every increasing tuple of the index up to arity n_max instantiates its
    type's diagram; the instantiated terms are closed under the diagrams'
    equalities and congruence, and each closed class becomes one element.
    A function value or relation atom is decided by every instantiated
    diagram whose term classes cover its arguments, and read off there.

    Instantiated terms are hash-consed bottom-up over the diagram's term
    program (see `diagrams.term_program`): each distinct flat key,
    (0, "e", element), (0, "c", name) or (1, head, *argument ids), gets the
    next small integer id, and the union-find and the congruence closure run
    over ids.  A class is represented by its least nested key, the flat key
    with each argument id replaced by that argument's nested key.  Classes
    and least keys do not depend on the numbering, so the elements keep
    their order: generators first, then the other classes by the `_key_str`
    spelling of that key.  Each distinct diagram is planned once.

    The blueprint was validated when built; its coherence is checked here.
    Raises BlueprintDomainError when a tuple of the index realizes a type
    the blueprint misses, ValueError when the diagrams' equalities identify
    two index elements, SupportOverflowError when no instantiated diagram
    covers some function value, relation atom or constant, and
    InternalCheckError when the closure contradicts a diagram or two
    diagrams disagree on an atom, which coherence rules out.
    """
    failures = check_coherence(bp)
    if failures:
        raise ValueError(f"blueprint is not coherent ({len(failures)} failures)")
    if index.cls != bp.cls:
        raise ValueError("index structure is not in the blueprint's class")
    if not is_member(index):
        raise ValueError("index structure is not a member of its class")

    # one plan per distinct diagram, found by the fragment of a tuple's type,
    # which names the type within the blueprint's class
    plan_of = {d: _em_plan(d) for d in {d for _, d in bp.assignments}}
    plans = {t.fragment: plan_of[d] for t, d in bp.assignments}
    ids: dict[tuple, int] = {}  # flat key -> id
    nested: list[tuple] = []  # id -> nested key
    parent: list[int] = []

    def find(x: int) -> int:
        while parent[x] != x:  # halving the path
            parent[x] = x = parent[parent[x]]
        return x

    def union(a: int, b: int) -> bool:
        # the least nested key stays the root
        ra, rb = find(a), find(b)
        if nested[rb] < nested[ra]:
            ra, rb = rb, ra
        parent[rb] = ra
        return ra != rb

    instantiated: list[tuple[tuple[int, ...], tuple[int, ...], list, list[int]]] = []
    for arity in range(1, min(bp.n_max, index.size) + 1):
        for tup in itertools.combinations(range(index.size), arity):
            plan = plans.get(type_fragment(index, tup))
            if plan is None:
                raise BlueprintDomainError(
                    f"tuple {tup} realizes a type outside the blueprint domain"
                )
            program, merges, reps, verdicts = plan
            row: list[int] = []
            for head, v, args in program:
                if v >= 0:
                    flat = (0, "e", tup[v])
                elif args:
                    flat = (1, head, *[row[a] for a in args])
                else:
                    flat = (0, "c", head)
                i = ids.get(flat)
                if i is None:
                    i = ids[flat] = len(nested)
                    nested.append((1, head, *[nested[a] for a in flat[2:]]) if args else flat)
                    parent.append(i)
                row.append(i)
            for i, r in merges:
                union(row[i], row[r])
            instantiated.append((tup, reps, verdicts, row))

    # congruence closure: equal arguments force equal applications
    apps = [(i, flat[1], flat[2:]) for flat, i in ids.items() if flat[0] == 1]
    changed = True
    while changed:
        changed = False
        seen: dict = {}
        for i, head, args in apps:
            other = seen.setdefault((head, tuple([find(a) for a in args])), i)
            if other != i and union(other, i):
                changed = True

    # generators first, then the other classes by spelling
    root = [find(i) for i in range(len(nested))]
    first: dict = {}  # generator class -> least index element in it
    for e in range(index.size):
        d = first.setdefault(root[ids[(0, "e", e)]], e)
        if d != e:
            raise ValueError(
                f"the diagrams identify index elements {d} and {e}; no model "
                "with distinct generators extends the index"
            )
    ordered = list(first)
    ordered += sorted(set(root) - set(ordered), key=lambda r: _key_str(nested[r]))
    elem_of = {r: i for i, r in enumerate(ordered)}
    elem = [elem_of[r] for r in root]

    # every term already shares its representative's class, so the closure
    # agrees with a diagram exactly when distinct representatives stay apart
    covered: list[tuple[list, tuple[int, ...]]] = []
    for tup, reps, verdicts, row in instantiated:
        elems = tuple([elem[row[r]] for r in reps])
        if len(set(elems)) != len(elems):
            raise InternalCheckError(f"closure merges distinct terms of the diagram of {tup}")
        covered.append((verdicts, elems))

    size = len(ordered)
    functions: dict[str, dict[tuple[int, ...], int]] = {fname: {} for fname, _ in bp.sig.functions}
    for i, head, args in apps:
        functions[head][tuple([elem[a] for a in args])] = elem[i]
    for fname, farity in bp.sig.functions:
        if len(functions[fname]) != size ** farity:
            args = next(a for a in itertools.product(range(size), repeat=farity) if a not in functions[fname])
            raise SupportOverflowError(
                f"function {fname!r} is undecided on {args}; the blueprint's "
                "arity and depth do not reach that combination"
            )

    relations: dict[str, frozenset] = {}
    for k, (rname, rarity) in enumerate(bp.sig.relations):
        decided: dict[tuple[int, ...], bool] = {}
        for verdicts, elems in covered:
            for slot, verdict in zip(itertools.product(elems, repeat=rarity), verdicts[k]):
                if decided.setdefault(slot, verdict) != verdict:
                    raise InternalCheckError(f"diagrams disagree on atom {rname}{slot}")
        if len(decided) != size ** rarity:
            slots = itertools.product(range(size), repeat=rarity)
            slot = next(s for s in slots if s not in decided)
            raise SupportOverflowError(
                f"relation {rname!r} is undecided on {slot}; no diagram "
                "covers that support"
            )
        relations[rname] = frozenset(slot for slot, holds in decided.items() if holds)

    constants = {}
    for cname in bp.sig.constants:
        if (0, "c", cname) not in ids:
            raise SupportOverflowError(
                f"constant {cname!r} is undecided; no diagram is instantiated"
            )
        constants[cname] = elem[ids[(0, "c", cname)]]

    target = TargetStructure(bp.sig, size, functions, relations, constants)
    images = tuple(elem[ids[(0, "e", e)]] for e in range(index.size))
    return EmModel(bp, index, target, images)


def check_indiscernible(model: EmModel) -> list[dict]:
    """Mismatches between each tuple's blueprint diagram and the diagram its
    generator images realize in the model; empty when the family is faithful."""
    bp = model.blueprint
    if model.index.cls != bp.cls:
        raise ValueError("index structure is not in the blueprint's class")
    table = {t.fragment: d for t, d in bp.assignments}
    out: list[dict] = []
    for arity in range(1, min(bp.n_max, model.index.size) + 1):
        for tup in itertools.combinations(range(model.index.size), arity):
            values = tuple(model.generator_images[e] for e in tup)
            if len(set(values)) != len(values):
                out.append({"tuple": list(tup), "reason": "images collide"})
                continue
            got = model_diagram(model.target, values, bp.depth)
            want = table[type_fragment(model.index, tup)]
            if got != want:
                out.append({"tuple": list(tup), "reason": "diagram mismatch"})
    return out


@dataclass
class ExtractReport:
    blueprint: Blueprint | None
    subset: tuple[int, ...] | None
    stages: list = field(default_factory=list)
    exhaustive: bool = True

    @property
    def status(self) -> str:
        return "found" if self.blueprint is not None else "absent"


def _diagram_coloring(
    target: TargetStructure,
    assignment: tuple[int, ...],
    index: FinStructure,
    subset: tuple[int, ...],
    arity: int,
    depth: int,
) -> tuple[Coloring, list[Diagram]]:
    """Color the increasing tuples of `subset` by their diagram in the
    target; colors number distinct diagrams in first-occurrence order, and
    the palette lists the diagram of each color."""
    palette: dict[Diagram, int] = {}
    table: dict[tuple[int, ...], int] = {}
    for tup in itertools.combinations(subset, arity):
        values = tuple(assignment[e] for e in tup)
        d = model_diagram(target, values, depth)
        table[tup] = palette.setdefault(d, len(palette))
    return Coloring(index, arity, max(len(palette), 1), table), list(palette)


def extract_blueprint(
    target: TargetStructure,
    assignment,
    index: FinStructure,
    n_max: int,
    depth: int,
    levels,
    budget: int | None = None,
) -> ExtractReport:
    """Shrink the index to a subset on which diagrams depend only on types,
    then read the blueprint off that subset.

    The type domains must be closed under restriction, which depends on the
    class and the levels alone and is checked before any search, else
    BlueprintDomainError.  Arities are processed in increasing order.  At
    each arity the current subset is kept whole when it is already
    diagram-homogeneous; otherwise the standard homogeneity search runs
    inside it.  Both ask bigness at the largest max(level_j, j) over this
    and every later arity j: the domain at arity j is what the canonical
    member of that bigness realizes.  A search that finds nothing is
    exhaustive only when it ran at the arity's own level over the whole
    index: a less big subset may realize the domains too, and a subset that
    an earlier arity left out may be homogeneous at every arity.  Every
    domain type must be realized in the final subset, else
    BlueprintDomainError; the extracted blueprint is coherence-checked.
    """
    assignment = tuple(assignment)
    if len(assignment) != index.size:
        raise ValueError("assignment must map every index element")
    if len(set(assignment)) != len(assignment):
        raise ValueError("assignment must be injective")
    if not all(0 <= v < target.size for v in assignment):
        raise ValueError("assignment value outside the target")
    if not is_member(index):
        raise ValueError("index structure is not a member of its class")
    if budget is not None and budget < 0:
        raise ValueError("budget must be nonnegative")
    levels = tuple(levels)
    if len(levels) != n_max:
        raise ValueError("levels must list one level per arity")
    domains = [enumerate_types(index.cls, k, lv) for k, lv in enumerate(levels, 1)]
    known = set(itertools.chain(*domains))
    for arity, domain in enumerate(domains, 1):
        for t in domain:
            for _, sub in _restrictions(t):
                if sub not in known:
                    raise BlueprintDomainError(
                        f"types of arity {arity} at level {levels[arity - 1]} restrict "
                        f"to an arity-{sub.arity} type outside the level-"
                        f"{levels[sub.arity - 1]} domain"
                    )

    current = tuple(range(index.size))
    stages: list = []
    colorings: list[tuple[Coloring, list[Diagram]]] = []
    for arity in range(1, n_max + 1):
        level = max(max(lv, j) for j, lv in enumerate(levels[arity - 1:], arity))
        col, palette = _diagram_coloring(target, assignment, index, current, arity, depth)
        colorings.append((col, palette))
        whole = type_homogeneity_witness(col, current)
        if whole is not None and subset_is_big(index, current, level):
            stages.append(
                {
                    "arity": arity,
                    "action": "whole",
                    "palette": col.colors,
                    "kept": len(current),
                }
            )
            continue
        res: SearchResult = find_type_homogeneous(col, level, budget=budget, within=current)
        stages.append(
            {
                "arity": arity,
                "action": "search",
                "palette": col.colors,
                "nodes": res.nodes,
                "kept": len(res.subset) if res.found else 0,
                "exhaustive": res.exhaustive,
            }
        )
        if not res.found:
            exhaustive = res.exhaustive and level == levels[arity - 1] and len(current) == index.size
            return ExtractReport(None, None, stages, exhaustive)
        current = res.subset

    # each arity's coloring stays homogeneous on every later, smaller subset
    assignments: list[tuple[TupleType, Diagram]] = []
    for arity, ((col, palette), domain) in enumerate(zip(colorings, domains), 1):
        witness = type_homogeneity_witness(col, current)
        if witness is None:
            raise InternalCheckError(f"arity-{arity} diagrams vary within a type on the subset")
        color = witness.as_dict()
        for t in domain:
            if t not in color:
                raise BlueprintDomainError(
                    f"extracted subset realizes no tuple of a domain type "
                    f"at arity {arity}"
                )
        assignments.extend((t, palette[color[t]]) for t in domain)

    bp = Blueprint(index.cls, target.sig, n_max, depth, levels, tuple(assignments))
    failures = check_coherence(bp)
    if failures:
        raise InternalCheckError(
            f"extracted blueprint is incoherent ({len(failures)} failures)"
        )
    return ExtractReport(bp, current, stages, True)


@dataclass
class DeriveResult:
    subset: tuple[int, ...] | None
    witness: HomogeneityWitness | None
    blueprint: Blueprint | None
    stages: list
    exhaustive: bool

    @property
    def found(self) -> bool:
        return self.subset is not None


def coloring_target(col: Coloring) -> tuple[TargetStructure, tuple[int, ...]]:
    """Encode a coloring as a relational target on the index elements: one
    arity-ary relation C<a> per color a, holding the increasing tuples of
    that color.  The assignment is the identity."""
    rows = {
        f"C{a}": frozenset(tup for tup, color in col.table.items() if color == a)
        for a in range(col.colors)
    }
    sig = OutputSignature(relations=tuple((name, col.arity) for name in rows))
    return TargetStructure(sig, col.base.size, {}, rows), tuple(range(col.base.size))


def derive_homogeneous(col: Coloring, level: int, budget: int | None = None) -> DeriveResult:
    """Recover a homogeneous subset and witness through the blueprint
    pipeline: encode the coloring as a target, extract, and read the witness
    off the arity-n diagrams via which relation C<a> holds of the tuple."""
    if not col.is_total():
        raise ValueError("coloring must be total")
    target, assignment = coloring_target(col)
    n = col.arity
    report = extract_blueprint(
        target,
        assignment,
        col.base,
        n_max=n,
        depth=0,
        levels=(level,) * n,
        budget=budget,
    )
    if report.status == "absent":
        return DeriveResult(None, None, None, report.stages, report.exhaustive)
    bp = report.blueprint
    table, gens = bp.as_map(), tuple(range(n))
    mapping: dict[TupleType, int] = {}
    for t in bp.domain(n):
        # at depth 0 with no constants term i is x{i}, as spelling order
        # keeps it up to n = 10; the witness cross-check below guards the rest
        hits = [a for a in range(col.colors) if (f"C{a}", gens) in table[t].true_atoms]
        if len(hits) != 1:
            raise InternalCheckError(
                f"diagram relates a tuple type to {len(hits)} colors"
            )
        mapping[t] = hits[0]
    witness = type_homogeneity_witness(col, report.subset)
    if witness is None or not subset_is_big(col.base, report.subset, level):
        raise InternalCheckError("derived subset fails re-verification")
    direct = witness.as_dict()
    for t, a in mapping.items():
        if direct.get(t) != a:
            raise InternalCheckError("diagram reading disagrees with the witness")
    return DeriveResult(report.subset, witness, bp, report.stages, True)
