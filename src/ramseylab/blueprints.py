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
from .diagrams import (
    Diagram,
    OutputSignature,
    TargetStructure,
    UnionFind,
    const,
    enumerate_terms,
    model_diagram,
    var,
)
from .structures import ClassKind, FinStructure, is_member, require_fields, subset_is_big
from .structures import to_doc as structure_doc
from .tuple_types import TupleType, enumerate_types, restrict_type, tuple_type


class BlueprintDomainError(ValueError):
    """A tuple realizes a type the blueprint does not cover, or a required
    type is not realized where it must be read off."""


class SupportOverflowError(RuntimeError):
    """The instantiated diagrams leave a function value or relation atom
    undecided: its support is out of the blueprint's reach."""


class InternalCheckError(AssertionError):
    """A self-check that coherence should have made impossible failed."""


@dataclass(frozen=True)
class Blueprint:
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
        bp = Blueprint(
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
        bp.validate()
        return bp


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
            diag = table[t]
            for k in range(1, arity):
                for positions in itertools.combinations(range(arity), k):
                    sub = restrict_type(t, positions)
                    if sub not in table:
                        failures.append(
                            {
                                "type": t.to_doc(),
                                "positions": list(positions),
                                "reason": "restricted type outside domain",
                            }
                        )
                        continue
                    if diag.restrict(positions) != table[sub]:
                        failures.append(
                            {
                                "type": t.to_doc(),
                                "positions": list(positions),
                                "reason": "diagram restriction does not commute",
                            }
                        )
    return failures


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


def _inst_key(term, tup):
    if term.is_var():
        return (0, "e", tup[term.index])
    if not term.args:
        return (0, "c", term.head)
    return (1, term.head) + tuple(_inst_key(a, tup) for a in term.args)


def _key_str(key) -> str:
    if key[0] == 0:
        return f"{key[1]}:{key[2]}"
    return f"{key[1]}({','.join(_key_str(k) for k in key[2:])})"


def em_model(bp: Blueprint, index: FinStructure) -> EmModel:
    """Instantiate a coherent blueprint over a member of its index class.

    Every increasing tuple of the index up to arity n_max instantiates its
    type's diagram; the instantiated terms are closed under the diagrams'
    equalities and congruence, and each closed class becomes one element.
    A function value or relation atom is decided by every instantiated
    diagram whose term classes cover its arguments, and read off there.

    Raises BlueprintDomainError when a tuple of the index realizes a type the
    blueprint misses, SupportOverflowError when no instantiated diagram
    covers some function value, relation atom or constant, and
    InternalCheckError when the closure contradicts a diagram or two
    diagrams disagree on an atom, which coherence rules out.
    """
    failures = check_coherence(bp)
    if failures:
        raise ValueError(f"blueprint is not coherent ({len(failures)} failures)")
    bp.validate()
    if index.cls != bp.cls:
        raise ValueError("index structure is not in the blueprint's class")
    if not is_member(index):
        raise ValueError("index structure is not a member of its class")

    table = bp.as_map()
    instantiated: list[tuple[tuple[int, ...], Diagram, list]] = []
    uf = UnionFind()
    for arity in range(1, min(bp.n_max, index.size) + 1):
        for tup in itertools.combinations(range(index.size), arity):
            diag = table.get(tuple_type(index, tup))
            if diag is None:
                raise BlueprintDomainError(
                    f"tuple {tup} realizes a type outside the blueprint domain"
                )
            keys = [_inst_key(term, tup) for term in diag.terms()]
            for i, k in enumerate(keys):
                uf.add(k)
                uf.union(k, keys[diag.eq_reps[i]])
            instantiated.append((tup, diag, keys))

    # congruence closure: equal arguments force equal applications
    apps = [k for k in uf.parent if k[0] == 1]
    changed = True
    while changed:
        changed = False
        seen: dict = {}
        for key in apps:
            norm = (key[1], tuple(uf.find(ch) for ch in key[2:]))
            other = seen.setdefault(norm, key)
            if other is not key and uf.union(other, key):
                changed = True

    # generators first, then the other classes by spelling
    root = {k: uf.find(k) for k in uf.parent}
    ordered = list(dict.fromkeys(root[(0, "e", e)] for e in range(index.size)))
    ordered += sorted(set(root.values()) - set(ordered), key=_key_str)
    elem_of = {r: i for i, r in enumerate(ordered)}
    elem = {k: elem_of[r] for k, r in root.items()}

    # every term already shares its representative's class, so the closure
    # agrees with a diagram exactly when distinct representatives stay apart
    for tup, diag, keys in instantiated:
        reps = diag.reps()
        if len({elem[keys[r]] for r in reps}) != len(reps):
            raise InternalCheckError(f"closure merges distinct terms of the diagram of {tup}")

    fn_table = {(k[1], tuple(elem[ch] for ch in k[2:])): elem[k] for k in apps}
    functions: dict[str, dict[tuple[int, ...], int]] = {}
    for fname, farity in bp.sig.functions:
        m: dict[tuple[int, ...], int] = {}
        for args in itertools.product(range(len(ordered)), repeat=farity):
            got = fn_table.get((fname, args))
            if got is None:
                raise SupportOverflowError(
                    f"function {fname!r} is undecided on {args}; the blueprint's "
                    "arity and depth do not reach that combination"
                )
            m[args] = got
        functions[fname] = m

    relations: dict[str, frozenset] = {}
    for rname, rarity in bp.sig.relations:
        decided: dict[tuple[int, ...], bool] = {}
        for tup, diag, keys in instantiated:
            for combo in itertools.product(diag.reps(), repeat=rarity):
                slot = tuple(elem[keys[i]] for i in combo)
                verdict = (rname, combo) in diag.true_atoms
                if decided.setdefault(slot, verdict) != verdict:
                    raise InternalCheckError(f"diagrams disagree on atom {rname}{slot}")
        if len(decided) != len(ordered) ** rarity:
            slots = itertools.product(range(len(ordered)), repeat=rarity)
            slot = next(s for s in slots if s not in decided)
            raise SupportOverflowError(
                f"relation {rname!r} is undecided on {slot}; no diagram "
                "covers that support"
            )
        relations[rname] = frozenset(slot for slot, holds in decided.items() if holds)

    constants = {}
    for cname in bp.sig.constants:
        if (0, "c", cname) not in elem:
            raise SupportOverflowError(
                f"constant {cname!r} is undecided; no diagram is instantiated"
            )
        constants[cname] = elem[(0, "c", cname)]

    target = TargetStructure(bp.sig, len(ordered), functions, relations, constants)
    images = tuple(elem[(0, "e", e)] for e in range(index.size))
    return EmModel(bp, index, target, images)


def check_indiscernible(model: EmModel) -> list[dict]:
    """Mismatches between each tuple's blueprint diagram and the diagram its
    generator images realize in the model; empty when the family is faithful."""
    bp = model.blueprint
    table = bp.as_map()
    out: list[dict] = []
    for arity in range(1, min(bp.n_max, model.index.size) + 1):
        for tup in itertools.combinations(range(model.index.size), arity):
            values = tuple(model.generator_images[e] for e in tup)
            if len(set(values)) != len(values):
                out.append({"tuple": list(tup), "reason": "images collide"})
                continue
            got = model_diagram(model.target, values, bp.depth)
            want = table[tuple_type(model.index, tup)]
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

    def to_doc(self) -> dict:
        doc = {
            "status": self.status,
            "stages": self.stages,
            "exhaustive": self.exhaustive,
        }
        if self.blueprint is not None:
            doc["blueprint"] = self.blueprint.to_doc()
            doc["subset"] = list(self.subset)
        return doc


def _diagram_coloring(
    target: TargetStructure,
    assignment: tuple[int, ...],
    index: FinStructure,
    subset: tuple[int, ...],
    arity: int,
    depth: int,
) -> tuple[Coloring, list[Diagram]]:
    """Color the increasing tuples of `subset` by their diagram in the
    target; colors number distinct diagrams in first-occurrence order."""
    palette: dict[Diagram, int] = {}
    table: dict[tuple[int, ...], int] = {}
    for tup in itertools.combinations(subset, arity):
        values = tuple(assignment[e] for e in tup)
        d = model_diagram(target, values, depth)
        table[tup] = palette.setdefault(d, len(palette))
    col = Coloring(index, arity, max(len(palette), 1), table)
    ordered = [d for d, _ in sorted(palette.items(), key=lambda e: e[1])]
    return col, ordered


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

    Arities are processed in increasing order.  At each arity the current
    subset is kept whole when it is already diagram-homogeneous; otherwise
    the standard homogeneity search runs inside it at that arity's level.
    Every domain type must be realized in the final subset, else
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
    levels = tuple(levels)
    if len(levels) != n_max:
        raise ValueError("levels must list one level per arity")

    current = tuple(range(index.size))
    stages: list = []
    for arity in range(1, n_max + 1):
        col, _ = _diagram_coloring(target, assignment, index, current, arity, depth)
        whole = type_homogeneity_witness(col, current)
        if whole is not None and subset_is_big(index, current, levels[arity - 1]):
            stages.append(
                {
                    "arity": arity,
                    "action": "whole",
                    "palette": col.colors,
                    "kept": len(current),
                }
            )
            continue
        res: SearchResult = find_type_homogeneous(
            col, levels[arity - 1], budget=budget, within=current
        )
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
            return ExtractReport(None, None, stages, res.exhaustive)
        current = res.subset

    assignments: list[tuple[TupleType, Diagram]] = []
    for arity in range(1, n_max + 1):
        domain = enumerate_types(index.cls, arity, levels[arity - 1])
        realized: dict[TupleType, Diagram] = {}
        for tup in itertools.combinations(current, arity):
            t = tuple_type(index, tup)
            if t not in realized:
                values = tuple(assignment[e] for e in tup)
                realized[t] = model_diagram(target, values, depth)
        for t in domain:
            if t not in realized:
                raise BlueprintDomainError(
                    f"extracted subset realizes no tuple of a domain type "
                    f"at arity {arity}"
                )
        assignments.extend((t, realized[t]) for t in domain)

    bp = Blueprint(index.cls, target.sig, n_max, depth, levels, tuple(assignments))
    bp.validate()
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
    """Encode a coloring as a relational target: index elements, one named
    element per color, and an (arity+1)-ary relation linking each increasing
    tuple to its color's element.  The assignment is the identity."""
    n, c, size = col.arity, col.colors, col.base.size
    sig = OutputSignature(
        relations=(("C", n + 1),),
        constants=tuple(f"k{a}" for a in range(c)),
    )
    rows = set()
    for tup, color in col.table.items():
        rows.add(tup + (size + color,))
    target = TargetStructure(
        sig,
        size + c,
        {},
        {"C": frozenset(rows)},
        {f"k{a}": size + a for a in range(c)},
    )
    return target, tuple(range(size))


def derive_homogeneous(col: Coloring, level: int, budget: int | None = None) -> DeriveResult:
    """Recover a homogeneous subset and witness through the blueprint
    pipeline: encode the coloring as a target, extract, and read the witness
    off the arity-n diagrams via which color constant each one relates to."""
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
    terms = enumerate_terms(target.sig, n, 0)
    var_idx = [terms.index(var(i)) for i in range(n)]
    const_idx = [terms.index(const(f"k{a}")) for a in range(col.colors)]
    table = bp.as_map()
    mapping: dict[TupleType, int] = {}
    for t in bp.domain(n):
        diag = table[t]
        hits = [
            a
            for a in range(col.colors)
            if ("C", tuple(var_idx) + (const_idx[a],)) in diag.true_atoms
        ]
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
