"""Terms, output signatures, and tuple diagrams over target structures.

A diagram is the complete quantifier-free description of the substructure a
tuple generates in a target: which terms over the tuple coincide, and which
relation atoms hold among the term classes.  Terms are enumerated to a fixed
depth and ordered by (depth, spelling), so a diagram is a finite, comparable,
hashable value; two tuples behave identically up to the chosen depth exactly
when their diagrams are equal.

Each term list is compiled once into a term program (`term_program`): one
(head, var_index, arg_indices) row per term, in the same order, where every
argument index points at an earlier row because arguments are shallower.
Per-tuple work reads the program bottom-up instead of recursing over `Term`
trees: `model_diagram` evaluates it into a flat list of values,
`Diagram.validate` checks variables and congruence through the argument
indices, and blueprint instantiation interns each instantiated term as a
flat key over the ids of its argument rows.

Restriction maps an n-tuple diagram to the diagram of a sub-tuple by renaming
variables, and commutes with reading diagrams off a target.  That commuting
square is what blueprint coherence checks.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache

from .structures import require_fields

_RESERVED = re.compile(r"^x[0-9]*$")


@dataclass(frozen=True)
class Term:
    """Variable (head "x", position `index`), constant, or application."""

    head: str
    index: int = -1
    args: tuple["Term", ...] = ()

    def is_var(self) -> bool:
        return self.head == "x"

    def depth(self) -> int:
        if not self.args:
            return 0
        return 1 + max(a.depth() for a in self.args)

    def spelling(self) -> str:
        if self.is_var():
            return f"x{self.index}"
        if not self.args:
            return self.head
        return f"{self.head}({','.join(a.spelling() for a in self.args)})"

    def sort_key(self) -> tuple[int, str]:
        return (self.depth(), self.spelling())

    def rename(self, positions: tuple[int, ...]) -> "Term":
        """Map variable j to variable positions[j]."""
        if self.is_var():
            return Term("x", positions[self.index])
        if not self.args:
            return self
        return Term(self.head, -1, tuple(a.rename(positions) for a in self.args))


def var(i: int) -> Term:
    return Term("x", i)


def const(name: str) -> Term:
    return Term(name)


def app(name: str, *args: Term) -> Term:
    return Term(name, -1, tuple(args))


@dataclass(frozen=True)
class OutputSignature:
    """Function, relation, and constant symbols of a target vocabulary."""

    functions: tuple[tuple[str, int], ...] = ()
    relations: tuple[tuple[str, int], ...] = ()
    constants: tuple[str, ...] = ()

    def __post_init__(self):
        names = [n for n, _ in self.functions]
        names += [n for n, _ in self.relations]
        names += list(self.constants)
        if len(set(names)) != len(names):
            raise ValueError("symbol names must be distinct")
        for n in names:
            if _RESERVED.match(n):
                raise ValueError(f"symbol name {n!r} collides with variable spelling")
        for n, a in self.functions + self.relations:
            if a < 1:
                raise ValueError(f"symbol {n!r} needs positive arity")
        object.__setattr__(self, "functions", tuple(sorted(self.functions)))
        object.__setattr__(self, "relations", tuple(sorted(self.relations)))
        object.__setattr__(self, "constants", tuple(sorted(self.constants)))

    def to_doc(self) -> dict:
        return {
            "functions": [[n, a] for n, a in self.functions],
            "relations": [[n, a] for n, a in self.relations],
            "constants": list(self.constants),
        }

    @staticmethod
    def from_doc(doc: dict) -> "OutputSignature":
        require_fields(
            doc, {"functions": [(str, int)], "relations": [(str, int)], "constants": [str]}, "signature"
        )
        return OutputSignature(
            tuple((n, a) for n, a in doc["functions"]),
            tuple((n, a) for n, a in doc["relations"]),
            tuple(doc["constants"]),
        )


@lru_cache(maxsize=None)
def enumerate_terms(sig: OutputSignature, arity: int, depth: int) -> tuple[Term, ...]:
    """All terms over variables x0..x{arity-1} up to the given depth, ordered
    by (depth, spelling)."""
    if arity < 0 or depth < 0:
        raise ValueError("arity and depth must be nonnegative")
    pool: list[Term] = [var(i) for i in range(arity)]
    pool += [const(c) for c in sig.constants]
    frontier = set(pool)
    for _ in range(depth):
        nxt: list[Term] = []
        known = set(pool)
        for fname, farity in sig.functions:
            for args in itertools.product(pool, repeat=farity):
                if not any(a in frontier for a in args):
                    continue
                t = app(fname, *args)
                if t not in known:
                    nxt.append(t)
                    known.add(t)
        pool += nxt
        frontier = set(nxt)
    return tuple(sorted(pool, key=Term.sort_key))


@lru_cache(maxsize=None)
def term_program(
    sig: OutputSignature, arity: int, depth: int
) -> tuple[tuple[str, int, tuple[int, ...]], ...]:
    """enumerate_terms(sig, arity, depth) as rows (head, var_index,
    arg_indices), one per term and in the same order.  var_index is the
    variable's position, or -1 for constants and applications; arg_indices
    name the argument rows, which always come earlier, since terms are
    ordered by depth first."""
    terms = enumerate_terms(sig, arity, depth)
    index_of = {t: i for i, t in enumerate(terms)}
    return tuple((t.head, t.index, tuple(index_of[a] for a in t.args)) for t in terms)


@dataclass(frozen=True)
class Diagram:
    """Equality pattern and relational atoms of an `arity`-tuple's generated
    substructure, over the term list enumerate_terms(sig, arity, depth).

    eq_reps[i] is the least term index equal to term i; true_atoms holds
    (relation, rep-index tuple) entries, and every rep tuple not listed is
    false.  Distinct variables always denote distinct elements, and no
    variable denotes a constant's element.
    """

    sig: OutputSignature
    arity: int
    depth: int
    eq_reps: tuple[int, ...]
    true_atoms: frozenset = frozenset()

    def terms(self) -> tuple[Term, ...]:
        return enumerate_terms(self.sig, self.arity, self.depth)

    def reps(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.eq_reps)))

    def atom_rows(self) -> dict[str, set]:
        """The representative tuples of the true atoms, by relation name,
        with an entry for every relation of the signature."""
        rows: dict[str, set] = {rname: set() for rname, _ in self.sig.relations}
        for rname, idxs in self.true_atoms:
            rows.setdefault(rname, set()).add(idxs)
        return rows

    def validate(self) -> None:
        program = term_program(self.sig, self.arity, self.depth)
        eq = self.eq_reps
        if len(eq) != len(program):
            raise ValueError("equality pattern length does not match term count")
        for i, r in enumerate(eq):
            if not 0 <= r <= i:
                raise ValueError(f"term {i} has representative {r} after it")
            if eq[r] != r:
                raise ValueError(f"representative {r} is not its own representative")
        # variables and constants have depth 0, so they are all checked
        # before any application: a variable's class holds no other depth-0
        # term, whichever one is spelled first; congruence: equal arguments
        # force equal applications
        by_head: dict = {}
        for i, (head, v, args) in enumerate(program):
            if not args:
                if (eq[i] != i) if v >= 0 else (program[eq[i]][1] >= 0):
                    raise ValueError(
                        "distinct variables may not share a class, nor a variable with a constant"
                    )
            else:
                j = by_head.setdefault((head, tuple([eq[a] for a in args])), i)
                if eq[j] != eq[i]:
                    terms = self.terms()
                    raise ValueError(
                        f"terms {terms[j].spelling()} and {terms[i].spelling()} break congruence"
                    )
        rels = dict(self.sig.relations)
        rep_set = set(eq)
        for atom in self.true_atoms:
            rname, idxs = atom
            if rname not in rels:
                raise ValueError(f"unknown relation {rname!r}")
            if len(idxs) != rels[rname]:
                raise ValueError(f"atom arity mismatch for {rname!r}")
            for i in idxs:
                if i not in rep_set:
                    raise ValueError("atom indices must be representatives")

    def restrict(self, positions: tuple[int, ...]) -> "Diagram":
        """Diagram of the sub-tuple at the given strictly increasing
        positions, at the same depth."""
        k = len(positions)
        if k < 1 or list(positions) != sorted(set(positions)):
            raise ValueError("positions must be strictly increasing and nonempty")
        if positions[-1] >= self.arity:
            raise ValueError("position outside tuple")
        # each small term denotes the class of its renaming in this diagram,
        # and atoms transfer along those classes
        big_index = {t: i for i, t in enumerate(self.terms())}
        values = [
            self.eq_reps[big_index[t.rename(positions)]]
            for t in enumerate_terms(self.sig, k, self.depth)
        ]
        return _build_diagram(self.sig, k, self.depth, values, self.atom_rows().__getitem__)

    def sort_key(self):
        return (self.arity, self.eq_reps, tuple(sorted(self.true_atoms)))

    def to_doc(self) -> dict:
        return {
            "arity": self.arity,
            "depth": self.depth,
            "eq": list(self.eq_reps),
            "atoms": sorted([r, list(ix)] for r, ix in self.true_atoms),
        }

    @staticmethod
    def from_doc(doc: dict, sig: OutputSignature) -> "Diagram":
        """The diagram a document spells, checked for its field types only:
        the `Blueprint` that holds it runs `validate` once it is built."""
        require_fields(
            doc, {"arity": int, "depth": int, "eq": [int], "atoms": [(str, [int])]}, "diagram"
        )
        return Diagram(
            sig,
            doc["arity"],
            doc["depth"],
            tuple(doc["eq"]),
            frozenset((r, tuple(ix)) for r, ix in doc["atoms"]),
        )


class TargetStructure:
    """Concrete finite structure for an output signature.

    Functions are total maps represented as dicts from argument tuples to
    elements; relations are sets of tuples; constants name elements.
    """

    def __init__(
        self,
        sig: OutputSignature,
        size: int,
        functions: dict[str, dict[tuple[int, ...], int]] | None = None,
        relations: dict[str, frozenset] | None = None,
        constants: dict[str, int] | None = None,
    ):
        self.sig = sig
        self.size = size
        self.functions = {n: dict(m) for n, m in (functions or {}).items()}
        self.relations = {n: frozenset(v) for n, v in (relations or {}).items()}
        self.constants = dict(constants or {})
        self.validate()

    def validate(self) -> None:
        if self.size < 0:
            raise ValueError("size must be nonnegative")
        fn_arity = dict(self.sig.functions)
        if set(self.functions) != set(fn_arity):
            raise ValueError("function symbols do not match the signature")
        for name, table in self.functions.items():
            a = fn_arity[name]
            expect = self.size ** a
            if len(table) != expect:
                raise ValueError(f"function {name!r} is not total")
            for args, val in table.items():
                if len(args) != a or not all(0 <= x < self.size for x in args):
                    raise ValueError(f"bad argument tuple {args} for {name!r}")
                if not 0 <= val < self.size:
                    raise ValueError(f"value {val} of {name!r} outside universe")
        rel_arity = dict(self.sig.relations)
        if set(self.relations) != set(rel_arity):
            raise ValueError("relation symbols do not match the signature")
        for name, rows in self.relations.items():
            a = rel_arity[name]
            for row in rows:
                if len(row) != a or not all(0 <= x < self.size for x in row):
                    raise ValueError(f"bad row {row} in relation {name!r}")
        if set(self.constants) != set(self.sig.constants):
            raise ValueError("constant symbols do not match the signature")
        for name, val in self.constants.items():
            if not 0 <= val < self.size:
                raise ValueError(f"constant {name!r} outside universe")

    def eval_term(self, term: Term, values: tuple[int, ...]) -> int:
        if term.is_var():
            return values[term.index]
        if not term.args:
            return self.constants[term.head]
        args = tuple(self.eval_term(a, values) for a in term.args)
        return self.functions[term.head][args]

    def to_doc(self) -> dict:
        return {
            "signature": self.sig.to_doc(),
            "size": self.size,
            "functions": {
                n: [[list(args), v] for args, v in sorted(m.items())]
                for n, m in sorted(self.functions.items())
            },
            "relations": {
                n: sorted(list(r) for r in rows)
                for n, rows in sorted(self.relations.items())
            },
            "constants": dict(sorted(self.constants.items())),
        }

    @staticmethod
    def from_doc(doc: dict) -> "TargetStructure":
        # the shape of every value in each symbol map
        maps = {"functions": [([int], int)], "relations": [[int]], "constants": int}
        require_fields(doc, {"signature": dict, "size": int, **dict.fromkeys(maps, dict)}, "target")
        sig = OutputSignature.from_doc(doc["signature"])
        for name, shape in maps.items():
            require_fields(doc[name], dict.fromkeys(doc[name], shape), f"target {name}")
        return TargetStructure(
            sig,
            doc["size"],
            {
                n: {tuple(args): v for args, v in rows}
                for n, rows in doc["functions"].items()
            },
            {
                n: frozenset(tuple(r) for r in rows)
                for n, rows in doc["relations"].items()
            },
            doc["constants"],
        )


def _build_diagram(sig: OutputSignature, arity: int, depth: int, values, rows_of) -> Diagram:
    """Diagram in which term i denotes values[i]: equal values share the
    index of their first occurrence as representative, and an atom over
    representatives is true when its row of values is in the container
    rows_of(relation)."""
    first: dict = {}
    eq_reps = tuple(first.setdefault(v, i) for i, v in enumerate(values))
    # `first` lists each distinct value with its first index, so the index
    # combos and the value rows run in step; the membership tests run in C
    atoms: list = []
    for rname, rarity in sig.relations:
        hits = map(rows_of(rname).__contains__, itertools.product(first, repeat=rarity))
        combos = itertools.compress(itertools.product(first.values(), repeat=rarity), hits)
        atoms += zip(itertools.repeat(rname), combos)
    return Diagram(sig, arity, depth, eq_reps, frozenset(atoms))


def model_diagram(target: TargetStructure, values: tuple[int, ...], depth: int) -> Diagram:
    """Diagram of a value tuple inside a target, up to the given term depth.

    The values must be pairwise distinct elements of the target and none a
    constant's value, as distinct variables denote distinct elements and no
    variable a constant's.  The term program is evaluated bottom-up, so the
    result is congruent, and with first-occurrence representatives it needs
    no `Diagram.validate`.
    """
    if len(set(values)) != len(values):
        raise ValueError("generator values must be pairwise distinct")
    if values and not (0 <= min(values) and max(values) < target.size):
        raise ValueError(f"generator values must lie in the universe 0..{target.size - 1}")
    if not set(values).isdisjoint(target.constants.values()):
        raise ValueError("distinct variables may not share a class, nor a variable with a constant")
    evals: list[int] = []
    for head, v, args in term_program(target.sig, len(values), depth):
        if v >= 0:
            evals.append(values[v])
        elif args:
            evals.append(target.functions[head][tuple([evals[a] for a in args])])
        else:
            evals.append(target.constants[head])
    return _build_diagram(target.sig, len(values), depth, evals, target.relations.__getitem__)
