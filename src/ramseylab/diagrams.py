"""Terms, output signatures, and tuple diagrams over target structures.

A diagram is the complete quantifier-free description of the substructure a
tuple generates in a target: which terms over the tuple coincide, and which
relation atoms hold among the term classes.  Terms are enumerated to a fixed
depth and ordered by (depth, spelling), so a diagram is a finite, comparable,
hashable value; two tuples behave identically up to the chosen depth exactly
when their diagrams are equal.

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


class UnionFind:
    """Union by least element, so a class representative is its least member."""

    def __init__(self):
        self.parent: dict = {}

    def add(self, x):
        self.parent.setdefault(x, x)

    def find(self, x):
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        lo, hi = (ra, rb) if ra <= rb else (rb, ra)
        self.parent[hi] = lo
        return True


@dataclass(frozen=True)
class Diagram:
    """Equality pattern and relational atoms of an `arity`-tuple's generated
    substructure, over the term list enumerate_terms(sig, arity, depth).

    eq_reps[i] is the least term index equal to term i; true_atoms holds
    (relation, rep-index tuple) entries, and every rep tuple not listed is
    false.  Distinct variables always denote distinct elements.
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

    def validate(self) -> None:
        terms = self.terms()
        n = len(terms)
        if len(self.eq_reps) != n:
            raise ValueError("equality pattern length does not match term count")
        for i, r in enumerate(self.eq_reps):
            if not 0 <= r <= i:
                raise ValueError(f"term {i} has representative {r} after it")
            if self.eq_reps[r] != r:
                raise ValueError(f"representative {r} is not its own representative")
        index_of = {t: i for i, t in enumerate(terms)}
        var_reps = set()
        for i, t in enumerate(terms):
            if t.is_var():
                r = self.eq_reps[i]
                if r in var_reps or not terms[r].is_var():
                    raise ValueError("distinct variables may not share a class")
                var_reps.add(r)
        # congruence: equal arguments force equal applications
        by_head: dict = {}
        for i, t in enumerate(terms):
            if t.is_var() or not t.args:
                continue
            key = (t.head, tuple(self.eq_reps[index_of[a]] for a in t.args))
            j = by_head.setdefault(key, i)
            if self.eq_reps[j] != self.eq_reps[i]:
                raise ValueError(
                    f"terms {terms[j].spelling()} and {t.spelling()} break congruence"
                )
        rels = dict(self.sig.relations)
        rep_set = set(self.reps())
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
        return _build_diagram(
            self.sig, k, self.depth, values, lambda r, row: (r, row) in self.true_atoms
        )

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
        require_fields(
            doc, {"arity": int, "depth": int, "eq": [int], "atoms": [(str, [int])]}, "diagram"
        )
        d = Diagram(
            sig,
            doc["arity"],
            doc["depth"],
            tuple(doc["eq"]),
            frozenset((r, tuple(ix)) for r, ix in doc["atoms"]),
        )
        d.validate()
        return d


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

    def holds(self, rname: str, row: tuple[int, ...]) -> bool:
        return row in self.relations[rname]

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
        sig = OutputSignature.from_doc(doc["signature"])
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


def _build_diagram(sig: OutputSignature, arity: int, depth: int, values, holds) -> Diagram:
    """Diagram in which term i denotes values[i]: equal values share the
    index of their first occurrence as representative, and an atom over
    representatives is true when holds(relation, row of values) is."""
    first: dict = {}
    eq_reps = tuple(first.setdefault(v, i) for i, v in enumerate(values))
    atoms = frozenset(
        (rname, combo)
        for rname, rarity in sig.relations
        for combo in itertools.product(first.values(), repeat=rarity)
        if holds(rname, tuple(values[i] for i in combo))
    )
    return Diagram(sig, arity, depth, eq_reps, atoms)


def model_diagram(target: TargetStructure, values: tuple[int, ...], depth: int) -> Diagram:
    """Diagram of a value tuple inside a target, up to the given term depth.

    The values must be pairwise distinct, matching the convention that
    distinct variables denote distinct elements.
    """
    if len(set(values)) != len(values):
        raise ValueError("generator values must be pairwise distinct")
    terms = enumerate_terms(target.sig, len(values), depth)
    evals = [target.eval_term(t, values) for t in terms]
    d = _build_diagram(target.sig, len(values), depth, evals, target.holds)
    d.validate()
    return d
