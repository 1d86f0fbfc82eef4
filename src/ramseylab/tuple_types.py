"""Quantifier-free types of increasing tuples.

The type of an increasing tuple records the induced structure on the closure
of the tuple under the class functions (the tree meet; no other kind has
functions), relabeled along the order, together with the positions the tuple
occupies inside that closure.  Because the designated order is rigid, the
relabeled fragment is already canonical, and types compare and hash by their
fragments with no isomorphism search.  A fragment is the sorted (entry,
value) pairs of the closure size `m`, the generator positions `gen` and the
kind's atomic data, lists held as tuples; its canonical JSON bytes
(`TupleType.code`) exist only in documents.  `type_fragment` computes a
fragment, the definition of a type, and `tuple_type` wraps it in a
`TupleType`.  A kind with no functions (one that keeps `Kind.close`) closes
every tuple to itself, so `type_fragment` skips the closure there and
relabels the tuple alone.

Typing in bulk goes by type codes instead (`type_coder`, `Kind.type_code`;
not `TupleType.code`, the document bytes): a small hashable value that the
kind computes from per-element arrays, equal for two tuples of one arity
exactly when their fragments are.  `Coloring.type_id` and `enumerate_types`
intern codes, and compute a fragment and build a `TupleType` once per new
code.

The atomic data of chi_color and n_tree is read off the ambient structure
(residues of positions, ambient level labels), so fragments need not
themselves be class members.  Types are invariant under extending the
ambient structure to any member containing the closure: every recorded atom
mentions closure elements only.
"""

from __future__ import annotations

import base64
import itertools
import json
from dataclasses import dataclass

from .structures import (
    ClassKind,
    FinStructure,
    Kind,
    _is_int,
    _kept,
    canonical_json,
    is_member,
    make_canonical,
    require_fields,
    subset_closure,
)


@dataclass(frozen=True)
class TupleType:
    """Canonical quantifier-free type: class, arity, fragment."""

    cls: ClassKind
    arity: int
    fragment: tuple

    @_kept
    def code(self) -> bytes:
        """The fragment's canonical JSON bytes, as documents hold them."""
        return canonical_json(dict(self.fragment)).encode("ascii")

    def sort_key(self) -> tuple:
        return (self.arity, self.code)

    def to_doc(self) -> dict:
        return {
            "class": self.cls.to_doc(),
            "arity": self.arity,
            "code": base64.b64encode(self.code).decode("ascii"),
        }

    @staticmethod
    def from_doc(doc: dict) -> "TupleType":
        """Inverse of `to_doc`; the code must be base64 of canonical bytes,
        with an integer `m`, an integer list `gen` and only integers and
        lists inside."""
        require_fields(doc, {"class": dict, "arity": int, "code": str}, "tuple type")
        try:
            code = base64.b64decode(doc["code"], validate=True)
            entries = json.loads(code)
        except (ValueError, RecursionError):
            raise ValueError("tuple type code is not base64 of JSON") from None
        require_fields(entries, {"m": int, "gen": [int]}, "tuple type code")
        fragment = tuple(sorted((key, _freeze(value)) for key, value in entries.items()))
        t = TupleType(ClassKind.from_doc(doc["class"]), doc["arity"], fragment)
        if t.code != code:
            raise ValueError("tuple type code is not in canonical form")
        return t


def _freeze(value):
    # a decoded code entry as a fragment value: lists become tuples
    if isinstance(value, list):
        return tuple(map(_freeze, value))
    if _is_int(value):
        return value
    raise ValueError(f"tuple type code holds {value!r} where integers and lists belong")


def require_tuple(s: FinStructure, tup: tuple) -> None:
    """Raise ValueError unless the tuple is nonempty, strictly increasing
    and inside the universe of s."""
    if not tup:
        raise ValueError("tuple must be nonempty")
    for a, b in zip(tup, tup[1:]):
        if a >= b:
            raise ValueError(f"tuple {tup} is not strictly increasing")
    if tup[0] < 0 or tup[-1] >= s.size:
        raise ValueError(f"tuple {tup} outside universe of size {s.size}")


def type_fragment(s: FinStructure, tup: tuple[int, ...]) -> tuple:
    """Fragment of an increasing tuple of s, computed in the ambient
    structure; `tuple_type` wraps it, with the same checks."""
    tup = tuple(tup)
    require_tuple(s, tup)
    spec = s.cls.spec
    # a kind with no functions closes every tuple to itself
    closed = tup if type(spec).close is Kind.close else subset_closure(s, tup)
    pos = {e: i for i, e in enumerate(closed)}
    entries = [("gen", tuple([pos[e] for e in tup])), ("m", len(closed))]
    entries += spec.fragment(s, closed, pos)
    entries.sort()
    return tuple(entries)


def type_coder(s: FinStructure):
    """The type code of the member s, `Kind.type_code`.  A code reads
    payload that only membership vouches for, so a structure that is not a
    member raises ValueError."""
    if not is_member(s):
        raise ValueError(f"{s.cls.label()} structure is not a member of its class, so its tuples have no types")
    return s.cls.spec.type_code(s)


def tuple_type(s: FinStructure, tup: tuple[int, ...]) -> TupleType:
    """Type of an increasing tuple of s, computed in the ambient structure."""
    tup = tuple(tup)
    return TupleType(s.cls, len(tup), type_fragment(s, tup))


def restrict_type(p: TupleType, positions: tuple[int, ...]) -> TupleType:
    """Type of the subtuple at the given 0-based positions.

    Equals tuple_type applied to the subtuple of any realization of p; the
    computation runs inside the decoded fragment, which is ambient enough by
    type invariance.
    """
    positions = tuple(positions)
    if not positions:
        raise ValueError("positions must be nonempty")
    for a, b in zip(positions, positions[1:]):
        if a >= b:
            raise ValueError(f"positions {positions} not strictly increasing")
    if positions[0] < 0 or positions[-1] >= p.arity:
        raise ValueError(f"positions {positions} outside arity {p.arity}")
    entries = dict(p.fragment)
    frag, place = p.cls.spec.decode(p.cls, entries["m"], entries)
    return tuple_type(frag, tuple(place[entries["gen"][i]] for i in positions))


def enumerate_types(cls: ClassKind, n: int, level: int | None = None) -> list[TupleType]:
    """Distinct types realized by increasing n-tuples of the canonical
    max(level, n)-big structure, in first-occurrence order over the
    lexicographic tuple enumeration.

    Types realized at level n stay realized at every higher level because the
    canonical structures form an embedding chain, so raising `level` can only
    extend the list.  A negative `level` raises ValueError.
    """
    if n < 1:
        raise ValueError("arity must be at least 1")
    if level is not None and level < 0:
        raise ValueError("level must be nonnegative")
    lv = n if level is None else max(level, n)
    base = make_canonical(cls, lv)
    tuples, again = itertools.tee(itertools.combinations(range(base.size), n))
    # codes in first-occurrence order, each with a tuple that has it: the
    # last, which has the first one's fragment
    reps = dict(zip(map(type_coder(base), tuples), again))
    return [TupleType(base.cls, n, type_fragment(base, tup)) for tup in reps.values()]
