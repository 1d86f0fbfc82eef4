"""Quantifier-free types of increasing tuples.

The type of an increasing tuple records the induced structure on the closure
of the tuple under the class functions (the tree meet; no other kind has
functions), relabeled along the order, together with the positions the tuple
occupies inside that closure.  Because the designated order is rigid, the
relabeled fragment is already canonical and two tuples have the same type
exactly when their canonical codes agree byte for byte; no isomorphism search
is ever needed.

The code serializes the fragment's atomic data, which for chi_color and
n_tree is read off the ambient structure (residues of positions, ambient
level labels), so fragments need not themselves be class members.  Types are
invariant under extending the ambient structure to any member containing the
closure: every recorded atom mentions closure elements only.
"""

from __future__ import annotations

import base64
import itertools
import json
from dataclasses import dataclass

from .structures import (
    ClassKind,
    FinStructure,
    make_canonical,
    require_fields,
    subset_closure,
)


@dataclass(frozen=True)
class TupleType:
    """Canonical quantifier-free type: class, arity, fragment code."""

    cls: ClassKind
    arity: int
    code: bytes

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
        require_fields(doc, {"class": dict, "arity": int, "code": str}, "tuple type")
        return TupleType(
            cls=ClassKind.from_doc(doc["class"]),
            arity=doc["arity"],
            code=base64.b64decode(doc["code"]),
        )


def _encode(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("ascii")


def tuple_type(s: FinStructure, tup: tuple[int, ...]) -> TupleType:
    """Type of an increasing tuple of s, computed in the ambient structure."""
    tup = tuple(tup)
    if not tup:
        raise ValueError("tuple must be nonempty")
    for a, b in zip(tup, tup[1:]):
        if a >= b:
            raise ValueError(f"tuple {tup} is not strictly increasing")
    if tup[0] < 0 or tup[-1] >= s.size:
        raise ValueError(f"tuple {tup} outside universe of size {s.size}")
    closed = subset_closure(s, tup)
    pos = {e: i for i, e in enumerate(closed)}
    payload = {"m": len(closed), "gen": [pos[e] for e in tup], **s.cls.spec.fragment(s, closed, pos)}
    return TupleType(s.cls, len(tup), _encode(payload))


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
    payload = json.loads(p.code)
    frag, place = p.cls.spec.decode(p.cls, payload["m"], payload)
    return tuple_type(frag, tuple(place[payload["gen"][i]] for i in positions))


def enumerate_types(cls: ClassKind, n: int, level: int | None = None) -> list[TupleType]:
    """Distinct types realized by increasing n-tuples of the canonical
    max(level, n)-big structure, in first-occurrence order over the
    lexicographic tuple enumeration.

    Types realized at level n stay realized at every higher level because the
    canonical structures form an embedding chain, so raising `level` can only
    extend the list.
    """
    if n < 1:
        raise ValueError("arity must be at least 1")
    lv = n if level is None else max(level, n)
    base = make_canonical(cls, lv)
    seen: set[bytes] = set()
    out: list[TupleType] = []
    for tup in itertools.combinations(range(base.size), n):
        t = tuple_type(base, tup)
        if t.code not in seen:
            seen.add(t.code)
            out.append(t)
    return out
