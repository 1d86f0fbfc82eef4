"""Finite ordered structures from seven combinatorial classes.

Every structure lives on the universe 0..N-1 carrying the natural order as its
designated linear order.  The order rigidifies everything: a structure has no
nontrivial automorphisms, so canonical forms, substructures, and type codes
reduce to plain tuple bookkeeping with no isomorphism search.

The class kinds:

  or            linear orders, no extra data.
  chi_or        chi disjoint orders laid end to end; payload assigns each
                element its part, weakly increasing along the universe.
  chi_color     orders with chi positional color predicates; element i carries
                color i mod chi, so members need no payload at all.
  n_tree        trees of height at most h with a level assignment, the tree
                partial order, and a total binary meet; the universe order is
                the preorder traversal (children visited in increasing order).
                Level labels may exceed tree depth: fragments cut from a taller
                tree keep their ambient levels.
  ceq           linear orders with a convex equivalence relation; payload is
                the list of equivalence blocks, each an interval.
  ordered_graph ordered simple graphs; payload is the edge set.
  hypergraph    orders with a coloring F of all element subsets of size below
                a fixed arity bound by a fixed palette.

A bigness level mu in each class names how much structure must survive inside
a subset for it to count as large; `is_big` fixes the notion per kind, and
`make_canonical` builds the minimal mu-big member.  The canonical structures
form a chain: each embeds in the next, which is what keeps type enumeration
and partition-relation tables monotone.

Everything a kind knows lives in one `Kind` subclass, registered by name in
`TABLE`: its parameters, its payload fields and their document keys, the
canonical member, membership and bigness, closure, admission and pruning for
the subset walker, the fragment a type code records and the decoding back,
and the canonical embedding.  The module-level functions validate their input
and dispatch to the table, and no other module tells kinds apart, so a new
class is one more subclass.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

# the least value of each class parameter; a kind takes the ones it names
_PARAMS = {"chi": 1, "height": 0, "edge_arity": 1, "palette": 1}
_PAYLOAD = ("parts", "edges", "parent", "level", "blocks", "hyper")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _spec(kind) -> "Kind":
    spec = TABLE.get(kind) if isinstance(kind, str) else None
    if spec is None:
        raise ValueError(f"unknown class kind {kind!r}")
    return spec


@dataclass(frozen=True)
class ClassKind:
    """A structure class: the kind tag plus its numeric parameters."""

    kind: str
    chi: int | None = None
    height: int | None = None
    edge_arity: int | None = None
    palette: int | None = None

    def __post_init__(self) -> None:
        spec = _spec(self.kind)
        for name, least in _PARAMS.items():
            value = getattr(self, name)
            if name not in spec.params:
                if value is not None:
                    raise ValueError(f"{self.kind} does not take parameter {name}")
            elif value is None:
                raise ValueError(f"{self.kind} needs parameter {name}")
            elif not _is_int(value):
                raise ValueError(f"parameter {name} must be an integer, not {value!r}")
            elif value < least:
                raise ValueError(f"{name} must be at least {least}")

    @property
    def spec(self) -> "Kind":
        """The table entry for this kind."""
        return TABLE[self.kind]

    def label(self) -> str:
        values = [str(getattr(self, p)) for p in self.spec.params]
        return f"{self.kind}({','.join(values)})" if values else self.kind

    def to_doc(self) -> dict:
        return {"kind": self.kind, **{p: getattr(self, p) for p in self.spec.params}}

    @staticmethod
    def from_doc(doc: dict) -> "ClassKind":
        require_fields(doc, {"kind": object}, "class")
        extra = set(doc) - {"kind", *_spec(doc["kind"]).params}
        if extra:
            raise ValueError(f"unexpected keys {sorted(extra)} for class {doc['kind']}")
        return ClassKind(**doc)


def linear_order() -> ClassKind:
    return ClassKind("or")


def disjoint_orders(chi: int) -> ClassKind:
    return ClassKind("chi_or", chi=chi)


def colored_order(chi: int) -> ClassKind:
    return ClassKind("chi_color", chi=chi)


def tree_class(height: int) -> ClassKind:
    return ClassKind("n_tree", height=height)


def convex_equivalence() -> ClassKind:
    return ClassKind("ceq")


def ordered_graphs() -> ClassKind:
    return ClassKind("ordered_graph")


def hypergraphs(edge_arity: int, palette: int) -> ClassKind:
    return ClassKind("hypergraph", edge_arity=edge_arity, palette=palette)


def _freeze_hyper(entries) -> tuple:
    # by subset size first: the order documents list subsets in
    frozen = ((tuple(subset), int(color)) for subset, color in entries)
    return tuple(sorted(frozen, key=lambda e: (len(e[0]), e)))


@dataclass(frozen=True)
class FinStructure:
    """A finite structure on universe 0..size-1 with kind-specific payload.

    Construction does not validate payload content (only `is_member` does, and
    it answers False rather than raising), so deliberately malformed payloads
    can be built and tested.
    """

    cls: ClassKind
    size: int
    parts: tuple[int, ...] | None = None
    edges: frozenset | None = None
    parent: tuple[int, ...] | None = None
    level: tuple[int, ...] | None = None
    blocks: tuple[tuple[int, ...], ...] | None = None
    hyper: tuple[tuple[tuple[int, ...], int], ...] | None = None

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("size must be nonnegative")
        if self.parts is not None:
            object.__setattr__(self, "parts", tuple(self.parts))
        if self.edges is not None:
            object.__setattr__(self, "edges", frozenset(tuple(e) for e in self.edges))
        if self.parent is not None:
            object.__setattr__(self, "parent", tuple(self.parent))
        if self.level is not None:
            object.__setattr__(self, "level", tuple(self.level))
        if self.blocks is not None:
            object.__setattr__(self, "blocks", tuple(tuple(b) for b in self.blocks))
        if self.hyper is not None:
            object.__setattr__(self, "hyper", _freeze_hyper(self.hyper))

    # payload accessors used by typing and search; valid only on members

    def part_of(self, e: int) -> int:
        assert self.parts is not None
        return self.parts[e]

    def residue_of(self, e: int) -> int:
        assert self.cls.kind == "chi_color"
        return e % self.cls.chi

    def block_of(self, e: int) -> int:
        assert self.blocks is not None
        for idx, block in enumerate(self.blocks):
            if e in block:
                return idx
        raise ValueError(f"element {e} in no block")

    def has_edge(self, a: int, b: int) -> bool:
        assert self.edges is not None
        lo, hi = (a, b) if a < b else (b, a)
        return (lo, hi) in self.edges

    def hyper_color(self, subset: tuple[int, ...]) -> int:
        assert self.hyper is not None
        key = tuple(sorted(subset))
        for stored, color in self.hyper:
            if stored == key:
                return color
        raise ValueError(f"no color stored for subset {key}")


# tree helpers (valid on n_tree members)


def tree_root(s: FinStructure) -> int | None:
    if s.size == 0:
        return None
    for i in range(s.size):
        if s.parent[i] < 0:
            return i
    return None


def tree_children(s: FinStructure) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in range(s.size)]
    for i in range(s.size):
        p = s.parent[i]
        if p >= 0:
            kids[p].append(i)
    return kids


def tree_ancestors(s: FinStructure, e: int) -> list[int]:
    """Strict ancestors of e, nearest first."""
    out = []
    p = s.parent[e]
    while p >= 0:
        out.append(p)
        p = s.parent[p]
    return out


def tree_meet(s: FinStructure, a: int, b: int) -> int:
    if a == b:
        return a
    chain = {a, *tree_ancestors(s, a)}
    if b in chain:
        return b
    for anc in tree_ancestors(s, b):
        if anc in chain:
            return anc
    raise ValueError(f"elements {a} and {b} have no meet")


# the per-kind table


class Kind:
    """Everything one class kind knows.

    `params` names the ClassKind parameters the kind takes, and `fields` maps
    each FinStructure payload field it uses to the field's document key.  The
    defaults fit a kind with no payload and bigness by cardinality alone;
    subclasses override what differs.  `big` and `embed` are called with
    mu >= 1 only.
    """

    name = ""
    params: tuple[str, ...] = ()
    fields: dict[str, str] = {}
    # whether make_canonical(cls, mu) embeds into every mu-big member
    embeds = True
    # walker veto on adding an element to a closed subset, or None
    admit = None

    def canonical(self, cls: ClassKind, mu: int) -> FinStructure:
        return FinStructure(cls, self.min_size(cls, mu))

    def min_size(self, cls: ClassKind, mu: int) -> int:
        """Size of the canonical mu-big member, the least size of any."""
        return mu

    def member(self, s: FinStructure) -> bool:
        """Payload content check; the payload fields are known present."""
        return True

    def big(self, s: FinStructure, mu: int) -> bool:
        return s.size >= self.min_size(s.cls, mu)

    def subset_big(self, s: FinStructure, chosen: list[int], mu: int) -> bool:
        return len(chosen) >= self.min_size(s.cls, mu)

    def close(self, s: FinStructure, chosen: set[int]) -> None:
        """Add to `chosen` what the class functions generate from it."""

    def period(self, cls: ClassKind) -> int:
        """Nonzero when the j-th element of a subset must carry residue j
        modulo it for the subset to induce a member."""
        return 0

    def pruner(self, base: FinStructure, level: int):
        """Sound bound for one walk: can a subset of chosen + rest holding
        all of chosen still induce a level-big member?  May answer yes
        wrongly, never no."""
        least = self.min_size(base.cls, level)
        return lambda chosen, rest: len(chosen) + len(rest) >= least

    def fragment(self, s: FinStructure, closed: tuple[int, ...], pos: dict) -> dict:
        """Atomic data of a closed subset relabeled by `pos`, as type-code
        entries."""
        return {}

    def decode(self, cls: ClassKind, m: int, frag: dict):
        """A structure realizing a fragment of m elements, and the element
        that stands for each fragment position.  By default the fragment's
        entries are the payload fields, named alike."""
        return FinStructure(cls, m, **{f: frag[f] for f in self.fields}), range(m)

    def embed(self, cls: ClassKind, mu: int, target: FinStructure) -> tuple[int, ...]:
        return tuple(range(self.min_size(cls, mu)))


class LinearOrder(Kind):
    name = "or"


class DisjointOrders(Kind):
    name = "chi_or"
    params = ("chi",)
    fields = {"parts": "parts"}

    def canonical(self, cls, mu):
        parts = tuple(p for p in range(cls.chi) for _ in range(mu))
        return FinStructure(cls, cls.chi * mu, parts=parts)

    def min_size(self, cls, mu):
        return cls.chi * mu

    def member(self, s):
        if len(s.parts) != s.size:
            return False
        for p in s.parts:
            if not isinstance(p, int) or not 0 <= p < s.cls.chi:
                return False
        return all(s.parts[i] <= s.parts[i + 1] for i in range(s.size - 1))

    def big(self, s, mu):
        counts = [0] * s.cls.chi
        for p in s.parts:
            counts[p] += 1
        return all(c >= mu for c in counts)

    def subset_big(self, s, chosen, mu):
        counts = [0] * s.cls.chi
        for e in chosen:
            counts[s.part_of(e)] += 1
        return all(c >= mu for c in counts)

    def pruner(self, base, level):
        # bigness only grows with the subset, so the whole of chosen + rest
        # bounds every completion
        return lambda chosen, rest: self.subset_big(base, chosen + rest, level)

    def fragment(self, s, closed, pos):
        return {"parts": [s.part_of(e) for e in closed]}

    def embed(self, cls, mu, target):
        image: list[int] = []
        for p in range(cls.chi):
            image.extend([e for e in range(target.size) if target.part_of(e) == p][:mu])
        return tuple(image)


class ColoredOrder(Kind):
    name = "chi_color"
    params = ("chi",)

    def min_size(self, cls, mu):
        return cls.chi * mu

    def subset_big(self, s, chosen, mu):
        return subset_induces_member(s, tuple(chosen)) and len(chosen) >= s.cls.chi * mu

    def period(self, cls):
        return cls.chi

    def fragment(self, s, closed, pos):
        return {"res": [e % s.cls.chi for e in closed]}

    def decode(self, cls, m, frag):
        # a fragment need not be positional: place each position at the least
        # element above the previous one with its residue
        place: list[int] = []
        for r in frag["res"]:
            e = place[-1] + 1 if place else 0
            place.append(e + (r - e) % cls.chi)
        return FinStructure(cls, place[-1] + 1 if place else 0), place


class Trees(Kind):
    name = "n_tree"
    params = ("height",)
    fields = {"parent": "tree_parent", "level": "levels"}

    def canonical(self, cls, mu):
        parent: list[int] = []
        level: list[int] = []

        def grow(par: int, lev: int) -> None:
            me = len(parent)
            parent.append(par)
            level.append(lev)
            if lev < cls.height:
                for _ in range(mu):
                    grow(me, lev + 1)

        if mu > 0:
            grow(-1, 0)
        return FinStructure(cls, len(parent), parent=tuple(parent), level=tuple(level))

    def min_size(self, cls, mu):
        return sum(mu**d for d in range(cls.height + 1)) if mu else 0

    def member(self, s):
        n = s.size
        if len(s.parent) != n or len(s.level) != n:
            return False
        if n == 0:
            return True
        roots = [i for i in range(n) if s.parent[i] < 0]
        if roots != [0]:
            return False  # a single root, first in preorder; meet totality follows
        for i in range(1, n):
            p = s.parent[i]
            if not isinstance(p, int) or not 0 <= p < i:
                return False
        for i in range(n):
            lev = s.level[i]
            if not isinstance(lev, int) or not 0 <= lev <= s.cls.height:
                return False
            p = s.parent[i]
            if p >= 0 and s.level[i] <= s.level[p]:
                return False
        # natural order must be the preorder traversal: each subtree is the
        # interval starting at its root
        sub = [1] * n
        for i in range(n - 1, 0, -1):
            sub[s.parent[i]] += sub[i]
        for i in range(n):
            for j in range(i + 1, i + sub[i]):
                anc = j
                while anc > i:
                    anc = s.parent[anc]
                if anc != i:
                    return False
        return True

    def big(self, s, mu):
        if s.size == 0 or s.level[tree_root(s)] != 0:
            return False
        kids = tree_children(s)
        for v in range(s.size):
            if s.level[v] < s.cls.height:
                faithful = [c for c in kids[v] if s.level[c] == s.level[v] + 1]
                if len(faithful) < mu:
                    return False
        return True

    def subset_big(self, s, chosen, mu):
        if not chosen:
            return False
        inside = set(chosen)
        root = min(chosen)
        # fragment root is the meet of the whole set; it must sit at level 0
        if s.level[root] != 0:
            return False
        kids: dict[int, list[int]] = {e: [] for e in chosen}
        for e in chosen:
            if e == root:
                continue
            for anc in tree_ancestors(s, e):
                if anc in inside:
                    kids[anc].append(e)
                    break
        for v in chosen:
            if s.level[v] < s.cls.height:
                faithful = [c for c in kids[v] if s.level[c] == s.level[v] + 1]
                if len(faithful) < mu:
                    return False
        return True

    def close(self, s, chosen):
        frontier = list(chosen)
        while frontier:
            nxt = []
            for a in list(chosen):
                for b in frontier:
                    m = tree_meet(s, a, b)
                    if m not in chosen:
                        chosen.add(m)
                        nxt.append(m)
            frontier = nxt

    def admit(self, s, chosen, e):
        """Refuse e when its meet with a chosen element is new: the walker
        only grows closed subsets."""
        for x in chosen:
            m = tree_meet(s, x, e)
            if m != x and m != e and m not in chosen:
                return False
        return True

    def pruner(self, base, level):
        if level == 0:
            return lambda chosen, rest: True
        root = tree_root(base)
        if root is None or base.level[root] != 0:
            return lambda chosen, rest: False
        least = self.min_size(base.cls, level)

        def feasible(chosen, rest):
            return len(chosen) + len(rest) >= least and (root in chosen or root in rest)

        return feasible

    def fragment(self, s, closed, pos):
        inside = set(closed)
        parent = []
        for e in closed:
            par = -1
            for anc in tree_ancestors(s, e):
                if anc in inside:
                    par = pos[anc]
                    break
            parent.append(par)
        return {"parent": parent, "level": [s.level[e] for e in closed]}

    def embed(self, cls, mu, target):
        kids = tree_children(target)
        image = []

        def descend(v: int) -> None:
            image.append(v)
            if target.level[v] < cls.height:
                faithful = [c for c in kids[v] if target.level[c] == target.level[v] + 1]
                for c in faithful[:mu]:
                    descend(c)

        descend(tree_root(target))
        return tuple(image)


class ConvexEquivalence(Kind):
    name = "ceq"
    fields = {"blocks": "eq_blocks"}

    def canonical(self, cls, mu):
        blocks = tuple(tuple(range(b * mu, (b + 1) * mu)) for b in range(mu))
        return FinStructure(cls, mu * mu, blocks=blocks)

    def min_size(self, cls, mu):
        return mu * mu

    def member(self, s):
        seen: set[int] = set()
        for block in s.blocks:
            if not block:
                return False
            if list(block) != sorted(block):
                return False
            if block[-1] - block[0] != len(block) - 1:
                return False  # convexity: each block is an interval
            for e in block:
                if not isinstance(e, int) or not 0 <= e < s.size or e in seen:
                    return False
                seen.add(e)
        return len(seen) == s.size

    def big(self, s, mu):
        return sum(1 for b in s.blocks if len(b) >= mu) >= mu

    def subset_big(self, s, chosen, mu):
        counts: dict[int, int] = {}
        for e in chosen:
            b = s.block_of(e)
            counts[b] = counts.get(b, 0) + 1
        return sum(1 for c in counts.values() if c >= mu) >= mu

    def pruner(self, base, level):
        # as for chi_or
        return lambda chosen, rest: self.subset_big(base, chosen + rest, level)

    def fragment(self, s, closed, pos):
        # blocks numbered by first occurrence
        seen: dict[int, int] = {}
        return {"blocks": [seen.setdefault(s.block_of(e), len(seen)) for e in closed]}

    def decode(self, cls, m, frag):
        blocks: dict[int, list[int]] = {}
        for i, b in enumerate(frag["blocks"]):
            blocks.setdefault(b, []).append(i)
        return FinStructure(cls, m, blocks=blocks.values()), range(m)

    def embed(self, cls, mu, target):
        image = []
        wide = [b for b in target.blocks if len(b) >= mu][:mu]
        for block in wide:
            image.extend(block[:mu])
        return tuple(image)


class OrderedGraphs(Kind):
    name = "ordered_graph"
    fields = {"edges": "edges"}
    # cardinality bigness puts no structure on members: the empty graph on mu
    # vertices is mu-big but contains no edge of the canonical graph
    embeds = False

    def canonical(self, cls, mu):
        edges = frozenset(
            (i, j) for i in range(mu) for j in range(i + 1, mu) if (j >> i) & 1
        )
        return FinStructure(cls, mu, edges=edges)

    def member(self, s):
        for edge in s.edges:
            if len(edge) != 2:
                return False
            a, b = edge
            if not (isinstance(a, int) and isinstance(b, int) and 0 <= a < b < s.size):
                return False
        return True

    def fragment(self, s, closed, pos):
        return {
            "edges": [
                [pos[a], pos[b]]
                for a, b in itertools.combinations(closed, 2)
                if s.has_edge(a, b)
            ]
        }


class Hypergraphs(Kind):
    name = "hypergraph"
    params = ("edge_arity", "palette")
    fields = {"hyper": "hyper_colors"}
    embeds = False  # as for ordered graphs

    def canonical(self, cls, mu):
        entries = []
        for r in range(cls.edge_arity):
            for subset in itertools.combinations(range(mu), r):
                entries.append((subset, (r + sum(subset)) % cls.palette))
        return FinStructure(cls, mu, hyper=tuple(entries))

    def member(self, s):
        want = set()
        for r in range(s.cls.edge_arity):
            for subset in itertools.combinations(range(s.size), r):
                want.add(subset)
        got = {}
        for subset, color in s.hyper:
            if subset in got:
                return False
            got[subset] = color
        if set(got) != want:
            return False
        return all(0 <= c < s.cls.palette for c in got.values())

    def fragment(self, s, closed, pos):
        colors = []
        for r in range(s.cls.edge_arity):
            for sub in itertools.combinations(closed, r):
                colors.append([[pos[e] for e in sub], s.hyper_color(sub)])
        return {"colors": colors}

    def decode(self, cls, m, frag):
        return FinStructure(cls, m, hyper=frag["colors"]), range(m)


TABLE: dict[str, Kind] = {
    spec.name: spec
    for spec in (
        LinearOrder(),
        DisjointOrders(),
        ColoredOrder(),
        Trees(),
        ConvexEquivalence(),
        OrderedGraphs(),
        Hypergraphs(),
    )
}
KINDS = tuple(TABLE)


# canonical mu-big structures


def make_canonical(cls: ClassKind, mu: int) -> FinStructure:
    """Minimal mu-big member of the class; deterministic, and the results for
    increasing mu form an embedding chain."""
    if mu < 0:
        raise ValueError("bigness level must be nonnegative")
    return cls.spec.canonical(cls, mu)


# membership


def is_member(s: FinStructure) -> bool:
    """Whether s is a well-formed member of its class.  Malformed payloads
    answer False, never raise."""
    try:
        spec = s.cls.spec
        for field in _PAYLOAD:
            if (getattr(s, field) is not None) != (field in spec.fields):
                return False
        return spec.member(s)
    except (TypeError, ValueError, IndexError, AttributeError, AssertionError):
        return False


# bigness


def is_big(s: FinStructure, mu: int) -> bool:
    """The per-kind largeness notion at level mu.

    or / ordered_graph / hypergraph: at least mu elements.
    chi_or: every part holds at least mu elements.
    chi_color: at least chi*mu elements.
    n_tree: level-faithful branching, root at level 0 and every node at level
        l < height with at least mu children at level l+1 (mu >= 1).
    ceq: at least mu blocks, each of size at least mu.

    Bigness is antitone in mu.  Every kind except n_tree is also monotone
    under extension to a larger member; a barren branch can spoil a tree
    that extends a faithful one.
    """
    if mu < 0:
        raise ValueError("bigness level must be nonnegative")
    return mu == 0 or s.cls.spec.big(s, mu)


# subsets: closure, membership, bigness, induced structure


def subset_closure(s: FinStructure, elems) -> tuple[int, ...]:
    """Close a subset under the class functions (the tree meet; identity for
    every other kind) and return it sorted."""
    chosen = set(elems)
    for e in chosen:
        if not 0 <= e < s.size:
            raise ValueError(f"element {e} outside universe")
    if len(chosen) > 1:
        s.cls.spec.close(s, chosen)
    return tuple(sorted(chosen))


def subset_is_closed(s: FinStructure, subset) -> bool:
    return tuple(sorted(set(subset))) == subset_closure(s, subset)


def subset_induces_member(s: FinStructure, subset) -> bool:
    """Whether the (closed) subset induces a member of the class.  Only
    chi_color can fail: its color predicates are positional, so the j-th
    chosen element must carry residue j mod chi."""
    if not subset_is_closed(s, subset):
        return False
    period = s.cls.spec.period(s.cls)
    if period:
        for rank, e in enumerate(sorted(set(subset))):
            if e % period != rank % period:
                return False
    return True


def subset_is_big(s: FinStructure, subset, mu: int) -> bool:
    """Bigness of the structure a (closed) subset induces, evaluated without
    materializing it."""
    return mu == 0 or s.cls.spec.subset_big(s, sorted(set(subset)), mu)


def induced_substructure(s: FinStructure, subset) -> tuple[FinStructure, tuple[int, ...]]:
    """Structure induced on the closure of `subset`, relabeled to 0..m-1
    preserving the order, plus the map from new labels to old.

    Raises ValueError when the closure does not induce a member, which only
    happens for non-positional chi_color subsets.
    """
    closed = subset_closure(s, subset)
    if not subset_induces_member(s, closed):
        raise ValueError("subset does not induce a member of the class")
    pos = {e: i for i, e in enumerate(closed)}
    spec = s.cls.spec
    frag, _ = spec.decode(s.cls, len(closed), spec.fragment(s, closed, pos))
    return frag, closed


# canonical embeddings


def embeds_canonically(cls: ClassKind) -> bool:
    """Whether the canonical mu-big structure embeds into every mu-big member
    of the class (the lemma behind checking colorings of the canonical ambient
    only)."""
    return cls.spec.embeds


def embed_canonical(cls: ClassKind, mu: int, target: FinStructure) -> tuple[int, ...]:
    """Explicit embedding of make_canonical(cls, mu) into a mu-big member.

    Returns the image of canonical element i at position i.  Raises
    ValueError when the kind has no embedding lemma or the target is not a
    mu-big member.
    """
    if not embeds_canonically(cls):
        raise ValueError(f"no embedding lemma for kind {cls.kind}")
    if target.cls != cls:
        raise ValueError("target is from a different class")
    if not is_member(target) or not is_big(target, mu):
        raise ValueError("target is not a mu-big member")
    if mu == 0:
        return ()
    return cls.spec.embed(cls, mu, target)


def is_embedding(src: FinStructure, dst: FinStructure, image) -> bool:
    """Check that `image` (src element i goes to image[i]) preserves the order
    and all atomic structure in both directions: the image is closed in dst
    and cuts out the same fragment as the whole of src."""
    image = tuple(image)
    if len(image) != src.size or src.cls != dst.cls:
        return False
    if any(not 0 <= e < dst.size for e in image):
        return False
    # its own closure: strictly increasing and closed in dst
    if subset_closure(dst, image) != image:
        return False
    spec = src.cls.spec
    whole = tuple(range(src.size))
    at = {e: i for i, e in enumerate(image)}
    return spec.fragment(dst, image, at) == spec.fragment(src, whole, dict(zip(whole, whole)))


# JSON documents


def _plain(value):
    if isinstance(value, frozenset):
        return sorted(_plain(v) for v in value)
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def to_doc(s: FinStructure) -> dict:
    payload = {key: _plain(getattr(s, field)) for field, key in s.cls.spec.fields.items()}
    return {"class": s.cls.to_doc(), "universe": s.size, "payload": payload}


def _fits(value, shape) -> bool:
    """Whether a JSON value has `shape`: a type (int excludes bool), [shape]
    for a list of any length, or a tuple of shapes for a list of that many."""
    if isinstance(shape, type):
        return _is_int(value) if shape is int else isinstance(value, shape)
    if not isinstance(value, list):
        return False
    if isinstance(shape, list):
        return all(_fits(v, shape[0]) for v in value)
    return len(value) == len(shape) and all(map(_fits, value, shape))


def require_fields(doc, fields: dict, what: str) -> None:
    """Raise ValueError unless `doc` is a JSON object holding every field in
    `fields`, a map from field names to shapes (see `_fits`); the shape
    `object` asks only that the field be present."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(doc).__name__}")
    missing = [f for f in fields if f not in doc]
    if missing:
        raise ValueError(f"{what} is missing {', '.join(map(repr, missing))}")
    for name, shape in fields.items():
        if not _fits(doc[name], shape):
            raise ValueError(f"{what} field {name!r} is malformed")


def from_doc(doc: dict) -> FinStructure:
    require_fields(doc, {"class": object, "universe": int}, "structure")
    cls = ClassKind.from_doc(doc["class"])
    size = doc["universe"]
    fields = cls.spec.fields
    payload = doc.get("payload", {})
    require_fields(payload, dict.fromkeys(fields.values(), object), f"{cls.label()} payload")
    extra = set(payload) - set(fields.values())
    if extra:
        raise ValueError(f"unexpected payload keys {sorted(extra)} for {cls.label()}")
    try:
        return FinStructure(cls, size, **{field: payload[key] for field, key in fields.items()})
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed {cls.label()} payload: {exc}") from None


def dumps(s: FinStructure) -> str:
    """Canonical one-line JSON; byte-stable round trip with loads."""
    return json.dumps(to_doc(s), sort_keys=True, separators=(",", ":"))


def loads(text: str) -> FinStructure:
    return from_doc(json.loads(text))
