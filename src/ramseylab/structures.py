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
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

KINDS = ("or", "chi_or", "chi_color", "n_tree", "ceq", "ordered_graph", "hypergraph")


@dataclass(frozen=True)
class ClassKind:
    """A structure class: the kind tag plus its numeric parameters."""

    kind: str
    chi: int | None = None
    height: int | None = None
    edge_arity: int | None = None
    palette: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown class kind {self.kind!r}")
        need = {
            "or": (),
            "chi_or": ("chi",),
            "chi_color": ("chi",),
            "n_tree": ("height",),
            "ceq": (),
            "ordered_graph": (),
            "hypergraph": ("edge_arity", "palette"),
        }[self.kind]
        for field in ("chi", "height", "edge_arity", "palette"):
            value = getattr(self, field)
            if field in need:
                if value is None:
                    raise ValueError(f"{self.kind} needs parameter {field}")
            elif value is not None:
                raise ValueError(f"{self.kind} does not take parameter {field}")
        if self.chi is not None and self.chi < 1:
            raise ValueError("chi must be at least 1")
        if self.height is not None and self.height < 0:
            raise ValueError("height must be nonnegative")
        if self.edge_arity is not None and self.edge_arity < 1:
            raise ValueError("edge arity must be at least 1")
        if self.palette is not None and self.palette < 1:
            raise ValueError("palette must be at least 1")

    def label(self) -> str:
        if self.kind in ("chi_or", "chi_color"):
            return f"{self.kind}({self.chi})"
        if self.kind == "n_tree":
            return f"n_tree({self.height})"
        if self.kind == "hypergraph":
            return f"hypergraph({self.edge_arity},{self.palette})"
        return self.kind

    def to_doc(self) -> dict:
        doc: dict = {"kind": self.kind}
        for field in ("chi", "height", "edge_arity", "palette"):
            value = getattr(self, field)
            if value is not None:
                doc[field] = value
        return doc

    @staticmethod
    def from_doc(doc: dict) -> "ClassKind":
        return ClassKind(
            kind=doc["kind"],
            chi=doc.get("chi"),
            height=doc.get("height"),
            edge_arity=doc.get("edge_arity"),
            palette=doc.get("palette"),
        )


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
    return tuple(sorted((tuple(subset), int(color)) for subset, color in entries))


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


def tree_below(s: FinStructure, a: int, b: int) -> bool:
    """a strictly below b in the tree order."""
    return a != b and a in tree_ancestors(s, b)


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


# canonical mu-big structures


def make_canonical(cls: ClassKind, mu: int) -> FinStructure:
    """Minimal mu-big member of the class; deterministic, and the results for
    increasing mu form an embedding chain."""
    if mu < 0:
        raise ValueError("bigness level must be nonnegative")
    kind = cls.kind
    if mu == 0:
        return _empty_structure(cls)
    if kind == "or":
        return FinStructure(cls, mu)
    if kind == "chi_or":
        parts = tuple(p for p in range(cls.chi) for _ in range(mu))
        return FinStructure(cls, cls.chi * mu, parts=parts)
    if kind == "chi_color":
        return FinStructure(cls, cls.chi * mu)
    if kind == "n_tree":
        parent, level = _complete_tree(mu, cls.height)
        return FinStructure(cls, len(parent), parent=tuple(parent), level=tuple(level))
    if kind == "ceq":
        blocks = tuple(tuple(range(b * mu, (b + 1) * mu)) for b in range(mu))
        return FinStructure(cls, mu * mu, blocks=blocks)
    if kind == "ordered_graph":
        edges = frozenset(
            (i, j) for i in range(mu) for j in range(i + 1, mu) if (j >> i) & 1
        )
        return FinStructure(cls, mu, edges=edges)
    if kind == "hypergraph":
        entries = []
        for r in range(cls.edge_arity):
            for subset in itertools.combinations(range(mu), r):
                entries.append((subset, (r + sum(subset)) % cls.palette))
        return FinStructure(cls, mu, hyper=tuple(entries))
    raise AssertionError(kind)


def _empty_structure(cls: ClassKind) -> FinStructure:
    kind = cls.kind
    if kind == "chi_or":
        return FinStructure(cls, 0, parts=())
    if kind == "n_tree":
        return FinStructure(cls, 0, parent=(), level=())
    if kind == "ceq":
        return FinStructure(cls, 0, blocks=())
    if kind == "ordered_graph":
        return FinStructure(cls, 0, edges=frozenset())
    if kind == "hypergraph":
        # F still colors the empty subset when edge_arity > 0
        entries = [((), 0)] if cls.edge_arity >= 1 else []
        return FinStructure(cls, 0, hyper=tuple(entries))
    return FinStructure(cls, 0)


def _complete_tree(mu: int, height: int) -> tuple[list[int], list[int]]:
    """Complete mu-branching tree of height `height`, preorder labels."""
    parent: list[int] = []
    level: list[int] = []

    def grow(par: int, lev: int) -> None:
        me = len(parent)
        parent.append(par)
        level.append(lev)
        if lev < height:
            for _ in range(mu):
                grow(me, lev + 1)

    grow(-1, 0)
    return parent, level


# membership


def is_member(s: FinStructure) -> bool:
    """Whether s is a well-formed member of its class.  Malformed payloads
    answer False, never raise."""
    try:
        return _is_member(s)
    except (TypeError, ValueError, IndexError, AttributeError, AssertionError):
        return False


def _payload_fields_ok(s: FinStructure) -> bool:
    allowed = {
        "or": (),
        "chi_or": ("parts",),
        "chi_color": (),
        "n_tree": ("parent", "level"),
        "ceq": ("blocks",),
        "ordered_graph": ("edges",),
        "hypergraph": ("hyper",),
    }[s.cls.kind]
    for field in ("parts", "edges", "parent", "level", "blocks", "hyper"):
        present = getattr(s, field) is not None
        if present != (field in allowed):
            return False
    return True


def _is_member(s: FinStructure) -> bool:
    if not _payload_fields_ok(s):
        return False
    kind = s.cls.kind
    n = s.size
    if kind in ("or", "chi_color"):
        return True
    if kind == "chi_or":
        if len(s.parts) != n:
            return False
        for p in s.parts:
            if not isinstance(p, int) or not 0 <= p < s.cls.chi:
                return False
        return all(s.parts[i] <= s.parts[i + 1] for i in range(n - 1))
    if kind == "n_tree":
        return _tree_member(s)
    if kind == "ceq":
        seen: set[int] = set()
        for block in s.blocks:
            if not block:
                return False
            if list(block) != sorted(block):
                return False
            if block[-1] - block[0] != len(block) - 1:
                return False  # convexity: each block is an interval
            for e in block:
                if not isinstance(e, int) or not 0 <= e < n or e in seen:
                    return False
                seen.add(e)
        return len(seen) == n
    if kind == "ordered_graph":
        for edge in s.edges:
            if len(edge) != 2:
                return False
            a, b = edge
            if not (isinstance(a, int) and isinstance(b, int) and 0 <= a < b < n):
                return False
        return True
    if kind == "hypergraph":
        want = set()
        for r in range(s.cls.edge_arity):
            for subset in itertools.combinations(range(n), r):
                want.add(subset)
        got = {}
        for subset, color in s.hyper:
            if subset in got:
                return False
            got[subset] = color
        if set(got) != want:
            return False
        return all(0 <= c < s.cls.palette for c in got.values())
    raise AssertionError(kind)


def _tree_member(s: FinStructure) -> bool:
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
    if mu == 0:
        return True
    kind = s.cls.kind
    if kind in ("or", "ordered_graph", "hypergraph"):
        return s.size >= mu
    if kind == "chi_or":
        counts = [0] * s.cls.chi
        for p in s.parts:
            counts[p] += 1
        return all(c >= mu for c in counts)
    if kind == "chi_color":
        return s.size >= s.cls.chi * mu
    if kind == "n_tree":
        if s.size == 0 or s.level[tree_root(s)] != 0:
            return False
        kids = tree_children(s)
        for v in range(s.size):
            if s.level[v] < s.cls.height:
                faithful = [c for c in kids[v] if s.level[c] == s.level[v] + 1]
                if len(faithful) < mu:
                    return False
        return True
    if kind == "ceq":
        good = sum(1 for b in s.blocks if len(b) >= mu)
        return good >= mu
    raise AssertionError(kind)


# subsets: closure, membership, bigness, induced structure


def subset_closure(s: FinStructure, elems) -> tuple[int, ...]:
    """Close a subset under the class functions (the tree meet; identity for
    every other kind) and return it sorted."""
    chosen = set(elems)
    for e in chosen:
        if not 0 <= e < s.size:
            raise ValueError(f"element {e} outside universe")
    if s.cls.kind == "n_tree" and len(chosen) > 1:
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
    return tuple(sorted(chosen))


def subset_is_closed(s: FinStructure, subset) -> bool:
    return tuple(sorted(set(subset))) == subset_closure(s, subset)


def subset_induces_member(s: FinStructure, subset) -> bool:
    """Whether the (closed) subset induces a member of the class.  Only
    chi_color can fail: its color predicates are positional, so the j-th
    chosen element must carry residue j mod chi."""
    if not subset_is_closed(s, subset):
        return False
    if s.cls.kind == "chi_color":
        chi = s.cls.chi
        for rank, e in enumerate(sorted(set(subset))):
            if e % chi != rank % chi:
                return False
    return True


def subset_is_big(s: FinStructure, subset, mu: int) -> bool:
    """Bigness of the structure a (closed) subset induces, evaluated without
    materializing it."""
    if mu == 0:
        return True
    chosen = sorted(set(subset))
    kind = s.cls.kind
    if kind in ("or", "ordered_graph", "hypergraph"):
        return len(chosen) >= mu
    if kind == "chi_or":
        counts = [0] * s.cls.chi
        for e in chosen:
            counts[s.part_of(e)] += 1
        return all(c >= mu for c in counts)
    if kind == "chi_color":
        return subset_induces_member(s, tuple(chosen)) and len(chosen) >= s.cls.chi * mu
    if kind == "n_tree":
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
    if kind == "ceq":
        counts: dict[int, int] = {}
        for e in chosen:
            b = s.block_of(e)
            counts[b] = counts.get(b, 0) + 1
        return sum(1 for c in counts.values() if c >= mu) >= mu
    raise AssertionError(kind)


def induced_substructure(s: FinStructure, subset) -> tuple[FinStructure, tuple[int, ...]]:
    """Structure induced on the closure of `subset`, relabeled to 0..m-1
    preserving the order, plus the map from new labels to old.

    Raises ValueError when the closure does not induce a member, which only
    happens for non-positional chi_color subsets.
    """
    closed = subset_closure(s, subset)
    if not subset_induces_member(s, closed):
        raise ValueError("subset does not induce a member of the class")
    m = len(closed)
    pos = {e: i for i, e in enumerate(closed)}
    cls = s.cls
    kind = cls.kind
    if kind == "or":
        return FinStructure(cls, m), closed
    if kind == "chi_or":
        return FinStructure(cls, m, parts=tuple(s.part_of(e) for e in closed)), closed
    if kind == "chi_color":
        return FinStructure(cls, m), closed
    if kind == "n_tree":
        inside = set(closed)
        parent = []
        for e in closed:
            par = -1
            for anc in tree_ancestors(s, e):
                if anc in inside:
                    par = pos[anc]
                    break
            parent.append(par)
        level = tuple(s.level[e] for e in closed)
        return FinStructure(cls, m, parent=tuple(parent), level=level), closed
    if kind == "ceq":
        blocks: list[list[int]] = []
        last_block = None
        for e in closed:
            b = s.block_of(e)
            if b != last_block:
                blocks.append([])
                last_block = b
            blocks[-1].append(pos[e])
        return FinStructure(cls, m, blocks=tuple(tuple(b) for b in blocks)), closed
    if kind == "ordered_graph":
        edges = frozenset(
            (pos[a], pos[b])
            for a, b in itertools.combinations(closed, 2)
            if s.has_edge(a, b)
        )
        return FinStructure(cls, m, edges=edges), closed
    if kind == "hypergraph":
        entries = []
        for r in range(cls.edge_arity):
            for sub in itertools.combinations(closed, r):
                entries.append((tuple(pos[e] for e in sub), s.hyper_color(sub)))
        return FinStructure(cls, m, hyper=tuple(entries)), closed
    raise AssertionError(kind)


# canonical embeddings

EMBEDS_CANONICALLY = {
    "or": True,
    "chi_or": True,
    "chi_color": True,
    "n_tree": True,
    "ceq": True,
    # cardinality bigness puts no structure on members: the empty graph on mu
    # vertices is mu-big but contains no edge of the canonical graph
    "ordered_graph": False,
    "hypergraph": False,
}


def embeds_canonically(cls: ClassKind) -> bool:
    """Whether the canonical mu-big structure embeds into every mu-big member
    of the class (the lemma behind checking colorings of the canonical ambient
    only)."""
    return EMBEDS_CANONICALLY[cls.kind]


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
    kind = cls.kind
    if mu == 0:
        return ()
    if kind in ("or", "chi_color"):
        size = mu if kind == "or" else cls.chi * mu
        return tuple(range(size))
    if kind == "chi_or":
        image: list[int] = []
        for p in range(cls.chi):
            image.extend([e for e in range(target.size) if target.part_of(e) == p][:mu])
        return tuple(image)
    if kind == "ceq":
        image = []
        wide = [b for b in target.blocks if len(b) >= mu][:mu]
        for block in wide:
            image.extend(block[:mu])
        return tuple(image)
    if kind == "n_tree":
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
    raise AssertionError(kind)


def is_embedding(src: FinStructure, dst: FinStructure, image) -> bool:
    """Check that `image` (src element i goes to image[i]) preserves the order
    and all atomic structure in both directions."""
    image = tuple(image)
    if len(image) != src.size or len(set(image)) != src.size:
        return False
    if any(not 0 <= e < dst.size for e in image):
        return False
    if list(image) != sorted(image):
        return False
    kind = src.cls.kind
    if src.cls != dst.cls:
        return False
    if kind == "or":
        return True
    if kind == "chi_or":
        return all(src.part_of(i) == dst.part_of(image[i]) for i in range(src.size))
    if kind == "chi_color":
        chi = src.cls.chi
        return all(i % chi == image[i] % chi for i in range(src.size))
    if kind == "ceq":
        for i, j in itertools.combinations(range(src.size), 2):
            if (src.block_of(i) == src.block_of(j)) != (
                dst.block_of(image[i]) == dst.block_of(image[j])
            ):
                return False
        return True
    if kind == "ordered_graph":
        for i, j in itertools.combinations(range(src.size), 2):
            if src.has_edge(i, j) != dst.has_edge(image[i], image[j]):
                return False
        return True
    if kind == "hypergraph":
        for r in range(src.cls.edge_arity):
            for sub in itertools.combinations(range(src.size), r):
                if src.hyper_color(sub) != dst.hyper_color(tuple(image[e] for e in sub)):
                    return False
        return True
    if kind == "n_tree":
        if any(src.level[i] != dst.level[image[i]] for i in range(src.size)):
            return False
        for i, j in itertools.combinations(range(src.size), 2):
            if tree_below(src, i, j) != tree_below(dst, image[i], image[j]):
                return False
            mi = tree_meet(src, i, j)
            if image[mi] != tree_meet(dst, image[i], image[j]):
                return False
        return True
    raise AssertionError(kind)


# JSON documents

_PAYLOAD_KEYS = {
    "or": (),
    "chi_or": ("parts",),
    "chi_color": (),
    "n_tree": ("tree_parent", "levels"),
    "ceq": ("eq_blocks",),
    "ordered_graph": ("edges",),
    "hypergraph": ("hyper_colors",),
}


def to_doc(s: FinStructure) -> dict:
    payload: dict = {}
    kind = s.cls.kind
    if kind == "chi_or":
        payload["parts"] = list(s.parts)
    elif kind == "n_tree":
        payload["tree_parent"] = list(s.parent)
        payload["levels"] = list(s.level)
    elif kind == "ceq":
        payload["eq_blocks"] = [list(b) for b in s.blocks]
    elif kind == "ordered_graph":
        payload["edges"] = sorted([list(e) for e in s.edges])
    elif kind == "hypergraph":
        payload["hyper_colors"] = [
            [list(sub), color]
            for sub, color in sorted(s.hyper, key=lambda e: (len(e[0]), e[0]))
        ]
    return {"class": s.cls.to_doc(), "universe": s.size, "payload": payload}


def require_fields(doc, fields, what: str) -> None:
    """Raise ValueError unless `doc` is a JSON object holding every field."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(doc).__name__}")
    missing = [f for f in fields if f not in doc]
    if missing:
        raise ValueError(f"{what} is missing {', '.join(map(repr, missing))}")


def from_doc(doc: dict) -> FinStructure:
    require_fields(doc, ("class", "universe"), "structure")
    cls = ClassKind.from_doc(doc["class"])
    size = doc["universe"]
    payload = doc.get("payload", {})
    extra = set(payload) - set(_PAYLOAD_KEYS[cls.kind])
    if extra:
        raise ValueError(f"unexpected payload keys {sorted(extra)} for {cls.label()}")
    kind = cls.kind
    if kind == "chi_or":
        return FinStructure(cls, size, parts=tuple(payload["parts"]))
    if kind == "n_tree":
        return FinStructure(
            cls,
            size,
            parent=tuple(payload["tree_parent"]),
            level=tuple(payload["levels"]),
        )
    if kind == "ceq":
        return FinStructure(cls, size, blocks=tuple(tuple(b) for b in payload["eq_blocks"]))
    if kind == "ordered_graph":
        return FinStructure(cls, size, edges=frozenset(tuple(e) for e in payload["edges"]))
    if kind == "hypergraph":
        return FinStructure(
            cls,
            size,
            hyper=tuple((tuple(sub), color) for sub, color in payload["hyper_colors"]),
        )
    return FinStructure(cls, size)


def dumps(s: FinStructure) -> str:
    """Canonical one-line JSON; byte-stable round trip with loads."""
    return json.dumps(to_doc(s), sort_keys=True, separators=(",", ":"))


def loads(text: str) -> FinStructure:
    return from_doc(json.loads(text))
