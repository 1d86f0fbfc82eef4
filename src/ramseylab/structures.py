"""Finite ordered structures from seven combinatorial classes.

Every structure lives on the universe 0..N-1 carrying the natural order as its
designated linear order.  The order rigidifies everything: a structure has no
nontrivial automorphisms, so canonical forms, substructures, and tuple types
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
canonical member, membership and subset bigness (a member is big when its
whole universe is), closure, admission, the per-group counts the subset
walker prunes on, the fragment a type records, the type code that names
it by arithmetic (`Kind.type_code`) and the decoding back, and the
generator of the inclusion-minimal big subsets of a member.  Admission
is the one per-kind veto on subsets: the walker and `subset_induces_member`
both take a subset's elements in increasing order through `Kind.admit`.
Every kind counts bigness per group (see `Kind`).  The module-level
functions validate their input and dispatch to the table, and no other
module tells kinds apart, so a new class is one more subclass.
`canonical_json` writes the certificate bytes of every document.
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass
from functools import partial

# the least value of each class parameter; a kind takes the ones it names
_PARAMS = {"chi": 1, "height": 0, "edge_arity": 1, "palette": 1}
_PAYLOAD = ("parts", "edges", "parent", "level", "blocks", "hyper")


class InternalCheckError(AssertionError):
    """A self-check failed: a result did not survive its own re-verification,
    which points to a bug, not to bad input."""


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def require_inside(s: FinStructure, ordered) -> None:
    """Raise ValueError unless the sorted elements lie in the universe of s."""
    if ordered and not 0 <= ordered[0] <= ordered[-1] < s.size:
        raise ValueError(f"element {ordered[0] if ordered[0] < 0 else ordered[-1]} outside universe")


def require_positions(positions: tuple[int, ...], arity: int) -> None:
    """Raise ValueError unless the positions are nonempty, strictly increasing and inside 0..arity-1."""
    if not positions:
        raise ValueError("positions must be nonempty")
    if any(a >= b for a, b in zip(positions, positions[1:])):
        raise ValueError(f"positions {positions} not strictly increasing")
    if positions[0] < 0 or positions[-1] >= arity:
        raise ValueError(f"positions {positions} outside arity {arity}")


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


class _kept:
    """A cached_property that keeps its value by object.__setattr__: the
    write through the instance __dict__ that cached_property makes would
    slow every later attribute read of the structure."""

    def __init__(self, build):
        self.build, self.name = build, build.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.build(obj)
        # no __set__ here, so the instance's value shadows this descriptor
        object.__setattr__(obj, self.name, value)
        return value


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
        return self.parts[e]

    # payload maps, built on first use, so malformed payloads still construct

    @_kept
    def _block_index(self) -> dict[int, int]:
        # the first block holding an element wins
        index: dict[int, int] = {}
        for idx, block in enumerate(self.blocks):
            for e in block:
                index.setdefault(e, idx)
        return index

    def block_of(self, e: int) -> int:
        try:
            return self._block_index[e]
        except KeyError:
            raise ValueError(f"element {e} in no block") from None

    @_kept
    def _ancestors(self) -> tuple[tuple[int, ...], ...]:
        # each element's strict ancestors, nearest first
        table = []
        for e in range(self.size):
            chain = []
            p = self.parent[e]
            while p >= 0:
                chain.append(p)
                p = self.parent[p]
            table.append(tuple(chain))
        return tuple(table)

    def has_edge(self, a: int, b: int) -> bool:
        lo, hi = (a, b) if a < b else (b, a)
        return (lo, hi) in self.edges

    @_kept
    def _hyper_colors(self) -> dict[tuple[int, ...], int]:
        # the first entry for a subset wins
        colors: dict[tuple[int, ...], int] = {}
        for stored, color in self.hyper:
            colors.setdefault(stored, color)
        return colors

    def hyper_color(self, subset: tuple[int, ...]) -> int:
        key = tuple(sorted(subset))
        try:
            return self._hyper_colors[key]
        except KeyError:
            raise ValueError(f"no color stored for subset {key}") from None

    @_kept
    def _member(self) -> bool:
        # is_member's answer: a structure never changes
        try:
            spec = self.cls.spec
            fits = all((getattr(self, f) is not None) == (f in spec.fields) for f in _PAYLOAD)
            return fits and spec.member(self)
        except (TypeError, ValueError, IndexError, AttributeError):
            return False


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


def tree_ancestors(s: FinStructure, e: int) -> tuple[int, ...]:
    """Strict ancestors of e, nearest first."""
    return s._ancestors[e]


def tree_meet(s: FinStructure, a: int, b: int) -> int:
    chain = {a, *tree_ancestors(s, a)}
    if b in chain:
        return b
    for anc in tree_ancestors(s, b):
        if anc in chain:
            return anc
    raise ValueError(f"elements {a} and {b} have no meet")


def _induced_parent(s: FinStructure, inside, e: int) -> int:
    """The parent of e in the tree `inside` induces: its nearest strict
    ancestor in `inside`, or -1."""
    return next((a for a in tree_ancestors(s, e) if a in inside), -1)


def _faithful_children(s: FinStructure, chosen) -> dict[int, list[int]]:
    """Each element of the increasing `chosen` mapped to its children in the
    tree `chosen` induces that sit one level below it, in increasing order.
    An element with no ancestor in `chosen` is no node's child."""
    inside = set(chosen)
    kids: dict[int, list[int]] = {e: [] for e in chosen}
    for e in chosen:
        p = _induced_parent(s, inside, e)
        if p >= 0 and s.level[e] == s.level[p] + 1:
            kids[p].append(e)
    return kids


# the per-kind table


def _concatenations(choices, prefix: tuple = ()):
    """`prefix` followed by one tuple from each of `choices`, functions that
    return fresh iterables of tuples, in turn: the concatenations in the
    order of itertools.product, without holding any choice's tuples."""
    if not choices:
        yield prefix
        return
    for pick in choices[0]():
        yield from _concatenations(choices[1:], prefix + pick)


class Kind:
    """Everything one class kind knows.

    `params` names the ClassKind parameters the kind takes, and `fields` maps
    each FinStructure payload field it uses to the field's document key and
    that key's JSON shape (see `_fits`), which `from_doc` checks.

    A subset is mu-big when `needed(cls, mu)` of the `groups(s)` groups
    (`group_of(s, e)` in 0..groups(s)-1) each hold their quota, one per
    group in `quotas(s, mu)`, of its elements; the least size (needed * mu),
    `subset_big` and `minimal` follow.  A kind that asks more (`n_tree`)
    overrides those three, but its big subsets still meet `needed` quotas:
    they are the walker's only bound.  The defaults fit a kind with no
    payload and one group with quota mu, bigness by cardinality.  `quotas`,
    `subset_big` and `minimal` are called with mu >= 1 only.
    """

    name = ""
    params: tuple[str, ...] = ()
    fields: dict[str, tuple[str, object]] = {}
    # whether make_canonical(cls, mu) embeds into every mu-big member
    embeds = True
    admit = None
    """The membership veto, or None where every subset is closed and
    induces a member: `admit(s, chosen, e)` says whether chosen + [e] is
    closed and induces a member, given that `chosen`, increasing, is and
    that `e` lies above every chosen element.  The walker and
    `subset_induces_member` both take a subset's elements through it in
    increasing order, as every prefix of such a subset is one too."""

    def canonical(self, cls: ClassKind, mu: int) -> FinStructure:
        return FinStructure(cls, self.min_size(cls, mu))

    def groups(self, s: FinStructure) -> int:
        return 1

    def group_of(self, s: FinStructure, e: int) -> int:
        return 0

    def needed(self, cls: ClassKind, mu: int) -> int:
        return 1

    def quotas(self, s: FinStructure, mu: int) -> list[int]:
        return [mu] * self.groups(s)

    def min_size(self, cls: ClassKind, mu: int) -> int:
        """Size of the canonical mu-big member, the least size of any: no
        subset of fewer elements is `subset_big`, which the walker's own
        size bound relies on."""
        return self.needed(cls, mu) * mu

    def member(self, s: FinStructure) -> bool:
        """Payload content check; the payload fields are known present."""
        return True

    def subset_big(self, s: FinStructure, chosen: list[int], mu: int) -> bool:
        """Bigness of the structure the closed subset `chosen`, sorted and
        without repeats, induces."""
        counts = [0] * self.groups(s)
        for e in chosen:
            counts[self.group_of(s, e)] += 1
        return len([c for c in counts if c >= mu]) >= self.needed(s.cls, mu)

    def close(self, s: FinStructure, chosen: set[int]) -> None:
        """Add to `chosen` what the class functions generate from it."""

    def fragment(self, s: FinStructure, closed: tuple[int, ...], pos: dict) -> tuple:
        """Atomic data of a closed subset relabeled by `pos`, as fragment
        entries: (name, value) pairs whose values are tuples."""
        return ()

    def type_code(self, s: FinStructure):
        """A function from an increasing tuple of the member s to a small
        hashable code, built from payload arrays read here once: for one
        arity, two tuples have equal codes exactly when they have equal
        fragments.  The default fits a kind with no payload and no
        functions: one type per arity."""
        return lambda tup: 0

    def decode(self, cls: ClassKind, m: int, frag: dict):
        """A structure realizing a fragment of m elements, given by a dict of
        its entries, and the element that stands for each fragment position.
        By default the entries are the payload fields, named alike."""
        return FinStructure(cls, m, **{f: frag[f] for f in self.fields}), range(m)

    def minimal(self, s: FinStructure, mu: int):
        """Each inclusion-minimal closed, member-inducing, mu-big subset of
        the member s once, sorted, the image of the canonical embedding
        first where the kind has one."""
        members: list[list[int]] = [[] for _ in range(self.groups(s))]
        for e in range(s.size):
            members[self.group_of(s, e)].append(e)
        wide = sorted(g for g in members if len(g) >= mu)
        for picked in itertools.combinations(wide, self.needed(s.cls, mu)):
            yield from _concatenations([partial(itertools.combinations, g, mu) for g in picked])


class LinearOrder(Kind):
    name = "or"


class DisjointOrders(Kind):
    name = "chi_or"
    params = ("chi",)
    fields = {"parts": ("parts", [int])}

    def canonical(self, cls, mu):
        parts = tuple(p for p in range(cls.chi) for _ in range(mu))
        return FinStructure(cls, cls.chi * mu, parts=parts)

    def member(self, s):
        if len(s.parts) != s.size:
            return False
        for p in s.parts:
            if not _is_int(p) or not 0 <= p < s.cls.chi:
                return False
        return all(s.parts[i] <= s.parts[i + 1] for i in range(s.size - 1))

    def groups(self, s):
        return s.cls.chi

    def group_of(self, s, e):
        return s.part_of(e)

    def needed(self, cls, mu):
        return cls.chi

    def fragment(self, s, closed, pos):
        return (("parts", tuple([s.part_of(e) for e in closed])),)

    def type_code(self, s):
        return lambda tup, part=s.parts.__getitem__: tuple(map(part, tup))


class ColoredOrder(Kind):
    name = "chi_color"
    params = ("chi",)

    # a positional subset of chi*mu elements holds mu of each residue, so the
    # residues are the groups and all chi of them are needed

    def groups(self, s):
        return s.cls.chi

    def group_of(self, s, e):
        return e % s.cls.chi

    def needed(self, cls, mu):
        return cls.chi

    def subset_big(self, s, chosen, mu):
        # every subset is closed; it induces a member when it is positional
        chi = s.cls.chi
        return len(chosen) >= chi * mu and all(e % chi == rank % chi for rank, e in enumerate(chosen))

    def admit(self, s, chosen, e):
        # the color predicates are positional: the j-th element carries residue j
        return e % s.cls.chi == len(chosen) % s.cls.chi

    def fragment(self, s, closed, pos):
        return (("res", tuple([e % s.cls.chi for e in closed])),)

    def type_code(self, s):
        # chi.__rmod__(e) is e % chi
        return lambda tup, res=s.cls.chi.__rmod__: tuple(map(res, tup))

    def minimal(self, s, mu):
        # the positional subsets of chi*mu elements: the j-th element is
        # j + d_j with d_j a multiple of chi, and d is nondecreasing
        chi, length = s.cls.chi, s.cls.chi * mu
        shifts = range(0, s.size - length + 1, chi)
        return (
            tuple(j + d for j, d in enumerate(lift))
            for lift in itertools.combinations_with_replacement(shifts, length)
        )

    def decode(self, cls, m, frag):
        # a fragment need not be positional: place each position at the least
        # element above the previous one with its residue
        place: list[int] = []
        for r in frag["res"]:
            e = place[-1] + 1 if place else 0
            place.append(e + (r - e) % cls.chi)
        return FinStructure(cls, place[-1] + 1 if place else 0), place


class Trees(Kind):
    """Counted per level: a mu-big subset holds its level-0 root and
    mu children one level down below each of its nodes above the height, so
    the levels 0..height are the groups, all needed, with quota mu^l at
    level l; `min_size` is the sum of the quotas."""

    name = "n_tree"
    params = ("height",)
    fields = {"parent": ("tree_parent", [int]), "level": ("levels", [int])}

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
            if not _is_int(p) or not 0 <= p < i:
                return False
        for i in range(n):
            lev = s.level[i]
            if not _is_int(lev) or not 0 <= lev <= s.cls.height:
                return False
            p = s.parent[i]
            if p >= 0 and s.level[i] <= s.level[p]:
                return False
        # natural order must be the preorder traversal: each element hangs
        # off the path from the root to the element before it
        return all(s.parent[i] in (i - 1, *tree_ancestors(s, i - 1)) for i in range(1, n))

    def subset_big(self, s, chosen, mu):
        # the fragment root is the meet of the whole set; it must sit at level 0
        if not chosen or s.level[chosen[0]] != 0:
            return False
        kids = _faithful_children(s, chosen)
        return all(len(kids[v]) >= mu for v in chosen if s.level[v] < s.cls.height)

    # In preorder every meet of a set is the meet of two of its elements
    # adjacent in order: closing adds those meets, and e above a closed
    # subset can add only its meet with the subset's last element.

    def close(self, s, chosen):
        ordered = sorted(chosen)
        chosen.update(map(partial(tree_meet, s), ordered, ordered[1:]))

    def admit(self, s, chosen, e):
        return not chosen or tree_meet(s, chosen[-1], e) in chosen

    def groups(self, s):
        return s.cls.height + 1

    def group_of(self, s, e):
        return s.level[e]

    def needed(self, cls, mu):
        return cls.height + 1

    def quotas(self, s, mu):
        return [mu**d for d in range(s.cls.height + 1)]

    def fragment(self, s, closed, pos):
        # pos holds no -1, so a fragment root keeps -1
        parent = tuple([pos.get(_induced_parent(s, pos, e), -1) for e in closed])
        return (("level", tuple([s.level[e] for e in closed])), ("parent", parent))

    def type_code(self, s):
        # the levels of the tuple and of the meets of its neighbours: the meet
        # of t_i and t_j is the shallowest of the neighbour meets between
        # them, and levels rise strictly down a path, so these levels fix
        # the closure, its order and its parents
        level, meet = s.level.__getitem__, partial(tree_meet, s)
        return lambda tup: (tuple(map(level, tup)), tuple(map(level, map(meet, tup, tup[1:]))))

    def minimal(self, s, mu):
        # from the level-0 root, mu children at the next level under every
        # node above the height, in preorder
        root = tree_root(s)
        if root is None or s.level[root] != 0:
            return
        kids = _faithful_children(s, range(s.size))

        def below(v: int):
            if s.level[v] >= s.cls.height:
                yield (v,)
                return
            for pick in itertools.combinations(kids[v], mu):
                yield from _concatenations([partial(below, c) for c in pick], (v,))

        yield from below(root)


class ConvexEquivalence(Kind):
    name = "ceq"
    fields = {"blocks": ("eq_blocks", [[int]])}

    def canonical(self, cls, mu):
        blocks = tuple(tuple(range(b * mu, (b + 1) * mu)) for b in range(mu))
        return FinStructure(cls, mu * mu, blocks=blocks)

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
                if not _is_int(e) or not 0 <= e < s.size or e in seen:
                    return False
                seen.add(e)
        return len(seen) == s.size

    def groups(self, s):
        return len(s.blocks)

    def group_of(self, s, e):
        return s.block_of(e)

    def needed(self, cls, mu):
        return mu

    def fragment(self, s, closed, pos):
        # blocks numbered by first occurrence
        seen: dict[int, int] = {}
        return (("blocks", tuple([seen.setdefault(s.block_of(e), len(seen)) for e in closed])),)

    def type_code(self, s):
        # blocks are intervals, so an increasing tuple meets each block in a
        # run, and whether each element shares the block of the one before
        # fixes the first-occurrence numbering
        block = [s.block_of(e) for e in range(s.size)].__getitem__
        return lambda tup: tuple(map(operator.eq, map(block, tup), map(block, tup[1:])))

    def decode(self, cls, m, frag):
        blocks: dict[int, list[int]] = {}
        for i, b in enumerate(frag["blocks"]):
            blocks.setdefault(b, []).append(i)
        return FinStructure(cls, m, blocks=blocks.values()), range(m)


class OrderedGraphs(Kind):
    name = "ordered_graph"
    fields = {"edges": ("edges", [(int, int)])}
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
            if not (_is_int(a) and _is_int(b) and 0 <= a < b < s.size):
                return False
        return True

    def fragment(self, s, closed, pos):
        edges = [(pos[a], pos[b]) for a, b in itertools.combinations(closed, 2) if s.has_edge(a, b)]
        return (("edges", tuple(edges)),)

    def type_code(self, s):
        # one bit per pair of the tuple, in the fragment's order
        return lambda tup, edge=s.edges.__contains__: tuple(map(edge, itertools.combinations(tup, 2)))


class Hypergraphs(Kind):
    name = "hypergraph"
    params = ("edge_arity", "palette")
    fields = {"hyper": ("hyper_colors", [([int], int)])}
    embeds = False  # as for ordered graphs

    def colored_subsets(self, cls, elements):
        """The subsets of the increasing `elements` that F colours, those of
        fewer than `edge_arity` elements, by size and then lexicographically."""
        by_size = (itertools.combinations(elements, r) for r in range(cls.edge_arity))
        return itertools.chain.from_iterable(by_size)

    def canonical(self, cls, mu):
        entries = [(sub, (len(sub) + sum(sub)) % cls.palette) for sub in self.colored_subsets(cls, range(mu))]
        return FinStructure(cls, mu, hyper=tuple(entries))

    def member(self, s):
        got = {}
        for subset, color in s.hyper:
            if subset in got:
                return False
            got[subset] = color
        if set(got) != set(self.colored_subsets(s.cls, range(s.size))):
            return False
        return all(0 <= c < s.cls.palette for c in got.values())

    def fragment(self, s, closed, pos):
        subsets = self.colored_subsets(s.cls, closed)
        colors = [(tuple([pos[e] for e in sub]), s.hyper_color(sub)) for sub in subsets]
        return (("colors", tuple(colors)),)

    def type_code(self, s):
        # the colours of the fragment's subsets, in its order
        color, cls = s._hyper_colors.__getitem__, s.cls
        return lambda tup: tuple(map(color, self.colored_subsets(cls, tup)))

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
    answer False, never raise.  The answer is kept on s."""
    return s._member


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
    return subset_is_big(s, range(s.size), mu)


# subsets: closure, membership, bigness, induced structure


def subset_closure(s: FinStructure, elems) -> tuple[int, ...]:
    """Close a subset under the class functions (the tree meet; identity for
    every other kind) and return it sorted."""
    chosen = set(elems)
    for e in chosen:
        if not 0 <= e < s.size:
            raise ValueError(f"element {e} outside universe")
    s.cls.spec.close(s, chosen)
    return tuple(sorted(chosen))


def subset_induces_member(s: FinStructure, subset) -> bool:
    """Whether the subset is closed and induces a member of the class: its
    elements, in increasing order, each pass `Kind.admit`, as the walker
    takes them."""
    ordered = sorted(set(subset))
    require_inside(s, ordered)
    admit = s.cls.spec.admit
    return admit is None or all(admit(s, ordered[:k], e) for k, e in enumerate(ordered))


def subset_is_big(s: FinStructure, subset, mu: int) -> bool:
    """Bigness of the structure a (closed) subset induces, evaluated without
    materializing it.  Raises ValueError on a negative level or an element
    outside the universe."""
    if mu < 0:
        raise ValueError("bigness level must be nonnegative")
    ordered = sorted(set(subset))
    require_inside(s, ordered)
    return mu == 0 or s.cls.spec.subset_big(s, ordered, mu)


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
    frag, _ = spec.decode(s.cls, len(closed), dict(spec.fragment(s, closed, pos)))
    return frag, closed


# minimal big subsets and canonical embeddings


def minimal_big_subsets(s: FinStructure, mu: int):
    """Iterate over the inclusion-minimal closed, member-inducing, mu-big
    subsets of the member s, each once and sorted: only `()` at mu = 0.

    Type-homogeneity is hereditary, so these are the only candidates a
    partition relation needs.  Where the kind embeds canonically they are
    the images of the embeddings of make_canonical(cls, mu), the canonical
    one first; where bigness is cardinality they are the mu-subsets.
    """
    if mu < 0:
        raise ValueError("bigness level must be nonnegative")
    return iter([()]) if mu == 0 else iter(s.cls.spec.minimal(s, mu))


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
    return next(minimal_big_subsets(target, mu))


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
    payload = {key: _plain(getattr(s, field)) for field, (key, _) in s.cls.spec.fields.items()}
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
    shapes = dict(fields.values())
    require_fields(payload, shapes, f"{cls.label()} payload")
    extra = set(payload) - set(shapes)
    if extra:
        raise ValueError(f"unexpected payload keys {sorted(extra)} for {cls.label()}")
    try:
        return FinStructure(cls, size, **{field: payload[key] for field, (key, _) in fields.items()})
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed {cls.label()} payload: {exc}") from None


def canonical_json(doc) -> str:
    """The certificate text of a JSON value: sorted keys, no spaces, ASCII."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def dumps(s: FinStructure) -> str:
    """Canonical one-line JSON; byte-stable round trip with loads."""
    return canonical_json(to_doc(s))


def loads(text: str) -> FinStructure:
    return from_doc(json.loads(text))
