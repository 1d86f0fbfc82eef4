"""Shared test utilities.

The brute-force routines here recompute closures, type equality, and type
counts directly from raw structure payloads, deliberately bypassing the
package's canonical type encoder so the two can check each other.  The
generators build random class members and random blueprint extraction
targets for seeded property loops.  The nested-key `em_model` and the
row-by-row `Coloring.from_doc` are kept as references for the library's
faster versions.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
import signal

from ramseylab.blueprints import (
    Blueprint,
    BlueprintDomainError,
    EmModel,
    SupportOverflowError,
    _key_str,
    check_coherence,
)
from ramseylab.colorings import Coloring, _group_counts
from ramseylab.diagrams import Diagram, OutputSignature, TargetStructure, model_diagram, term_program
from ramseylab.structures import ClassKind, FinStructure, InternalCheckError, from_doc, is_member, make_canonical, require_fields
from ramseylab.tuple_types import enumerate_types, tuple_type

def time_limit(seconds: float):
    """Decorator failing a test with TimeoutError once it has run for
    `seconds` of wall time.  Uses SIGALRM, so POSIX and the main thread."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            def expire(signum, frame):
                raise TimeoutError(f"{fn.__name__} ran longer than {seconds} s")

            previous = signal.signal(signal.SIGALRM, expire)
            signal.setitimer(signal.ITIMER_REAL, seconds)
            try:
                return fn(*args, **kwargs)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)

        return run

    return wrap


SMALL_KINDS = (
    ClassKind("or"),
    ClassKind("chi_or", chi=2),
    ClassKind("chi_or", chi=3),
    ClassKind("chi_color", chi=2),
    ClassKind("chi_color", chi=3),
    ClassKind("n_tree", height=2),
    ClassKind("ceq"),
    ClassKind("ordered_graph"),
    ClassKind("hypergraph", edge_arity=2, palette=2),
)


def group_slack(base: FinStructure, level: int, elements: list[int]):
    """The walker's slack read off its group counts (`colorings._group_counts`):
    for the elements of `reach`, the needed-th largest group surplus, or -1
    with fewer groups than needed.  Each read also checks that the slack
    is nonnegative exactly when `short` is not positive."""
    _, count = _group_counts(base, level, elements)
    needed = base.cls.spec.needed(base.cls, level) if level else 1

    def slack(reach: int) -> int:
        surplus, short = count(reach)
        room = sorted(surplus, reverse=True)[needed - 1] if needed <= len(surplus) else -1
        assert (room >= 0) == (short <= 0), (reach, surplus, short)
        return room

    return slack


# brute-force typing, independent of the canonical encoder


def _chain(s: FinStructure, e: int) -> list[int]:
    out = [e]
    while s.parent[out[-1]] >= 0:
        out.append(s.parent[out[-1]])
    return out


def closure_bruteforce(s: FinStructure, elems) -> tuple[int, ...]:
    """Close under the tree meet by plain fixpoint iteration."""
    chosen = set(elems)
    if s.cls.kind == "n_tree" and chosen:
        while True:
            new = set()
            for a, b in itertools.combinations(sorted(chosen), 2):
                bs = set(_chain(s, b))
                meet = next(x for x in _chain(s, a) if x in bs)
                if meet not in chosen:
                    new.add(meet)
            if not new:
                break
            chosen |= new
    return tuple(sorted(chosen))


def _block_index(s: FinStructure, e: int) -> int:
    for idx, block in enumerate(s.blocks):
        if e in block:
            return idx
    raise ValueError(f"element {e} in no block")


def _atoms(s: FinStructure, closed: tuple[int, ...]):
    """Atomic fingerprint of a closed fragment over its positions."""
    kind = s.cls.kind
    m = len(closed)
    if kind == "or":
        return ()
    if kind == "chi_or":
        return tuple(s.parts[e] for e in closed)
    if kind == "chi_color":
        return tuple(e % s.cls.chi for e in closed)
    if kind == "ceq":
        return tuple(
            (i, j)
            for i, j in itertools.combinations(range(m), 2)
            if _block_index(s, closed[i]) == _block_index(s, closed[j])
        )
    if kind == "ordered_graph":
        return tuple(
            (i, j)
            for i, j in itertools.combinations(range(m), 2)
            if tuple(sorted((closed[i], closed[j]))) in s.edges
        )
    if kind == "hypergraph":
        table = {subset: color for subset, color in s.hyper}
        out = []
        for r in range(s.cls.edge_arity):
            for ps in itertools.combinations(range(m), r):
                out.append((ps, table[tuple(closed[i] for i in ps)]))
        return tuple(out)
    if kind == "n_tree":
        inside = set(closed)
        parents = []
        for e in closed:
            hit = next((x for x in _chain(s, e)[1:] if x in inside), None)
            parents.append(closed.index(hit) if hit is not None else -1)
        return (tuple(s.level[e] for e in closed), tuple(parents))
    raise AssertionError(kind)


def same_type_bruteforce(s: FinStructure, t1, t2) -> bool:
    """Whether two increasing tuples of s have the same quantifier-free type:
    their closures must be order-isomorphic with the tuples at matching
    positions and identical atomic fingerprints."""
    c1 = closure_bruteforce(s, t1)
    c2 = closure_bruteforce(s, t2)
    if len(c1) != len(c2):
        return False
    if tuple(c1.index(e) for e in t1) != tuple(c2.index(e) for e in t2):
        return False
    return _atoms(s, c1) == _atoms(s, c2)


def brute_type_count(cls: ClassKind, n: int, level: int | None = None) -> int:
    """Number of type classes among increasing n-tuples of the canonical
    max(level, n)-big member, decided pairwise by `same_type_bruteforce`."""
    lv = n if level is None else max(level, n)
    base = make_canonical(cls, lv)
    reps: list[tuple[int, ...]] = []
    for tup in itertools.combinations(range(base.size), n):
        if not any(same_type_bruteforce(base, tup, r) for r in reps):
            reps.append(tup)
    return len(reps)


# random members


def random_member(cls: ClassKind, rng: random.Random, max_size: int = 8) -> FinStructure:
    """A uniformly sloppy random member of the class, at most max_size big."""
    kind = cls.kind
    n = rng.randrange(max_size + 1)
    if kind == "or" or kind == "chi_color":
        return FinStructure(cls, n)
    if kind == "chi_or":
        parts = sorted(rng.randrange(cls.chi) for _ in range(n))
        return FinStructure(cls, n, parts=tuple(parts))
    if kind == "n_tree":
        return _random_tree(cls, rng, max(n, 1))
    if kind == "ceq":
        blocks = []
        i = 0
        while i < n:
            width = rng.randrange(1, n - i + 1)
            blocks.append(tuple(range(i, i + width)))
            i += width
        return FinStructure(cls, n, blocks=tuple(blocks))
    if kind == "ordered_graph":
        edges = frozenset(
            (i, j)
            for i, j in itertools.combinations(range(n), 2)
            if rng.randrange(2)
        )
        return FinStructure(cls, n, edges=edges)
    if kind == "hypergraph":
        entries = []
        for r in range(cls.edge_arity):
            for subset in itertools.combinations(range(n), r):
                entries.append((subset, rng.randrange(cls.palette)))
        return FinStructure(cls, n, hyper=tuple(entries))
    raise AssertionError(kind)


def _random_tree(cls: ClassKind, rng: random.Random, max_size: int) -> FinStructure:
    parent: list[int] = []
    level: list[int] = []
    budget = [max_size]

    def grow(par: int, lev: int) -> None:
        if budget[0] <= 0 or lev > cls.height:
            return
        me = len(parent)
        parent.append(par)
        level.append(lev)
        budget[0] -= 1
        if lev < cls.height:
            for _ in range(rng.randrange(3)):
                grow(me, rng.randrange(lev + 1, cls.height + 1))

    grow(-1, rng.randrange(cls.height + 1))
    return FinStructure(cls, len(parent), parent=tuple(parent), level=tuple(level))


def unary_blueprint() -> Blueprint:
    """One unary function over linear orders; f saturates after one step, so
    term models stay one element bigger than their index."""
    cls = ClassKind("or")
    sig = OutputSignature(functions=(("f", 1),))
    t1 = enumerate_types(cls, 1, 1)[0]
    t2 = enumerate_types(cls, 2, 2)[0]
    d1 = Diagram(sig, 1, 2, (0, 1, 1))
    d2 = Diagram(sig, 2, 2, (0, 1, 2, 2, 2, 2))
    return Blueprint(cls, sig, 2, 2, (1, 2), ((t1, d1), (t2, d2)))


def binary_blueprint() -> Blueprint:
    """A binary function g and a constant c over linear orders, at depth 1:
    the diagrams are read off a target where c is 0, g(a, a) = c and
    g(a, b) = max(a, b) otherwise, and R is the strict order, so a term
    model is its generators and c."""
    cls = ClassKind("or")
    sig = OutputSignature(functions=(("g", 2),), relations=(("R", 2),), constants=("c",))
    size = 3
    g = {(a, b): 0 if a == b else max(a, b) for a in range(size) for b in range(size)}
    less = frozenset((a, b) for a in range(size) for b in range(size) if a < b)
    target = TargetStructure(sig, size, {"g": g}, {"R": less}, {"c": 0})
    t1 = enumerate_types(cls, 1, 1)[0]
    t2 = enumerate_types(cls, 2, 2)[0]
    d1 = model_diagram(target, (1,), 1)
    d2 = model_diagram(target, (1, 2), 1)
    return Blueprint(cls, sig, 2, 1, (1, 2), ((t1, d1), (t2, d2)))


# blueprint extraction targets with a known indiscernible assignment


def fiber_target(size: int, seed: int) -> tuple[TargetStructure, tuple[int, ...]]:
    """A target made of `size` rotation-closed fibers of size+1 points each.

    Unary functions f_1..f_size rotate every fiber, so each fiber is the
    depth-1 orbit of its base point and depth-2 terms all collapse onto
    depth-at-most-1 representatives.  The seeded relations depend only on
    fiber coordinates and on the order of the fibers, which makes the base
    points an indiscernible sequence: extraction keeps the whole index and
    the extract / model / extract round trip reproduces the blueprint
    exactly.
    """
    if size < 1:
        raise ValueError("need at least one fiber")
    k = size + 1
    rng = random.Random(seed)
    total = size * k
    sig = OutputSignature(
        functions=tuple((f"f{s}", 1) for s in range(1, k)),
        relations=(("R", 2), ("U", 1)),
    )
    functions = {
        f"f{s}": {
            (x,): (x // k) * k + ((x % k) + s) % k for x in range(total)
        }
        for s in range(1, k)
    }
    unary_bits = [rng.randrange(2) for _ in range(k)]
    unary = frozenset((x,) for x in range(total) if unary_bits[x % k])
    pair_bits = {
        (cmp_, j1, j2): rng.randrange(2)
        for cmp_ in (-1, 0, 1)
        for j1 in range(k)
        for j2 in range(k)
    }
    pairs = frozenset(
        (x, y)
        for x in range(total)
        for y in range(total)
        if pair_bits[((x // k > y // k) - (x // k < y // k), x % k, y % k)]
    )
    target = TargetStructure(
        sig, total, functions, {"R": pairs, "U": unary}, {}
    )
    assignment = tuple(i * k for i in range(size))
    return target, assignment


# the nested-key term model, kept as the reference for `blueprints.em_model`


class _NestedUnionFind:
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


def em_model_reference(bp: Blueprint, index: FinStructure) -> EmModel:
    """`em_model` over nested tuple keys: every instantiated term is keyed by
    (0, "e", element), (0, "c", name) or (1, head, *argument keys), each
    class is represented by its least key, and every relation atom is asked
    of its diagram's atom set, slot by slot."""
    failures = check_coherence(bp)
    if failures:
        raise ValueError(f"blueprint is not coherent ({len(failures)} failures)")
    if index.cls != bp.cls:
        raise ValueError("index structure is not in the blueprint's class")
    if not is_member(index):
        raise ValueError("index structure is not a member of its class")

    table = bp.as_map()
    instantiated = []
    uf = _NestedUnionFind()
    for arity in range(1, min(bp.n_max, index.size) + 1):
        for tup in itertools.combinations(range(index.size), arity):
            diag = table.get(tuple_type(index, tup))
            if diag is None:
                raise BlueprintDomainError(
                    f"tuple {tup} realizes a type outside the blueprint domain"
                )
            keys: list[tuple] = []
            for head, v, args in term_program(diag.sig, diag.arity, diag.depth):
                if v >= 0:
                    keys.append((0, "e", tup[v]))
                elif args:
                    keys.append((1, head, *[keys[a] for a in args]))
                else:
                    keys.append((0, "c", head))
            for i, k in enumerate(keys):
                uf.add(k)
                uf.union(k, keys[diag.eq_reps[i]])
            instantiated.append((tup, diag, keys))

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

    root = {k: uf.find(k) for k in uf.parent}
    first: dict = {}
    for e in range(index.size):
        d = first.setdefault(root[(0, "e", e)], e)
        if d != e:
            raise ValueError(
                f"the diagrams identify index elements {d} and {e}; no model "
                "with distinct generators extends the index"
            )
    ordered = list(first)
    ordered += sorted(set(root.values()) - set(ordered), key=_key_str)
    elem_of = {r: i for i, r in enumerate(ordered)}
    elem = {k: elem_of[r] for k, r in root.items()}

    covered = []
    for tup, diag, keys in instantiated:
        reps = diag.reps()
        elems = tuple(elem[keys[r]] for r in reps)
        if len(set(elems)) != len(reps):
            raise InternalCheckError(f"closure merges distinct terms of the diagram of {tup}")
        covered.append((diag, reps, elems))

    fn_table = {(k[1], tuple(elem[ch] for ch in k[2:])): elem[k] for k in apps}
    functions: dict = {}
    for fname, farity in bp.sig.functions:
        m: dict = {}
        for args in itertools.product(range(len(ordered)), repeat=farity):
            got = fn_table.get((fname, args))
            if got is None:
                raise SupportOverflowError(
                    f"function {fname!r} is undecided on {args}; the blueprint's "
                    "arity and depth do not reach that combination"
                )
            m[args] = got
        functions[fname] = m

    relations: dict = {}
    for rname, rarity in bp.sig.relations:
        decided: dict = {}
        for diag, reps, elems in covered:
            for combo, slot in zip(
                itertools.product(reps, repeat=rarity),
                itertools.product(elems, repeat=rarity),
            ):
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


def coloring_from_doc_reference(doc: dict) -> Coloring:
    """`Coloring.from_doc` row by row: each row is checked in turn, so an
    error names the first bad row, and a repeated tuple is looked for only
    once the coloring is built."""
    require_fields(doc, {"base": dict, "arity": int, "colors": int, "entries": list}, "coloring")
    base = from_doc(doc["base"])
    arity, entries, size = doc["arity"], doc["entries"], base.size

    def pairs():
        for row in entries:
            if not (isinstance(row, list) and len(row) == arity + 1 and all(type(x) is int for x in row)):
                raise ValueError(f"coloring entry {row!r} is not {arity + 1} integers")
            tup = tuple(row[:arity])
            if not (0 <= tup[0] and tup[-1] < size and all(map(operator.lt, tup, tup[1:]))):
                raise ValueError(f"coloring tuple {tup} is not increasing inside the universe 0..{size - 1}")
            yield tup, row[arity]

    col = Coloring(base, arity, doc["colors"], pairs())
    if len(col.table) != len(entries):
        seen: set = set()
        tup = next(tup for tup, _ in pairs() if tup in seen or seen.add(tup))
        raise ValueError(f"coloring tuple {tup} appears twice")
    return col
