"""Per-class behaviour: minimal big subsets and canonical embeddings, pinned
document and type-code bytes, the rule that only `structures` tells class
kinds apart, and each kind's rules against references written out kind by
kind."""

import ast
import itertools
import random
import re
from pathlib import Path

import pytest

import ramseylab
from helpers import SMALL_KINDS, _atoms, closure_bruteforce, group_slack, random_member
from ramseylab.colorings import iter_big_member_subsets
from ramseylab.structures import (
    ClassKind,
    FinStructure,
    dumps,
    embed_canonical,
    embeds_canonically,
    is_big,
    is_embedding,
    is_member,
    make_canonical,
    minimal_big_subsets,
    subset_closure,
    subset_induces_member,
    subset_is_big,
    tree_ancestors,
    tree_children,
    tree_root,
)
from ramseylab.tuple_types import tuple_type


def _embeds_bruteforce(src, dst, image) -> bool:
    """Embedding test from raw payloads: an increasing, closed image whose
    atomic fingerprint is the source's."""
    image = tuple(image)
    if len(image) != src.size or any(not 0 <= e < dst.size for e in image):
        return False
    if any(a >= b for a, b in zip(image, image[1:])):
        return False
    if closure_bruteforce(dst, image) != image:
        return False
    return _atoms(dst, image) == _atoms(src, tuple(range(src.size)))


def test_embed_canonical_into_big_members():
    rng = random.Random(11)
    cases = rejected = 0
    for cls in SMALL_KINDS:
        if not embeds_canonically(cls):
            continue
        for _ in range(400):
            s = random_member(cls, rng, max_size=14)
            mu = 0
            while is_big(s, mu):
                canon = make_canonical(cls, mu)
                image = embed_canonical(cls, mu, s)
                assert is_embedding(canon, s, image), (cls.label(), mu, s)
                cases += 1
                # a perturbed image: one element moved to another one of s
                if image and s.size > len(image):
                    moved = list(image)
                    i = rng.randrange(len(moved))
                    moved[i] = rng.choice([e for e in range(s.size) if e not in image])
                    moved.sort()
                    want = _embeds_bruteforce(canon, s, moved)
                    assert is_embedding(canon, s, moved) == want, (cls.label(), mu, moved)
                    rejected += not want
                if image:
                    assert not is_embedding(canon, s, image[:-1])
                    assert not is_embedding(canon, s, image[:-1] + (s.size,))
                if len(image) > 1:
                    assert not is_embedding(canon, s, image[::-1])
                mu += 1
    assert cases > 1000 and rejected > 100


def _minimal_by_filter(s, mu) -> set:
    """The inclusion-minimal subsets among all big ones the walker yields."""
    minimal: list[frozenset] = []
    for cand in sorted(iter_big_member_subsets(s, mu), key=len):
        if not any(m <= set(cand) for m in minimal):
            minimal.append(frozenset(cand))
    return set(minimal)


def test_minimal_big_subsets_match_the_minimality_filter():
    rng = random.Random(5)
    cases = firsts = 0
    for cls in SMALL_KINDS:
        canonical = [make_canonical(cls, lam) for lam in range(5)]
        members = [s for s in canonical if s.size <= 12]
        members += [random_member(cls, rng, max_size=10) for _ in range(40)]
        for s in members:
            for mu in range(5):
                got = list(minimal_big_subsets(s, mu))
                assert len(set(got)) == len(got), (cls.label(), mu, s)
                assert set(map(frozenset, got)) == _minimal_by_filter(s, mu), (cls.label(), mu, s)
                for cand in got:
                    assert list(cand) == sorted(cand)
                    assert subset_closure(s, cand) == cand and subset_induces_member(s, cand)
                    assert subset_is_big(s, cand, mu)
                    if embeds_canonically(cls):
                        assert is_embedding(make_canonical(cls, mu), s, cand), (cls.label(), mu, cand)
                if embeds_canonically(cls) and is_big(s, mu):
                    assert got[0] == embed_canonical(cls, mu, s)
                    firsts += 1
                cases += 1
    assert cases == 9 * 5 * 40 + 5 * sum(
        make_canonical(cls, lam).size <= 12 for cls in SMALL_KINDS for lam in range(5)
    )
    assert firsts > 500
    with pytest.raises(ValueError):
        minimal_big_subsets(make_canonical(ClassKind("or"), 3), -1)


def test_embed_canonical_refuses_cardinality_kinds():
    for cls in (ClassKind("ordered_graph"), ClassKind("hypergraph", edge_arity=2, palette=2)):
        assert not embeds_canonically(cls)
        with pytest.raises(ValueError):
            embed_canonical(cls, 2, make_canonical(cls, 2))


def _induces_member_bruteforce(s, subset) -> bool:
    """The definition from raw payloads: the subset is its own closure, and a
    chi_color subset is positional, its j-th element carrying residue j."""
    if closure_bruteforce(s, subset) != subset:
        return False
    chi = s.cls.chi if s.cls.kind == "chi_color" else 1
    return all(e % chi == rank % chi for rank, e in enumerate(subset))


def test_admission_matches_the_membership_definition():
    # `subset_induces_member` and the level-0 walk both go through
    # `Kind.admit`; each must agree with the definition on every subset
    rng = random.Random(11)
    cases = vetoed = 0
    for cls in SMALL_KINDS:
        members = [make_canonical(cls, lam) for lam in range(4)]
        members = [s for s in members if s.size <= 10]
        members += [random_member(cls, rng) for _ in range(20)]
        for s in members:
            want = []
            for r in range(s.size + 1):
                for subset in itertools.combinations(range(s.size), r):
                    ok = _induces_member_bruteforce(s, subset)
                    assert subset_induces_member(s, subset) == ok, (cls.label(), s, subset)
                    if ok:
                        want.append(subset)
                    cases += 1
                    vetoed += not ok
            assert list(iter_big_member_subsets(s, 0)) == sorted(want), (cls.label(), s)
            with pytest.raises(ValueError, match="outside universe"):
                subset_induces_member(s, (s.size,))
    assert cases > 10_000 and vetoed > 1_000


# document and type-code bytes, pinned so that format drift shows up

PINNED = {
    "or": (
        '{"class":{"kind":"or"},"payload":{},"universe":2}',
        b'{"gen":[0,1],"m":2}',
    ),
    "chi_or(2)": (
        '{"class":{"chi":2,"kind":"chi_or"},"payload":{"parts":[0,0,1,1]},"universe":4}',
        b'{"gen":[0,1],"m":2,"parts":[1,1]}',
    ),
    "chi_or(3)": (
        '{"class":{"chi":3,"kind":"chi_or"},"payload":{"parts":[0,0,1,1,2,2]},"universe":6}',
        b'{"gen":[0,1],"m":2,"parts":[2,2]}',
    ),
    "chi_color(2)": (
        '{"class":{"chi":2,"kind":"chi_color"},"payload":{},"universe":4}',
        b'{"gen":[0,1],"m":2,"res":[0,1]}',
    ),
    "chi_color(3)": (
        '{"class":{"chi":3,"kind":"chi_color"},"payload":{},"universe":6}',
        b'{"gen":[0,1],"m":2,"res":[1,2]}',
    ),
    "n_tree(2)": (
        '{"class":{"height":2,"kind":"n_tree"},"payload":{"levels":[0,1,2,2,1,2,2],'
        '"tree_parent":[-1,0,1,1,0,4,4]},"universe":7}',
        b'{"gen":[1,2],"level":[1,2,2],"m":3,"parent":[-1,0,0]}',
    ),
    "ceq": (
        '{"class":{"kind":"ceq"},"payload":{"eq_blocks":[[0,1],[2,3]]},"universe":4}',
        b'{"blocks":[0,0],"gen":[0,1],"m":2}',
    ),
    "ordered_graph": (
        '{"class":{"kind":"ordered_graph"},"payload":{"edges":[[0,1]]},"universe":2}',
        b'{"edges":[[0,1]],"gen":[0,1],"m":2}',
    ),
    "hypergraph(2,2)": (
        '{"class":{"edge_arity":2,"kind":"hypergraph","palette":2},'
        '"payload":{"hyper_colors":[[[],0],[[0],1],[[1],0]]},"universe":2}',
        b'{"colors":[[[],0],[[0],1],[[1],0]],"gen":[0,1],"m":2}',
    ),
}


def test_pinned_bytes():
    assert sorted(PINNED) == sorted(cls.label() for cls in SMALL_KINDS)
    for cls in SMALL_KINDS:
        s = make_canonical(cls, 2)
        doc, code = PINNED[cls.label()]
        assert dumps(s) == doc, cls.label()
        assert tuple_type(s, (s.size - 2, s.size - 1)).code == code, cls.label()
    # subsets of mixed sizes: documents list them by size, then lexicographically
    s = make_canonical(ClassKind("hypergraph", edge_arity=3, palette=2), 3)
    assert dumps(s) == (
        '{"class":{"edge_arity":3,"kind":"hypergraph","palette":2},"payload":{"hyper_colors":'
        '[[[],0],[[0],1],[[1],0],[[2],1],[[0,1],1],[[0,2],0],[[1,2],1]]},"universe":3}'
    )
    assert tuple_type(s, (1, 2)).code == b'{"colors":[[[],0],[[0],0],[[1],1],[[0,1],1]],"gen":[0,1],"m":2}'


def test_only_structures_tells_kinds_apart():
    # per-kind behaviour belongs in the structures.Kind table
    compares = re.compile(r"""\bkind\s*(==|!=|in|not in)\s*[("']""")
    hits = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(Path(ramseylab.__file__).parent.glob("*.py"))
        if path.name != "structures.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if compares.search(line)
    ]
    assert hits == []


def test_library_holds_no_assert_statement():
    # `python -O` strips assert statements, so a check the library relies on
    # raises an exception of its own instead
    hits = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(ramseylab.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert hits == []


# Each kind's rules written out kind by kind, as references for the rules
# the table states once: the grouped kinds' count rules and minimal
# generators, the tree's kids lists and the hypergraph's nested loops over
# coloured subsets.


def _product_of(choices) -> list[tuple]:
    return [sum(pick, ()) for pick in itertools.product(*choices)]


def _reference_counts(s, chosen) -> list[int]:
    if s.cls.kind == "chi_or":
        counts = [0] * s.cls.chi
        for e in chosen:
            counts[s.parts[e]] += 1
        return counts
    return [len(set(block) & set(chosen)) for block in s.blocks]


def _reference_enough(cls, counts, mu) -> bool:
    if cls.kind == "chi_or":
        return min(counts) >= mu
    return len([c for c in counts if c >= mu]) >= mu


def _reference_slack(cls, counts, mu) -> int:
    # how far the count of the group that makes or breaks bigness sits
    # above mu: the least part, or the mu-th fullest block
    if cls.kind == "chi_or":
        return min(counts) - mu
    return sorted(counts, reverse=True)[mu - 1] - mu if len(counts) >= mu else -1


def _reference_grouped_minimal(s, mu) -> list[tuple]:
    if s.cls.kind == "chi_or":
        parts = [[e for e in range(s.size) if s.parts[e] == p] for p in range(s.cls.chi)]
        return _product_of([itertools.combinations(p, mu) for p in parts])
    wide = sorted(b for b in s.blocks if len(b) >= mu)
    return [
        cand
        for blocks in itertools.combinations(wide, mu)
        for cand in _product_of([itertools.combinations(b, mu) for b in blocks])
    ]


def _reference_tree_big(s, chosen, mu) -> bool:
    if not chosen:
        return False
    inside = set(chosen)
    root = min(chosen)
    if s.level[root] != 0:
        return False
    kids = {e: [] for e in chosen}
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


def _reference_tree_fragment(s, closed, pos) -> tuple:
    parent = tuple(next((pos[a] for a in tree_ancestors(s, e) if a in pos), -1) for e in closed)
    return (("level", tuple(s.level[e] for e in closed)), ("parent", parent))


def _reference_tree_minimal(s, mu) -> list[tuple]:
    root = tree_root(s)
    if root is None or s.level[root] != 0:
        return []
    kids = tree_children(s)

    def below(v):
        if s.level[v] >= s.cls.height:
            return [(v,)]
        faithful = [c for c in kids[v] if s.level[c] == s.level[v] + 1]
        return [
            (v, *cand)
            for pick in itertools.combinations(faithful, mu)
            for cand in _product_of([below(c) for c in pick])
        ]

    return below(root)


def _reference_hyper_subsets(cls, elements) -> list[tuple]:
    subsets = []
    for r in range(cls.edge_arity):
        for subset in itertools.combinations(elements, r):
            subsets.append(subset)
    return subsets


def _reference_hyper_member(s) -> bool:
    got = {}
    for subset, color in s.hyper:
        if subset in got:
            return False
        got[subset] = color
    if set(got) != set(_reference_hyper_subsets(s.cls, range(s.size))):
        return False
    return all(0 <= c < s.cls.palette for c in got.values())


_REFERENCE_KINDS = (
    ClassKind("or"),
    ClassKind("ordered_graph"),
    ClassKind("chi_or", chi=1),
    ClassKind("chi_or", chi=2),
    ClassKind("chi_or", chi=3),
    ClassKind("ceq"),
    ClassKind("n_tree", height=1),
    ClassKind("n_tree", height=2),
    ClassKind("hypergraph", edge_arity=2, palette=2),
    ClassKind("hypergraph", edge_arity=3, palette=3),
)


def _ancestors_of(parent, e):
    while parent[e] >= 0:
        e = parent[e]
        yield e


def _bushy_tree(cls, rng, n):
    """A random tree of n elements that hangs each element off a random node
    below the height on the path to the element before it; the root sits at
    level 0 or 1."""
    parent, level = [-1], [rng.choice((0, 0, 0, 1))]
    for i in range(1, n):
        path = [v for v in (i - 1, *_ancestors_of(parent, i - 1)) if level[v] < cls.height]
        if not path:
            break
        p = rng.choice(path)
        parent.append(p)
        level.append(rng.randint(level[p] + 1, cls.height))
    return FinStructure(cls, len(parent), parent=parent, level=level)


def _reference_members(cls, rng) -> list:
    """Each canonical member of up to 10 elements and random members; a ceq
    member comes a second time with its blocks listed last first."""
    members = [s for s in (make_canonical(cls, lam) for lam in range(11)) if s.size <= 10]
    members += [random_member(cls, rng, max_size=9) for _ in range(40)]
    if cls.kind == "ceq":
        members += [FinStructure(cls, s.size, blocks=s.blocks[::-1]) for s in members if len(s.blocks) > 1]
    if cls.kind == "n_tree":
        members += [_bushy_tree(cls, rng, rng.randint(6, 10)) for _ in range(20)]
    return members


@pytest.mark.parametrize("cls", _REFERENCE_KINDS, ids=ClassKind.label)
def test_kind_rules_match_their_references(cls):
    rng = random.Random(25)
    spec = cls.spec
    subsets = bigs = 0
    for s in _reference_members(cls, rng):
        assert is_member(s)
        every = [sub for r in range(s.size + 1) for sub in itertools.combinations(range(s.size), r)]
        for mu in range(1, 5):
            if cls.kind in ("chi_or", "ceq"):
                assert spec.min_size(cls, mu) == (cls.chi if cls.kind == "chi_or" else mu) * mu
                assert list(spec.minimal(s, mu)) == _reference_grouped_minimal(s, mu), (s, mu)
                slack = group_slack(s, mu, list(range(s.size)))
                for sub in every:
                    want = _reference_enough(cls, _reference_counts(s, sub), mu)
                    assert spec.subset_big(s, list(sub), mu) == want, (s, sub, mu)
                    # the walker's node just past the subset's last element,
                    # with nothing blocked
                    at = sub[-1] + 1 if sub else 0
                    rest = _reference_counts(s, sub + tuple(range(at, s.size)))
                    reach = sum(1 << e for e in sub) | (-1 << at) & ((1 << s.size) - 1)
                    assert slack(reach) == _reference_slack(cls, rest, mu), (s, sub, mu)
                    assert (slack(reach) >= 0) == _reference_enough(cls, rest, mu), (s, sub, mu)
                    bigs += want
            elif cls.kind in ("or", "ordered_graph", "hypergraph"):
                # one group: bigness is cardinality
                assert spec.min_size(cls, mu) == mu
                assert list(spec.minimal(s, mu)) == list(itertools.combinations(range(s.size), mu)), (s, mu)
                slack = group_slack(s, mu, list(range(s.size)))
                for sub in every:
                    want = len(sub) >= mu
                    assert spec.subset_big(s, list(sub), mu) == want, (s, sub, mu)
                    at = sub[-1] + 1 if sub else 0
                    reach = sum(1 << e for e in sub) | (-1 << at) & ((1 << s.size) - 1)
                    assert slack(reach) == reach.bit_count() - mu, (s, sub, mu)
                    bigs += want
            elif cls.kind == "n_tree":
                assert list(spec.minimal(s, mu)) == _reference_tree_minimal(s, mu), (s, mu)
                quotas = [mu**d for d in range(cls.height + 1)]
                assert spec.quotas(s, mu) == quotas
                assert spec.min_size(cls, mu) == sum(quotas)
                slack = group_slack(s, mu, list(range(s.size)))
                for sub in every:
                    want = _reference_tree_big(s, sub, mu)
                    assert spec.subset_big(s, list(sub), mu) == want, (s, sub, mu)
                    if want:
                        # a big subtree meets every level's quota
                        counts = [len([e for e in sub if s.level[e] == d]) for d in range(cls.height + 1)]
                        assert all(map(int.__ge__, counts, quotas)), (s, sub, mu)
                    # the walker's node just past the subset's last element,
                    # with nothing blocked: never pruned while what it may
                    # still hold is big
                    at = sub[-1] + 1 if sub else 0
                    rest = sub + tuple(range(at, s.size))
                    reach = sum(1 << e for e in sub) | (-1 << at) & ((1 << s.size) - 1)
                    if _reference_tree_big(s, rest, mu):
                        assert slack(reach) >= 0, (s, sub, mu)
                    bigs += want
        if cls.kind == "n_tree":
            for sub in every:
                pos = {e: i for i, e in enumerate(sub)}
                assert spec.fragment(s, sub, pos) == _reference_tree_fragment(s, sub, pos), (s, sub)
        elif cls.kind == "hypergraph":
            assert list(spec.colored_subsets(cls, range(s.size))) == _reference_hyper_subsets(cls, range(s.size))
            for sub in every:
                pos = {e: i for i, e in enumerate(sub)}
                colors = [(tuple(pos[e] for e in x), s.hyper_color(x)) for x in _reference_hyper_subsets(cls, sub)]
                assert spec.fragment(s, sub, pos) == (("colors", tuple(colors)),), (s, sub)
        subsets += len(every)
    assert subsets > 2000
    assert bigs > 0


@pytest.mark.parametrize("cls", [c for c in _REFERENCE_KINDS if c.kind == "hypergraph"], ids=ClassKind.label)
def test_hypergraph_canonical_and_membership_match_their_references(cls):
    for mu in range(8):
        want = [(sub, (len(sub) + sum(sub)) % cls.palette) for sub in _reference_hyper_subsets(cls, range(mu))]
        assert make_canonical(cls, mu).hyper == tuple(want)
    rng = random.Random(25)
    verdicts = set()
    for _ in range(60):
        s = random_member(cls, rng, max_size=7)
        entries = list(s.hyper)
        variants = [entries, entries[1:], entries + entries[:1], entries + [(tuple(range(cls.edge_arity)), 0)]]
        variants.append([(sub, cls.palette) for sub, _ in entries])
        for hyper in variants:
            t = FinStructure(cls, s.size, hyper=hyper)
            verdicts.add(_reference_hyper_member(t))
            assert cls.spec.member(t) == _reference_hyper_member(t), (t,)
    assert verdicts == {True, False}
