"""Per-class behaviour: minimal big subsets and canonical embeddings, pinned
document and type-code bytes, and the rule that only `structures` tells
class kinds apart."""

import itertools
import random
import re
from pathlib import Path

import pytest

import ramseylab
from helpers import SMALL_KINDS, _atoms, closure_bruteforce, random_member
from ramseylab.colorings import iter_big_member_subsets
from ramseylab.structures import (
    ClassKind,
    dumps,
    embed_canonical,
    embeds_canonically,
    is_big,
    is_embedding,
    make_canonical,
    minimal_big_subsets,
    subset_closure,
    subset_induces_member,
    subset_is_big,
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
