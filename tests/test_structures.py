"""Structures: canonical layouts, membership, bigness, subsets."""

import itertools
import random

import pytest

from helpers import SMALL_KINDS, closure_bruteforce, group_slack, random_member
from ramseylab.colorings import _group_counts
from ramseylab.structures import (
    TABLE,
    ClassKind,
    FinStructure,
    dumps,
    embed_canonical,
    from_doc,
    induced_substructure,
    is_big,
    is_member,
    loads,
    make_canonical,
    subset_closure,
    subset_induces_member,
    subset_is_big,
    to_doc,
    tree_ancestors,
    tree_children,
    tree_meet,
    tree_root,
)


def test_class_kind_validation():
    with pytest.raises(ValueError):
        ClassKind("nope")
    with pytest.raises(ValueError):
        ClassKind("chi_or")  # missing chi
    with pytest.raises(ValueError):
        ClassKind("or", chi=2)  # stray parameter
    with pytest.raises(ValueError):
        ClassKind("chi_color", chi=0)
    with pytest.raises(ValueError):
        ClassKind("hypergraph", edge_arity=2, palette=0)
    assert ClassKind("n_tree", height=0).label() == "n_tree(0)"
    assert ClassKind("hypergraph", edge_arity=2, palette=3).label() == "hypergraph(2,3)"


def test_canonical_or_layout():
    s = make_canonical(ClassKind("or"), 4)
    assert s.size == 4 and s.parts is None and s.edges is None


def test_canonical_chi_or_layout():
    s = make_canonical(ClassKind("chi_or", chi=3), 2)
    assert s.size == 6
    assert s.parts == (0, 0, 1, 1, 2, 2)  # consecutive parts


def test_canonical_chi_color_layout():
    s = make_canonical(ClassKind("chi_color", chi=3), 2)
    assert s.size == 6


def test_canonical_ceq_layout():
    s = make_canonical(ClassKind("ceq"), 3)
    assert s.blocks == ((0, 1, 2), (3, 4, 5), (6, 7, 8))


def test_canonical_tree_layout():
    s = make_canonical(ClassKind("n_tree", height=2), 2)
    assert s.size == 7  # 1 + 2 + 4
    assert tree_root(s) == 0 and s.level[0] == 0
    kids = tree_children(s)
    for v in range(s.size):
        want = 2 if s.level[v] < 2 else 0
        assert len(kids[v]) == want
    # preorder: each child block is contiguous
    assert s.parent == (-1, 0, 1, 1, 0, 4, 4)


def test_canonical_graph_layout():
    s = make_canonical(ClassKind("ordered_graph"), 3)
    assert s.edges == frozenset({(0, 1), (1, 2)})  # bit pattern of column index


def test_canonical_hypergraph_layout():
    cls = ClassKind("hypergraph", edge_arity=2, palette=3)
    s = make_canonical(cls, 2)
    assert s.hyper_color(()) == 0
    assert s.hyper_color((0,)) == 1
    assert s.hyper_color((1,)) == 2


def test_canonical_members_and_big():
    for cls in SMALL_KINDS:
        for mu in range(4):
            s = make_canonical(cls, mu)
            assert is_member(s)
            assert is_big(s, mu)


def test_canonical_zero_is_empty():
    for cls in SMALL_KINDS:
        s = make_canonical(cls, 0)
        assert s.size == 0
        assert is_member(s)


def test_random_members_are_members():
    for cls in SMALL_KINDS:
        for seed in range(40):
            assert is_member(random_member(cls, random.Random(seed)))


def test_membership_rejects_malformed():
    ceq = ClassKind("ceq")
    assert not is_member(FinStructure(ceq, 3, blocks=((0, 2), (1,))))  # not convex
    assert not is_member(FinStructure(ceq, 3, blocks=((0, 1),)))  # misses 2
    tree = ClassKind("n_tree", height=1)
    assert not is_member(FinStructure(tree, 2, parent=(-1, -1), level=(0, 0)))
    assert not is_member(FinStructure(tree, 2, parent=(-1, 0), level=(0, 0)))  # level tie
    assert not is_member(FinStructure(tree, 2, parent=(-1, 0), level=(0, 2)))  # too deep
    og = ClassKind("ordered_graph")
    assert not is_member(FinStructure(og, 2, edges=frozenset({(1, 0)})))
    chi = ClassKind("chi_or", chi=2)
    assert not is_member(FinStructure(chi, 2, parts=(1, 0)))  # decreasing parts
    assert not is_member(FinStructure(chi, 2, parts=(0, 2)))  # part out of range
    # payload on the wrong kind
    assert not is_member(FinStructure(ClassKind("or"), 2, parts=(0, 0)))


def test_preorder_constraint():
    tree = ClassKind("n_tree", height=2)
    # subtree of 1 is {1, 3}, not an interval
    bad = FinStructure(tree, 4, parent=(-1, 0, 0, 1), level=(0, 1, 1, 2))
    assert not is_member(bad)
    good = FinStructure(tree, 4, parent=(-1, 0, 1, 0), level=(0, 1, 2, 1))
    assert is_member(good)


def _path_to_root(parent, j):
    while j >= 0:
        yield j
        j = parent[j]


def _parent_arrays(most: int):
    # every parent array on 1..most elements with the root first and each
    # parent below its child
    for n in range(1, most + 1):
        yield from (((-1,) + rest) for rest in itertools.product(*(range(i) for i in range(1, n))))


def _subtrees_are_intervals(parent) -> bool:
    # the definition: the subtree of each i is the interval i..i+size-1
    n = len(parent)
    for i in range(n):
        below = {j for j in range(n) if i in _path_to_root(parent, j)}
        if below != set(range(i, i + len(below))):
            return False
    return True


def _depths(parent):
    return tuple(sum(1 for _ in _path_to_root(parent, j)) - 1 for j in range(len(parent)))


def test_tree_membership_is_the_subtree_interval_rule():
    tree = ClassKind("n_tree", height=6)
    arrays = list(_parent_arrays(7))
    assert len(arrays) == 874
    members = 0
    for parent in arrays:
        s = FinStructure(tree, len(parent), parent=parent, level=_depths(parent))
        assert is_member(s) == _subtrees_are_intervals(parent), parent
        members += is_member(s)
    # the plane trees on 1..7 nodes, Catalan numbers 1, 1, 2, 5, 14, 42, 132
    assert members == 197


def test_tree_close_and_admit_by_neighbour_meets():
    # against the fixpoint closure, on every preorder tree of up to 6 elements
    tree = ClassKind("n_tree", height=5)
    spec = tree.spec
    for parent in _parent_arrays(6):
        s = FinStructure(tree, len(parent), parent=parent, level=_depths(parent))
        if not is_member(s):
            continue
        closed = set()
        for r in range(len(parent) + 1):
            for subset in itertools.combinations(range(s.size), r):
                want = closure_bruteforce(s, subset)
                assert subset_closure(s, subset) == want
                if want == subset:
                    closed.add(subset)
        for chosen in closed:
            for e in range(chosen[-1] + 1 if chosen else 0, s.size):
                assert spec.admit(s, list(chosen), e) == ((*chosen, e) in closed)


def test_big_frozen_cases():
    assert is_big(make_canonical(ClassKind("or"), 3), 3)
    assert not is_big(make_canonical(ClassKind("or"), 3), 4)
    chi = ClassKind("chi_or", chi=2)
    assert not is_big(FinStructure(chi, 3, parts=(0, 0, 0)), 1)  # part 1 empty
    ceq = ClassKind("ceq")
    assert is_big(FinStructure(ceq, 4, blocks=((0, 1), (2, 3))), 2)
    assert not is_big(FinStructure(ceq, 4, blocks=((0, 1, 2), (3,))), 2)
    tree = ClassKind("n_tree", height=1)
    assert not is_big(FinStructure(tree, 1, level=(1,), parent=(-1,)), 1)  # root too low
    assert is_big(FinStructure(tree, 2, level=(0, 1), parent=(-1, 0)), 1)


def test_big_antitone_in_level():
    for cls in SMALL_KINDS:
        for seed in range(20):
            s = random_member(cls, random.Random(seed))
            values = [is_big(s, mu) for mu in range(5)]
            assert values[0] is True
            for lo, hi in itertools.combinations(range(5), 2):
                if values[hi]:
                    assert values[lo]


def test_big_monotone_under_extension_except_trees():
    # induced big subsets certify bigness of the whole member, trees aside
    for cls in SMALL_KINDS:
        if cls.kind == "n_tree":
            continue
        for seed in range(25):
            rng = random.Random(seed)
            s = random_member(cls, rng)
            for _ in range(4):
                subset = tuple(
                    sorted(rng.sample(range(s.size), rng.randrange(s.size + 1)))
                )
                subset = subset_closure(s, subset)
                if not subset_induces_member(s, subset):
                    continue
                for mu in range(4):
                    if subset_is_big(s, subset, mu):
                        assert is_big(s, mu), (cls.label(), seed, subset, mu)


def test_tree_big_not_monotone_under_extension():
    # a barren sibling branch spoils the whole tree
    tree = ClassKind("n_tree", height=2)
    s = FinStructure(tree, 4, parent=(-1, 0, 1, 0), level=(0, 1, 2, 1))
    assert is_member(s)
    assert subset_is_big(s, (0, 1, 2), 1)
    assert not is_big(s, 1)


def test_closure_properties():
    for cls in SMALL_KINDS:
        for seed in range(15):
            rng = random.Random(seed)
            s = random_member(cls, rng)
            subset = tuple(sorted(rng.sample(range(s.size), rng.randrange(s.size + 1))))
            closed = subset_closure(s, subset)
            assert set(subset) <= set(closed)
            assert subset_closure(s, closed) == closed
            assert closed == closure_bruteforce(s, subset)


def test_closure_rejects_out_of_range():
    s = make_canonical(ClassKind("or"), 3)
    with pytest.raises(ValueError):
        subset_closure(s, (0, 3))


def test_tree_meet_closure():
    s = make_canonical(ClassKind("n_tree", height=2), 2)
    # two leaves in different subtrees meet at the root
    leaves = [v for v in range(s.size) if s.level[v] == 2]
    a, b = leaves[0], leaves[-1]
    assert tree_meet(s, a, b) == 0
    assert subset_closure(s, (a, b)) == (0, a, b)
    for e in range(s.size):
        assert tree_meet(s, e, e) == e
        for anc in tree_ancestors(s, e):
            assert tree_meet(s, e, anc) == tree_meet(s, anc, e) == anc


def test_closure_of_fewer_than_two_elements_adds_nothing():
    for cls in SMALL_KINDS:
        s = make_canonical(cls, 2)
        assert subset_closure(s, ()) == ()
        for e in range(s.size):
            assert subset_closure(s, (e,)) == (e,)


def test_chi_color_positional_membership():
    cls = ClassKind("chi_color", chi=2)
    s = make_canonical(cls, 3)
    assert subset_induces_member(s, (0, 1))
    assert subset_induces_member(s, (2, 3, 4, 5))
    assert not subset_induces_member(s, (1, 2))  # starts at residue 1
    assert not subset_induces_member(s, (0, 2))  # two even residues in a row


def test_subset_big_matches_induced():
    for cls in SMALL_KINDS:
        for seed in range(25):
            rng = random.Random(seed)
            s = random_member(cls, rng)
            subset = subset_closure(
                s, tuple(sorted(rng.sample(range(s.size), rng.randrange(s.size + 1))))
            )
            if not subset_induces_member(s, subset):
                continue
            frag, back = induced_substructure(s, subset)
            assert back == subset
            assert is_member(frag)
            for mu in range(4):
                assert subset_is_big(s, subset, mu) == is_big(frag, mu)


@pytest.mark.parametrize("chi, lam", [(2, 4), (3, 3)])
def test_colored_subset_big_matches_induced_definition(chi, lam):
    # chi_color bigness reads residues directly; it must agree with the
    # closure-based definition on every subset, positional or not
    cls = ClassKind("chi_color", chi=chi)
    s = make_canonical(cls, lam)
    spec = cls.spec
    for r in range(s.size + 1):
        for chosen in itertools.combinations(range(s.size), r):
            for mu in range(1, 4):
                want = subset_induces_member(s, chosen) and len(chosen) >= chi * mu
                assert spec.subset_big(s, list(chosen), mu) == want


def test_subset_is_big_rejects_elements_outside_the_universe():
    # the module-level function checks its input, so no kind has to
    assert {cls.kind for cls in SMALL_KINDS} == set(TABLE)
    for cls in SMALL_KINDS:
        s = make_canonical(cls, 2)
        for bad in ([0, s.size], [-1, 0], [s.size], [-1, 7, 100]):
            for mu in (0, 1):
                with pytest.raises(ValueError, match="outside universe"):
                    subset_is_big(s, bad, mu)


def test_no_subset_below_min_size_is_big():
    # the walker prunes on size alone and asks subset_big only from
    # min_size(cls, mu) elements on; both rest on this, for every kind
    assert {cls.kind for cls in SMALL_KINDS} == set(TABLE)
    rng = random.Random(17)
    cases = 0
    for cls in SMALL_KINDS:
        spec = cls.spec
        members = [make_canonical(cls, lam) for lam in range(4)]
        members = [s for s in members if s.size <= 10]
        members += [random_member(cls, rng) for _ in range(12)]
        for mu in range(1, 4):
            least = spec.min_size(cls, mu)
            canon = make_canonical(cls, mu)
            assert canon.size == least and spec.subset_big(canon, list(range(least)), mu)
            for s in members:
                for r in range(min(least, s.size + 1)):
                    for chosen in itertools.combinations(range(s.size), r):
                        assert not spec.subset_big(s, list(chosen), mu), (cls.label(), mu, s, chosen)
                        cases += 1
    assert cases > 10_000


def _walk_states(elements):
    """Every state (chosen, i) of a walk over `elements`: i elements decided,
    `chosen` the increasing subset of them taken."""
    for i in range(len(elements) + 1):
        for r in range(i + 1):
            for chosen in itertools.combinations(elements[:i], r):
                yield list(chosen), i


@pytest.mark.parametrize(
    "cls, lam, within",
    [
        (ClassKind("chi_or", chi=2), 2, None),
        (ClassKind("chi_or", chi=2), 3, None),
        (ClassKind("chi_or", chi=2), 3, (0, 1, 2)),  # part 1 left out
        (ClassKind("chi_or", chi=2), 3, (0, 2, 3, 5)),
        (ClassKind("chi_or", chi=3), 2, None),
        (ClassKind("chi_or", chi=3), 2, (0, 1, 4, 5)),  # part 1 left out
        (ClassKind("ceq"), 2, None),
        (ClassKind("ceq"), 3, None),
        (ClassKind("ceq"), 3, (0, 1, 2, 6, 7, 8)),  # block 1 left out
        (ClassKind("ceq"), 3, (1, 2, 3, 5, 7)),
        (ClassKind("or"), 4, None),
        (ClassKind("or"), 5, (0, 2, 3, 4)),
        (ClassKind("ordered_graph"), 5, None),
    ],
    ids=lambda v: v.label() if isinstance(v, ClassKind) else None,
)
def test_group_count_bound_matches_bigness_of_the_whole_suffix(cls, lam, within):
    # the reference is the bound the per-suffix counts gave: at node
    # (chosen, i) with nothing blocked, is all of chosen + elements[i:] big?
    # The walker's slack is nonnegative exactly then, and whichever `slack`
    # elements of it go, the rest stays big
    s = make_canonical(cls, lam)
    spec = cls.spec
    elements = list(range(s.size)) if within is None else list(within)
    rng = random.Random(7)
    cases = 0
    for level in range(4):
        slack = group_slack(s, level, elements)
        for chosen, i in _walk_states(elements):
            rest = chosen + elements[i:]
            want = spec.subset_big(s, rest, level)
            reach = sum(1 << elements.index(e) for e in chosen) | (-1 << i) & ((1 << len(elements)) - 1)
            room = slack(reach)
            assert (room >= 0) == want, (level, chosen, i)
            if want:
                lost = set(rng.sample(rest, min(room, len(rest))))
                assert spec.subset_big(s, [e for e in rest if e not in lost], level), (level, chosen, i, lost)
            cases += not want
    assert cases > 0


def test_group_counts_step_matches_a_recount():
    # the walker's step past element j lowers surplus[group[j]] by one, and
    # short rises by one when that surplus falls to -1: on random reaches
    # that must equal counting the reach without j afresh
    rng = random.Random(35)
    steps = over = 0
    for cls in SMALL_KINDS:
        spec = cls.spec
        for _ in range(6):
            s = random_member(cls, rng)
            elements = sorted(rng.sample(range(s.size), rng.randint(0, s.size)))
            for level in range(4):
                group, count = _group_counts(s, level, elements)
                if level and spec.groups(s) > 1:
                    assert group == [spec.group_of(s, e) for e in elements]
                # more groups needed than there are: short stays positive
                over += level > 0 and spec.needed(cls, level) > spec.groups(s)
                for _ in range(20):
                    reach = rng.getrandbits(len(elements))
                    if not reach:
                        continue
                    j = rng.choice([j for j in range(len(elements)) if reach >> j & 1])
                    surplus, short = count(reach)
                    surplus[group[j]] -= 1
                    short += surplus[group[j]] == -1
                    assert (surplus, short) == count(reach & ~(1 << j)), (cls.label(), s, level, reach, j)
                    steps += 1
    assert steps > 1000 and over > 0


def test_tree_ancestors_match_parent_links():
    for height, mu in ((1, 3), (2, 2), (3, 2)):
        s = make_canonical(ClassKind("n_tree", height=height), mu)
        for e in range(s.size):
            chain, p = [], s.parent[e]
            while p >= 0:
                chain.append(p)
                p = s.parent[p]
            assert list(tree_ancestors(s, e)) == chain


def test_induced_relabels_in_order():
    cls = ClassKind("ordered_graph")
    s = make_canonical(cls, 4)
    frag, back = induced_substructure(s, (1, 3))
    assert back == (1, 3)
    assert frag.size == 2
    assert frag.has_edge(0, 1) == s.has_edge(1, 3)


@pytest.mark.parametrize("subset", [(1,), (0, 2)])
def test_induced_refuses_a_non_positional_chi_color_subset(subset):
    # element i has colour i mod chi, so relabeled elements keep their
    # colours only when the subset's colours run 0, 1, 0, 1, ...
    s = make_canonical(ClassKind("chi_color", chi=2), 2)
    with pytest.raises(ValueError, match="subset does not induce a member of the class"):
        induced_substructure(s, subset)


def test_canonical_rejects_negative_level():
    with pytest.raises(ValueError, match="bigness level must be nonnegative"):
        make_canonical(ClassKind("or"), -1)


def test_embed_canonical_refuses_another_class_and_a_small_target():
    cls = ClassKind("or")
    assert embed_canonical(cls, 2, make_canonical(cls, 3)) == (0, 1)
    with pytest.raises(ValueError, match="target is from a different class"):
        embed_canonical(cls, 2, make_canonical(ClassKind("ceq"), 2))
    with pytest.raises(ValueError, match="target is not a mu-big member"):
        embed_canonical(cls, 3, make_canonical(cls, 2))


def test_canonical_chain_embeds():
    # the mu-canonical sits inside the (mu+1)-canonical as an induced fragment
    for cls in SMALL_KINDS:
        for mu in range(1, 3):
            small = make_canonical(cls, mu)
            big = make_canonical(cls, mu + 1)
            subset = _chain_subset(cls, mu)
            frag, _ = induced_substructure(big, subset)
            assert frag == small, (cls.label(), mu)


def _chain_subset(cls, mu):
    if cls.kind in ("or", "ordered_graph", "hypergraph"):
        return tuple(range(mu))
    if cls.kind == "chi_color":
        return tuple(range(cls.chi * mu))
    if cls.kind == "chi_or":
        return tuple(p * (mu + 1) + i for p in range(cls.chi) for i in range(mu))
    if cls.kind == "ceq":
        return tuple(b * (mu + 1) + i for b in range(mu) for i in range(mu))
    if cls.kind == "n_tree":
        big = make_canonical(cls, mu + 1)
        kids = tree_children(big)
        keep = []

        def walk(v):
            keep.append(v)
            for c in kids[v][:mu]:
                walk(c)

        walk(0)
        return tuple(sorted(keep))
    raise AssertionError(cls.kind)


def test_doc_roundtrip():
    for cls in SMALL_KINDS:
        for seed in range(10):
            s = random_member(cls, random.Random(seed))
            assert from_doc(to_doc(s)) == s


def test_block_and_hyper_lookups_keep_first_entry():
    # the lookup maps are built on first use, so malformed payloads still
    # construct; the first block or entry holding a key wins, and a missing
    # key raises ValueError
    s = FinStructure(ClassKind("ceq"), 4, blocks=((0, 1), (1, 2)))
    assert not is_member(s)
    assert [s.block_of(e) for e in range(3)] == [0, 0, 1]
    with pytest.raises(ValueError, match="element 3 in no block"):
        s.block_of(3)
    h = FinStructure(
        ClassKind("hypergraph", edge_arity=2, palette=3), 2, hyper=[((0,), 2), ((), 0), ((0,), 1)]
    )
    assert not is_member(h)
    assert h.hyper_color((0,)) == 1
    with pytest.raises(ValueError, match=r"no color stored for subset \(1,\)"):
        h.hyper_color((1,))


@pytest.mark.parametrize(
    "cls, key, path",
    [
        (ClassKind("chi_or", chi=2), "parts", (2,)),
        (ClassKind("n_tree", height=2), "tree_parent", (2,)),
        (ClassKind("n_tree", height=2), "levels", (1,)),
        (ClassKind("ceq"), "eq_blocks", (0, 1)),
        (ClassKind("ordered_graph"), "edges", (0, 1)),
        (ClassKind("hypergraph", edge_arity=2, palette=2), "hyper_colors", (2, 0, 0)),
        (ClassKind("hypergraph", edge_arity=2, palette=2), "hyper_colors", (1, 1)),
    ],
    ids=["chi_or", "n_tree-parent", "n_tree-levels", "ceq", "ordered_graph", "hypergraph-subset",
         "hypergraph-color"],
)
def test_payload_rejects_json_booleans(cls, key, path):
    # JSON true is a Python bool, an int subclass: payloads must still refuse
    # it in place of the integer 1
    doc = to_doc(make_canonical(cls, 2))
    *outer, last = path
    slot = doc["payload"][key]
    for i in outer:
        slot = slot[i]
    assert slot[last] == 1
    slot[last] = True
    with pytest.raises(ValueError, match=f"payload field '{key}' is malformed"):
        from_doc(doc)
    slot[last] = 1
    assert loads(dumps(from_doc(doc))) == make_canonical(cls, 2)


def test_members_refuse_booleans():
    assert not is_member(FinStructure(ClassKind("ceq"), 4, blocks=((0, True), (2, 3))))
    assert not is_member(FinStructure(ClassKind("chi_or", chi=2), 2, parts=(0, True)))
    assert not is_member(FinStructure(ClassKind("ordered_graph"), 2, edges={(0, True)}))
