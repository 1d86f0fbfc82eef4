"""Blueprints: coherence, term models, extraction, and the derive pipeline."""

import hashlib
import itertools
import json
import random
from collections import Counter

import pytest

from helpers import SMALL_KINDS, binary_blueprint, em_model_reference, fiber_target, incoherent_blueprint, unary_blueprint
from ramseylab.blueprints import (
    Blueprint,
    BlueprintDomainError,
    DeriveResult,
    EmModel,
    SupportOverflowError,
    check_coherence,
    check_indiscernible,
    coloring_target,
    derive_homogeneous,
    em_model,
    extract_blueprint,
)
from ramseylab.colorings import Coloring, find_type_homogeneous, random_coloring
from ramseylab.diagrams import (
    Diagram,
    OutputSignature,
    TargetStructure,
    app,
    enumerate_terms,
    model_diagram,
    var,
)
from ramseylab.structures import ClassKind, FinStructure, canonical_json, embeds_canonically, make_canonical, subset_is_big
from ramseylab.tuple_types import enumerate_types

OR = ClassKind("or")
UNARY = OutputSignature(functions=(("f", 1),))


def _unary_blueprint():
    return unary_blueprint()


def test_blueprint_validate_domain_coverage():
    bp = _unary_blueprint()
    bp.validate()
    with pytest.raises(ValueError):
        Blueprint(OR, UNARY, 2, 2, (1, 2), bp.assignments[:1]).validate()
    t1, d1 = bp.assignments[0]
    with pytest.raises(ValueError):
        # a diagram of the wrong arity under a domain type
        Blueprint(OR, UNARY, 1, 2, (1,), ((t1, bp.assignments[1][1]),)).validate()


def test_each_value_is_checked_once(monkeypatch):
    calls = []
    validate = Diagram.validate
    monkeypatch.setattr(Diagram, "validate", lambda d: calls.append(d) or validate(d))
    target, assignment = fiber_target(2, 0)
    # the builder guarantees what Diagram.validate would check
    model_diagram(target, assignment[:2], 2)
    assert calls == []
    bp = extract_blueprint(target, assignment, make_canonical(OR, 2), 2, 2, (1, 2)).blueprint
    # the constructor checks each assigned diagram, and nothing else does
    assert Counter(map(id, calls)) == Counter(id(d) for _, d in bp.assignments)
    calls.clear()
    em_model(bp, make_canonical(OR, 3))
    assert calls == []
    # a document is checked on load, each diagram once, by the constructor
    doc = bp.to_doc()
    loaded = Blueprint.from_doc(doc)
    assert len(calls) == 2
    assert Counter(map(id, calls)) == Counter(id(d) for _, d in loaded.assignments)
    doc["assignments"][0][1]["eq"][0] = 1
    with pytest.raises(ValueError, match="term 0 has representative 1 after it"):
        Blueprint.from_doc(doc)
    # and a hand-built blueprint when it is built
    with pytest.raises(ValueError, match="missing from assignments"):
        Blueprint(OR, bp.sig, 2, 2, (1, 2), bp.assignments[:1])


def test_blueprint_doc_roundtrip():
    bp = _unary_blueprint()
    assert Blueprint.from_doc(bp.to_doc()) == bp


def test_unary_blueprint_coherent():
    assert check_coherence(_unary_blueprint()) == []


def test_coherence_catches_mismatched_restriction():
    sig = OutputSignature(relations=(("U", 1),))
    t1 = enumerate_types(OR, 1, 1)[0]
    t2 = enumerate_types(OR, 2, 2)[0]
    d1 = Diagram(sig, 1, 0, (0,))
    d2 = Diagram(sig, 2, 0, (0, 1), frozenset({("U", (0,))}))
    bp = Blueprint(OR, sig, 2, 0, (1, 2), ((t1, d1), (t2, d2)))
    failures = check_coherence(bp)
    assert failures
    assert any(f["positions"] == [0] for f in failures)
    with pytest.raises(ValueError):
        em_model(bp, make_canonical(OR, 2))


def test_coherence_catches_a_restriction_outside_the_domain():
    bp = incoherent_blueprint()
    failures = check_coherence(bp)
    assert failures and {f["reason"] for f in failures} == {"restricted type outside domain"}
    with pytest.raises(ValueError, match="not coherent"):
        em_model(bp, make_canonical(bp.cls, 2))


def test_unary_model_three_elements():
    bp = _unary_blueprint()
    model = em_model(bp, make_canonical(OR, 2))
    assert model.target.size == 3
    e0, e1 = model.generator_images
    f = model.target.functions["f"]
    shared = f[(e0,)]
    assert f[(e1,)] == shared  # both generators hit the one extra point
    assert f[(shared,)] == shared  # and f fixes it
    assert check_indiscernible(model) == []


def test_unary_model_scales_linearly_in_nothing():
    # more generators still fold onto a single extra point
    bp = _unary_blueprint()
    model = em_model(bp, make_canonical(OR, 4))
    assert model.target.size == 5


def test_em_empty_index():
    bp = _unary_blueprint()
    model = em_model(bp, make_canonical(OR, 0))
    assert model.target.size == 0
    assert model.generator_images == ()


def test_em_rejects_wrong_class():
    bp = _unary_blueprint()
    with pytest.raises(ValueError):
        em_model(bp, make_canonical(ClassKind("ceq"), 2))


def test_em_and_extract_refuse_a_non_member_index():
    # blocks must be intervals, and (0, 2) is not one
    cls, sig = ClassKind("ceq"), OutputSignature()
    bad = FinStructure(cls, 3, blocks=((0, 2), (1,)))
    assignments = [
        (t, Diagram(sig, arity, 0, tuple(range(arity))))
        for arity, level in ((1, 1), (2, 2))
        for t in enumerate_types(cls, arity, level)
    ]
    bp = Blueprint(cls, sig, 2, 0, (1, 2), tuple(assignments))
    assert check_coherence(bp) == []
    with pytest.raises(ValueError, match="index structure is not a member of its class"):
        em_model(bp, bad)
    target, assignment = fiber_target(3, 0)
    with pytest.raises(ValueError, match="index structure is not a member of its class"):
        extract_blueprint(target, assignment, bad, 2, 2, (1, 2))


def test_em_support_overflow_on_binary_function():
    sig = OutputSignature(functions=(("g", 2),))
    t1 = enumerate_types(OR, 1, 1)[0]
    nterms = len(Diagram(sig, 1, 2, (0, 1, 2, 3, 4)).terms())
    assert nterms == 5
    d1 = Diagram(sig, 1, 2, (0, 1, 2, 3, 4))  # nothing collapses
    bp = Blueprint(OR, sig, 1, 2, (1,), ((t1, d1),))
    assert check_coherence(bp) == []
    with pytest.raises(SupportOverflowError):
        em_model(bp, make_canonical(OR, 2))


def test_em_domain_error_on_unseen_type():
    og = ClassKind("ordered_graph")
    sig = OutputSignature(relations=(("U", 1),))
    target = TargetStructure(sig, 2, {}, {"U": frozenset()}, {})
    report = extract_blueprint(target, (0, 1), make_canonical(og, 2), 2, 0, (2, 2))
    bp = report.blueprint
    assert bp is not None
    # the canonical two-vertex graph has an edge; this one does not
    bare = FinStructure(og, 2, edges=frozenset())
    with pytest.raises(BlueprintDomainError):
        em_model(bp, bare)


def test_check_indiscernible_flags_tampering():
    size, seed = 2, 4
    target, assignment = fiber_target(size, seed)
    index = make_canonical(OR, size)
    bp = extract_blueprint(target, assignment, index, 2, 2, (1, 2)).blueprint
    model = em_model(bp, index)
    assert check_indiscernible(model) == []
    rows = set(model.target.relations["U"])
    image = model.generator_images[0]
    rows ^= {(image,)}  # flip one unary fact on a generator image
    tampered = TargetStructure(
        model.target.sig,
        model.target.size,
        model.target.functions,
        {"R": model.target.relations["R"], "U": frozenset(rows)},
        model.target.constants,
    )
    bad = EmModel(bp, index, tampered, model.generator_images)
    assert check_indiscernible(bad)


def test_fiber_roundtrips():
    for size in (2, 3):
        for seed in range(5):
            target, assignment = fiber_target(size, seed)
            index = make_canonical(OR, size)
            report = extract_blueprint(target, assignment, index, 2, 2, (1, 2))
            bp = report.blueprint
            assert bp is not None
            assert all(st["action"] == "whole" for st in report.stages)
            model = em_model(bp, index)
            assert model.target.size == size * (size + 1)
            assert check_indiscernible(model) == []
            again = extract_blueprint(
                model.target, model.generator_images, index, 2, 2, (1, 2)
            )
            assert again.blueprint == bp


def test_extract_validation():
    target, assignment = fiber_target(2, 0)
    index = make_canonical(OR, 2)
    with pytest.raises(ValueError):
        extract_blueprint(target, (0,), index, 1, 1, (1,))  # short assignment
    with pytest.raises(ValueError):
        extract_blueprint(target, (0, 0), index, 1, 1, (1,))  # not injective
    with pytest.raises(ValueError):
        extract_blueprint(target, (0, 99), index, 1, 1, (1,))  # out of range
    with pytest.raises(ValueError):
        extract_blueprint(target, assignment, index, 2, 1, (1,))  # levels too short


def test_extract_search_stage_on_inhomogeneous_assignment():
    # point two generators at different fiber coordinates: arity-1 diagrams
    # then disagree and the search stage has to shrink the index
    target, _ = fiber_target(3, 1)
    index = make_canonical(OR, 3)
    assignment = (0, 4, 8)  # fiber coordinates 0, 0, 0 rotated differently
    report = extract_blueprint(target, assignment, index, 1, 1, (1,))
    assert report.status in ("found", "absent")
    if report.status == "found":
        actions = [st["action"] for st in report.stages]
        assert "search" in actions or actions == ["whole"]


def test_extract_absence_inside_a_narrowed_subset_is_not_exhaustive():
    # f(x) = 2x mod 40, E(a, b) iff 3 divides a - b, L the order: the arity-1
    # search keeps the lex-least homogeneous 3-subset, and the arity-2 search
    # inside it finds nothing, yet (1, 4, 10) is homogeneous at both arities
    n = 40
    sig = OutputSignature(functions=(("f", 1),), relations=(("E", 2), ("L", 2)))
    f = {(x,): 2 * x % n for x in range(n)}
    pairs = list(itertools.product(range(n), repeat=2))
    E = frozenset((a, b) for a, b in pairs if (a - b) % 3 == 0)
    L = frozenset((a, b) for a, b in pairs if a < b)
    target = TargetStructure(sig, n, {"f": f}, {"E": E, "L": L})
    for arity in (1, 2):
        diagrams = {model_diagram(target, tup, 1) for tup in itertools.combinations((1, 4, 10), arity)}
        assert len(diagrams) == 1
    report = extract_blueprint(target, tuple(range(n)), make_canonical(OR, n), 2, 1, (3, 3))
    assert report.status == "found" or not report.exhaustive
    if report.status == "absent":
        assert report.stages[0]["kept"] < n and report.stages[-1]["exhaustive"]


def test_coloring_target_shape():
    base = make_canonical(OR, 3)
    col = random_coloring(base, 2, 2, seed=0)
    target, assignment = coloring_target(col)
    assert assignment == (0, 1, 2)
    assert target.size == 3  # the index elements alone
    assert target.sig.relations == (("C0", 2), ("C1", 2))
    assert target.sig.constants == () and target.constants == {}
    for tup, c in col.table.items():
        assert tup in target.relations[f"C{c}"]
        assert tup not in target.relations[f"C{1 - c}"]


def test_derive_matches_search_on_seeded_colorings():
    for cls, mu in ((OR, 4), (OR, 5), (ClassKind("chi_or", chi=2), 2)):
        base = make_canonical(cls, mu)
        for seed in range(8):
            col = random_coloring(base, 2, 2, seed=seed)
            for level in (2, 3):
                res = find_type_homogeneous(col, level)
                der = derive_homogeneous(col, level)
                assert res.found == der.found, (cls.label(), mu, seed, level)
                if not res.found:
                    assert der.exhaustive == res.exhaustive
                elif der.subset != tuple(range(base.size)):
                    assert der.subset == res.subset
                    assert der.witness.entries == res.witness.entries
                else:
                    searched = dict(res.witness.entries)
                    whole = dict(der.witness.entries)
                    assert all(whole[t] == c for t, c in searched.items())


@pytest.mark.parametrize(
    "cls, ambient, level",
    [(OR, 6, 3), (ClassKind("chi_or", chi=2), 5, 2), (ClassKind("ceq"), 4, 2),
     (ClassKind("chi_color", chi=2), 6, 2)],
    ids=["or", "chi_or", "ceq", "chi_color"],
)
def test_derived_blueprints_stretch_to_every_index(cls, ambient, level):
    # a derived blueprint builds a faithful model on indices larger than
    # the coloring's arity, not only on the tuples it was read off
    base = make_canonical(cls, ambient)
    found = 0
    for seed in range(10):
        der = derive_homogeneous(random_coloring(base, 2, 2, seed=seed), level)
        if not der.found:
            continue
        found += 1
        for index_level in range(1, 7):
            model = em_model(der.blueprint, make_canonical(cls, index_level))
            assert check_indiscernible(model) == [], (seed, index_level)
    assert found


def test_derive_below_the_arity_realizes_every_domain_type():
    # below the arity the domain is what the canonical arity-big member
    # realizes, so each arity searches at that level: a subset too small to
    # realize a domain type is never accepted, and derive finds a subset
    # exactly where the search at the arity does
    rng = random.Random(29)
    found = absent = 0
    for cls in SMALL_KINDS:
        if not embeds_canonically(cls):
            continue
        for _ in range(12):
            arity = rng.randint(2, 3)
            level = rng.randint(1, arity - 1)
            base = make_canonical(cls, rng.randint(arity, 4))
            if base.size > 12:
                base = make_canonical(cls, arity)
            col = random_coloring(base, arity, 2, rng.randrange(10**6))
            der = derive_homogeneous(col, level)
            res = find_type_homogeneous(col, arity)
            # an absence above the level asked decides nothing at that level
            assert der.found == res.found == der.exhaustive, (cls.label(), base.size, arity, level)
            if der.found:
                assert subset_is_big(base, der.subset, arity)
            found += der.found
            absent += not der.found
    assert found and absent


def test_derive_constant_coloring_keeps_whole_base():
    base = make_canonical(ClassKind("chi_or", chi=2), 2)
    col = Coloring.from_function(base, 2, 2, lambda t: 1)
    der = derive_homogeneous(col, 2)
    assert der.found
    assert der.subset == tuple(range(base.size))
    assert {c for _, c in der.witness.entries} == {1}
    assert der.blueprint is not None
    assert check_coherence(der.blueprint) == []


def test_derive_absent_on_small_base():
    base = make_canonical(OR, 1)
    col = random_coloring(base, 2, 2, seed=5)
    der = derive_homogeneous(col, 2)
    assert not der.found and der.exhaustive
    res = find_type_homogeneous(col, 2)
    assert not res.found and res.exhaustive


def test_derive_finds_big_subtree_of_barren_tree():
    tree = ClassKind("n_tree", height=2)
    base = FinStructure(tree, 4, parent=(-1, 0, 1, 0), level=(0, 1, 2, 1))
    col = Coloring.from_function(base, 1, 1, lambda t: 0)
    der = derive_homogeneous(col, 1)
    res = find_type_homogeneous(col, 1)
    assert der.found and res.found
    assert der.subset == res.subset == (0, 1, 2)


def test_derive_requires_total_coloring():
    base = make_canonical(OR, 3)
    partial = Coloring(base, 2, 2, {(0, 1): 0})
    with pytest.raises(ValueError):
        derive_homogeneous(partial, 2)
    assert DeriveResult(None, None, None, [], True).found is False


def test_unary_blueprint_term_sanity():
    # the saturation the three-element model relies on, spelled out
    terms = Diagram(UNARY, 1, 2, (0, 1, 1)).terms()
    assert [t.spelling() for t in terms] == ["x0", "f(x0)", "f(f(x0))"]
    assert terms[2] == app("f", app("f", var(0)))


def test_em_congruence_merges_terms_of_different_generators():
    # f(x0) = f(f(f(c))) in the one unary diagram, so f(e0) = f(e1) in the
    # model, and only congruence across the two instantiated diagrams makes
    # f(f(e0)) = f(f(e1)): no single diagram holds both terms
    sig = OutputSignature(functions=(("f", 1),), constants=("c",))
    terms = enumerate_terms(sig, 1, 3)
    assert [t.spelling() for t in terms] == [
        "c", "x0", "f(c)", "f(x0)", "f(f(c))", "f(f(x0))", "f(f(f(c)))", "f(f(f(x0)))",
    ]
    diag = Diagram(sig, 1, 3, (0, 1, 2, 3, 4, 5, 3, 0))
    bp = Blueprint(OR, sig, 1, 3, (1,), ((enumerate_types(OR, 1, 1)[0], diag),))
    assert check_coherence(bp) == []
    model = em_model(bp, make_canonical(OR, 2))
    f = model.target.functions["f"]
    e0, e1 = model.generator_images
    assert e0 != e1 and f[(e0,)] == f[(e1,)]
    # generators, the three constant terms and the two shared classes
    assert model.target.size == 7
    assert f[(f[(f[(e0,)],)],)] == model.target.constants["c"]
    assert check_indiscernible(model) == []


def _collapsing_blueprint():
    # f(f(c)) = x0 and f(f(x0)) = c in the one unary diagram, so every
    # generator equals f(f(c)), and no model keeps two of them apart
    sig = OutputSignature(functions=(("f", 1),), constants=("c",))
    assert [t.spelling() for t in enumerate_terms(sig, 1, 2)] == [
        "c", "x0", "f(c)", "f(x0)", "f(f(c))", "f(f(x0))",
    ]
    diag = Diagram(sig, 1, 2, (0, 1, 2, 3, 1, 0))
    return Blueprint(OR, sig, 1, 2, (1,), ((enumerate_types(OR, 1, 1)[0], diag),))


def test_em_model_rejects_diagrams_that_identify_generators():
    bp = _collapsing_blueprint()
    assert check_coherence(bp) == []
    # one generator has nothing to collide with
    assert em_model(bp, make_canonical(OR, 1)).generator_images == (0,)
    with pytest.raises(ValueError, match="identify index elements 0 and 1"):
        em_model(bp, make_canonical(OR, 3))


def _model_sha256(bp, level):
    doc = em_model(bp, make_canonical(OR, level)).to_doc()
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@pytest.mark.parametrize(
    "size, seed, level, digest",
    [
        (2, 0, 3, "f366bca003efca81dc6215dae2e1ed8992d5794f03aa56e4925d0d9df1ef95c9"),
        (2, 1, 6, "124778e3b6bf07be0020878767e2899fb205992109b9ce15dd23ce149f114cd3"),
        (3, 0, 6, "02e352d58252e9c14bf06099e0a861d147c51ed76601b6daf92715f26601fe85"),
        (3, 2, 9, "6250cddf1bf6856a9385b74a6cc7a77612f1bba77b2360b047a890190b030fe8"),
        (4, 1, 4, "35ad2d7dd37e98d2b9724ebff3304c993a9f03cab13d420bef23e29364d99017"),
        (4, 2, 8, "635f1102ef5a56fffcb73048d947b0eb0f1594773c613b303959acf7ace4662b"),
    ],
)
def test_em_model_bytes_pinned_on_fiber_blueprints(size, seed, level, digest):
    # the model document, element numbering included, must not drift
    target, assignment = fiber_target(size, seed)
    bp = extract_blueprint(target, assignment, make_canonical(OR, size), 2, 2, (1, 2)).blueprint
    assert _model_sha256(bp, level) == digest


@pytest.mark.parametrize(
    "level, digest",
    [
        (0, "1a53fb64343263e23521217ded1cdf832d776028b50a2492baf047e07908adae"),
        (2, "28ba8ccedfc932b4ce89cc911a1e3f6a29ada951d2ece51891eeae94473e0e4a"),
        (5, "f590a7703b874d7cbd077c8c54cbf6632bf7857e8d9a4736ab3db6ca559d1cc9"),
    ],
)
def test_em_model_bytes_pinned_on_unary_blueprint(level, digest):
    assert _model_sha256(_unary_blueprint(), level) == digest


def test_em_model_bytes_pinned_on_binary_blueprint():
    # a binary function and a constant: g(e, e) = c, else the later argument
    digest = "a5cb1c4335eb2204808ed7061b18cc0b850810eea9b3d28c6c772e8a6d165d59"
    assert _model_sha256(binary_blueprint(), 5) == digest


def _em_outcome(build, bp, index):
    """The model document's canonical bytes, or the error's type and message."""
    try:
        return canonical_json(build(bp, index).to_doc())
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("size", [2, 3, 4])
def test_em_model_matches_the_nested_key_reference_on_fiber_blueprints(size):
    for seed in range(4):
        target, assignment = fiber_target(size, seed)
        bp = extract_blueprint(target, assignment, make_canonical(OR, size), 2, 2, (1, 2)).blueprint
        for level in range(13):
            index = make_canonical(OR, level)
            got = _em_outcome(em_model, bp, index)
            assert isinstance(got, str), (seed, level, got)
            assert got == _em_outcome(em_model_reference, bp, index), (seed, level)


@pytest.mark.parametrize("build", [unary_blueprint, binary_blueprint])
def test_em_model_matches_the_nested_key_reference_on_small_blueprints(build):
    bp = build()
    for level in range(13):
        index = make_canonical(OR, level)
        assert _em_outcome(em_model, bp, index) == _em_outcome(em_model_reference, bp, index), level


def _error_cases():
    """(blueprint, index) pairs on which em_model raises, one per error."""
    og = ClassKind("ordered_graph")
    edge_blind = OutputSignature(relations=(("U", 1),))
    target = TargetStructure(edge_blind, 2, {}, {"U": frozenset()}, {})
    domain = extract_blueprint(target, (0, 1), make_canonical(og, 2), 2, 0, (2, 2)).blueprint
    t1 = enumerate_types(OR, 1, 1)[0]
    g = OutputSignature(functions=(("g", 2),))
    function = Blueprint(OR, g, 1, 2, (1,), ((t1, Diagram(g, 1, 2, (0, 1, 2, 3, 4))),))
    r = OutputSignature(relations=(("R", 2),))
    relation = Blueprint(OR, r, 1, 0, (1,), ((t1, Diagram(r, 1, 0, (0,))),))
    return [
        pytest.param(domain, FinStructure(og, 2, edges=frozenset()), id="domain"),
        pytest.param(_collapsing_blueprint(), make_canonical(OR, 3), id="identified-generators"),
        pytest.param(function, make_canonical(OR, 2), id="function-overflow"),
        pytest.param(relation, make_canonical(OR, 2), id="relation-overflow"),
        pytest.param(binary_blueprint(), make_canonical(OR, 0), id="constant-overflow"),
        pytest.param(unary_blueprint(), make_canonical(ClassKind("ceq"), 2), id="wrong-class"),
    ]


@pytest.mark.parametrize("bp, index", _error_cases())
def test_em_model_raises_what_the_nested_key_reference_raises(bp, index):
    got = _em_outcome(em_model, bp, index)
    assert not isinstance(got, str)
    assert got == _em_outcome(em_model_reference, bp, index)


def test_check_indiscernible_refuses_an_index_of_another_class():
    model = em_model(unary_blueprint(), make_canonical(OR, 2))
    other = EmModel(model.blueprint, make_canonical(ClassKind("ceq"), 1), model.target, model.generator_images)
    with pytest.raises(ValueError, match="not in the blueprint's class"):
        check_indiscernible(other)


def test_em_support_overflow_on_uncovered_relation_slot():
    # unary diagrams decide R on (e, e) only; no diagram covers two generators
    sig = OutputSignature(relations=(("R", 2),))
    t1 = enumerate_types(OR, 1, 1)[0]
    bp = Blueprint(OR, sig, 1, 0, (1,), ((t1, Diagram(sig, 1, 0, (0,))),))
    assert check_coherence(bp) == []
    with pytest.raises(SupportOverflowError, match=r"'R' is undecided on \(0, 1\)"):
        em_model(bp, make_canonical(OR, 2))


def test_em_support_overflow_on_constant_over_empty_index():
    sig = OutputSignature(constants=("c",))
    t1 = enumerate_types(OR, 1, 1)[0]
    bp = Blueprint(OR, sig, 1, 0, (1,), ((t1, Diagram(sig, 1, 0, (0, 1))),))
    assert em_model(bp, make_canonical(OR, 1)).target.constants == {"c": 1}
    with pytest.raises(SupportOverflowError):
        em_model(bp, make_canonical(OR, 0))
