"""Terms, diagrams, target structures, and diagram extraction."""

import itertools
import random

import pytest

from helpers import fiber_target
from ramseylab.diagrams import (
    Diagram,
    OutputSignature,
    TargetStructure,
    app,
    const,
    enumerate_terms,
    model_diagram,
    term_program,
    var,
)

UNARY = OutputSignature(functions=(("f", 1),))
UNARY_REL = OutputSignature(functions=(("f", 1),), relations=(("R", 1),))
BINARY = OutputSignature(functions=(("g", 2),), relations=(("R", 2),), constants=("k",))


def test_term_basics():
    assert var(0).spelling() == "x0"
    assert const("k").spelling() == "k"
    t = app("f", var(1))
    assert t.spelling() == "f(x1)"
    assert t.depth() == 1
    assert app("f", t).depth() == 2
    assert var(0).is_var() and not t.is_var()


def test_term_sort_key_orders_by_depth_then_spelling():
    sig = OutputSignature(functions=(("f", 1),), constants=("k",))
    terms = enumerate_terms(sig, 1, 2)
    assert [t.spelling() for t in terms] == [
        "k",
        "x0",
        "f(k)",
        "f(x0)",
        "f(f(k))",
        "f(f(x0))",
    ]
    keys = [t.sort_key() for t in terms]
    assert keys == sorted(keys)


def test_enumerate_terms_depth_zero_and_growth():
    assert [t.spelling() for t in enumerate_terms(UNARY, 2, 0)] == ["x0", "x1"]
    assert len(enumerate_terms(UNARY, 2, 1)) == 4
    assert len(enumerate_terms(UNARY, 2, 2)) == 6
    binary = OutputSignature(functions=(("g", 2),))
    assert [t.spelling() for t in enumerate_terms(binary, 1, 1)] == [
        "x0",
        "g(x0,x0)",
    ]
    # depth two applies g to every ordered pair of depth-logical-one terms
    assert len(enumerate_terms(binary, 1, 2)) == 2 + 3
    # two binary functions and a constant: 2 terms at depth 0, 2 * 2^2 at
    # depth 1 and 2 * (10^2 - 2^2) at depth 2, none built twice
    two = OutputSignature(functions=(("g", 2), ("h", 2)), constants=("k",))
    terms = enumerate_terms(two, 1, 2)
    assert len(terms) == len(set(terms)) == len({t.spelling() for t in terms}) == 2 + 8 + 192


def test_enumerate_terms_cached():
    assert enumerate_terms(UNARY, 2, 2) is enumerate_terms(UNARY, 2, 2)


@pytest.mark.parametrize("arity, depth", [(-1, 0), (1, -1)])
def test_enumerate_terms_rejects_negative_arity_and_depth(arity, depth):
    with pytest.raises(ValueError, match="arity and depth must be nonnegative"):
        enumerate_terms(UNARY, arity, depth)


def test_target_rejects_negative_size():
    with pytest.raises(ValueError, match="size must be nonnegative"):
        TargetStructure(OutputSignature(), -1)


def test_signature_validation():
    with pytest.raises(ValueError):
        OutputSignature(functions=(("f", 1), ("f", 2)))
    with pytest.raises(ValueError):
        OutputSignature(relations=(("x1", 1),))  # clashes with variables
    with pytest.raises(ValueError):
        OutputSignature(functions=(("f", 0),))
    sig = OutputSignature(constants=("b", "a"))
    assert sig.constants == ("a", "b")  # normalized order
    assert OutputSignature.from_doc(sig.to_doc()) == sig


def test_diagram_validation():
    terms = enumerate_terms(UNARY, 1, 2)  # x0, f(x0), f(f(x0))
    good = Diagram(UNARY, 1, 2, (0, 1, 1))
    good.validate()
    with pytest.raises(ValueError):
        Diagram(UNARY, 1, 2, (0, 1)).validate()  # wrong length
    with pytest.raises(ValueError):
        Diagram(UNARY, 1, 2, (0, 1, 2, 2)).validate()
    with pytest.raises(ValueError):
        Diagram(UNARY, 1, 2, (0, 2, 2)).validate()  # rep points forward
    assert len(terms) == 3


def test_diagram_congruence_enforced():
    # once f(x0) falls into the class of x0, f(f(x0)) must follow
    with pytest.raises(ValueError):
        Diagram(UNARY, 1, 2, (0, 0, 2)).validate()
    Diagram(UNARY, 1, 2, (0, 0, 0)).validate()


def test_diagram_distinct_variables_stay_distinct():
    with pytest.raises(ValueError):
        Diagram(UNARY, 2, 0, (0, 0)).validate()


def test_diagram_congruence_enforced_through_a_binary_function():
    # g is the first projection and k names 1, so g(x0,x0) = x0 at x0 = 0
    target = TargetStructure(
        BINARY, 2, {"g": {(x, y): x for x in range(2) for y in range(2)}}, {"R": frozenset()}, {"k": 1}
    )
    good = model_diagram(target, (0,), 2)
    at = {t.spelling(): i for i, t in enumerate(good.terms())}
    assert good.eq_reps[at["g(x0,x0)"]] == at["x0"]
    # g(g(x0,x0),k) has the argument classes of g(x0,k), so it must join it
    eq = list(good.eq_reps)
    eq[at["g(g(x0,x0),k)"]] = at["g(g(x0,x0),k)"]
    with pytest.raises(ValueError, match=r"terms g\(x0,k\) and g\(g\(x0,x0\),k\) break congruence"):
        Diagram(BINARY, 1, 2, tuple(eq)).validate()


def test_diagram_variable_represented_by_a_constant_is_rejected():
    assert [t.spelling() for t in enumerate_terms(BINARY, 2, 0)] == ["k", "x0", "x1"]
    Diagram(BINARY, 2, 0, (0, 1, 2)).validate()
    with pytest.raises(ValueError, match="distinct variables may not share a class"):
        Diagram(BINARY, 2, 0, (0, 1, 0)).validate()


@pytest.mark.parametrize("name", ["k", "z"])
def test_variable_sharing_a_constants_class_is_rejected_whatever_its_spelling(name):
    # k sorts before x0 and z after it; neither may share x0's class
    sig = OutputSignature(functions=(("f", 1),), constants=(name,))
    Diagram(sig, 1, 0, (0, 1)).validate()
    with pytest.raises(ValueError, match="distinct variables may not share a class"):
        Diagram(sig, 1, 0, (0, 0)).validate()
    # the constant names element 0, and f swaps 0 and 1
    target = TargetStructure(sig, 2, {"f": {(0,): 1, (1,): 0}}, {}, {name: 0})
    with pytest.raises(ValueError, match="distinct variables may not share a class"):
        model_diagram(target, (0,), 0)
    assert model_diagram(target, (1,), 0).eq_reps == (0, 1)
    # a variable equal to an application of the constant stays legal
    d = model_diagram(target, (1,), 1)
    at = {t.spelling(): i for i, t in enumerate(d.terms())}
    assert d.eq_reps[at[f"f({name})"]] == d.eq_reps[at["x0"]]


def test_diagram_atom_validation():
    with pytest.raises(ValueError):
        Diagram(UNARY_REL, 1, 1, (0, 1), frozenset({("S", (0,))})).validate()
    with pytest.raises(ValueError):
        Diagram(UNARY_REL, 1, 1, (0, 1), frozenset({("R", (0, 1))})).validate()
    with pytest.raises(ValueError):
        # index 1 is fine, only representatives may carry atoms
        Diagram(UNARY_REL, 1, 2, (0, 1, 1), frozenset({("R", (2,))})).validate()
    Diagram(UNARY_REL, 1, 2, (0, 1, 1), frozenset({("R", (1,))})).validate()


def test_target_validation():
    sig = UNARY_REL
    with pytest.raises(ValueError):
        TargetStructure(sig, 2, {"f": {(0,): 1}}, {"R": frozenset()}, {})  # partial f
    with pytest.raises(ValueError):
        TargetStructure(sig, 2, {"f": {(0,): 1, (1,): 2}}, {"R": frozenset()}, {})
    with pytest.raises(ValueError):
        TargetStructure(sig, 2, {"f": {(0,): 0, (1,): 0}}, {"R": frozenset({(2,)})}, {})
    with pytest.raises(ValueError):
        TargetStructure(sig, 2, {"f": {(0,): 0, (1,): 0}}, {}, {})  # missing R
    ok = TargetStructure(sig, 2, {"f": {(0,): 1, (1,): 0}}, {"R": frozenset({(1,)})}, {})
    assert ok.eval_term(app("f", var(0)), (0,)) == 1
    assert ok.relations["R"] == {(1,)}
    consts = OutputSignature(constants=("c",))
    assert TargetStructure(consts, 2, {}, {}, {"c": 1}).constants == {"c": 1}
    with pytest.raises(ValueError, match="constant symbols do not match the signature"):
        TargetStructure(consts, 2, {}, {}, {})
    for val in (2, -1):
        with pytest.raises(ValueError, match="constant 'c' outside universe"):
            TargetStructure(consts, 2, {}, {}, {"c": val})


def test_target_doc_roundtrip():
    t = TargetStructure(
        UNARY_REL, 3, {"f": {(0,): 1, (1,): 2, (2,): 0}}, {"R": frozenset({(2,)})}, {}
    )
    back = TargetStructure.from_doc(t.to_doc())
    assert back.size == t.size
    assert back.functions == t.functions
    assert back.relations == t.relations


def test_model_diagram_frozen_swap():
    t = TargetStructure(
        UNARY_REL, 2, {"f": {(0,): 1, (1,): 0}}, {"R": frozenset({(0,)})}, {}
    )
    d = model_diagram(t, (0,), 2)
    assert d.eq_reps == (0, 1, 0)  # f(f(x0)) returns to x0
    assert d.true_atoms == frozenset({("R", (0,))})


def test_model_diagram_needs_distinct_values():
    t = TargetStructure(UNARY, 2, {"f": {(0,): 0, (1,): 1}}, {}, {})
    with pytest.raises(ValueError):
        model_diagram(t, (0, 0), 1)


@pytest.mark.parametrize("depth", [0, 1])
@pytest.mark.parametrize("values", [(5,), (0, 2), (-1,)])
def test_model_diagram_refuses_values_outside_the_target(depth, values):
    # depth 0 reads relations alone, depth 1 the function table too
    t = TargetStructure(UNARY_REL, 2, {"f": {(0,): 1, (1,): 0}}, {"R": frozenset({(0,)})}, {})
    with pytest.raises(ValueError, match=r"universe 0\.\.1"):
        model_diagram(t, values, depth)


def _random_target(rng, size=5):
    sig = OutputSignature(functions=(("f", 1),), relations=(("R", 2), ("U", 1)))
    f = {(x,): rng.randrange(size) for x in range(size)}
    pairs = frozenset(
        (x, y) for x in range(size) for y in range(size) if rng.randrange(2)
    )
    ones = frozenset((x,) for x in range(size) if rng.randrange(2))
    return TargetStructure(sig, size, {"f": f}, {"R": pairs, "U": ones}, {})


def test_restrict_commutes_with_model_diagram():
    # the binary target's constant and two-argument applications rename
    # through rows whose arguments are other renamed rows
    for seed, make_target in itertools.product(range(20), (_random_target, _binary_target)):
        rng = random.Random(seed)
        t = make_target(rng, size=5)
        # a generator may not share the value of a constant
        free = [x for x in range(t.size) if x not in t.constants.values()]
        values = tuple(rng.sample(free, 3))
        d = model_diagram(t, values, 2)
        for k in (1, 2):
            for positions in itertools.combinations(range(3), k):
                sub = tuple(values[i] for i in positions)
                assert d.restrict(positions) == model_diagram(t, sub, 2), (
                    seed,
                    positions,
                )


def test_restrict_validates_positions():
    t = _random_target(random.Random(0))
    d = model_diagram(t, (0, 1), 1)
    with pytest.raises(ValueError):
        d.restrict(())
    with pytest.raises(ValueError):
        d.restrict((1, 0))
    with pytest.raises(ValueError):
        d.restrict((0, 2))
    with pytest.raises(ValueError, match="outside arity 2"):
        d.restrict((-1, 0))
    with pytest.raises(ValueError, match="not strictly increasing"):
        d.restrict((0, 0))


def test_diagram_doc_roundtrip():
    t = _random_target(random.Random(3))
    d = model_diagram(t, (0, 2, 4), 1)
    back = Diagram.from_doc(d.to_doc(), t.sig)
    assert back == d


def _reference_diagram(target, values, depth):
    """The slow path: every term evaluated by recursion over its tree."""
    terms = enumerate_terms(target.sig, len(values), depth)
    evals = [target.eval_term(t, values) for t in terms]
    first = {}
    eq = tuple(first.setdefault(v, i) for i, v in enumerate(evals))
    atoms = frozenset(
        (rname, combo)
        for rname, rarity in target.sig.relations
        for combo in itertools.product(first.values(), repeat=rarity)
        if tuple(evals[i] for i in combo) in target.relations[rname]
    )
    return Diagram(target.sig, len(values), depth, eq, atoms)


def _binary_target(rng, size=4):
    g = {(x, y): rng.randrange(size) for x in range(size) for y in range(size)}
    pairs = frozenset(
        (x, y) for x in range(size) for y in range(size) if rng.randrange(2)
    )
    return TargetStructure(BINARY, size, {"g": g}, {"R": pairs}, {"k": rng.randrange(size)})


def test_term_program_rows_follow_the_terms():
    sigs = (UNARY_REL, BINARY, fiber_target(2, 0)[0].sig)
    for sig, arity, depth in itertools.product(sigs, (1, 2), (0, 1, 2)):
        terms = enumerate_terms(sig, arity, depth)
        program = term_program(sig, arity, depth)
        assert len(program) == len(terms)
        for i, (t, (head, v, args)) in enumerate(zip(terms, program)):
            assert (head, v) == (t.head, t.index)
            assert all(a < i for a in args)
            assert tuple(terms[a] for a in args) == t.args


def test_model_diagram_matches_recursive_evaluation():
    cases = []
    for seed in range(3):
        target, _ = fiber_target(2 + seed % 2, seed)
        cases += [(target, arity, depth) for arity in (1, 2, 3) for depth in range(4)]
        target = _binary_target(random.Random(seed))
        cases += [(target, 1, depth) for depth in range(4)]
        # pairs stop at depth 2: depth 3 has 21,612 terms over g
        cases += [(target, 2, depth) for depth in range(3)]
    for target, arity, depth in cases:
        rng = random.Random(arity * 10 + depth)
        # a generator may not share the value of a constant
        free = [x for x in range(target.size) if x != target.constants.get("k")]
        for _ in range(3):
            values = tuple(rng.sample(free, arity))
            want = _reference_diagram(target, values, depth)
            want.validate()
            assert model_diagram(target, values, depth) == want, (arity, depth, values)
