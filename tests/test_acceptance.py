"""End-to-end acceptance gate, one check per release criterion.

Each test prints a single `C<k> PASS ...` or `C<k> FAIL ...` line so the
suite output doubles as a sign-off sheet.  Checks run at full stated scale
and tolerance; nothing here is downsized.
"""

import itertools
import math
import random
import time

from helpers import SMALL_KINDS, brute_type_count, fiber_target, random_member
from ramseylab.arrow import ArrowQuery, arrow_check, verify_refutation
from ramseylab.blueprints import (
    check_coherence,
    check_indiscernible,
    derive_homogeneous,
    em_model,
    extract_blueprint,
)
from ramseylab.cli import main
from ramseylab.colorings import (
    Coloring,
    find_type_homogeneous,
    random_coloring,
    type_homogeneity_witness,
)
from ramseylab.reductions import reduce_ceq, reduce_chicolor
from ramseylab.structures import (
    ClassKind,
    FinStructure,
    is_member,
    make_canonical,
    subset_is_big,
)
from ramseylab.tuple_types import enumerate_types, restrict_type, tuple_type

OR = ClassKind("or")
TWO_PARTS = ClassKind("chi_or", chi=2)


def _stamp(capsys, label: str, body):
    try:
        detail = body()
    except BaseException as exc:
        with capsys.disabled():
            print(f"{label} FAIL {exc!r}")
        raise
    with capsys.disabled():
        print(f"{label} PASS {detail}")


def test_c1_finite_arrow_verdicts(capsys):
    def body():
        t0 = time.perf_counter()
        holds = arrow_check(ArrowQuery(OR, 6, 3, 2, 2), mode="exhaustive")
        failing = ArrowQuery(OR, 5, 3, 2, 2)
        fails = arrow_check(failing, mode="exhaustive")
        elapsed = time.perf_counter() - t0
        assert holds.status == "holds"
        assert holds.colorings_checked == 2 ** 15
        assert fails.status == "fails"
        assert fails.counterexample is not None
        assert verify_refutation(failing, fails.counterexample)
        assert elapsed < 60.0
        return (
            f"linear order: level 6 holds over {holds.colorings_checked} "
            f"colorings, level 5 fails with a verified witness, {elapsed:.2f}s"
        )

    _stamp(capsys, "C1", body)


def test_c2_two_part_pair_coloring(capsys):
    # color a pair by whether its elements share a part: the whole structure
    # is type-homogeneous, yet no mixed subset is classically monochromatic
    def body():
        t0 = time.perf_counter()
        base = make_canonical(TWO_PARTS, 3)
        table = {
            (i, j): 1 if base.part_of(i) == base.part_of(j) else 0
            for i, j in itertools.combinations(range(base.size), 2)
        }
        col = Coloring(base, 2, 2, table)
        witness = type_homogeneity_witness(col, tuple(range(base.size)))
        assert witness is not None
        assert len(witness.entries) == 3
        # sorted by type: within part 0, cross, within part 1
        assert [c for _, c in witness.entries] == [1, 0, 1]
        mixed = 0
        for r in range(3, base.size + 1):
            for sub in itertools.combinations(range(base.size), r):
                low = sum(1 for e in sub if base.part_of(e) == 0)
                high = len(sub) - low
                if min(low, high) < 1 or max(low, high) < 2:
                    continue
                mixed += 1
                colors = {table[p] for p in itertools.combinations(sub, 2)}
                assert len(colors) > 1, sub
        assert mixed == 40
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0
        return (
            f"3-entry witness on the whole structure; {mixed} mixed subsets, "
            f"none monochromatic, {elapsed:.3f}s"
        )

    _stamp(capsys, "C2", body)


def test_c3_type_space_counts(capsys):
    def body():
        for n in range(1, 7):
            assert len(enumerate_types(OR, n)) == 1
            assert brute_type_count(OR, n) == 1
        ceq = ClassKind("ceq")
        for n in range(1, 6):
            want = 2 ** (n - 1)
            assert len(enumerate_types(ceq, n)) == want
            assert brute_type_count(ceq, n) == want
        for chi in range(1, 5):
            cls = ClassKind("chi_or", chi=chi)
            for n in range(1, 5):
                want = math.comb(n + chi - 1, n)
                assert len(enumerate_types(cls, n)) == want
                assert brute_type_count(cls, n) == want
        og = ClassKind("ordered_graph")
        # pairs need a 3-element ambient before both edge patterns appear
        assert len(enumerate_types(og, 2, 3)) == 2
        assert brute_type_count(og, 2, 3) == 2
        return (
            "or 1, ceq 2^(n-1), chi_or C(n+chi-1, n), ordered graph 2; "
            "encoder matches brute force everywhere"
        )

    _stamp(capsys, "C3", body)


def test_c4_restriction_coherence(capsys):
    def body():
        rng = random.Random(20260822)
        cases = 0
        failures = 0
        while cases < 10000:
            cls = SMALL_KINDS[cases % len(SMALL_KINDS)]
            s = random_member(cls, rng, max_size=8)
            if s.size < 2:
                continue
            arity = rng.randrange(2, min(4, s.size) + 1)
            tup = tuple(sorted(rng.sample(range(s.size), arity)))
            k = rng.randrange(1, arity + 1)
            positions = tuple(sorted(rng.sample(range(arity), k)))
            sub = tuple(tup[i] for i in positions)
            if restrict_type(tuple_type(s, tup), positions) != tuple_type(s, sub):
                failures += 1
            cases += 1
        assert failures == 0
        return (
            f"{cases} randomized restriction cases over {len(SMALL_KINDS)} "
            f"class kinds, {failures} failures"
        )

    _stamp(capsys, "C4", body)


def test_c5_reduction_soundness(capsys):
    def body():
        t0 = time.perf_counter()
        unsound = 0
        exhausted = 0
        found = {}
        arms = (
            ("chi_color", make_canonical(ClassKind("chi_color", chi=2), 40), reduce_chicolor, 3),
            ("ceq", make_canonical(ClassKind("ceq"), 6), reduce_ceq, 2),
        )
        for name, base, reduce, level in arms:
            found[name] = 0
            for seed in range(100):
                col = random_coloring(base, 2, 2, seed)
                report = reduce(col, level)
                if report.subset is not None:
                    found[name] += 1
                    sound = type_homogeneity_witness(
                        col, report.subset
                    ) is not None and subset_is_big(base, report.subset, level)
                    if not sound:
                        unsound += 1
                elif report.exhaustive:
                    # an exhaustive absence must survive direct search
                    exhausted += 1
                    if find_type_homogeneous(col, level).found:
                        unsound += 1
        elapsed = time.perf_counter() - t0
        assert unsound == 0
        assert found["ceq"] >= 50
        assert elapsed < 300.0
        return (
            f"chi_color 100 colorings ({found['chi_color']} found), ceq 100 colorings "
            f"({found['ceq']} found), every returned subset re-verified, "
            f"{exhausted} exhaustive absences confirmed by direct search, "
            f"0 unsound, {elapsed:.1f}s"
        )

    _stamp(capsys, "C5", body)


def test_c6_blueprint_roundtrip(capsys):
    def body():
        index = make_canonical(OR, 2)
        for seed in range(50):
            target, assignment = fiber_target(2, seed)
            report = extract_blueprint(target, assignment, index, 2, 2, (1, 2))
            bp = report.blueprint
            assert bp is not None
            assert bp.n_max <= 3
            assert bp.depth <= 2
            assert len(bp.sig.functions) <= 2
            assert check_coherence(bp) == []
            model = em_model(bp, index)
            again = extract_blueprint(
                model.target, model.generator_images, index, 2, 2, (1, 2)
            )
            assert again.blueprint == bp
            assert check_indiscernible(model) == []
        return (
            "50 seeded blueprints: build the term model, re-extract the same "
            "diagrams on every realized type, coherent and faithful throughout"
        )

    _stamp(capsys, "C6", body)


def test_c7_derivation_matches_search(capsys):
    def body():
        bases = [FinStructure(OR, size) for size in range(1, 9)]
        for total in range(1, 9):
            for first in range(total + 1):
                parts = (0,) * first + (1,) * (total - first)
                s = FinStructure(TWO_PARTS, total, parts=parts)
                assert is_member(s)
                bases.append(s)
        def structured(s: FinStructure) -> list[Coloring]:
            pairs = list(itertools.combinations(range(s.size), 2))
            constant = Coloring(s, 2, 2, {p: 0 for p in pairs})
            if s.cls.kind == "chi_or":
                split = {
                    (i, j): 1 if s.part_of(i) == s.part_of(j) else 0
                    for i, j in pairs
                }
            else:
                split = {(i, j): (j - i) % 2 for i, j in pairs}
            return [constant, Coloring(s, 2, 2, split)]

        runs = 0
        found = 0
        for s in bases:
            colorings = [random_coloring(s, 2, 2, seed) for seed in range(5)]
            colorings.extend(structured(s))
            for level in (2, 3):
                for col in colorings:
                    derived = derive_homogeneous(col, level)
                    searched = find_type_homogeneous(col, level)
                    assert searched.exhaustive
                    assert derived.found == searched.found, (
                        s.cls.kind,
                        s.size,
                        level,
                    )
                    runs += 1
                    if derived.found:
                        found += 1
                        for subset in (derived.subset, searched.subset):
                            assert type_homogeneity_witness(col, subset) is not None
                            assert subset_is_big(s, subset, level)
        assert runs == len(bases) * 2 * 7
        return (
            f"{len(bases)} bases of size <= 8, {runs} derive/search pairs "
            f"agree exactly ({found} found, both outputs verified)"
        )

    _stamp(capsys, "C7", body)


def test_c8_cli_determinism(capsys, tmp_path):
    def body():
        seeded = [
            (
                "arrow", "--cls", "or", "--ambient", "5", "--sub", "3",
                "-n", "2", "-c", "2", "--mode", "counterexample",
                "--seed", "3", "--json",
            ),
            (
                "arrow", "--cls", "or", "--ambient", "5", "--sub", "3",
                "-n", "2", "-c", "2", "--mode", "randomized",
                "--seed", "11", "--samples", "60", "--json",
            ),
            (
                "reduce", "--cls", "chi_color:2", "--level", "2",
                "--ambient", "6", "--seed", "7", "--json",
            ),
            (
                "reduce", "--cls", "ceq", "--level", "2",
                "--ambient", "2", "--seed", "15", "--json",
            ),
            (
                "extract", "--cls", "chi_or:2", "--level", "2",
                "--ambient", "3", "--seed", "5", "--json",
            ),
            (
                "table", "--cls", "or", "-n", "2", "-c", "2",
                "--sub-levels", "1,2", "--ambient-levels", "1,2,3",
                "--mode", "randomized", "--seed", "4", "--json",
            ),
        ]
        for argv in seeded:
            first_code = main(list(argv))
            first = capsys.readouterr().out
            second_code = main(list(argv))
            second = capsys.readouterr().out
            assert first_code == second_code, argv[0]
            assert first.encode() == second.encode(), argv[0]
        out_path = tmp_path / "report.json"
        argv = [
            "arrow", "--cls", "or", "--ambient", "4", "--sub", "3",
            "-n", "2", "-c", "2", "--mode", "counterexample",
            "--seed", "9", "--json", "--out", str(out_path),
        ]
        code_a = main(list(argv))
        capsys.readouterr()
        first_bytes = out_path.read_bytes()
        code_b = main(list(argv))
        capsys.readouterr()
        assert code_a == code_b
        assert out_path.read_bytes() == first_bytes
        return f"{len(seeded) + 1} seeded invocations repeated byte-identically"

    _stamp(capsys, "C8", body)
