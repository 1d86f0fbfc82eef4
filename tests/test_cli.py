"""Command line interface: exit codes, envelopes, reproducibility."""

import json

import pytest

from helpers import unary_blueprint
from ramseylab import __version__, arrow, colorings
from ramseylab.blueprints import Blueprint
from ramseylab.cli import build_parser, main, parse_class
from ramseylab.colorings import Coloring
from ramseylab.diagrams import Diagram, OutputSignature
from ramseylab.structures import ClassKind, FinStructure, make_canonical
from ramseylab.tuple_types import enumerate_types


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_class_shorthand():
    assert parse_class("or") == ClassKind("or")
    assert parse_class("chi_or:3") == ClassKind("chi_or", chi=3)
    assert parse_class("n_tree:2") == ClassKind("n_tree", height=2)
    assert parse_class("hypergraph:2:3") == ClassKind(
        "hypergraph", edge_arity=2, palette=3
    )
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        parse_class("chi_or")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_class("banana")


def test_bad_class_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["types", "--cls", "banana", "-n", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_types_text_and_json(capsys):
    code, out = run(capsys, "types", "--cls", "chi_or:2", "-n", "2")
    assert code == 0
    assert out.startswith("3 types of arity 2")
    code, out = run(capsys, "types", "--cls", "chi_or:2", "-n", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["tool"] == "ramseylab"
    assert doc["command"] == "types"
    assert doc["result"]["count"] == 3
    assert len(doc["result"]["types"]) == 3


def test_parser_is_shared_and_no_flag_carries_over(capsys):
    # one parser serves every main call; each call starts from the defaults
    assert build_parser() is build_parser()
    arrow = ["arrow", "--cls", "or", "--ambient", "5", "--sub", "3", "-n", "2", "-c", "2"]
    code, out = run(capsys, *arrow, "--mode", "counterexample", "--budget", "3", "--json")
    assert code == 2
    params = json.loads(out)["result"]["params"]
    assert (params["mode"], params["budget"]) == ("counterexample", 3)
    code, out = run(capsys, *arrow)
    assert code == 1
    assert out.startswith("fails (exhaustive;")
    code, out = run(capsys, *arrow, "--json")
    params = json.loads(out)["result"]["params"]
    assert (params["mode"], params["budget"]) == ("exhaustive", None)


def test_arrow_exit_codes(capsys):
    code, _ = run(capsys, "arrow", "--cls", "or", "--ambient", "6", "--sub", "3", "-n", "2", "-c", "2")
    assert code == 0
    code, _ = run(capsys, "arrow", "--cls", "or", "--ambient", "5", "--sub", "3", "-n", "2", "-c", "2")
    assert code == 1
    code, _ = run(
        capsys,
        "arrow", "--cls", "or", "--ambient", "6", "--sub", "3", "-n", "2", "-c", "2",
        "--mode", "randomized", "--samples", "10",
    )
    assert code == 2


def test_counterexample_exit_codes_follow_the_pool(tmp_path, capsys):
    # an empty pool refutes, as the exhaustive mode does; a pool over the
    # bound gives unknown; both reports re-verify
    for argv, want in [
        (("--cls", "or", "--ambient", "2", "--sub", "3"), 1),
        (("--cls", "ceq", "--ambient", "8", "--sub", "3"), 2),
    ]:
        path = tmp_path / "report.json"
        argv = ("arrow", *argv, "-n", "2", "-c", "2", "--mode", "counterexample")
        assert main([*argv, "--json", "--out", str(path)]) == want
        assert run(capsys, "check", "--report", str(path))[0] == 0


def test_arrow_json_repeatable(capsys):
    argv = [
        "arrow", "--cls", "or", "--ambient", "5", "--sub", "3", "-n", "2", "-c", "2",
        "--mode", "counterexample", "--seed", "9", "--json",
    ]
    code1, out1 = run(capsys, *argv)
    code2, out2 = run(capsys, *argv)
    assert code1 == code2
    assert out1 == out2  # identical bytes for identical invocations
    doc = json.loads(out1)
    assert doc["argv"] == argv
    assert doc["result"]["verdict"]["status"] == "fails"


def test_out_file_stable(tmp_path, capsys):
    path = tmp_path / "report.json"
    argv = [
        "arrow", "--cls", "or", "--ambient", "6", "--sub", "3", "-n", "2", "-c", "2",
        "--json", "--out", str(path),
    ]
    assert main(argv) == 0
    first = path.read_bytes()
    assert main(argv) == 0
    assert path.read_bytes() == first
    capsys.readouterr()


def test_check_verifies_and_catches_tampering(tmp_path, capsys):
    path = tmp_path / "arrow.json"
    main([
        "arrow", "--cls", "or", "--ambient", "5", "--sub", "3", "-n", "2", "-c", "2",
        "--json", "--out", str(path),
    ])
    code, out = run(capsys, "check", "--report", str(path))
    assert code == 0
    assert "verified" in out
    doc = json.loads(path.read_text())
    doc["result"]["verdict"]["status"] = "holds"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "check", "--report", str(path))
    assert code == 1
    assert "does not re-verify" in out


@pytest.mark.parametrize(
    "tamper, where",
    [
        (lambda rep: rep["stages"][3].update(name="block_search"), "result.report.stages[3].name"),
        (lambda rep: rep["stages"].pop(), "result.report.stages[3]"),
        (lambda rep: rep.pop("work"), "result.report.work"),
    ],
    ids=["stage-name", "stage-dropped", "field-dropped"],
)
def test_check_names_first_difference_of_reduce_report(tmp_path, capsys, tamper, where):
    path = tmp_path / "reduce.json"
    main([
        "reduce", "--cls", "chi_color:2", "--level", "2", "--ambient", "4", "--seed", "0",
        "--json", "--out", str(path),
    ])
    doc = json.loads(path.read_text())
    assert [st["name"] for st in doc["result"]["report"]["stages"]] == ["aux", "aux_search", "lift", "direct"]
    tamper(doc["result"]["report"])
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "check", "--report", str(path))
    assert code == 1
    assert out == f"report does not re-verify (reduce): first difference at {where}\n"
    argv = ["check", "--report", str(path), "--json"]
    code, out = run(capsys, *argv)
    assert code == 1
    assert json.loads(out) == {
        "tool": "ramseylab", "version": __version__, "command": "check", "argv": argv,
        "result": {"verified": False, "command": "reduce"},
    }


def test_check_rejects_boolean_in_report_payload(tmp_path, capsys):
    # JSON true equals 1 in Python; the stored base must still be refused
    path = tmp_path / "reduce.json"
    main([
        "reduce", "--cls", "ceq", "--level", "2", "--ambient", "2", "--seed", "15",
        "--json", "--out", str(path),
    ])
    capsys.readouterr()
    doc = json.loads(path.read_text())
    blocks = doc["result"]["params"]["coloring"]["base"]["payload"]["eq_blocks"]
    assert blocks == [[0, 1], [2, 3]]
    blocks[0][1] = True
    path.write_text(json.dumps(doc))
    code = main(["check", "--report", str(path)])
    assert code == 3
    assert "ceq payload field 'eq_blocks' is malformed" in capsys.readouterr().err


def test_check_rejects_unknown_command(tmp_path, capsys):
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps({"command": "zzz", "result": {"params": {}}}))
    code, _ = run(capsys, "check", "--report", str(path))
    assert code == 3


def test_check_missing_file(capsys):
    code, _ = run(capsys, "check", "--report", "/nonexistent/report.json")
    assert code == 3


def test_check_rejects_deeply_nested_json_exits_3(tmp_path, capsys):
    # json.load raises RecursionError on such input; every file loader must
    # turn it into exit 3, not a traceback and exit 1
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    for argv in (
        ["check", "--report", str(path)],
        ["reduce", "--cls", "ceq", "--level", "2", "--coloring", str(path)],
        ["em", "--blueprint", str(path), "--level", "1"],
    ):
        assert main(argv) == 3
        assert "nested too deeply" in capsys.readouterr().err


def test_reduce_found_and_absent(tmp_path, capsys):
    base = make_canonical(ClassKind("chi_color", chi=2), 3)
    constant = Coloring.from_function(base, 2, 2, lambda t: 0)
    path = tmp_path / "col.json"
    path.write_text(json.dumps(constant.to_doc()))
    code, out = run(
        capsys,
        "reduce", "--cls", "chi_color:2", "--level", "2", "--coloring", str(path),
    )
    assert code == 0
    assert "found subset" in out

    # at seed 0 direct search finds no 2-big homogeneous subset either
    code, out = run(
        capsys,
        "reduce", "--cls", "ceq", "--level", "2", "--ambient", "2", "--seed", "0",
    )
    assert code == 2
    assert out.endswith("stage direct: absent (work 8)\nabsent (exhaustive)\n")


def test_reduce_class_mismatch(tmp_path, capsys):
    base = make_canonical(ClassKind("ceq"), 2)
    col = Coloring.from_function(base, 2, 2, lambda t: 0)
    path = tmp_path / "ceq.json"
    path.write_text(json.dumps(col.to_doc()))
    code, _ = run(capsys, "reduce", "--cls", "chi_color:2", "--level", "1", "--coloring", str(path))
    assert code == 3


def test_reduce_rejects_plain_orders(capsys):
    code = main(["reduce", "--cls", "or", "--level", "1"])
    assert code == 3
    assert "chi_color or ceq" in capsys.readouterr().err


def test_reduce_seeded_ceq(capsys):
    code, out = run(
        capsys,
        "reduce", "--cls", "ceq", "--level", "2", "--ambient", "2", "--seed", "15",
    )
    assert code == 0  # seed 15 aligns the cross pairs at this size
    assert "stage lift: ok" in out
    assert out.endswith("found subset [0, 1, 2, 3]\n")


def test_extract_exit_codes(capsys):
    code, out = run(
        capsys, "extract", "--cls", "or", "--level", "2", "--ambient", "4", "--seed", "0"
    )
    assert code == 0
    assert "found subset" in out
    code, out = run(
        capsys, "extract", "--cls", "or", "--level", "2", "--ambient", "1", "--seed", "0"
    )
    assert code == 2
    # a level below the arity is fine where the domains close under restriction
    code, out = run(
        capsys, "extract", "--cls", "or", "--level", "2", "-n", "3", "--ambient", "3"
    )
    assert code == 0
    assert "found subset [0, 1, 2]" in out


@pytest.mark.parametrize(
    "argv, want",
    [
        ("--cls or --level 1 -n 2 --ambient 4 --seed 0", 0),
        ("--cls or --level 2 -n 3 --ambient 4 --seed 0", 0),
        # no 2-big subtree of the 2-big tree is homogeneous on pairs
        ("--cls n_tree:2 --level 1 -n 2 --ambient 2 --seed 0", 2),
        # nor any 2-big ceq subset, though the homogeneous (0, 1, 2) realizes
        # both pair types: the absence above --level is not exhaustive
        ("--cls ceq --level 1 -n 2 --ambient 2 --seed 0", 2),
    ],
)
def test_extract_below_the_arity_searches_what_the_domain_reads(tmp_path, capsys, argv, want):
    # a subset big only at the level asked may realize no tuple of a domain
    # type; the search asks for one big enough to realize them all
    out = tmp_path / "extract.json"
    assert main(["extract", *argv.split(), "--json", "--out", str(out)]) == want
    assert json.loads(out.read_text())["result"]["derivation"]["exhaustive"] == (want == 0)
    assert run(capsys, "check", "--report", str(out))[0] == 0
    text = run(capsys, "extract", *argv.split())[1]
    assert ("found subset" in text) if want == 0 else text == "absent (exhaustive only above --level)\n"


def test_extract_absence_inside_a_narrowed_subtree_is_not_exhaustive(tmp_path, capsys):
    # a barren level-1 node spoils the whole tree, so the arity-1 search keeps
    # the lex-least 2-big subtree, whose sibling-leaf pairs (2, 3) and (6, 7)
    # disagree; the subtree of nodes 5 and 8 is homogeneous all the same
    base = FinStructure(
        ClassKind("n_tree", height=2), 11,
        parent=(-1, 0, 1, 1, 0, 0, 5, 5, 0, 8, 8), level=(0, 1, 2, 2, 1, 1, 2, 2, 1, 2, 2),
    )
    col = Coloring.from_function(base, 2, 2, lambda tup: int(tup in ((6, 7), (9, 10))))
    assert colorings.find_type_homogeneous(col, 2).found
    path, out = tmp_path / "barren.json", tmp_path / "extract.json"
    path.write_text(json.dumps(col.to_doc()))
    argv = ["extract", "--cls", "n_tree:2", "--level", "2", "--coloring", str(path)]
    assert main([*argv, "--json", "--out", str(out)]) == 2
    assert json.loads(out.read_text())["result"]["derivation"]["exhaustive"] is False
    assert run(capsys, "check", "--report", str(out))[0] == 0
    assert run(capsys, *argv) == (2, "absent (exhaustive only inside an earlier arity's subset)\n")


def test_zero_colors_exit_3(capsys):
    code = main(["extract", "--cls", "or", "--level", "2", "--ambient", "3", "-c", "0"])
    assert code == 3
    assert "colors must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cls, level",
    [("ordered_graph", "2"), ("hypergraph:2:2", "1")],
)
def test_extract_domain_not_closed_is_input_error(capsys, cls, level):
    # below the arity these domains are not closed under restriction: an
    # input condition, decided before the search, not an internal fault
    for seed in range(4):
        code = main([
            "extract", "--cls", cls, "--level", level, "-n", "3", "--ambient", "4",
            "--seed", str(seed),
        ])
        err = capsys.readouterr().err
        assert code == 3, (cls, seed)
        assert "types of arity" in err


def test_extract_blueprint_builds_larger_em_model(tmp_path, capsys):
    # the README tour: an extract blueprint instantiated over an index with
    # more elements than the coloring's arity, both reports re-verified
    extract = tmp_path / "extract.json"
    assert main([
        "extract", "--cls", "chi_or:2", "--level", "2", "--ambient", "3",
        "--seed", "3", "--json", "--out", str(extract),
    ]) == 0
    bp_path = tmp_path / "bp.json"
    doc = json.loads(extract.read_text())
    bp_path.write_text(json.dumps(doc["result"]["derivation"]["blueprint"]))
    em = tmp_path / "em.json"
    code = main(["em", "--blueprint", str(bp_path), "--level", "3", "--json", "--out", str(em)])
    assert code == 0
    assert json.loads(em.read_text())["result"]["faithful_failures"] == []
    for report in (extract, em):
        code, out = run(capsys, "check", "--report", str(report))
        assert code == 0, report.name


def test_extract_json_repeatable(capsys):
    argv = [
        "extract", "--cls", "chi_or:2", "--level", "2", "--ambient", "3",
        "--seed", "3", "--json",
    ]
    _, out1 = run(capsys, *argv)
    _, out2 = run(capsys, *argv)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["command"] == "extract"
    assert doc["result"]["derivation"]["status"] in ("found", "absent")


def test_em_command(tmp_path, capsys):
    bp = unary_blueprint()
    path = tmp_path / "bp.json"
    path.write_text(json.dumps(bp.to_doc()))
    code, out = run(capsys, "em", "--blueprint", str(path), "--level", "2")
    assert code == 0
    assert "model has 3 elements over 2 generators" in out
    assert "faithful" in out


def test_em_rejects_a_blueprint_that_identifies_generators(tmp_path, capsys):
    # f(f(c)) = x0 and f(f(x0)) = c: the diagrams merge every generator into
    # f(f(c)), so no model extends the index, an input error
    sig = OutputSignature(functions=(("f", 1),), constants=("c",))
    diag = Diagram(sig, 1, 2, (0, 1, 2, 3, 1, 0))
    bp = Blueprint(ClassKind("or"), sig, 1, 2, (1,), ((enumerate_types(ClassKind("or"), 1, 1)[0], diag),))
    path = tmp_path / "bp.json"
    path.write_text(json.dumps(bp.to_doc()))
    code = main(["em", "--blueprint", str(path), "--level", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "identify index elements 0 and 1" in captured.err


def test_em_missing_blueprint(capsys):
    code, _ = run(capsys, "em", "--blueprint", "/nonexistent/bp.json", "--level", "2")
    assert code == 3


def test_em_check_roundtrip(tmp_path, capsys):
    bp = unary_blueprint()
    bp_path = tmp_path / "bp.json"
    bp_path.write_text(json.dumps(bp.to_doc()))
    report = tmp_path / "em.json"
    assert main([
        "em", "--blueprint", str(bp_path), "--level", "3", "--json", "--out", str(report)
    ]) == 0
    code, _ = run(capsys, "check", "--report", str(report))
    assert code == 0


def test_table_command(capsys):
    code, out = run(
        capsys,
        "table", "--cls", "or", "-n", "2", "-c", "2",
        "--sub-levels", "1,2,3", "--ambient-levels", "1,2,3,4,5,6",
    )
    assert code == 0
    assert "ambient=6 sub=3 holds" in out
    assert "least ambient level for sub level 3: 6" in out


def test_table_check_roundtrip(tmp_path, capsys):
    report = tmp_path / "table.json"
    assert main([
        "table", "--cls", "or", "-n", "2", "-c", "2",
        "--sub-levels", "1,2", "--ambient-levels", "1,2,3",
        "--json", "--out", str(report),
    ]) == 0
    code, _ = run(capsys, "check", "--report", str(report))
    assert code == 0


@pytest.mark.parametrize("sub_levels, ambient_levels", [("", "1"), ("1", "")])
def test_table_empty_level_list_exits_3(tmp_path, capsys, sub_levels, ambient_levels):
    # an empty grid checks nothing: neither the command nor a report of one
    # may claim success
    argv = ["table", "--cls", "or", "-n", "2", "-c", "2",
            "--sub-levels", sub_levels, "--ambient-levels", ambient_levels]
    assert run(capsys, *argv) == (3, "")
    report = tmp_path / "table.json"
    assert main(["table", "--cls", "or", "-n", "2", "-c", "2", "--sub-levels", "1",
                 "--ambient-levels", "1", "--json", "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    result = doc["result"]
    result["params"]["sub_levels" if not sub_levels else "ambient_levels"] = []
    result["table"].update(rows=[], least_holds={})
    report.write_text(json.dumps(doc))
    assert run(capsys, "check", "--report", str(report)) == (3, "")


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    from ramseylab import __version__, arrow, colorings

    assert capsys.readouterr().out.strip() == __version__


def test_reduce_rejects_color_outside_palette(tmp_path, capsys):
    # the constructor refuses the colour, so the document is edited by hand
    doc = Coloring(make_canonical(ClassKind("chi_color", chi=2), 1), 2, 2, {(0, 1): 0}).to_doc()
    doc["entries"] = [[0, 1, 7]]
    path = tmp_path / "col.json"
    path.write_text(json.dumps(doc))
    code = main(["reduce", "--cls", "chi_color:2", "--level", "1", "--coloring", str(path)])
    out, err = capsys.readouterr()
    assert code == 3
    assert "found" not in out
    assert "palette" in err


def _run_on_json(tmp_path, capsys, doc, *argv):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = main([a if a != "FILE" else str(path) for a in argv])
    return code, capsys.readouterr().err


def test_check_rejects_top_level_list(tmp_path, capsys):
    code, err = _run_on_json(tmp_path, capsys, [1, 2], "check", "--report", "FILE")
    assert code == 3
    assert "report must be a JSON object" in err


def test_em_rejects_top_level_list(tmp_path, capsys):
    code, err = _run_on_json(
        tmp_path, capsys, [unary_blueprint().to_doc()], "em", "--blueprint", "FILE", "--level", "2"
    )
    assert code == 3
    assert "blueprint must be a JSON object" in err


def test_coloring_file_rejects_top_level_list(tmp_path, capsys):
    doc = Coloring.from_function(make_canonical(ClassKind("ceq"), 2), 2, 2, lambda t: 0).to_doc()
    code, err = _run_on_json(
        tmp_path, capsys, [doc], "reduce", "--cls", "ceq", "--level", "1", "--coloring", "FILE"
    )
    assert code == 3
    assert "coloring must be a JSON object" in err


def test_check_names_missing_result(tmp_path, capsys):
    code, err = _run_on_json(tmp_path, capsys, {"command": "types"}, "check", "--report", "FILE")
    assert code == 3
    assert "report is missing 'result'" in err


def test_check_names_missing_params(tmp_path, capsys):
    code, err = _run_on_json(
        tmp_path, capsys, {"command": "types", "result": {"count": 3}}, "check", "--report", "FILE"
    )
    assert code == 3
    assert "report result is missing 'params'" in err


def _types_report(**params):
    return {"command": "types", "result": {"params": {"class": {"kind": "or"}, "arity": 2, "level": 2, **params}}}


def _ceq_coloring(**base):
    doc = Coloring.from_function(make_canonical(ClassKind("ceq"), 2), 2, 2, lambda t: 0).to_doc()
    doc["base"].update(base)
    return doc


CHECK = ("check", "--report", "FILE")
REDUCE = ("reduce", "--cls", "ceq", "--level", "1", "--coloring", "FILE")


@pytest.mark.parametrize(
    "doc, argv, named",
    [
        ({"command": "types", "result": {"params": []}}, CHECK, "report params"),
        (_types_report(**{"class": ["or"]}), CHECK, "class must be a JSON object"),
        (_types_report(**{"class": {"kind": "chi_or", "chi": "2"}}), CHECK, "chi"),
        (_types_report(arity="2"), CHECK, "arity"),
        (_ceq_coloring(**{"class": ["ceq"]}), REDUCE, "class must be a JSON object"),
        (_ceq_coloring(payload={"eq_blocks": 5}), REDUCE, "ceq payload"),
        (_ceq_coloring(payload=[]), REDUCE, "ceq payload"),
        (
            {"command": "arrow", "result": {"params": {
                "query": [], "mode": "exhaustive", "seed": 0, "samples": 1, "budget": None, "ceiling": 9}}},
            CHECK,
            "arrow query must be a JSON object",
        ),
        (
            {"command": "table", "result": {"params": {
                "class": {"kind": "or"}, "arity": 2, "colors": 2, "sub_levels": ["1"], "ambient_levels": [2],
                "mode": "exhaustive", "seed": 0, "samples": 1, "budget": None, "ceiling": 9}}},
            CHECK,
            "sub_levels",
        ),
    ],
    ids=["params-list", "class-list", "class-param-string", "arity-string",
         "coloring-class-list", "eq-blocks-int", "payload-list", "query-list", "level-list-strings"],
)
def test_malformed_nested_fields_exit_3(tmp_path, capsys, doc, argv, named):
    code, err = _run_on_json(tmp_path, capsys, doc, *argv)
    assert code == 3
    assert named in err


def _em_report(mutate):
    """An `em` report of the unary blueprint, with one nested field changed."""
    bp = unary_blueprint().to_doc()
    mutate(bp)
    return {"command": "em", "result": {"params": {"blueprint": bp, "level": 2}}}


def _set(*path):
    *keys, last, value = path

    def mutate(doc):
        for key in keys:
            doc = doc[key]
        doc[last] = value

    return mutate


@pytest.mark.parametrize(
    "mutate, named",
    [
        (_set("assignments", 5), "assignments"),
        (_set("levels", 5), "levels"),
        (_set("n_max", "2"), "n_max"),
        (_set("assignments", 0, 0, "code", 5), "code"),
        (_set("assignments", 0, 0, "arity", "1"), "arity"),
        (_set("assignments", 0, 1, "atoms", 5), "atoms"),
        (_set("assignments", 0, 1, "arity", "1"), "arity"),
        (_set("signature", "functions", 5), "functions"),
        (_set("signature", "functions", [["f", "1"]]), "functions"),
        # the first type's code is {"gen":[0],"m":1}; each of these is refused
        (_set("assignments", 0, 0, "code", "eyJnZW4iOiBbMF0sICJtIjogMX0="), "tuple type code"),  # spaced
        (_set("assignments", 0, 0, "code", "eyJtIjoxLCJnZW4iOlswXX0="), "tuple type code"),  # m first
        (_set("assignments", 0, 0, "code", "WzBd"), "tuple type code"),  # [0]
        (_set("assignments", 0, 0, "code", "not base64!"), "tuple type code"),
    ],
    ids=["assignments-int", "levels-int", "n_max-string", "type-code-int", "type-arity-string",
         "diagram-atoms-int", "diagram-arity-string", "functions-int", "function-arity-string",
         "type-code-spacing", "type-code-key-order", "type-code-json-list", "type-code-not-base64"],
)
def test_malformed_em_report_exits_3(tmp_path, capsys, mutate, named):
    code, err = _run_on_json(tmp_path, capsys, _em_report(mutate), *CHECK)
    assert code == 3
    assert named in err


ARROW5 = ("arrow", "--cls", "or", "--ambient", "5", "--sub", "3", "-n", "2", "-c", "2")
TABLE = ("table", "--cls", "or", "-n", "2", "-c", "2", "--sub-levels", "3", "--ambient-levels", "4,5")


@pytest.mark.parametrize(
    "argv, named",
    [
        (ARROW5 + ("--mode", "randomized", "--samples", "-3"), "samples"),
        (ARROW5 + ("--mode", "counterexample", "--budget", "-1"), "budget"),
        (ARROW5 + ("--budget", "-1"), "budget"),
        (TABLE + ("--samples", "-1"), "samples"),
        (TABLE + ("--mode", "counterexample", "--budget", "-1"), "budget"),
        (("reduce", "--cls", "chi_color:2", "--level", "2", "--budget", "-1"), "budget"),
        (("reduce", "--cls", "ceq", "--level", "2", "--ambient", "2", "--budget", "-1"), "budget"),
        (("extract", "--cls", "or", "--level", "2", "--ambient", "1", "--budget", "-1"), "budget"),
        (("extract", "--cls", "or", "--level", "2", "--ambient", "4", "--budget", "-1"), "budget"),
    ],
    ids=["arrow-samples", "arrow-budget", "arrow-exhaustive-budget", "table-samples", "table-budget",
         "reduce-chicolor-budget", "reduce-ceq-budget", "extract-absent-budget", "extract-found-budget"],
)
def test_negative_samples_and_budget_exit_3(capsys, argv, named):
    code = main(list(argv))
    assert code == 3
    assert f"{named} must be nonnegative" in capsys.readouterr().err


def test_report_with_negative_samples_exits_3(tmp_path, capsys):
    path = tmp_path / "arrow.json"
    assert main([*ARROW5, "--mode", "randomized", "--samples", "3", "--json", "--out", str(path)]) == 2
    doc = json.loads(path.read_text())
    doc["result"]["params"]["samples"] = -1
    code, err = _run_on_json(tmp_path, capsys, doc, *CHECK)
    assert code == 3
    assert "samples must be nonnegative" in err


def test_types_negative_level_exits_3(capsys):
    code = main(["types", "--cls", "or", "-n", "2", "--level", "-1"])
    assert code == 3
    assert "level must be nonnegative" in capsys.readouterr().err


def test_types_report_with_negative_level_exits_3(tmp_path, capsys):
    path = tmp_path / "types.json"
    assert main(["types", "--cls", "or", "-n", "2", "--json", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["result"]["params"]["level"] = -1
    code, err = _run_on_json(tmp_path, capsys, doc, *CHECK)
    assert code == 3
    assert "level must be nonnegative" in err


def _verify_nothing(monkeypatch):
    monkeypatch.setattr(arrow, "verify_refutation", lambda query, col: False)


def _witness_nothing(monkeypatch):
    monkeypatch.setattr(colorings, "type_homogeneity_witness", lambda col, subset: None)


def _fail_cell_6_2(monkeypatch):
    real = arrow.arrow_check

    def wrapped(query, **probe):
        verdict = real(query, **probe)
        if (query.ambient_level, query.sub_level) == (6, 2):
            verdict.status = "fails"
        return verdict

    monkeypatch.setattr(arrow, "arrow_check", wrapped)


@pytest.mark.parametrize(
    "patch, argv",
    [
        (_verify_nothing, ARROW5),
        (_verify_nothing, (*ARROW5, "--mode", "counterexample", "--seed", "1")),
        (_verify_nothing, (*ARROW5, "--mode", "randomized", "--seed", "1806341205", "--samples", "300")),
        (_witness_nothing, ("reduce", "--cls", "ceq", "--level", "2", "--ambient", "2", "--seed", "15")),
        (_fail_cell_6_2, ("table", "--cls", "or", "-n", "2", "-c", "2",
                          "--sub-levels", "2,3", "--ambient-levels", "5,6")),
    ],
    ids=["exhaustive", "counterexample", "randomized", "reduce", "table"],
)
def test_every_self_check_exits_4(monkeypatch, capsys, patch, argv):
    # a failed re-verification or monotonicity check is a bug, never a
    # verdict: exit 4 with a message, not a traceback and exit 1
    patch(monkeypatch)
    assert main(list(argv)) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal check failed")
