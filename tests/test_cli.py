"""Command line interface: exit codes, envelopes, reproducibility."""

import json

import pytest

from helpers import unary_blueprint
from ramseylab.cli import main, parse_class
from ramseylab.colorings import Coloring
from ramseylab.structures import ClassKind, make_canonical


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


def test_check_rejects_unknown_command(tmp_path, capsys):
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps({"command": "zzz", "result": {"params": {}}}))
    code, _ = run(capsys, "check", "--report", str(path))
    assert code == 3


def test_check_missing_file(capsys):
    code, _ = run(capsys, "check", "--report", "/nonexistent/report.json")
    assert code == 3


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

    gap = Coloring.from_function(
        make_canonical(ClassKind("chi_color", chi=2), 4),
        2, 2, lambda t: 1 if t[0] // 2 == t[1] // 2 else 0,
    )
    path2 = tmp_path / "gap.json"
    path2.write_text(json.dumps(gap.to_doc()))
    code, out = run(
        capsys,
        "reduce", "--cls", "chi_color:2", "--level", "2", "--coloring", str(path2),
    )
    assert code == 2
    assert "absent (exhaustive)" in out


def test_reduce_class_mismatch(tmp_path, capsys):
    base = make_canonical(ClassKind("ceq"), 2)
    col = Coloring.from_function(base, 2, 2, lambda t: 0)
    path = tmp_path / "ceq.json"
    path.write_text(json.dumps(col.to_doc()))
    code, _ = run(capsys, "reduce", "--cls", "chi_color:2", "--level", "1", "--coloring", str(path))
    assert code == 3


def test_reduce_rejects_plain_orders(capsys):
    code, _ = run(capsys, "reduce", "--cls", "or", "--level", "1")
    assert code == 3


def test_reduce_seeded_ceq(capsys):
    code, out = run(
        capsys,
        "reduce", "--cls", "ceq", "--level", "2", "--ambient", "2", "--seed", "15",
    )
    assert code == 0  # seed 15 aligns the cross pairs at this size
    assert "stage partition_view: ok" in out


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


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    from ramseylab import __version__

    assert capsys.readouterr().out.strip() == __version__


def test_reduce_rejects_color_outside_palette(tmp_path, capsys):
    doc = Coloring(make_canonical(ClassKind("chi_color", chi=2), 1), 2, 2, {(0, 1): 7}).to_doc()
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
    ],
    ids=["assignments-int", "levels-int", "n_max-string", "type-code-int", "type-arity-string",
         "diagram-atoms-int", "diagram-arity-string", "functions-int", "function-arity-string"],
)
def test_malformed_em_report_exits_3(tmp_path, capsys, mutate, named):
    code, err = _run_on_json(tmp_path, capsys, _em_report(mutate), *CHECK)
    assert code == 3
    assert named in err
