"""Seeded fuzzing of the document loaders: every `from_doc` either loads a
mutated document or rejects it with ValueError, never another exception, and
`check --report` answers a report with mutated params with an exit code."""

import copy
import json
import random

import pytest

from helpers import coloring_from_doc_reference, fiber_target, time_limit, unary_blueprint
from ramseylab.arrow import ArrowQuery
from ramseylab.blueprints import Blueprint
from ramseylab.cli import main
from ramseylab.colorings import Coloring, HomogeneityWitness, random_coloring, type_homogeneity_witness
from ramseylab.diagrams import Diagram, OutputSignature, TargetStructure, model_diagram
from ramseylab.structures import ClassKind, from_doc as structure_from, make_canonical, to_doc as structure_doc
from ramseylab.tuple_types import TupleType, tuple_type

# one JSON value of each type; a leaf is replaced by those of another type
WRONG = (None, True, 7, 2.5, "x", [], [0], {}, {"k": 0})


def _documents():
    """(name, loader, valid document) for every loader."""
    target, _ = fiber_target(1, 0)
    sig = target.sig
    hyper = make_canonical(ClassKind("hypergraph", edge_arity=3, palette=2), 3)
    tree = make_canonical(ClassKind("n_tree", height=2), 2)
    # colored by whether a pair spans two blocks: homogeneous, two entries
    col = Coloring.from_function(make_canonical(ClassKind("ceq"), 2), 2, 2, lambda t: int(t[0] // 2 != t[1] // 2))
    witness = type_homogeneity_witness(col, range(4))
    docs = [
        ("coloring", Coloring.from_doc, col.to_doc()),
        ("tree structure", structure_from, structure_doc(tree)),
        ("hypergraph structure", structure_from, structure_doc(hyper)),
        ("arrow query", ArrowQuery.from_doc, ArrowQuery(ClassKind("chi_or", chi=2), 3, 2, 2, 2).to_doc()),
        ("signature", OutputSignature.from_doc, sig.to_doc()),
        # a blueprint validates the diagrams it loads; a diagram alone is validated here
        ("diagram", lambda d: Diagram.from_doc(d, sig).validate(), model_diagram(target, (0, 1), 1).to_doc()),
        ("blueprint", Blueprint.from_doc, unary_blueprint().to_doc()),
        ("tuple type", TupleType.from_doc, tuple_type(hyper, (1, 2)).to_doc()),
        ("witness", HomogeneityWitness.from_doc, witness.to_doc()),
        ("target", TargetStructure.from_doc, target.to_doc()),
    ]
    # as a file holds them: tuples become lists
    return [(name, loader, json.loads(json.dumps(doc))) for name, loader, doc in docs]


def _places(doc, path=()):
    """Every path into doc, with the value found there."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _places(value, path + (key,))


def _changes(doc):
    """(description, path, change) for one leaf or container retyped, one key
    deleted or one element appended, at every place in doc; `change` edits
    the container at `path` in place."""
    out = []
    for path, value in _places(doc):
        if isinstance(value, dict):
            for key in value:
                out.append((f"delete {path + (key,)}", path, lambda v, k=key: v.pop(k)))
        if isinstance(value, list):
            for extra in value[:1] + [0, "x"]:
                out.append((f"append {extra!r} at {path}", path, lambda v, e=extra: v.append(copy.deepcopy(e))))
        if path:
            for wrong in WRONG:
                if type(wrong) is not type(value):
                    out.append((f"set {path} to {wrong!r}", path[:-1],
                                lambda v, k=path[-1], w=wrong: v.__setitem__(k, w)))
    return out


def _apply(doc, path, change):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path:
        node = node[key]
    change(node)
    return doc


def _loads_or_rejects(name, loader, what, doc):
    try:
        loader(doc)
    except ValueError:
        pass
    except Exception as exc:
        pytest.fail(f"{name}: {what} raised {type(exc).__name__}: {exc}")


@time_limit(30)
def test_mutated_documents_load_or_raise_value_error():
    # every single change, then a seeded sample of two changes in a row
    rng = random.Random(20261018)
    for name, loader, doc in _documents():
        loader(doc)  # the unchanged document is valid
        changes = _changes(doc)
        for what, path, change in changes:
            _loads_or_rejects(name, loader, what, _apply(doc, path, change))
        for _ in range(100):
            first, path, change = rng.choice(changes)
            once = _apply(doc, path, change)
            then, path, change = rng.choice(_changes(once))
            _loads_or_rejects(name, loader, f"{first}, then {then}", _apply(once, path, change))


# one report of each command whose params `check` parses field by field
_REPORTS = [
    ("types", "--cls", "ceq", "-n", "2"),
    ("arrow", "--cls", "or", "--ambient", "5", "--sub", "3", "-n", "2", "-c", "2",
     "--mode", "counterexample", "--seed", "1"),
    ("arrow", "--cls", "or", "--ambient", "5", "--sub", "3", "-n", "2", "-c", "2",
     "--mode", "randomized", "--seed", "1806341205", "--samples", "300"),
    ("table", "--cls", "or", "-n", "2", "-c", "2", "--sub-levels", "1,2", "--ambient-levels", "1,2,3"),
    ("reduce", "--cls", "ceq", "--level", "2", "--ambient", "2", "--seed", "15"),
    ("extract", "--cls", "chi_or:2", "--level", "2", "--ambient", "3", "--seed", "3"),
]


@time_limit(30)
def test_mutated_report_params_exit_0_to_3(tmp_path, capsys):
    # a seeded sample of single changes to each report's params: `check`
    # re-runs, refutes or rejects each one, and never raises
    rng = random.Random(20261019)
    path = tmp_path / "report.json"
    for argv in _REPORTS:
        assert main([*argv, "--json", "--out", str(path)]) in (0, 1, 2)
        envelope = json.loads(path.read_text())
        params = envelope["result"]["params"]
        changes = _changes(params)
        for what, where, change in rng.sample(changes, min(150, len(changes))):
            envelope["result"]["params"] = _apply(params, where, change)
            path.write_text(json.dumps(envelope))
            try:
                code = main(["check", "--report", str(path)])
            except Exception as exc:
                pytest.fail(f"{argv[0]}: {what} raised {type(exc).__name__}: {exc}")
            assert code in (0, 1, 2, 3), f"{argv[0]}: {what} exited {code}"
    capsys.readouterr()


# one malformed row, set in the middle of a valid pair table over 0..5 that
# leaves out the pair (1, 4)
_BAD_ROWS = {
    "bool cell": [1, True, 0],
    "short row": [1, 2],
    "decreasing": [3, 2, 0],
    "repeated element": [3, 3, 0],
    "below the universe": [-1, 2, 0],
    "above the universe": [4, 6, 1],
    "repeated tuple": [0, 1, 0],
    "off-palette colour": [1, 4, 2],
    "non-list row": (1, 4, 0),
}


def _pair_doc(extra=None):
    doc = json.loads(json.dumps(random_coloring(make_canonical(ClassKind("or"), 6), 2, 2, seed=5).to_doc()))
    doc["entries"] = [row for row in doc["entries"] if row[:2] != [1, 4]]
    if extra is not None:
        doc["entries"].insert(len(doc["entries"]) // 2, extra)
    return doc


def _load_outcome(loader, doc):
    try:
        col = loader(doc)
    except ValueError as exc:
        return str(exc)
    return list(col.table.items()), col.colors


@pytest.mark.parametrize("row", list(_BAD_ROWS.values()), ids=[name.replace(" ", "-") for name in _BAD_ROWS])
def test_coloring_from_doc_names_the_row_the_row_by_row_reference_names(row):
    doc = _pair_doc(row)
    got = _load_outcome(Coloring.from_doc, doc)
    assert isinstance(got, str)
    assert got == _load_outcome(coloring_from_doc_reference, doc)


def test_coloring_from_doc_builds_the_table_the_row_by_row_reference_builds():
    doc = _pair_doc()
    assert _load_outcome(Coloring.from_doc, doc) == _load_outcome(coloring_from_doc_reference, doc)
