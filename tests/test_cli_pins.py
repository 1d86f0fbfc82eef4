"""Pinned command-line runs: exit code, text output and JSON result.

Each case runs one argv twice, as text and with --json, in a directory that
holds the files the file-reading cases name.  The text is pinned whole.  The
JSON envelope is pinned by the sha256 of its `result` alone, so a version
bump moves no pin.
"""

import hashlib
import json

import pytest

from ramseylab.cli import main
from ramseylab.colorings import random_coloring
from ramseylab.structures import ClassKind, make_canonical

PINS = [
    # the README command-line tour
    ("types --cls ceq -n 3", 0,
     '4 types of arity 3 (ceq)\n'
     '[0] {"blocks":[0,0,0],"gen":[0,1,2],"m":3}\n'
     '[1] {"blocks":[0,0,1],"gen":[0,1,2],"m":3}\n'
     '[2] {"blocks":[0,1,1],"gen":[0,1,2],"m":3}\n'
     '[3] {"blocks":[0,1,2],"gen":[0,1,2],"m":3}\n',
     "575eface53cbf6e093630c0dfc8548dc463690dfcc7ca24b2b08196d36d09a2a"),
    ("arrow --cls or --ambient 6 --sub 3 -n 2 -c 2", 0,
     "holds (exhaustive; work 62844, colorings 32768)\n",
     "cf34fc4fdd5aca51e3907fa78357a1a81c143be070ebd5e96451c6bdea40804d"),
    ("arrow --cls or --ambient 5 --sub 3 -n 2 -c 2 --mode counterexample --seed 1", 1,
     "fails (counterexample; work 4, colorings 1)\n"
     "note: refutation found after 4 flips\n"
     "counterexample coloring embedded in the JSON report\n",
     "b6c0432962a3ee28550d5ceb5107744362c1bb6a3ef55696b1670fe59b244402"),
    ("table --cls or -n 2 -c 2 --sub-levels 1,2,3 --ambient-levels 1,2,3,4,5,6", 0,
     "ambient=1 sub=1 holds (work 1)\n"
     "ambient=2 sub=1 holds (work 2)\n"
     "ambient=3 sub=1 holds (work 3)\n"
     "ambient=4 sub=1 holds (work 4)\n"
     "ambient=5 sub=1 holds (work 5)\n"
     "ambient=6 sub=1 holds (work 6)\n"
     "ambient=1 sub=2 fails (work 0)\n"
     "ambient=2 sub=2 holds (work 1)\n"
     "ambient=3 sub=2 holds (work 3)\n"
     "ambient=4 sub=2 holds (work 6)\n"
     "ambient=5 sub=2 holds (work 10)\n"
     "ambient=6 sub=2 holds (work 15)\n"
     "ambient=1 sub=3 fails (work 0)\n"
     "ambient=2 sub=3 fails (work 0)\n"
     "ambient=3 sub=3 fails (work 3)\n"
     "ambient=4 sub=3 fails (work 27)\n"
     "ambient=5 sub=3 fails (work 603)\n"
     "ambient=6 sub=3 holds (work 62844)\n"
     "least ambient level for sub level 1: 1\n"
     "least ambient level for sub level 2: 2\n"
     "least ambient level for sub level 3: 6\n",
     "c9488ae5300e5b63900323f7cd5c0117b854b7fd0fdd4d3805be15a2f31f655d"),
    ("reduce --cls chi_color:2 --level 2 --ambient 6 --seed 7", 0,
     "stage aux: ok (work 15)\n"
     "stage aux_search: ok (work 3)\n"
     "stage lift: ok (work 1)\n"
     "found subset [0, 1, 2, 3]\n",
     "3d8692a83393738777e2cb8fd9db1c0ffe5f637742695620c9214cb391b2b217"),
    ("extract --cls chi_or:2 --level 2 --ambient 3 --seed 3", 0,
     "found subset [0, 1, 3, 4]\n"
     "witness covers 3 types\n",
     "eb00300560a12318c5fda94c87dcc9667f9866dbc1cc373f69bf6580e00a77f2"),
    ("em --blueprint bp.json --level 3", 0,
     "model has 6 elements over 6 generators\n"
     "generator family is faithful\n",
     "e72fa39e399804a2777fb771829ab85df131e9af3439a503e54238d14d9295f6"),
    ("check --report report.json", 0,
     "report verified (arrow)\n",
     "bcc097509548c9baff64f4485b660c712650a87faf987761050c5e6e04689cfb"),
    # every probe option on both commands that take them
    ("arrow --cls or --ambient 6 --sub 3 -n 2 -c 2 --mode randomized --seed 2 --samples 10 --budget 3", 2,
     "unknown (randomized; work 26, colorings 10)\n"
     "note: 10 samples searched, 0 hit the budget\n",
     "615d189253249b717d38594f85fe6261aeaa4a015d5287b8b50a864f32ff90e5"),
    ("arrow --cls or --ambient 10 --sub 3 -n 2 -c 3 --mode counterexample --budget 300", 1,
     "fails (counterexample; work 50, colorings 1)\n"
     "note: refutation found after 50 flips\n"
     "counterexample coloring embedded in the JSON report\n",
     "b6e85e53908bd856c173dd8d06c343a5a5fe930f40774ff61c8bc8ef170311f5"),
    ("arrow --cls ceq --ambient 8 --sub 3 -n 2 -c 2 --mode counterexample", 2,
     "unknown (counterexample; work 0, colorings 0)\n"
     "note: more than 65536 minimal candidate subsets; no descent was run\n",
     "0582656b7b8acce859da6bec42772923d895d7b89e26454ee7a4bd9134e2f3dc"),
    ("table --cls or -n 2 -c 2 --sub-levels 3 --ambient-levels 5,6 --mode counterexample --seed 1 --budget 500", 0,
     "ambient=5 sub=3 fails (work 4)\n"
     "ambient=6 sub=3 unknown (work 500)\n"
     "least ambient level for sub level 3: -\n",
     "33fbfcc515aedffb6c93d3011ad0d64bed00c7c6a795e862842c6653a82651f3"),
    ("table --cls or -n 2 -c 2 --sub-levels 2,3 --ambient-levels 4 --mode randomized --seed 3 --samples 5", 0,
     "ambient=4 sub=2 unknown (work 5)\n"
     "ambient=4 sub=3 fails (work 4)\n"
     "least ambient level for sub level 2: -\n"
     "least ambient level for sub level 3: -\n",
     "bf02414565b4d1ee6b5b6875c6782b9f20a7666b736c21c1cf2f42e1f4b907f0"),
    ("table --cls or -n 2 -c 3 --sub-levels 3 --ambient-levels 3 --ceiling 20000", 0,
     "ambient=3 sub=3 fails (work 3)\n"
     "least ambient level for sub level 3: -\n",
     "8069d2c297696244aa3aba9281ba24b1afa8dcb67f2450201ec3bb4f898ddec6"),
    # every coloring-source option on both commands that take them
    ("reduce --cls ceq --level 2 --ambient 2 --seed 0", 2,
     "stage aux: ok (work 1)\n"
     "stage aux_search: ok (work 3)\n"
     "stage lift: failed (work 1)\n"
     "stage direct: absent (work 8)\n"
     "absent (exhaustive)\n",
     "938bede37bf22a9f7259a18d6f12a648bacb3a77d7c0ddaa7ec4e01aa44a58ff"),
    ("reduce --cls ceq --level 2 --ambient 4 --seed 0 --budget 2", 2,
     "stage aux: ok (work 6)\n"
     "stage aux_search: absent (work 3)\n"
     "stage direct: absent (work 3)\n"
     "absent (budget reached)\n",
     "f3d70ab1d2f512ea574fecd5d5714a644d9334930445fc7e421985901d2be79a"),
    ("reduce --cls chi_color:3 --level 2 -n 2 -c 3 --ambient 5 --seed 2", 2,
     "stage aux: ok (work 10)\n"
     "stage aux_search: ok (work 3)\n"
     "stage lift: failed (work 1)\n"
     "stage direct: absent (work 184)\n"
     "absent (exhaustive)\n",
     "2010aaf5141fa2d4483e59b404747672c88165148656cd086e366cc96d2fd6ae"),
    ("reduce --cls chi_color:2 --level 2 --coloring col.json", 0,
     "stage aux: ok (work 3)\n"
     "stage aux_search: ok (work 3)\n"
     "stage lift: failed (work 1)\n"
     "stage direct: ok (work 17)\n"
     "found subset [0, 3, 4, 5]\n",
     "0ffcd134aa55cea88e986a028ff477715e4e248858691307628e899fc67aeabc"),
    ("extract --cls or --level 2 --ambient 1 --seed 0", 2,
     "absent (exhaustive)\n",
     "3957e252c0787630c9b7cd54e1eda883b35913622db9a68846d895b84757fb0e"),
    ("extract --cls or --level 3 --ambient 6 --seed 0 --budget 2", 2,
     "absent (budget reached)\n",
     "4ea5774c28dbc158201201b74c7a8d373b29fed161c87daef1657355c3854367"),
    ("extract --cls or --level 3 -n 2 -c 3 --ambient 5 --seed 1", 0,
     "found subset [1, 3, 4]\n"
     "witness covers 1 types\n",
     "09d2bdb41e815f57cb361c32cb019854e0b0069875fac99ca132c85468e783a2"),
    ("extract --cls chi_color:2 --level 2 --coloring col.json", 0,
     "found subset [0, 3, 4, 5]\n"
     "witness covers 4 types\n",
     "6d7fe527f5807da4398f8fee46854773991c3564c13fcdae393b7f03114b51da"),
    # a report that no longer matches its parameters
    ("check --report tampered.json", 1,
     "report does not re-verify (arrow): first difference at result.verdict.status\n",
     "23c5d24e56516ee386210909096eb4461a2e27e0597dcb90ee02334258274ad9"),
]


def _sha256(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A directory with the blueprint, reports and coloring the cases read."""
    path = tmp_path_factory.mktemp("cli")
    extract = path / "extract.json"
    assert main(["extract", "--cls", "chi_or:2", "--level", "2", "--ambient", "3", "--seed", "3",
                 "--json", "--out", str(extract)]) == 0
    blueprint = json.loads(extract.read_text())["result"]["derivation"]["blueprint"]
    (path / "bp.json").write_text(json.dumps(blueprint))
    report = path / "report.json"
    assert main(["arrow", "--cls", "or", "--ambient", "6", "--sub", "3", "-n", "2", "-c", "2",
                 "--json", "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    doc["result"]["verdict"]["status"] = "fails"
    (path / "tampered.json").write_text(json.dumps(doc))
    col = random_coloring(make_canonical(ClassKind("chi_color", chi=2), 3), 2, 2, 5)
    (path / "col.json").write_text(json.dumps(col.to_doc()))
    return path


def _id(argv: str) -> str:
    return "-".join(arg.lstrip("-") for arg in argv.split())


@pytest.mark.parametrize("argv, code, text, digest", PINS, ids=[_id(pin[0]) for pin in PINS])
def test_cli_run_pinned(files, monkeypatch, capsys, argv, code, text, digest):
    monkeypatch.chdir(files)
    argv = argv.split()
    assert main(argv) == code
    assert capsys.readouterr().out == text
    assert main([*argv, "--json"]) == code
    assert _sha256(json.loads(capsys.readouterr().out)["result"]) == digest
