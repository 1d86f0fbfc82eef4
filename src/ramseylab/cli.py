"""Command line interface.

Subcommands: types, arrow, table, reduce, extract, em, check.  Each `cmd_*`
returns its result, its text lines and its exit code, and `main` emits them:
the text, or with --json a report envelope that embeds the tool version, the
argument vector, and all inputs needed to reproduce the run.  Reports carry
deterministic work counters and no timestamps, so identical invocations
produce identical bytes.  `check` re-runs a report from its embedded inputs
and names the first JSON path where the results differ.

`arrow` and `table` share the probe options --mode --seed --samples --budget
--ceiling (`_PROBE`), which pass unchanged to `arrow_check`.  `reduce` and
`extract` share the coloring-source options --level --ambient -n -c --seed
--budget --coloring.

Exit codes: 0 success (holds / found / verified), 1 refuted (fails, witness
emitted, or a report that does not re-verify), 2 inconclusive (unknown or
absent within budget), 3 usage or input errors, 4 failed internal checks.
`main` maps exceptions to codes by family: every self-check raises
`InternalCheckError` (exit 4), and every input error is a ValueError or an
OSError (exit 3).
"""

from __future__ import annotations

import argparse
import base64
import functools
import json
import sys

from . import __version__, reductions
from .arrow import ArrowQuery, DEFAULT_CEILING, arrow_check, ramsey_table
from .blueprints import Blueprint, check_indiscernible, derive_homogeneous, em_model
from .colorings import Coloring, random_coloring
from .structures import (
    TABLE,
    ClassKind,
    InternalCheckError,
    _is_int,
    canonical_json,
    make_canonical,
    require_fields,
)
from .tuple_types import enumerate_types


def parse_class(text: str) -> ClassKind:
    """Class shorthand: or | chi_or:2 | chi_color:2 | n_tree:2 | ceq |
    ordered_graph | hypergraph:2:3 (edge arity, palette)."""
    kind, *args = text.split(":")
    spec = TABLE.get(kind)
    if spec is not None and len(args) == len(spec.params):
        try:
            return ClassKind(kind, **{p: int(a) for p, a in zip(spec.params, args)})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    raise argparse.ArgumentTypeError(f"cannot parse class {text!r}")


def _emit(args, lines: list[str], envelope: dict) -> None:
    text = (canonical_json(envelope) if args.json else "\n".join(lines)) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _envelope(command: str, argv: list[str], result: dict) -> dict:
    return {
        "tool": "ramseylab",
        "version": __version__,
        "command": command,
        "argv": list(argv),
        "result": result,
    }


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _require_params(params, fields: dict, nullable=()) -> None:
    """Raise ValueError unless report `params` is a JSON object whose fields
    fit `fields` (see `require_fields`), with an integer or null in each
    `nullable` field."""
    require_fields(params, {**fields, **dict.fromkeys(nullable, object)}, "report params")
    for name in nullable:
        if not (params[name] is None or _is_int(params[name])):
            raise ValueError(f"report params field {name!r} is malformed")


# The probe options of `arrow` and `table`: arrow_check's keywords, in the
# order they are declared on the command line, and their report shapes.
_PROBE = ("mode", "seed", "samples", "budget", "ceiling")
_PROBE_FIELDS = {"mode": object, "seed": int, "samples": int, "ceiling": int}


def _require_probe(params, fields: dict) -> dict:
    """Check `params` against `fields` and the probe fields, and return the
    probe keywords."""
    _require_params(params, {**fields, **_PROBE_FIELDS}, nullable=("budget",))
    return {k: params[k] for k in _PROBE}


def _coloring_params(args) -> dict:
    """The params of `reduce` and `extract`: the coloring read from
    --coloring, or else seeded over the canonical --ambient structure."""
    if args.coloring:
        col = Coloring.from_doc(_read_json(args.coloring))
        if col.base.cls != args.cls:
            raise ValueError("coloring file is over a different class")
    else:
        col = random_coloring(make_canonical(args.cls, args.ambient), args.arity, args.colors, args.seed)
    return {"coloring": col.to_doc(), "level": args.level, "budget": args.budget}


def _require_coloring(params) -> Coloring:
    _require_params(params, {"coloring": object, "level": int}, nullable=("budget",))
    return Coloring.from_doc(params["coloring"])


def _absent(exhaustive: bool) -> str:
    return "absent" + (" (exhaustive)" if exhaustive else " (budget reached)")


def _result_types(params: dict) -> dict:
    _require_params(params, {"class": object, "arity": int, "level": int})
    cls = ClassKind.from_doc(params["class"])
    types = enumerate_types(cls, params["arity"], params["level"])
    return {
        "params": params,
        "count": len(types),
        "types": [t.to_doc() for t in types],
    }


def cmd_types(args):
    params = {
        "class": args.cls.to_doc(),
        "arity": args.arity,
        "level": args.level if args.level is not None else args.arity,
    }
    result = _result_types(params)
    lines = [f"{result['count']} types of arity {args.arity} ({args.cls.label()})"]
    for i, t in enumerate(result["types"]):
        lines.append(f"[{i}] {base64.b64decode(t['code']).decode('ascii')}")
    return result, lines, 0


def _result_arrow(params: dict) -> dict:
    probe = _require_probe(params, {"query": object})
    verdict = arrow_check(ArrowQuery.from_doc(params["query"]), **probe)
    return {"params": params, "verdict": verdict.to_doc()}


def cmd_arrow(args):
    query = ArrowQuery(args.cls, args.ambient, args.sub, args.arity, args.colors)
    result = _result_arrow({"query": query.to_doc(), **{k: getattr(args, k) for k in _PROBE}})
    verdict = result["verdict"]
    lines = [
        f"{verdict['status']} ({args.mode}; work {verdict['work']}, "
        f"colorings {verdict['colorings_checked']})"
    ]
    for note in verdict["notes"]:
        lines.append(f"note: {note}")
    if "counterexample" in verdict:
        lines.append("counterexample coloring embedded in the JSON report")
    return result, lines, {"holds": 0, "fails": 1, "unknown": 2}[verdict["status"]]


def _result_table(params: dict) -> dict:
    probe = _require_probe(
        params,
        {"class": object, "arity": int, "colors": int, "sub_levels": [int], "ambient_levels": [int]},
    )
    cls = ClassKind.from_doc(params["class"])
    table = ramsey_table(
        cls, params["arity"], params["colors"], params["sub_levels"], params["ambient_levels"], **probe
    )
    return {"params": params, "table": table.to_doc()}


def cmd_table(args):
    params = {
        "class": args.cls.to_doc(),
        "arity": args.arity,
        "colors": args.colors,
        "sub_levels": sorted(set(args.sub_levels)),
        "ambient_levels": sorted(set(args.ambient_levels)),
        **{k: getattr(args, k) for k in _PROBE},
    }
    result = _result_table(params)
    lines = []
    for row in result["table"]["rows"]:
        lines.append(
            f"ambient={row['ambient_level']} sub={row['sub_level']} "
            f"{row['status']} (work {row['work']})"
        )
    for mu, lam in sorted(result["table"]["least_holds"].items(), key=lambda e: int(e[0])):
        shown = lam if lam is not None else "-"
        lines.append(f"least ambient level for sub level {mu}: {shown}")
    return result, lines, 0


# each kind's reducer by name, looked up in `reductions` at every call
_REDUCERS = {"chi_color": "reduce_chicolor", "ceq": "reduce_ceq"}


def _result_reduce(params: dict) -> dict:
    col = _require_coloring(params)
    name = _REDUCERS.get(col.base.cls.kind)
    if name is None:
        raise ValueError("reduce expects a chi_color or ceq coloring")
    report = getattr(reductions, name)(col, params["level"], budget=params["budget"])
    return {"params": params, "report": report.to_doc()}


def cmd_reduce(args):
    result = _result_reduce(_coloring_params(args))
    report = result["report"]
    lines = []
    for st in report["stages"]:
        lines.append(f"stage {st['name']}: {st['status']} (work {st['work']})")
    if report["status"] == "found":
        lines.append(f"found subset {report['subset']}")
    else:
        lines.append(_absent(report["exhaustive"]))
    return result, lines, 0 if report["status"] == "found" else 2


def _result_extract(params: dict) -> dict:
    res = derive_homogeneous(_require_coloring(params), params["level"], budget=params["budget"])
    out = {
        "status": "found" if res.found else "absent",
        "stages": res.stages,
        "exhaustive": res.exhaustive,
    }
    if res.found:
        out["subset"] = list(res.subset)
        out["witness"] = res.witness.to_doc()
        out["blueprint"] = res.blueprint.to_doc()
    return {"params": params, "derivation": out}


def cmd_extract(args):
    result = _result_extract(_coloring_params(args))
    out = result["derivation"]
    if out["status"] == "found":
        lines = [
            f"found subset {out['subset']}",
            f"witness covers {len(out['witness'])} types",
        ]
    else:
        # the flag disowns an exhaustive last search that ran above --level,
        # where the domains are sure to be realized, or in an earlier subset
        *earlier, last = out["stages"]
        disowned = last["exhaustive"] and not out["exhaustive"]
        whole = all(s["action"] == "whole" for s in earlier)
        where = "above --level" if whole else "inside an earlier arity's subset"
        lines = [f"absent (exhaustive only {where})" if disowned else _absent(out["exhaustive"])]
    return result, lines, 0 if out["status"] == "found" else 2


def _result_em(params: dict) -> dict:
    _require_params(params, {"blueprint": object, "level": int})
    bp = Blueprint.from_doc(params["blueprint"])
    index = make_canonical(bp.cls, params["level"])
    model = em_model(bp, index)
    failures = check_indiscernible(model)
    return {
        "params": params,
        "model": model.to_doc(),
        "faithful_failures": failures,
    }


def cmd_em(args):
    params = {"blueprint": _read_json(args.blueprint), "level": args.level}
    result = _result_em(params)
    model = result["model"]
    lines = [
        f"model has {model['target']['size']} elements over "
        f"{len(model['generator_images'])} generators"
    ]
    if result["faithful_failures"]:
        lines.append(f"faithfulness failures: {len(result['faithful_failures'])}")
    else:
        lines.append("generator family is faithful")
    return result, lines, 0 if not result["faithful_failures"] else 1


_RERUNNERS = {
    "types": _result_types,
    "arrow": _result_arrow,
    "table": _result_table,
    "reduce": _result_reduce,
    "extract": _result_extract,
    "em": _result_em,
}


def _first_difference(stored, fresh, path: str) -> str | None:
    """JSON path of the first place, in sorted-key order, where two
    documents differ, or None when they are equal."""
    if isinstance(stored, dict) and isinstance(fresh, dict):
        for key in sorted(stored.keys() | fresh.keys()):
            if key not in stored or key not in fresh:
                return f"{path}.{key}"
            found = _first_difference(stored[key], fresh[key], f"{path}.{key}")
            if found is not None:
                return found
        return None
    if isinstance(stored, list) and isinstance(fresh, list):
        for i, (a, b) in enumerate(zip(stored, fresh)):
            found = _first_difference(a, b, f"{path}[{i}]")
            if found is not None:
                return found
        if len(stored) != len(fresh):
            return f"{path}[{min(len(stored), len(fresh))}]"
        return None
    return None if canonical_json(stored) == canonical_json(fresh) else path


def cmd_check(args):
    envelope = _read_json(args.report)
    require_fields(envelope, {"command": object, "result": object}, "report")
    command = envelope["command"]
    rerun = _RERUNNERS.get(command) if isinstance(command, str) else None
    if rerun is None:
        raise ValueError(f"cannot re-verify command {command!r}")
    stored = envelope["result"]
    require_fields(stored, {"params": object}, "report result")
    fresh = canonical_json(rerun(stored["params"]))
    result = {"verified": fresh == canonical_json(stored), "command": command}
    if result["verified"]:
        return result, [f"report verified ({command})"], 0
    differs = _first_difference(stored, json.loads(fresh), "result")
    return result, [f"report does not re-verify ({command}): first difference at {differs}"], 1


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("--out", help="write output to a file instead of stdout")


def _add_probe(p: argparse.ArgumentParser) -> None:
    """The options of `_PROBE`, shared by `arrow` and `table`."""
    p.add_argument("--mode", choices=["exhaustive", "randomized", "counterexample"], default="exhaustive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--ceiling", type=int, default=DEFAULT_CEILING)


def _add_coloring_source(p: argparse.ArgumentParser) -> None:
    """The options of `_coloring_params`, shared by `reduce` and `extract`."""
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--ambient", type=int, default=4, help="canonical base level for generated colorings")
    p.add_argument("-n", "--arity", type=int, default=2)
    p.add_argument("-c", "--colors", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--coloring", help="JSON coloring file instead of a seeded one")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    `main` call; parsing leaves it unchanged, so callers must not alter it."""
    parser = argparse.ArgumentParser(
        prog="ramseylab",
        description="finite workbench for structural partition relations",
        epilog=(
            "exit codes: 0 success, 1 refuted, 2 inconclusive, "
            "3 input error, 4 failed internal check"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("types", help="enumerate tuple types of a class")
    p.add_argument("--cls", type=parse_class, required=True)
    p.add_argument("-n", "--arity", type=int, required=True)
    p.add_argument("--level", type=int, default=None, help="enumeration level (default: arity)")
    _add_common(p)
    p.set_defaults(fn=cmd_types)

    p = sub.add_parser("arrow", help="check a partition relation")
    p.add_argument("--cls", type=parse_class, required=True)
    p.add_argument("--ambient", type=int, required=True, help="ambient bigness level")
    p.add_argument("--sub", type=int, required=True, help="target bigness level")
    p.add_argument("-n", "--arity", type=int, required=True)
    p.add_argument("-c", "--colors", type=int, required=True)
    _add_probe(p)
    _add_common(p)
    p.set_defaults(fn=cmd_arrow)

    p = sub.add_parser("table", help="verdict grid over level pairs")
    p.add_argument("--cls", type=parse_class, required=True)
    p.add_argument("-n", "--arity", type=int, required=True)
    p.add_argument("-c", "--colors", type=int, required=True)
    p.add_argument("--sub-levels", type=_int_list, required=True)
    p.add_argument("--ambient-levels", type=_int_list, required=True)
    _add_probe(p)
    _add_common(p)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("reduce", help="reduce a coloring to a linear order")
    p.add_argument("--cls", type=parse_class, required=True, help="chi_color:k or ceq")
    _add_coloring_source(p)
    _add_common(p)
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("extract", help="derive a homogeneous subset via diagrams")
    p.add_argument("--cls", type=parse_class, required=True)
    _add_coloring_source(p)
    _add_common(p)
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("em", help="instantiate a blueprint over a canonical index")
    p.add_argument("--blueprint", required=True, help="JSON blueprint file")
    p.add_argument("--level", type=int, required=True, help="canonical index level")
    _add_common(p)
    p.set_defaults(fn=cmd_em)

    p = sub.add_parser("check", help="re-verify a JSON report")
    p.add_argument("--report", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_check)

    return parser


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse int list {text!r}") from None


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    try:
        result, lines, code = args.fn(args)
        _emit(args, lines, _envelope(args.command, argv, result))
        return code
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
