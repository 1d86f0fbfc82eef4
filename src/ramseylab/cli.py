"""Command line interface.

Subcommands: types, arrow, table, reduce, extract, em, check.  Every command
can emit a JSON report (--json) whose envelope embeds the tool version, the
argument vector, and all inputs needed to reproduce the run; reports carry
deterministic work counters and no timestamps, so identical invocations
produce identical bytes.  `check` re-runs a report from its embedded inputs
and compares the results.

Exit codes: 0 success (holds / found / verified), 1 refuted (fails, witness
emitted, or a report that does not re-verify), 2 inconclusive (unknown or
absent within budget), 3 usage or input errors, 4 failed internal checks.
"""

from __future__ import annotations

import argparse
import base64
import json
import sys

from . import __version__
from .arrow import (
    ArrowQuery,
    DEFAULT_CEILING,
    SearchSpaceTooLarge,
    arrow_check,
    ramsey_table,
)
from .blueprints import (
    Blueprint,
    BlueprintDomainError,
    InternalCheckError,
    SupportOverflowError,
    check_indiscernible,
    derive_homogeneous,
    em_model,
)
from .colorings import Coloring, random_coloring
from .reductions import reduce_ceq, reduce_chicolor
from .structures import TABLE, ClassKind, _is_int, make_canonical, require_fields
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


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _emit(args, lines: list[str], envelope: dict | None) -> None:
    if getattr(args, "json", False) and envelope is not None:
        text = _dump(envelope) + "\n"
    else:
        text = "\n".join(lines) + "\n"
    if getattr(args, "out", None):
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
        return json.load(fh)


def _load_coloring(args, cls: ClassKind) -> Coloring:
    if args.coloring:
        col = Coloring.from_doc(_read_json(args.coloring))
        if col.base.cls != cls:
            raise ValueError("coloring file is over a different class")
        return col
    base = make_canonical(cls, args.ambient)
    return random_coloring(base, args.arity, args.colors, args.seed)


def _require_params(params, fields: dict, nullable=()) -> None:
    """Raise ValueError unless report `params` is a JSON object whose fields
    fit `fields` (see `require_fields`), with an integer or null in each
    `nullable` field."""
    require_fields(params, {**fields, **dict.fromkeys(nullable, object)}, "report params")
    for name in nullable:
        if not (params[name] is None or _is_int(params[name])):
            raise ValueError(f"report params field {name!r} is malformed")


def _result_types(params: dict) -> dict:
    _require_params(params, {"class": object, "arity": int, "level": int})
    cls = ClassKind.from_doc(params["class"])
    types = enumerate_types(cls, params["arity"], params["level"])
    return {
        "params": params,
        "count": len(types),
        "types": [t.to_doc() for t in types],
    }


def cmd_types(args, argv) -> int:
    params = {
        "class": args.cls.to_doc(),
        "arity": args.arity,
        "level": args.level if args.level is not None else args.arity,
    }
    result = _result_types(params)
    lines = [f"{result['count']} types of arity {args.arity} ({args.cls.label()})"]
    for i, t in enumerate(result["types"]):
        lines.append(f"[{i}] {base64.b64decode(t['code']).decode('ascii')}")
    _emit(args, lines, _envelope("types", argv, result))
    return 0


def _result_arrow(params: dict) -> dict:
    _require_params(
        params,
        {"query": object, "mode": object, "seed": int, "samples": int, "ceiling": int},
        nullable=("budget",),
    )
    query = ArrowQuery.from_doc(params["query"])
    verdict = arrow_check(
        query,
        mode=params["mode"],
        seed=params["seed"],
        samples=params["samples"],
        budget=params["budget"],
        ceiling=params["ceiling"],
    )
    return {"params": params, "verdict": verdict.to_doc()}


def cmd_arrow(args, argv) -> int:
    query = ArrowQuery(args.cls, args.ambient, args.sub, args.arity, args.colors)
    params = {
        "query": query.to_doc(),
        "mode": args.mode,
        "seed": args.seed,
        "samples": args.samples,
        "budget": args.budget,
        "ceiling": args.ceiling,
    }
    result = _result_arrow(params)
    verdict = result["verdict"]
    lines = [
        f"{verdict['status']} ({args.mode}; work {verdict['work']}, "
        f"colorings {verdict['colorings_checked']})"
    ]
    for note in verdict["notes"]:
        lines.append(f"note: {note}")
    if "counterexample" in verdict:
        lines.append("counterexample coloring embedded in the JSON report")
    _emit(args, lines, _envelope("arrow", argv, result))
    return {"holds": 0, "fails": 1, "unknown": 2}[verdict["status"]]


def _result_table(params: dict) -> dict:
    _require_params(
        params,
        {"class": object, "arity": int, "colors": int, "sub_levels": [int], "ambient_levels": [int],
         "mode": object, "seed": int, "samples": int, "ceiling": int},
        nullable=("budget",),
    )
    cls = ClassKind.from_doc(params["class"])
    table = ramsey_table(
        cls,
        params["arity"],
        params["colors"],
        params["sub_levels"],
        params["ambient_levels"],
        mode=params["mode"],
        seed=params["seed"],
        samples=params["samples"],
        budget=params["budget"],
        ceiling=params["ceiling"],
    )
    return {"params": params, "table": table.to_doc()}


def cmd_table(args, argv) -> int:
    params = {
        "class": args.cls.to_doc(),
        "arity": args.arity,
        "colors": args.colors,
        "sub_levels": sorted(set(args.sub_levels)),
        "ambient_levels": sorted(set(args.ambient_levels)),
        "mode": args.mode,
        "seed": args.seed,
        "samples": args.samples,
        "budget": args.budget,
        "ceiling": args.ceiling,
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
    _emit(args, lines, _envelope("table", argv, result))
    return 0


_REDUCERS = {"chi_color": reduce_chicolor, "ceq": reduce_ceq}


def _result_reduce(params: dict) -> dict:
    _require_params(params, {"coloring": object, "level": int}, nullable=("budget",))
    col = Coloring.from_doc(params["coloring"])
    reduce = _REDUCERS.get(col.base.cls.kind)
    if reduce is None:
        raise ValueError("reduce expects a chi_color or ceq coloring")
    report = reduce(col, params["level"], budget=params["budget"])
    return {"params": params, "report": report.to_doc()}


def cmd_reduce(args, argv) -> int:
    if args.cls.kind not in _REDUCERS:
        raise ValueError("reduce supports chi_color and ceq classes")
    col = _load_coloring(args, args.cls)
    params = {
        "coloring": col.to_doc(),
        "level": args.level,
        "budget": args.budget,
    }
    result = _result_reduce(params)
    report = result["report"]
    lines = []
    for st in report["stages"]:
        lines.append(f"stage {st['name']}: {st['status']} (work {st['work']})")
    if report["status"] == "found":
        lines.append(f"found subset {report['subset']}")
    else:
        lines.append(
            "absent"
            + (" (exhaustive)" if report["exhaustive"] else " (budget reached)")
        )
    _emit(args, lines, _envelope("reduce", argv, result))
    return 0 if report["status"] == "found" else 2


def _result_extract(params: dict) -> dict:
    _require_params(params, {"coloring": object, "level": int}, nullable=("budget",))
    col = Coloring.from_doc(params["coloring"])
    res = derive_homogeneous(col, params["level"], budget=params["budget"])
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


def cmd_extract(args, argv) -> int:
    col = _load_coloring(args, args.cls)
    params = {
        "coloring": col.to_doc(),
        "level": args.level,
        "budget": args.budget,
    }
    result = _result_extract(params)
    out = result["derivation"]
    if out["status"] == "found":
        lines = [
            f"found subset {out['subset']}",
            f"witness covers {len(out['witness'])} types",
        ]
    else:
        lines = [
            "absent"
            + (" (exhaustive)" if out["exhaustive"] else " (budget reached)")
        ]
    _emit(args, lines, _envelope("extract", argv, result))
    return 0 if out["status"] == "found" else 2


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


def cmd_em(args, argv) -> int:
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
    _emit(args, lines, _envelope("em", argv, result))
    return 0 if not result["faithful_failures"] else 1


_RERUNNERS = {
    "types": _result_types,
    "arrow": _result_arrow,
    "table": _result_table,
    "reduce": _result_reduce,
    "extract": _result_extract,
    "em": _result_em,
}


def cmd_check(args, argv) -> int:
    envelope = _read_json(args.report)
    require_fields(envelope, {"command": object, "result": object}, "report")
    command = envelope["command"]
    rerun = _RERUNNERS.get(command) if isinstance(command, str) else None
    if rerun is None:
        raise ValueError(f"cannot re-verify command {command!r}")
    stored = envelope["result"]
    require_fields(stored, {"params": object}, "report result")
    fresh = rerun(stored["params"])
    if _dump(fresh) == _dump(stored):
        _emit(args, [f"report verified ({command})"], _envelope("check", argv, {"verified": True, "command": command}))
        return 0
    _emit(args, [f"report does not re-verify ({command})"], _envelope("check", argv, {"verified": False, "command": command}))
    return 1


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("--out", help="write output to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--mode", choices=["exhaustive", "randomized", "counterexample"], default="exhaustive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--ceiling", type=int, default=DEFAULT_CEILING)
    _add_common(p)
    p.set_defaults(fn=cmd_arrow)

    p = sub.add_parser("table", help="verdict grid over level pairs")
    p.add_argument("--cls", type=parse_class, required=True)
    p.add_argument("-n", "--arity", type=int, required=True)
    p.add_argument("-c", "--colors", type=int, required=True)
    p.add_argument("--sub-levels", type=_int_list, required=True)
    p.add_argument("--ambient-levels", type=_int_list, required=True)
    p.add_argument("--mode", choices=["exhaustive", "randomized", "counterexample"], default="exhaustive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--ceiling", type=int, default=DEFAULT_CEILING)
    _add_common(p)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("reduce", help="reduce a coloring to a linear order")
    p.add_argument("--cls", type=parse_class, required=True, help="chi_color:k or ceq")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--ambient", type=int, default=4, help="canonical base level for generated colorings")
    p.add_argument("-n", "--arity", type=int, default=2)
    p.add_argument("-c", "--colors", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--coloring", help="JSON coloring file instead of a seeded one")
    _add_common(p)
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("extract", help="derive a homogeneous subset via diagrams")
    p.add_argument("--cls", type=parse_class, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--ambient", type=int, default=4)
    p.add_argument("-n", "--arity", type=int, default=2)
    p.add_argument("-c", "--colors", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--coloring", help="JSON coloring file instead of a seeded one")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, argv)
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 4
    except (
        ValueError,
        OSError,
        KeyError,
        SearchSpaceTooLarge,
        BlueprintDomainError,
        SupportOverflowError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
