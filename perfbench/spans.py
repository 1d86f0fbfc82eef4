"""Tracer for the per-layer run.

Wraps selected public functions of the library modules at every binding
site (names are bound by from-imports, so `tuple_type` lives in four module
namespaces) and restores them afterwards.  Three wrapper kinds:

  span   timed; every call is also kept as a span record
         (name, parent span index, start, end) for the span file
  time   timed; folded into per-function totals only, for hot leaves called
         up to millions of times, whose individual spans would not fit
  count  call count only, no clock reads, for the hottest accessors

Self time is a call's duration minus the durations of the wrapped calls it
made.  Result hooks read the deterministic counters (search nodes, arrow
work, flips, reduction stage work, model sizes, report bytes) off return
values.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import re
import sys
import time
from collections import Counter

TRACED = {
    "structures.make_canonical": "time",
    "structures.subset_is_big": "time",
    "structures.subset_closure": "time",
    "structures.FinStructure.block_of": "count",
    "tuple_types.tuple_type": "time",
    "tuple_types.restrict_type": "time",
    "tuple_types.enumerate_types": "span",
    "colorings.find_type_homogeneous": "span",
    "colorings.type_homogeneity_witness": "time",
    "colorings.iter_big_member_subsets": "count",
    "colorings.Coloring.type_of": "count",
    "arrow.arrow_check": "span",
    "arrow.ramsey_table": "span",
    "arrow.verify_refutation": "span",
    "reductions.reduce_chicolor": "span",
    "reductions.reduce_ceq": "span",
    "reductions.aux_coloring_chicolor": "time",
    "reductions.aux_coloring_ceq": "time",
    "diagrams.model_diagram": "time",
    "blueprints.em_model": "span",
    "blueprints.check_coherence": "time",
    "blueprints.check_indiscernible": "span",
    "blueprints.extract_blueprint": "span",
    "blueprints.derive_homogeneous": "span",
    "cli.main": "span",
    "cli.cmd_check": "count",
}

STAGES = ("aux", "aux_search", "lift", "block_search", "partition_view", "lift_scan")
_FLIPS = re.compile(r"(\d+) flips")


def _on_search(tr, res, args, kwargs, elapsed):
    tr.counts["colorings.search.nodes"] += res.nodes


def _on_arrow(tr, verdict, args, kwargs, elapsed):
    tr.counts["arrow.work"] += verdict.work
    tr.counts["arrow.colorings_checked"] += verdict.colorings_checked
    if verdict.mode == "counterexample":
        tr.anneal_s += elapsed
        for note in verdict.notes:
            hit = _FLIPS.search(note)
            if hit:
                tr.counts["arrow.flips"] += int(hit.group(1))


def _on_reduce(tr, report, args, kwargs, elapsed):
    for st in report.stages:
        tr.counts[f"reductions.stage_work.{st.name}"] += st.work
        if st.name in ("lift", "lift_scan"):
            tr.counts["reductions.lift_attempts"] += 1
            tr.counts["reductions.lift_ok"] += st.status == "ok"


def _on_em(tr, model, args, kwargs, elapsed):
    size = model.target.size
    tr.counts["blueprints.em_model.model_elems"] += size
    tr.counts["blueprints.em_model.relation_slots"] += sum(
        size ** arity for _, arity in model.target.sig.relations
    )


def _on_main(tr, code, args, kwargs, elapsed):
    argv = list(args[0]) if args else []
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            tr.counts["cli.report_bytes"] += os.path.getsize(path)


HOOKS = {
    "colorings.find_type_homogeneous": _on_search,
    "arrow.arrow_check": _on_arrow,
    "reductions.reduce_chicolor": _on_reduce,
    "reductions.reduce_ceq": _on_reduce,
    "blueprints.em_model": _on_em,
    "cli.main": _on_main,
}


class Tracer:
    def __init__(self):
        self.totals: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.counts: Counter = Counter()
        self.spans: list = []
        self.anneal_s = 0.0
        self._stack: list = []  # frames: [child seconds, nearest kept span index]
        self._undo: list = []

    # -------------------------------------------------------------- wrappers

    def _timed(self, name, fn, keep):
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack, spans, clock, hook = self._stack, self.spans, time.perf_counter, HOOKS.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            index = len(spans) if keep else parent
            if keep:
                spans.append(None)
            frame = [0.0, index]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                elapsed = t1 - t0
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if keep:
                    spans[index] = (name, parent, t0, t1)
            if hook is not None:
                hook(self, result, args, kwargs, elapsed)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        if name == "colorings.Coloring.type_of":
            def type_of(col, tup):
                counts["colorings.type_of.calls"] += 1
                if tup in getattr(col, "_types", ()):
                    counts["colorings.type_of.hits"] += 1
                return fn(col, tup)
            return type_of
        if inspect.isgeneratorfunction(fn):
            def generator(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    counts[name + ".yielded"] += 1
                    yield item
            return generator

        def counted(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)
        return counted

    # ------------------------------------------------------------ patching

    def install(self, lib) -> None:
        """Patch every traced function wherever a library module binds it."""
        modules = [m for n, m in sys.modules.items() if n == "ramseylab" or n.startswith("ramseylab.")]
        for name, how in TRACED.items():
            layer, *path = name.split(".")
            owner = getattr(lib, layer)
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            orig = vars(owner)[path[-1]]
            wrapper = self._counted(name, orig) if how == "count" else self._timed(name, orig, how == "span")
            if len(path) > 1:  # a method: the class is its only binding site
                self._patch(owner, path[-1], wrapper)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    @contextlib.contextmanager
    def region(self, name):
        """A kept span around harness work, such as one query or set-up."""
        parent = self._stack[-1][1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append([0.0, index])
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += t1 - t0
            self.spans[index] = (name, parent, t0, t1)

    # -------------------------------------------------------------- results

    def metrics(self, phases: dict) -> dict:
        """Per-layer metrics as {name: (value, unit)}.  `phases` holds the
        untraced phase seconds and tracing overhead the harness measured."""
        def tot(name):
            return self.totals.get(name, [0, 0.0, 0.0])

        c = self.counts
        out: dict = {}
        for name in (
            "tuple_types.tuple_type", "tuple_types.restrict_type", "tuple_types.enumerate_types",
            "structures.subset_is_big", "structures.subset_closure",
            "colorings.find_type_homogeneous", "colorings.type_homogeneity_witness",
            "diagrams.model_diagram",
        ):
            out[f"{name}.calls"] = (tot(name)[0], "count")
            out[f"{name}.self_s"] = (tot(name)[2], "s")
        calls, incl, _ = tot("tuple_types.tuple_type")
        out["tuple_types.tuple_type.us_per_call"] = (1e6 * incl / calls if calls else 0.0, "us")
        out["structures.block_of.calls"] = (c["structures.FinStructure.block_of.calls"], "count")
        out["structures.make_canonical.self_s"] = (tot("structures.make_canonical")[2], "s")
        search_s = tot("colorings.find_type_homogeneous")[1]
        out["colorings.search.nodes"] = (c["colorings.search.nodes"], "count")
        out["colorings.search.nodes_per_s"] = (c["colorings.search.nodes"] / search_s if search_s else 0.0, "1/s")
        lookups = c["colorings.type_of.calls"]
        out["colorings.type_of.calls"] = (lookups, "count")
        out["colorings.type_of.hit_ratio"] = (c["colorings.type_of.hits"] / lookups if lookups else 0.0, "ratio")
        out["colorings.iter_big_member_subsets.yielded"] = (c["colorings.iter_big_member_subsets.yielded"], "count")
        arrow_s = tot("arrow.arrow_check")[1]
        out["arrow.arrow_check.self_s"] = (tot("arrow.arrow_check")[2], "s")
        out["arrow.work"] = (c["arrow.work"], "count")
        out["arrow.colorings_checked"] = (c["arrow.colorings_checked"], "count")
        out["arrow.work_per_s"] = (c["arrow.work"] / arrow_s if arrow_s else 0.0, "1/s")
        out["arrow.flips"] = (c["arrow.flips"], "count")
        out["arrow.flips_per_s"] = (c["arrow.flips"] / self.anneal_s if self.anneal_s else 0.0, "1/s")
        out["arrow.verify_refutation.self_s"] = (tot("arrow.verify_refutation")[2], "s")
        for name in ("reduce_chicolor", "reduce_ceq", "aux_coloring_chicolor", "aux_coloring_ceq"):
            out[f"reductions.{name}.self_s"] = (tot(f"reductions.{name}")[2], "s")
        for stage in STAGES:
            out[f"reductions.stage_work.{stage}"] = (c[f"reductions.stage_work.{stage}"], "count")
        lifts = c["reductions.lift_attempts"]
        out["reductions.lift_ok_ratio"] = (c["reductions.lift_ok"] / lifts if lifts else 0.0, "ratio")
        for name in ("em_model", "check_coherence", "check_indiscernible", "extract_blueprint", "derive_homogeneous"):
            out[f"blueprints.{name}.self_s"] = (tot(f"blueprints.{name}")[2], "s")
        out["blueprints.em_model.model_elems"] = (c["blueprints.em_model.model_elems"], "count")
        out["blueprints.em_model.relation_slots"] = (c["blueprints.em_model.relation_slots"], "count")
        out["cli.main.self_s"] = (tot("cli.main")[2], "s")
        out["cli.report_bytes"] = (c["cli.report_bytes"], "bytes")
        out["cli.check.calls"] = (c["cli.cmd_check.calls"], "count")
        out["anneal_s"] = (phases.get("anneal", 0.0), "s")
        out["verify_s"] = (phases.get("check", 0.0), "s")
        out["trace.overhead_s"] = (phases["overhead"], "s")
        return out
