"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench/test_bench.py

The tier-1 suite collects only tests/, so it never runs this file.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(*args, cwd=HERE.parent):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / SPEC["command"][1]), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_runs_print_every_metric(workload):
    answers = set()
    for trace, key in ((0, "end_to_end"), (1, "per_layer"), (0, "end_to_end")):
        proc = bench("--workload", workload, "--seed", "1", "--seconds", "0",
                     "--trace", str(trace), "--size", "tiny")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2])["detail"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in SPEC[key]}
        for m in SPEC[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
        answers.add(detail["answers_sha256"])
    # traced and untraced runs, and a second process, give the same answers
    assert len(answers) == 1


def test_sweep_failures_are_refuted_reduction_absences():
    proc = bench("--workload", "sweep", "--seed", "0", "--seconds", "0", "--size", "tiny")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads(proc.stdout.strip().splitlines()[-2])["detail"]
    # a reduction that claims exhaustive absence where direct search finds a
    # subset is counted as failed; direct search itself never fails its oracle
    refuted = {g: e.get("refuted", 0) + e.get("error", 0) for g, e in detail["groups"].items()}
    assert result["failed"] == sum(n for g, n in refuted.items() if g.startswith("reduce:"))


def test_exits_without_result_when_library_is_missing():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = bench("--workload", "sweep", "--seed", "1", "--seconds", "1", cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)
