"""Tests of the benchmark itself.

Run from the repository root: PYTHONPATH=src python -m pytest bench -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import run
import workloads
from rankconsensus import cli, io
from worker import run_op

ROOT = Path(__file__).resolve().parent.parent


def bench_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def last_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def small_op(tmp_path: Path, lines: list[str]) -> tuple[dict, Path]:
    """The exact measure operation of a mixed_small plan, on a tiny file."""
    path = tmp_path / "in.txt"
    text = "\n".join(lines) + "\n"
    path.write_text(text, encoding="utf-8")
    rset = io.parse_text(text).to_ranking_set()
    out = tmp_path / "out.txt"
    op = workloads._mixed_set_ops(path, rset, text.startswith("{"), str(out))[0]
    return op, out


def test_benchmark_json_matches_the_benchmark():
    spec = bench_json()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [workloads.WHY[w] for w in workloads.WORKLOADS]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()


def test_checker_passes_real_output_and_fails_corrupted_total(tmp_path):
    op, out = small_op(tmp_path, ["a b c d", "b a c d", "a c b d"])
    assert run_op(cli.main, op, out, None)[1] == "ok"

    def off_by_one(argv):
        code = cli.main(argv)
        payload = json.loads(out.read_text(encoding="utf-8"))
        payload["kappa_total"] += 1
        out.write_text(json.dumps(payload), encoding="utf-8")
        return code

    _, status, reason = run_op(off_by_one, op, out, None)
    assert status == "unexpected"
    assert "closed form" in reason


def test_wrong_exit_code_is_a_failure(tmp_path):
    op, out = small_op(tmp_path, ["a b c d", "b a c d"])
    assert run_op(lambda argv: 3, op, out, None)[1] == "unexpected"


def test_leading_tie_group_is_the_known_defect(tmp_path):
    op, out = small_op(tmp_path, ["{a b} c d", "a b c d"])
    assert op["leading_tie"] and op["expected"] == 0
    _, status, reason = run_op(cli.main, op, out, None)
    assert (status, reason) == ("known", checks.LEADING_TIE_DEFECT)


def test_same_seed_same_inputs(tmp_path):
    plans = []
    for name in ("a", "b"):
        workdir = tmp_path / name
        workdir.mkdir()
        plan = workloads.build_plan("mixed_small", 7, workdir)
        texts = [p.read_text(encoding="utf-8") for p in sorted(workdir.glob("in*.txt"))]
        plans.append((json.dumps(plan).replace(str(workdir), "DIR"), texts))
    assert plans[0] == plans[1]


def test_mixed_small_failure_count_does_not_depend_on_the_seed(tmp_path):
    shapes = []
    for seed in (1, 2):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        plan = workloads.build_plan("mixed_small", seed, workdir)
        shapes.append((len(plan["ops"]), sum(op["leading_tie"] for op in plan["ops"]),
                       sum(size["full"] for size in plan["inputs"])))
    assert shapes[0] == shapes[1]
    assert shapes[0][1] > 0


def test_tally_counts_each_plan_operation_once():
    records = [[0, 0.1, "ok"], [1, 0.1, "known"], [0, 0.1, "unexpected"], [1, 0.1, "known"], [2, 0.1, "ok"]]
    assert run.tally(records) == (3, 2, 1)


def test_end_to_end_run_emits_every_metric():
    result = last_line(run_bench("--workload", "sweep_grid", "--seed", "3", "--seconds", "1", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in bench_json()["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_emits_every_layer_metric_and_counts_repeat():
    result = last_line(run_bench("--workload", "mixed_small", "--seed", "3", "--seconds", "1", "--trace", "1"))
    # correct also requires the two traced passes to agree on every count.
    assert result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    assert list(result["metrics"]) == [m["name"] for m in bench_json()["per_layer"]]
    for name in ("oracle.subsequences", "baselines.pair_evals", "graph.edges", "io.bytes_in"):
        assert result["metrics"][name]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "mixed_small", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_mixed_small_expects_documented_refusals(tmp_path):
    plan = workloads.build_plan("mixed_small", 5, tmp_path)
    codes = {(op["kind"], op["expected"]) for op in plan["ops"]}
    assert {("oracle", 0), ("oracle", 6), ("baseline", 0), ("baseline", 4)} <= codes
