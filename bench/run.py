"""Benchmark of the rankconsensus CLI: end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload {sweep_grid,exact_wide,mixed_small,all}
                         --seed N --seconds S --trace {0,1}

The inputs are made from --seed under .bench_work/ and removed at the
end. Each workload then runs in its own child process (bench/worker.py)
as a closed loop with one sequential client, calling
``rankconsensus.cli.main(argv)`` with --output to a file, and every
output is checked (bench/checks.py). The run prints every metric by
name, unit and sample count, writes .bench_work/BENCH_*.json, and ends
with one JSON line: correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics from a closed loop of S
seconds that repeats the plan. ``attempted`` and ``failed`` count plan
operations, each once however often it repeated, so they depend on the
seed alone. An operation's latency is its fastest
repetition in the run: the same operation swings by 10-90% between runs
on a shared machine, and the fastest repetition sheds most of that. --trace 1 runs every operation of the plan once
without tracing, then twice with spans and counts (bench/tracing.py);
it reports per-layer times and counts from the first traced pass,
trace.overhead_s as traced minus untraced time, and fails the run when
the two traced passes disagree on any count.

``correct`` is false on any failure except the known defect: a text
file whose first ranking starts with a tie group ("{a b} c") is sniffed
as JSON by the CLI and exits 2. mixed_small keeps such files in its
data; they count in ``failed`` and in fail_ratio.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import SPANS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Whole-run limit in seconds; a worker still running at this point is killed.
RUN_LIMIT = 170
SETUP_SPAWNS = 21
P90_MIN_SAMPLES = 100

END_TO_END = (("ops_per_s", "1/s"), ("op_p50_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

COUNT_METRICS = (
    ("graph.survey_calls", "count"),
    ("graph.common_items", "count"),
    ("graph.edges", "count"),
    ("graph.density", "ratio"),
    ("graph.matrix_builds", "count"),
    ("measures.series_calls", "count"),
    ("measures.terms", "count"),
    ("measures.edge_mults", "count"),
    ("measures.total_bits", "bits"),
    ("io.bytes_in", "bytes"),
    ("io.bytes_out", "bytes"),
    ("oracle.subsequences", "count"),
    ("baselines.pair_evals", "count"),
)


def span_metric_names(span: str) -> tuple[str, str]:
    if span == "cli":
        return "cli.total_s", "cli.self_s"
    return f"{span}_s", f"{span}_self_s"


def per_layer_names() -> list[tuple[str, str]]:
    names = []
    for span in SPANS:
        names += [(name, "s") for name in span_metric_names(span)]
    return names + list(COUNT_METRICS) + [("trace.ops", "count"), ("trace.overhead_s", "s")]


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise TimeoutError("benchmark run exceeded its time limit")
        return left


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(plan_path: Path, result_path: Path, deadline: Deadline, seconds: float = 0,
               spans: Path | None = None, setup_spawns: int = 0) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path),
            "--seconds", str(seconds), "--setup-spawns", str(setup_spawns)]
    if spans is not None:
        argv += ["--trace", str(spans)]
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=deadline.left())
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def tally(records: list[list]) -> tuple[int, int, int]:
    """(attempted, failed, failed by the known defect), in plan operations.

    Every plan operation is counted once however often it repeated, and
    fails if any repetition failed, so the figures depend on the seed
    alone and not on how many repetitions fitted into the run.
    """
    status: dict[int, str] = {}
    for index, _, outcome in records:
        if status.get(index, "ok") == "ok":
            status[index] = outcome
    failed = sum(1 for outcome in status.values() if outcome != "ok")
    known = sum(1 for outcome in status.values() if outcome == "known")
    return len(status), failed, known


def fastest_repetitions(records: list[list]) -> tuple[list[float], float]:
    """Each plan operation's fastest repetition: (those of operations that
    passed every repetition, the sum over all operations)."""
    fastest: dict[int, float] = {}
    passed: dict[int, bool] = {}
    for index, elapsed, status in records:
        fastest[index] = min(elapsed, fastest.get(index, elapsed))
        passed[index] = passed.get(index, True) and status == "ok"
    return [t for index, t in fastest.items() if passed[index]], sum(fastest.values())


def end_to_end(plan: dict, plan_path: Path, workdir: Path, seconds: int, deadline: Deadline) -> dict:
    # The set-up spawns are spread over the run by the worker, so that one
    # burst of load on the machine does not decide their median. This
    # first one may compile bytecode and is not counted.
    subprocess.run([sys.executable, "-c", "import rankconsensus.cli"], cwd=ROOT, env=child_env(),
                   check=True, timeout=deadline.left())
    result = run_worker(plan_path, workdir / "result.json", deadline, seconds,
                        setup_spawns=SETUP_SPAWNS)
    setup = result["setup"]
    records = result["records"]
    attempted, failed, known = tally(records)
    best, best_total = fastest_repetitions(records)
    every = [elapsed for _, elapsed, status in records if status == "ok"]
    busy = sum(elapsed for _, elapsed, _ in records)
    metrics = {
        "ops_per_s": (len(best) / best_total, "1/s", len(best)),
        "op_p50_s": (statistics.median(best or [best_total]), "s", len(best)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (result["maxrss_kb"] / 1024, "MB", 1),
    }
    extra = {
        "fail_ratio": (failed / attempted, "ratio", attempted),
        "ops_per_s_all": (len(every) / busy, "1/s", attempted),
        "op_p50_all_s": (statistics.median(every or [busy]), "s", len(every)),
    }
    if len(best) >= P90_MIN_SAMPLES:
        extra["op_p90_s"] = (statistics.quantiles(best, n=10)[8], "s", len(best))
    return {
        "metrics": metrics,
        "extra": extra,
        "attempted": attempted,
        "failed": failed,
        "known_defect_failures": known,
        "repetitions": len(records),
        "errors": result["errors"],
        "by_kind": by_kind(plan, records),
    }


def by_kind(plan: dict, records: list[list]) -> dict:
    kinds: dict[str, list] = {}
    for index, elapsed, status in records:
        entry = kinds.setdefault(plan["ops"][index]["kind"], [0, 0, []])
        entry[0] += 1
        entry[1] += status != "ok"
        entry[2].append(elapsed)
    return {kind: {"attempted": n, "failed": f, "median_s": statistics.median(times)}
            for kind, (n, f, times) in sorted(kinds.items())}


def traced(plan: dict, plan_path: Path, workdir: Path, spans_path: Path, deadline: Deadline) -> dict:
    base = run_worker(plan_path, workdir / "base.json", deadline)
    first = run_worker(plan_path, workdir / "trace1.json", deadline, spans=spans_path)
    second = run_worker(plan_path, workdir / "trace2.json", deadline, spans=workdir / "spans2.jsonl")
    passes = (base, first, second)
    attempted, failed, known = tally([r for result in passes for r in result["records"]])
    errors = [e for result in passes for e in result["errors"]]
    if first["counts"] != second["counts"]:
        errors.append(f"counts differ between traced passes: {first['counts']} vs {second['counts']}")
    if first["missing"]:
        errors.append(f"functions not found for tracing: {first['missing']}")

    n = len(first["records"])
    metrics = {}
    for span, (total, own) in first["times"].items():
        total_name, self_name = span_metric_names(span)
        metrics[total_name] = (total, "s", n)
        metrics[self_name] = (own, "s", n)
    counts = first["counts"]
    for name, unit in COUNT_METRICS:
        if name == "graph.density":
            value = counts["graph.edges"] / counts["graph.pairs"] if counts["graph.pairs"] else 0.0
        else:
            value = counts[name]
        metrics[name] = (value, unit, n)
    metrics["trace.ops"] = (n, "count", n)
    overhead = sum(r[1] for r in first["records"]) - sum(r[1] for r in base["records"])
    metrics["trace.overhead_s"] = (overhead, "s", n)
    return {
        "metrics": metrics,
        "extra": {},
        "attempted": attempted,
        "failed": failed,
        "known_defect_failures": known,
        "repetitions": sum(len(result["records"]) for result in passes),
        "errors": errors,
        "counts": counts,
        "by_kind": by_kind(plan, first["records"]),
    }


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def run_workload(workload: str, seed: int, seconds: int, trace: bool, deadline: Deadline) -> dict:
    import workloads

    workdir = WORK / f"run-{workload}-{seed}-{int(trace)}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        plan = workloads.build_plan(workload, seed, workdir)
        plan_path = workdir / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        if trace:
            spans = WORK / f"spans_{workload}_seed{seed}.jsonl"
            report = traced(plan, plan_path, workdir, spans, deadline)
        else:
            report = end_to_end(plan, plan_path, workdir, seconds, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    unexpected = report["failed"] - report["known_defect_failures"]
    report["correct"] = unexpected == 0 and not report["errors"] and report["attempted"] > 0
    report["inputs"] = plan["inputs"]
    report["operations_in_plan"] = len(plan["ops"])
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rankconsensus" / "cli.py").is_file():
        print(f"error: no rankconsensus sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    WORK.mkdir(exist_ok=True)
    deadline = Deadline(RUN_LIMIT * len(chosen))

    reports = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), deadline) for w in chosen}

    mode = "trace" if args.trace else "e2e"
    bench = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "seed": args.seed,
        "seconds": args.seconds,
        "mode": mode,
        "workloads": {
            w: {**{k: v for k, v in r.items() if k != "extra"},
                "metrics": {k: {"value": v, "unit": u, "samples": n}
                            for k, (v, u, n) in {**r["metrics"], **r["extra"]}.items()}}
            for w, r in reports.items()
        },
    }
    out = WORK / f"BENCH_{args.workload}_seed{args.seed}_{mode}.json"
    out.write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w, r in reports.items():
        prefix = "" if len(reports) == 1 else f"{w}/"
        print(f"# {w}: attempted {r['attempted']} plan operations ({r['repetitions']} repetitions), "
              f"failed {r['failed']} "
              f"({r['known_defect_failures']} by the known leading-tie defect)")
        for error in r["errors"]:
            print(f"# unexpected: {error}")
        for name, (value, unit, n) in {**r["metrics"], **r["extra"]}.items():
            print(f"{prefix}{name} {value:.6g} {unit} (n={n})")
        summary["correct"] = summary["correct"] and r["correct"]
        summary["attempted"] += r["attempted"]
        summary["failed"] += r["failed"]
        for name, (value, unit, _) in r["metrics"].items():
            summary["metrics"][prefix + name] = {"value": value, "unit": unit}
    print(f"# wrote {out.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
