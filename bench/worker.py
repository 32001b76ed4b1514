"""Run one workload's operations through the CLI, in-process, as one client.

Usage: python3 bench/worker.py PLAN RESULT [--seconds S] [--trace SPANS]

Closed loop, sequential: each operation is ``rankconsensus.cli.main(argv)``
and the next starts only after the previous one has returned and been
checked. With --seconds S > 0 the worker cycles through the plan until
S seconds have passed and every operation has run at least once after
the warm-up; the operations of about the first second, and at least the
first one, are the warm-up and not counted. With --seconds 0 it runs
every operation exactly once, which is what the traced passes use so
that their counts repeat. Only the call itself is timed; reading and
checking the output happen outside the timed region.

A timed worker moves itself to the next allowed CPU about once a second:
on a shared VM the contention often hits one vCPU at a time, and the
fastest repetition of an operation should not depend on which one the
scheduler happened to pick.

With --setup-spawns K the worker also times K fresh interpreters that
import rankconsensus.cli, one about every S/K seconds between
operations, so that the set-up time samples the whole run rather than
one moment of it.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import checks
from tracing import COUNTS, Recorder

WARMUP_S = 1.0
MAX_ERRORS = 5
SETUP_LIMIT_S = 60
HOP_S = 1.0


def run_op(main, op: dict, out: Path, recorder: Recorder | None) -> tuple[float, str, str]:
    """Time one CLI call; return (seconds, status, reason)."""
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            if recorder is None:
                code = main(op["argv"])
            else:
                code = recorder.call("cli", main, (op["argv"],), {})
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback is a failed operation, not a crash
            code = None
            stderr.write(f"raised {type(exc).__name__}: {exc}")
    elapsed = perf_counter() - start
    output = out.read_text(encoding="utf-8") if out.exists() else None
    reason = checks.check(op, code, stdout.getvalue(), output)
    if reason is None:
        return elapsed, "ok", ""
    if checks.known_defect(op, code, stderr.getvalue()):
        return elapsed, "known", checks.LEADING_TIE_DEFECT
    return elapsed, "unexpected", f"{' '.join(op['argv'][:2])}: {reason}; {stderr.getvalue()[:200]!r}"


def time_setup() -> float:
    """Wall time of a fresh interpreter importing rankconsensus.cli.

    The wait blocks in waitpid: ``subprocess.run(timeout=...)`` polls the
    child with sleeps of up to 50 ms, which would round the time to that
    step. A timer kills a child that hangs.
    """
    start = perf_counter()
    child = subprocess.Popen([sys.executable, "-c", "import rankconsensus.cli"])
    watchdog = threading.Timer(SETUP_LIMIT_S, child.kill)
    watchdog.start()
    try:
        code = child.wait()
    finally:
        watchdog.cancel()
    elapsed = perf_counter() - start
    if code != 0:
        raise RuntimeError(f"importing rankconsensus.cli exited {code}")
    return elapsed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("plan")
    parser.add_argument("result")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", metavar="SPANS", help="record spans and write them here")
    parser.add_argument("--setup-spawns", type=int, default=0)
    args = parser.parse_args()

    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    ops, out = plan["ops"], Path(plan["out"])
    recorder = None
    if args.trace:
        recorder = Recorder()
        recorder.install()
    from rankconsensus import cli

    records: list[list] = []
    errors: list[str] = []
    setup: list[float] = []
    spawn_every = args.seconds / args.setup_spawns if args.setup_spawns else 0.0
    timed = args.seconds > 0
    counted: set[int] = set()
    start = perf_counter()
    k = 0
    cpus = sorted(os.sched_getaffinity(0))
    hopped = start
    while (len(counted) < len(ops) or perf_counter() - start < args.seconds) if timed else k < len(ops):
        index = k % len(ops)
        if timed and len(cpus) > 1 and perf_counter() - hopped >= HOP_S:
            os.sched_setaffinity(0, {cpus[int(perf_counter() / HOP_S) % len(cpus)]})
            hopped = perf_counter()
        warmup = timed and (k == 0 or perf_counter() - start < WARMUP_S)
        if recorder is not None:
            recorder.op = k
        elapsed, status, reason = run_op(cli.main, ops[index], out, recorder)
        if not warmup:
            records.append([index, elapsed, status])
            counted.add(index)
            if status == "unexpected" and len(errors) < MAX_ERRORS:
                errors.append(reason)
        if len(setup) < args.setup_spawns and perf_counter() - start >= len(setup) * spawn_every:
            setup.append(time_setup())
        k += 1
    while len(setup) < args.setup_spawns:
        setup.append(time_setup())
    out.unlink(missing_ok=True)

    result = {
        "records": records,
        "errors": errors,
        "setup": setup,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if recorder is not None:
        recorder.write(Path(args.trace))
        result["times"] = recorder.times()
        result["counts"] = {name: recorder.counts[name] for name in COUNTS}
        result["missing"] = recorder.missing
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
