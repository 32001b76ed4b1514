"""Seeded inputs, operation lists and reference values for each workload.

A plan is a JSON-ready dict: the operations a worker runs (CLI argv, the
exit code the input calls for, and the reference values its output is
checked against) plus the input sizes recorded in the BENCH file. Every
input is made from the seed alone; the program under test only sees the
generated files, or for the bundled datasets their names.

References come from routes that avoid the code under test where they
can: each set is built straight from the generated tie groups (never
through ``io.parse_text``), totals come from ``kappa_total_closed``
instead of the series, oracle results from ``oracle.oracle_profile``,
and Kendall tau from a direct pair count written here.
"""
from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from rankconsensus import io, oracle
from rankconsensus.cli import EXPERIMENT_GRID, EXIT_OK, EXIT_SIZE, EXIT_UNSUPPORTED, parse_grid
from rankconsensus.graph import Deviation, MeasureParams, Survey, survey
from rankconsensus.measures import kappa_total_closed
from rankconsensus.model import RankingSet

WORKLOADS = ("sweep_grid", "exact_wide", "mixed_small")

# Why each workload exists; mirrored in BENCHMARK.json.
WHY = {
    "sweep_grid": "default 12x12 sweep, 16 sets of n=40 N=10: per-point matrix rebuild and weighted series",
    "exact_wide": "exact measure, 16 sets of n=128 N=50: survey and big-integer series",
    "mixed_small": "small random tied/partial sets and bundled data: per-call CLI, parse, oracle, baselines",
}

# Near-consensus shapes: reference length n, rankings N, distinct inputs per run.
# Each operation takes about 0.1 s, so that a run repeats every input many
# times and the fastest repetition can find a quiet moment on a shared
# machine, whose speed drifts by up to 1.9x for seconds to minutes at a
# time. Many inputs per run average out the seed-to-seed difference in work.
NEAR_SHAPES = {"sweep_grid": (40, 10, 16), "exact_wide": (128, 50, 16)}

# mixed_small: random_set shape from the test suite, scaled up. Full
# sets stay small because baseline cost grows with N**2 * n**2; a few
# large ones would dominate the workload and swing it from seed to seed.
MIXED_SETS = 600
MIXED_UNIVERSE = 80
MIXED_MAX_RANKINGS = 12
MIXED_TIE_PROB = 0.25
MIXED_FULL_SHARE = 0.1
MIXED_FULL_MAX_ITEMS = 20

ORACLE_PARAMS = MeasureParams(gamma=0.9, lam=0.8)
DEDUP_PARAMS = MeasureParams(gamma=0.9, lam=0.9)

Groups = list[list[str]]


def near_consensus(rng: random.Random, n: int, count: int) -> list[Groups]:
    """One shuffled base order; each ranking applies n random adjacent swaps."""
    base = [f"x{k}" for k in range(n)]
    rng.shuffle(base)
    rankings = []
    for _ in range(count):
        order = base[:]
        for _ in range(n):
            i = rng.randrange(n - 1)
            order[i], order[i + 1] = order[i + 1], order[i]
        rankings.append([[token] for token in order])
    return rankings


def random_partial(rng: random.Random, leading_tie: bool) -> list[Groups]:
    """Partial rankings over a shared universe with random tie groups.

    Whether the first group of the first ranking is tied is the caller's
    choice, made for a fixed share of the sets; such files start with
    "{" and keep the JSON-sniffing defect of the CLI in the data.
    """
    tokens = [f"t{k}" for k in range(MIXED_UNIVERSE)]
    rankings = []
    for r in range(rng.randint(2, MIXED_MAX_RANKINGS)):
        chosen = rng.sample(tokens, rng.randint(2 if r == 0 else 1, MIXED_UNIVERSE))
        groups: Groups = []
        index = 0
        while index < len(chosen):
            tied = leading_tie if r == 0 and index == 0 else rng.random() < MIXED_TIE_PROB
            if index + 1 < len(chosen) and tied:
                width = rng.randint(2, min(3, len(chosen) - index))
                groups.append(chosen[index : index + width])
                index += width
            else:
                groups.append([chosen[index]])
                index += 1
        rankings.append(groups)
    return rankings


def random_full(rng: random.Random) -> list[Groups]:
    """Untied rankings that all order the same item subset: in baseline scope."""
    tokens = [f"t{k}" for k in range(MIXED_UNIVERSE)]
    chosen = rng.sample(tokens, rng.randint(2, MIXED_FULL_MAX_ITEMS))
    rankings = []
    for _ in range(rng.randint(2, MIXED_MAX_RANKINGS)):
        order = chosen[:]
        rng.shuffle(order)
        rankings.append([[token] for token in order])
    return rankings


def render_text(rankings: list[Groups]) -> str:
    lines = []
    for groups in rankings:
        parts = [g[0] if len(g) == 1 else "{" + " ".join(g) + "}" for g in groups]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def in_baseline_scope(rset: RankingSet) -> bool:
    first = rset.rankings[0].item_set()
    return all(r.is_untied and r.item_set() == first and r.length >= 2 for r in rset)


def expected_code(kind: str, rset: RankingSet) -> int:
    """The exit code the CLI documents for this operation on this input."""
    if kind == "oracle" and min(r.length for r in rset) > oracle.SIZE_GUARD:
        return EXIT_SIZE
    if kind == "baseline" and not in_baseline_scope(rset):
        return EXIT_UNSUPPORTED
    return EXIT_OK


def closed_total(sv: Survey, params: MeasureParams) -> int | float:
    return kappa_total_closed(sv.matrix(params))


def sweep_points(sv: Survey, params: MeasureParams) -> list[list]:
    """[gamma, lambda, closed total] over the CLI's default grid."""
    grid = parse_grid(EXPERIMENT_GRID)
    return [
        [gamma, lam, closed_total(sv, replace(params, gamma=gamma, lam=lam))]
        for gamma in grid
        for lam in grid
    ]


def dedup_total(rset: RankingSet, params: MeasureParams) -> float:
    distinct, s = rset.distinct()
    return float(closed_total(survey(distinct), params) + Fraction(len(rset) * s, len(distinct)))


def tau_mean(rset: RankingSet) -> float:
    """Mean Kendall tau over ordered pairs, by counting discordant pairs."""
    orders = [list(r.items()) for r in rset]
    n = len(orders[0])
    pairs = n * (n - 1) // 2
    total = 0.0
    for a in range(len(orders)):
        for b in range(a + 1, len(orders)):
            where = {item: k for k, item in enumerate(orders[b])}
            seq = [where[item] for item in orders[a]]
            discordant = sum(1 for i in range(n) for j in range(i + 1, n) if seq[i] > seq[j])
            total += 2 * (pairs - 2 * discordant) / pairs
    return total / (len(orders) * (len(orders) - 1))


def _op(kind: str, argv: list[str], expected: int, ref: dict | None, leading_tie: bool) -> dict:
    return {"kind": kind, "argv": argv, "expected": expected, "ref": ref, "leading_tie": leading_tie}


def _measure_op(name: str, sv: Survey, out: str, leading_tie: bool = False) -> dict:
    argv = ["measure", name, "--format", "json", "--output", out]
    return _op("measure_exact", argv, EXIT_OK, {"total": closed_total(sv, MeasureParams())}, leading_tie)


def _oracle_op(name: str, rset: RankingSet, leading_tie: bool = False) -> dict:
    code = expected_code("oracle", rset)
    ref = None
    if code == EXIT_OK:
        profile = oracle.oracle_profile(rset, ORACLE_PARAMS)
        ref = {"ell": profile.ell, "total": profile.total}
    argv = ["oracle-check", name, "--gamma", "0.9", "--lambda", "0.8"]
    return _op("oracle", argv, code, ref, leading_tie)


def _baseline_op(name: str, rset: RankingSet, out: str, leading_tie: bool = False) -> dict:
    code = expected_code("baseline", rset)
    ref = None
    if code == EXIT_OK:
        ref = {"aggregate": tau_mean(rset), "pairs": len(rset) * (len(rset) - 1)}
    argv = ["baseline", name, "--index", "tau", "--format", "csv", "--output", out]
    return _op("baseline", argv, code, ref, leading_tie)


def near_plan(workload: str, seed: int, workdir: Path) -> dict:
    n, count, inputs = NEAR_SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}")
    out = str(workdir / "out.txt")
    ops, sizes = [], []
    for k in range(inputs):
        rankings = near_consensus(rng, n, count)
        path = workdir / f"in{k}.txt"
        path.write_text(render_text(rankings), encoding="utf-8")
        sv = survey(RankingSet.build(rankings))
        if workload == "sweep_grid":
            argv = ["sweep", str(path), "--format", "csv", "--output", out]
            ops.append(_op("sweep", argv, EXIT_OK, {"points": sweep_points(sv, MeasureParams())}, False))
        else:
            ops.append(_measure_op(str(path), sv, out))
        sizes.append({"n": n, "N": count, "edges": len(sv.edges)})
    return {"workload": workload, "seed": seed, "out": out, "ops": ops, "inputs": sizes}


def _mixed_set_ops(path: Path, rset: RankingSet, leading_tie: bool, out: str) -> list[dict]:
    name = str(path)
    sv = survey(rset)
    dedup_argv = ["measure", name, "--gamma", "0.9", "--lambda", "0.9", "--dedup",
                  "--format", "csv", "--output", out]
    dedup_ref = {"total": closed_total(sv, DEDUP_PARAMS), "kappa_dup": dedup_total(rset, DEDUP_PARAMS)}
    return [
        _measure_op(name, sv, out, leading_tie),
        _op("measure_dedup", dedup_argv, EXIT_OK, dedup_ref, leading_tie),
        _oracle_op(name, rset, leading_tie),
        _baseline_op(name, rset, out, leading_tie),
    ]


REFERENCE_TABLE = {
    io.Dataset.CLUSTERING_CE: "ce",
    io.Dataset.CLUSTERING_GA: "ga",
    io.Dataset.SEARCH_GOOGLE: "google",
    io.Dataset.SEARCH_BING: "bing",
}


def _bundled_ops(out: str) -> list[dict]:
    ops = []
    std = MeasureParams(deviation=Deviation.STD)
    for dataset in io.Dataset:
        name = dataset.value
        # Built from the bundled file through parse_text: the datasets are
        # the program's own data, so there is no generator-side copy.
        rset = io.load_dataset(dataset).to_ranking_set()
        sv = survey(rset)
        ref = {"points": sweep_points(sv, std)}
        if dataset in REFERENCE_TABLE:
            ref["table"] = io.load_reference_sweep(REFERENCE_TABLE[dataset])[2]
        argv = ["sweep", name, "--deviation", "std", "--format", "csv", "--output", out]
        ops += [
            _measure_op(name, sv, out),
            _op("sweep", argv, EXIT_OK, ref, False),
            _baseline_op(name, rset, out),
            _oracle_op(name, rset),
        ]
    for name in ("clustering", "search"):
        ops.append(_op("experiment", ["experiment", name, "--output", out], EXIT_OK, {"sections": 2}, False))
    return ops


def mixed_plan(seed: int, workdir: Path) -> dict:
    rng = random.Random(f"mixed_small:{seed}")
    out = str(workdir / "out.txt")
    ops, sizes = [], []
    # Fixed shares, seeded positions: every seed gets as many full sets
    # and as many files with a leading tie group, so the work mix and
    # the failures of the known defect do not change with the seed.
    full_sets = set(rng.sample(range(MIXED_SETS), round(MIXED_SETS * MIXED_FULL_SHARE)))
    partial = [k for k in range(MIXED_SETS) if k not in full_sets]
    leading_ties = set(rng.sample(partial, round(len(partial) * MIXED_TIE_PROB)))
    for k in range(MIXED_SETS):
        full = k in full_sets
        rankings = random_full(rng) if full else random_partial(rng, k in leading_ties)
        text = render_text(rankings)
        path = workdir / f"in{k}.txt"
        path.write_text(text, encoding="utf-8")
        rset = RankingSet.build(rankings)
        leading_tie = text.startswith("{")
        ops.extend(_mixed_set_ops(path, rset, leading_tie, out))
        sizes.append({"n": min(r.length for r in rset), "N": len(rset), "edges": len(survey(rset).edges),
                      "full": full, "leading_tie": leading_tie})
    ops.extend(_bundled_ops(out))
    rng.shuffle(ops)
    return {"workload": "mixed_small", "seed": seed, "out": out, "ops": ops, "inputs": sizes}


def build_plan(workload: str, seed: int, workdir: Path) -> dict:
    """Write the inputs for one run under workdir and return its plan."""
    if workload == "mixed_small":
        return mixed_plan(seed, workdir)
    return near_plan(workload, seed, workdir)
