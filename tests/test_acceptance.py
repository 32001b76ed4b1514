"""Acceptance battery: one test per shipping criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one
``criterion N [PASS|FAIL] name`` line per criterion. Each test computes
its verdict first and prints the line before asserting, so the summary
is complete even on failure.

Golden values come from two routes that never share code: exact counts
re-derived by the enumeration oracle, and the bundled reference tables
checked cell by cell.
"""
from __future__ import annotations

import random
import time

from rankconsensus import cli
from rankconsensus.baselines import (
    kendall_distance,
    kendall_tau,
    spearman_footrule,
    spearman_rho,
)
from rankconsensus.graph import Deviation, MeasureParams, survey
from rankconsensus.io import Dataset, load_dataset, load_reference_sweep
from rankconsensus.measures import (
    kappa1_topk,
    kappa_dup,
    kappa_series,
    kappa_sweep,
    kappa_total_closed,
    measure,
)
from rankconsensus.model import Ranking, RankingSet
from rankconsensus.oracle import enumerate_common, oracle_profile

from conftest import EXAMPLE_LINES, make_set, random_set
from reference import enumerate_upto, to_dense

GRID = [x / 100 for x in range(100, 44, -5)]
TABLES = (
    ("ce", Dataset.CLUSTERING_CE),
    ("ga", Dataset.CLUSTERING_GA),
    ("google", Dataset.SEARCH_GOOGLE),
    ("bing", Dataset.SEARCH_BING),
)


def evaluate(fn):
    try:
        fn()
        return True, ""
    except Exception as exc:
        return False, f"{type(exc).__name__}: {exc}"


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"criterion {number} [{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, detail


def test_criterion_1_worked_example():
    def run():
        rset = make_set(*EXAMPLE_LINES)
        profile = measure(rset, MeasureParams())
        assert profile.series == (5, 7, 4, 1)
        assert profile.ell == 4
        assert profile.total == 17
        assert all(isinstance(v, int) for v in profile.series)

        subs = enumerate_common(rset)
        assert ["".join(s.items) for s in subs if len(s.items) == 3] == [
            "bde", "bdf", "bef", "def",
        ]
        assert ["".join(s.items) for s in subs if len(s.items) == 4] == ["bdef"]

        pattern = [
            [0, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 1, 1, 0, 0, 0],
            [0, 1, 0, 1, 0, 0],
            [0, 1, 0, 1, 1, 0],
            [0, 1, 0, 1, 1, 1],
        ]
        dense = to_dense(survey(rset).matrix(MeasureParams()))
        assert dense == pattern
        assert all(isinstance(v, int) for row in dense for v in row)

        timings = []
        for _ in range(5):
            started = time.perf_counter()
            measure(rset, MeasureParams())
            timings.append(time.perf_counter() - started)
        assert min(timings) < 0.010, f"slowest acceptable 10ms, got {min(timings):.4f}s"

    ok, detail = evaluate(run)
    report(1, "worked example: profile, enumeration, matrix pattern, speed", ok, detail)


def test_criterion_2_dataset_corner_totals():
    def run():
        expected_total = {"ce": 19, "ga": 19, "google": 33, "bing": 23}
        expected_first = {"google": 7, "bing": 8}
        for name, dataset in TABLES:
            rset = load_dataset(dataset).to_ranking_set()
            profile = measure(rset, MeasureParams())
            assert profile.total == expected_total[name], (name, profile.total)
            assert isinstance(profile.total, int)
            if name in expected_first:
                assert profile.value_at(1) == expected_first[name]

    ok, detail = evaluate(run)
    report(2, "bundled dataset exact totals and first-order counts", ok, detail)


def test_criterion_3_reference_tables_or_documented_variant():
    def run():
        contract = (Deviation.MAD, Deviation.SQRT_MAD)
        best_by_table = {}
        within_tolerance = True
        for name, dataset in TABLES:
            rset = load_dataset(dataset).to_ranking_set()
            gammas, lams, reference = load_reference_sweep(name)
            worst = {}
            for variant in contract:
                started = time.perf_counter()
                points = kappa_sweep(
                    survey(rset), gammas, lams, MeasureParams(deviation=variant)
                )
                elapsed = time.perf_counter() - started
                assert elapsed < 1.0, f"sweep took {elapsed:.2f}s"
                w = 0.0
                for gi in range(12):
                    for li in range(12):
                        value = float(points[gi * 12 + li].profile.total)
                        w = max(w, abs(value - reference[gi][li]))
                worst[variant] = w
            best = min(contract, key=lambda v: worst[v])
            best_by_table[name] = best
            if worst[best] > 0.001:
                within_tolerance = False
        if not within_tolerance:
            # Neither contract variant reproduces the published grids, so
            # the experiment report has to spell the situation out: both
            # deviations, the per-cell error grids, and the better pick.
            clustering = cli._experiment_report("clustering")
            search = cli._experiment_report("search")
            for name, block in (("ce", clustering), ("ga", clustering),
                                ("google", search), ("bing", search)):
                assert "max abs deviation (mad):" in block
                assert "max abs deviation (sqrt-mad):" in block
                assert "deviation from reference" in block
                assert f"best variant: {best_by_table[name].value}" in block

    ok, detail = evaluate(run)
    report(
        3,
        "reference tables matched or the miss is measured and documented",
        ok,
        detail,
    )


def test_criterion_4_random_oracle_equivalence():
    def run():
        rng = random.Random(20260822)
        variants = [Deviation.MAD, Deviation.SQRT_MAD, Deviation.STD]
        for trial in range(200):
            rset = random_set(rng, max_rankings=5, universe=10)
            if trial % 2 == 0:
                params = MeasureParams()
            else:
                params = MeasureParams(
                    gamma=rng.uniform(0.5, 1.0),
                    lam=rng.uniform(0.5, 1.0),
                    epsilon=0.0,
                    deviation=variants[trial % 3],
                )
            computed = measure(rset, params)
            reference = oracle_profile(rset, params)
            assert computed.ell == reference.ell, trial
            if params.exact:
                assert computed.series == reference.series, trial
            else:
                for p in range(1, computed.ell + 1):
                    a = float(computed.value_at(p))
                    b = float(reference.value_at(p))
                    assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b)), (trial, p)

    ok, detail = evaluate(run)
    report(4, "200 random instances: matrix path equals enumeration oracle", ok, detail)


def test_criterion_5_closed_form_equals_series():
    def run():
        for name, dataset in TABLES:
            rset = load_dataset(dataset).to_ranking_set()
            sv = survey(rset)
            for variant in Deviation:
                for gamma in GRID:
                    for lam in GRID:
                        params = MeasureParams(
                            gamma=gamma, lam=lam, epsilon=0.0, deviation=variant
                        )
                        from_series = kappa_series(sv, params).total
                        closed = kappa_total_closed(sv.matrix(params))
                        assert abs(closed - from_series) <= 1e-9 * max(
                            1.0, abs(closed)
                        ), (name, variant, gamma, lam)

    ok, detail = evaluate(run)
    report(5, "closed-form total equals the series on every bundled grid", ok, detail)


def test_criterion_6_structural_invariants():
    def run():
        for n in range(1, 17):
            rset = make_set(" ".join(f"x{i}" for i in range(n)))
            assert measure(rset, MeasureParams()).total == 2**n - 1

        rng = random.Random(99)
        sets = [make_set(*EXAMPLE_LINES)] + [random_set(rng) for _ in range(10)]
        weighted = MeasureParams(gamma=0.8, lam=0.7, epsilon=0.0)
        for rset in sets:
            exact_series = measure(rset, MeasureParams()).series
            base = measure(rset, weighted)
            for k in range(len(rset)):
                sv = survey(rset, k)
                exact = kappa_series(sv, MeasureParams())
                assert exact.series == exact_series
                other = kappa_series(sv, weighted)
                assert other.ell == base.ell
                for p in range(1, base.ell + 1):
                    a, b = base.value_at(p), other.value_at(p)
                    assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

        for rset in sets:
            lines = [
                [list(group) for group in ranking.groups]
                for ranking in rset
            ]
            grown = RankingSet.build(lines + [lines[0]])
            before = measure(rset, MeasureParams())
            after = measure(grown, MeasureParams())
            for p in range(1, max(before.ell, after.ell) + 1):
                assert after.value_at(p) <= before.value_at(p)

        example = make_set(*EXAMPLE_LINES)
        steps = [1.0, 0.9, 0.7, 0.5]
        totals = [
            measure(example, MeasureParams(gamma=g, lam=l, epsilon=0.0)).total
            for g in steps
            for l in steps
        ]
        for gi in range(len(steps)):
            for li in range(len(steps)):
                if gi + 1 < len(steps):
                    assert totals[(gi + 1) * len(steps) + li] <= totals[gi * len(steps) + li] + 1e-12
                if li + 1 < len(steps):
                    assert totals[gi * len(steps) + li + 1] <= totals[gi * len(steps) + li] + 1e-12

        for rset in sets:
            sv = survey(rset)
            dense = to_dense(sv.matrix(MeasureParams(gamma=0.9, lam=0.9)))
            for i in range(len(sv.items)):
                for j in range(i + 1, len(sv.items)):
                    assert dense[i][j] == 0
                if not sv.common[i]:
                    assert all(v == 0 for v in dense[i])
                    assert all(row[i] == 0 for row in dense)

        for rset in sets:
            for params in (MeasureParams(), weighted):
                profile = measure(rset, params)
                assert all(value > 0 for value in profile.series)

    ok, detail = evaluate(run)
    report(6, "invariants: powers of two, reference choice, monotonicity, zeros", ok, detail)


def test_criterion_7_pairwise_indices_against_pair_counts():
    def run():
        rng = random.Random(7202268)
        for trial in range(100):
            n = rng.randint(2, 12)
            tokens = [f"i{k}" for k in range(n)]
            first = tokens[:]
            second = tokens[:]
            rng.shuffle(first)
            rng.shuffle(second)

            r1 = Ranking(first)
            r1_rev = Ranking(reversed(first))
            r2 = Ranking(second)

            def count_pairs(lines):
                rset = RankingSet.build(lines)
                subs = enumerate_upto(rset, 2)
                return sum(1 for s in subs if len(s.items) == 2)

            concordant = count_pairs([first, second])
            discordant = count_pairs([list(reversed(first)), second])
            half = n * (n - 1) / 2
            assert concordant + discordant == half

            tau = kendall_tau(r1, r2)
            dist = kendall_distance(r1, r2)
            assert abs(tau - (concordant - discordant) / half) <= 1e-12, trial
            assert abs(dist - discordant / half) <= 1e-12, trial

            assert abs(tau - kendall_tau(r2, r1)) <= 1e-12
            assert abs(dist - kendall_distance(r2, r1)) <= 1e-12
            assert abs(spearman_rho(r1, r2) - spearman_rho(r2, r1)) <= 1e-12
            assert abs(kendall_tau(r1_rev, r2) + tau) <= 1e-12
            assert abs(tau + 2 * dist - 1.0) <= 1e-12
            assert abs(spearman_rho(r1, r1) - 1.0) <= 1e-12
            assert spearman_footrule(r1, r1) == 0.0

    ok, detail = evaluate(run)
    report(7, "100 random pairs: indices agree with independent pair counts", ok, detail)


def test_criterion_8_duplicate_and_topk_examples():
    def run():
        repeated = make_set(*(EXAMPLE_LINES + (EXAMPLE_LINES[0],) * 3))
        assert kappa_dup(survey(repeated), MeasureParams()) == 24

        twice = make_set("a b", "a b")
        assert kappa_dup(survey(twice), MeasureParams()) == 7

        distinct = make_set(*EXAMPLE_LINES)
        assert kappa_dup(survey(distinct), MeasureParams()) == 18

        abc = make_set("a b c")
        value = kappa1_topk(survey(abc), MeasureParams(zeta=10.0, beta=0.5))
        assert abs(value - (0.5 + 0.25 + 0.125)) <= 1e-12

        ab = make_set("a b")
        assert kappa1_topk(survey(ab), MeasureParams(zeta=1.0, beta=0.5)) == 0.0

        beta = 1.0 - 1e-13
        near = kappa1_topk(survey(abc), MeasureParams(zeta=1e9, beta=beta))
        assert abs(near - (beta + beta**2 + beta**3)) <= 1e-12
        assert abs(near - 3.0) <= 1e-12

    ok, detail = evaluate(run)
    report(8, "duplicate-adjusted total and top-k weighting examples", ok, detail)
