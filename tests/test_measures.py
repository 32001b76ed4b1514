from __future__ import annotations

import json
import random
import sys
from functools import cached_property
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankconsensus import Dataset, cli, load_dataset, load_reference_sweep, measures
from rankconsensus.graph import Deviation, MeasureParams, Survey, survey
from rankconsensus.measures import (
    kappa1_topk,
    kappa_dup,
    kappa_series,
    kappa_sweep,
    kappa_total_closed,
    measure,
)
from rankconsensus.oracle import oracle_profile

from conftest import EXAMPLE_LINES, make_set, near_consensus_set, random_set, ranking_sets
from reference import level_series, pairwise_edges, pairwise_survey, product_series

GRID = [x / 100 for x in range(100, 44, -5)]


class TestExactSeries:
    def test_example_profile(self, example_set):
        profile = measure(example_set, MeasureParams())
        assert profile.series == ((1, 5), (2, 7), (3, 4), (4, 1))
        assert profile.ell == 4
        assert profile.total == 17
        assert profile.exact
        assert isinstance(profile.total, int)

    def test_value_at_beyond_series_is_zero(self, example_set):
        profile = measure(example_set, MeasureParams())
        assert profile.value_at(4) == 1
        assert profile.value_at(5) == 0
        assert profile.value_at(99) == 0

    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_single_ranking_counts_all_subsequences(self, n):
        tokens = [f"x{i}" for i in range(n)]
        rset = make_set(" ".join(tokens))
        profile = measure(rset, MeasureParams())
        assert profile.total == 2**n - 1
        assert profile.ell == n
        assert profile.series == tuple((p, comb(n, p)) for p in range(1, n + 1))

    def test_disjoint_rankings_have_empty_profile(self):
        rset = make_set("a b", "c d")
        profile = measure(rset, MeasureParams())
        assert profile.series == ()
        assert profile.ell == 0
        assert profile.total == 0


def _bit_set(bits: int) -> set[int]:
    return {j for j in range(bits.bit_length()) if bits >> j & 1}


def _expected_rows(rset, reference=None) -> list[tuple[int, set[int], bool]]:
    """The rows the exact pass should sum, from the pairwise reference survey.

    A row lists its predecessors, or the common items before it that are
    missing from them when that list is strictly shorter.
    """
    ref = pairwise_survey(rset, reference)
    predecessors = {i: set() for i, common in enumerate(ref.common) if common}
    for i, j, _ in pairwise_edges(rset, reference):
        predecessors[i].add(j)
    rows = []
    for i, before in predecessors.items():
        missing = {j for j in predecessors if j < i} - before
        if len(missing) < len(before):
            rows.append((i, missing, True))
        else:
            rows.append((i, before, False))
    return rows


def _rows(sv: Survey) -> list[tuple[int, set[int], bool]]:
    return [(i, _bit_set(bits), complement) for i, bits, complement in sv._shorter_rows]


class TestPackedSeries:
    """The exact pass over the masks against the products on the reference survey.

    The reference is one product y <- L y per term on the matrix of the
    pairwise survey, whose rows list every edge; the pass sums the
    shorter of each row and its complement.
    """

    EXACT = MeasureParams()

    def products(self, rset, reference=None):
        return product_series(pairwise_survey(rset, reference).matrix(self.EXACT), self.EXACT)

    @given(
        st.randoms(use_true_random=False),
        st.sampled_from([(5, 10), (3, 26)]),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_sets_match_the_products(self, rng, shape, last_reference):
        max_rankings, universe = shape
        rset = random_set(rng, max_rankings=max_rankings, universe=universe)
        reference = len(rset) - 1 if last_reference else None
        sv = survey(rset, reference)
        assert kappa_series(sv, self.EXACT) == self.products(rset, reference)
        assert _rows(sv) == _expected_rows(rset, reference)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_near_consensus_sets_match_the_products(self, seed):
        rset = near_consensus_set(random.Random(seed), 128, 50)
        sv = survey(rset)
        assert kappa_series(sv, self.EXACT) == self.products(rset)
        rows = _rows(sv)
        assert rows == _expected_rows(rset)
        assert any(complement for _, _, complement in rows)

    def test_the_largest_total_fits_its_slots(self):
        # Every subset of 200 items is a common chain: kappa_p = C(200, p)
        # and the total 2**200 - 1, the most the 200-bit slots must hold.
        # Each row after the first has all earlier items as predecessors,
        # so its complement is empty; the first row's two lists are both
        # empty, and the tie goes to the mask.
        tokens = " ".join(f"t{k}" for k in range(200))
        sv = survey(make_set(tokens, tokens, tokens))
        rows = sv._shorter_rows
        assert rows[0] == (0, 0, False)
        assert rows[1:] == tuple((i, 0, True) for i in range(1, 200))
        profile = kappa_series(sv, self.EXACT)
        assert profile.series == tuple((p, comb(200, p)) for p in range(1, 201))
        assert profile.total == 2**200 - 1

    @pytest.mark.parametrize(
        "lines, series, complements",
        [
            (("a b", "c d"), (), 0),
            (("a b", "c a"), ((1, 1),), 0),
            (("a b c", "c a"), ((1, 2),), 0),
            (("a b c", "a c"), ((1, 2), (2, 1)), 1),
        ],
    )
    def test_few_common_items(self, lines, series, complements):
        # 0, 1 and 2 common items. Only a row with a predecessor and
        # nothing missing has a strictly shorter complement, the empty one.
        rset = make_set(*lines)
        sv = survey(rset)
        assert kappa_series(sv, self.EXACT).series == series
        assert self.products(rset).series == series
        rows = _rows(sv)
        assert rows == _expected_rows(rset)
        assert [bits for _, bits, complement in rows if complement] == [set()] * complements

    def test_exact_path_reads_neither_edges_nor_matrix(self, monkeypatch, tmp_path, capsys):
        # Nor the position sums or the deviation table: the exact series
        # needs only the masks.
        def refuse(*args):
            raise AssertionError("the exact path read an edge list or a statistic")

        for name in ("edges", "sums", "_deviations"):
            monkeypatch.setattr(Survey, name, property(refuse))
        monkeypatch.setattr(Survey, "matrix", refuse)
        rset = near_consensus_set(random.Random(4), 40, 5)
        sv = survey(rset)
        expected = measure(rset, self.EXACT)
        assert kappa_series(sv, self.EXACT) == expected
        (corner,) = kappa_sweep(sv, [1.0], [1.0])
        assert corner.profile == expected
        doc = tmp_path / "set.txt"
        doc.write_text("".join(" ".join(r.items()) + "\n" for r in rset))
        assert cli.main(["measure", str(doc), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["kappa_total"] == expected.total


def assert_close(profile, expected):
    """Weighted profiles agree term by term within 1e-9 relative.

    Where the expected term is subnormal, the float products that made it
    have lost their relative precision, so there the terms may differ by
    up to the smallest normal float; that also lets a term that
    underflowed to 0 on one route be kept on the other.
    """
    assert profile.exact == expected.exact
    assert all(isinstance(value, float) for _, value in profile.series)
    for p in range(1, max(profile.ell, expected.ell) + 1):
        a, b = profile.value_at(p), expected.value_at(p)
        if b < sys.float_info.min:
            assert abs(a - b) <= sys.float_info.min, (p, a, b)
        else:
            assert abs(a - b) <= 1e-9 * b, (p, a, b)


class TestLevelSeries:
    """The weighted pass against the float products on the matrix and the levels.

    The pass sums exact ints made from rounded start and end weights; the
    references multiply rounded pair weights term by term. So the terms
    agree to rounding, not bit for bit, and the pass itself gives the same
    bits whatever its block sizes.
    """

    @given(
        ranking_sets(),
        st.sampled_from(
            [
                (0.9, 1.0),
                (0.9, 0.9),
                (1.0, 0.45),
                (0.9, 0.1),
                (0.9, 1e-5),
                (0.9, 1e-300),
                (1.0, 5e-324),
                (0.9, 1 - 2**-53),
            ]
        ),
        st.sampled_from([1e-12, 0.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_sets_match_the_products(self, rset, weights, epsilon):
        gamma, lam = weights
        params = MeasureParams(gamma=gamma, lam=lam, epsilon=epsilon)
        sv = survey(rset)
        profile = kappa_series(sv, params)
        assert_close(profile, product_series(sv.matrix(params), params))
        assert_close(profile, oracle_profile(rset, params))

    @pytest.mark.parametrize("n, count", [(40, 10), (128, 50)])
    def test_near_consensus_sets_match_the_products(self, n, count):
        sv = survey(near_consensus_set(random.Random(n), n, count))
        points = kappa_sweep(sv, [0.9], GRID)
        for point in points:
            params = MeasureParams(gamma=0.9, lam=point.lam)
            expected = level_series(sv, params)
            assert expected == product_series(sv.matrix(params), params)
            profile = kappa_series(sv, params)
            assert_close(profile, expected)
            assert point.profile == profile

    def test_sweep_points_match_the_products(self):
        sv = survey(near_consensus_set(random.Random(5), 40, 10))
        for point in kappa_sweep(sv, GRID, GRID):
            params = MeasureParams(gamma=point.gamma, lam=point.lam)
            if params.exact:
                assert point.profile == product_series(sv.matrix(params), params)
            else:
                assert_close(point.profile, product_series(sv.matrix(params), params))

    @pytest.mark.parametrize("n, count", [(40, 10), (128, 50)])
    @pytest.mark.parametrize("lam", [0.9, 0.45, 1e-5])
    @pytest.mark.parametrize("epsilon", [1e-12, 0.0])
    def test_terms_do_not_depend_on_the_block_sizes(self, n, count, lam, epsilon):
        # 1 bit makes blocks of 2, 2, 4, 8, ... slots; 10**9 one block.
        sv = survey(near_consensus_set(random.Random(n), n, count))
        params = MeasureParams(gamma=0.9, lam=lam, epsilon=epsilon)
        expected = kappa_series(sv, params)
        for bits in (1, 10**9):
            with mock.patch.object(measures, "BLOCK_BITS", bits):
                assert kappa_series(sv, params) == expected

    @pytest.mark.parametrize(
        "lam, epsilon, bits, blocks",
        [
            (0.9, 0.0, 1, [(0, 2), (2, 2), (4, 4), (8, 8), (16, 9)]),
            (0.9, 0.0, 4096, [(0, 16), (16, 9)]),
            (0.1, 1e-12, 4096, [(0, 6)]),
            (1.0, 1e-12, 4096, [(0, 25)]),
        ],
    )
    def test_each_block_is_as_large_as_all_before_it(self, monkeypatch, lam, epsilon, bits, blocks):
        # (first slot, slots) of each block on a set whose longest chain
        # has 25 items. The first block takes what fits in BLOCK_BITS (at
        # least 2 slots, all of them at lambda = 1), and a block runs only
        # once the series keeps the last term before it: at lambda 0.1
        # the first block's kappa_5 is cut.
        sv = survey(near_consensus_set(random.Random(128), 128, 50))
        seen = []
        real = measures._packed_block

        def recording(*args):
            seen.append(args[-2:])
            return real(*args)

        monkeypatch.setattr(measures, "_packed_block", recording)
        monkeypatch.setattr(measures, "BLOCK_BITS", bits)
        profile = kappa_series(sv, MeasureParams(gamma=0.9, lam=lam, epsilon=epsilon))
        assert max(sv.levels) == 25
        assert seen == blocks
        assert profile.ell == (4 if lam == 0.1 else 25)

    @given(ranking_sets(universe=8), st.sampled_from([0.9, 0.45, 1e-5, 1e-300]))
    @settings(max_examples=100, deadline=None)
    def test_random_terms_do_not_depend_on_the_block_sizes(self, rset, lam):
        sv = survey(rset)
        params = MeasureParams(gamma=0.9, lam=lam, epsilon=0.0)
        expected = kappa_series(sv, params)
        with mock.patch.object(measures, "BLOCK_BITS", 1):
            assert kappa_series(sv, params) == expected

    def test_a_kappa_2_bound_below_epsilon_runs_no_pass(self, monkeypatch):
        # Each of the edges weighs at most lambda, so at lambda = 1e-300
        # kappa_2 cannot pass epsilon and the series ends at the trace.
        sv = survey(near_consensus_set(random.Random(7), 128, 10))
        params = MeasureParams(gamma=0.9, lam=1e-300)
        expected = level_series(sv, params)

        def refuse(*args):
            raise AssertionError("the series ran a pass")

        monkeypatch.setattr(measures, "_packed_block", refuse)
        assert kappa_series(sv, params) == expected
        assert expected.ell == 1

    @pytest.mark.parametrize("lam", [1e-300, 1e-5, 0.5])
    def test_the_kappa_2_bound_keeps_a_term_just_above_epsilon(self, lam):
        # One edge of gap 1: kappa_2 is lambda, kept at epsilon lambda / 2.
        rset = make_set("a b")
        profile = measure(rset, MeasureParams(gamma=0.9, lam=lam, epsilon=lam / 2))
        assert profile.ell == 2
        assert abs(profile.value_at(2) - lam) <= 1e-12 * lam

    def test_lambda_one_with_weights_gives_floats(self, example_set):
        # Every chain weighs 1, so the terms are the counts, but as floats.
        profile = measure(example_set, MeasureParams(gamma=0.9))
        assert not profile.exact
        assert [type(value) for _, value in profile.series] == [float] * 4
        assert [value for _, value in profile.series[1:]] == [7.0, 4.0, 1.0]
        (point,) = kappa_sweep(survey(example_set), [0.9], [1.0])
        assert point.profile == profile
        assert repr(point.profile) == repr(profile)

    def test_weighted_path_builds_no_matrix(self, monkeypatch, tmp_path, capsys):
        rset = near_consensus_set(random.Random(6), 40, 5)
        sv = survey(rset)
        params = MeasureParams(gamma=0.9, lam=0.8)
        expected = product_series(sv.matrix(params), params)

        def refuse(*args):
            raise AssertionError("the weighted path built a matrix")

        monkeypatch.setattr(Survey, "matrix", refuse)
        profile = kappa_series(sv, params)
        assert_close(profile, expected)
        points = kappa_sweep(sv, GRID, GRID)
        assert len(points) == len(GRID) ** 2
        (point,) = [pt for pt in points if (pt.gamma, pt.lam) == (0.9, 0.8)]
        assert point.profile == profile
        doc = tmp_path / "set.txt"
        doc.write_text("".join(" ".join(r.items()) + "\n" for r in rset))
        assert cli.main(["sweep", str(doc), "--format", "csv"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + len(GRID) ** 2


class TestRowsOnFirstRead:
    def test_a_sweep_lists_the_rows_once(self, monkeypatch):
        real = Survey._shorter_rows.func
        calls = []

        def counting(sv):
            calls.append(sv)
            return real(sv)

        kept = cached_property(counting)
        kept.__set_name__(Survey, "_shorter_rows")
        monkeypatch.setattr(Survey, "_shorter_rows", kept)
        sv = survey(near_consensus_set(random.Random(5), 40, 10))
        points = kappa_sweep(sv, GRID, GRID)
        assert len(points) == len(GRID) ** 2
        assert calls == [sv]


class TestReferenceRoute:
    """kappa_total_closed, the benchmark's reference for totals, reads every edge."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_closed_form_equals_the_complement_pass(self, seed):
        sv = survey(near_consensus_set(random.Random(seed), 128, 50))
        exact = MeasureParams()
        matrix = sv.matrix(exact)
        listed = [(i, j) for i, row in enumerate(matrix.rows) for j, _ in row]
        assert listed == [(i, j) for i, j, _ in sv.edges]
        assert any(complement for _, _, complement in sv._shorter_rows)
        closed = kappa_total_closed(matrix)
        assert kappa_series(sv, exact).total == closed
        (corner,) = kappa_sweep(sv, [1.0], [1.0])
        assert corner.profile.total == closed


class TestWeightedSeries:
    def test_terms_decline_and_stop_at_epsilon(self, example_set):
        params = MeasureParams(gamma=0.5, lam=0.5, epsilon=1e-6)
        profile = measure(example_set, params)
        assert not profile.exact
        assert all(value > 1e-6 for _, value in profile.series)
        assert profile.ell == len(profile.series)

    def test_epsilon_zero_runs_to_matrix_order(self, example_set):
        params = MeasureParams(gamma=0.5, lam=0.5, epsilon=0.0)
        profile = measure(example_set, params)
        assert profile.ell == 4

    def test_weighted_total_below_exact(self, example_set):
        weighted = measure(example_set, MeasureParams(gamma=0.9, lam=0.9))
        assert weighted.total < 17


class TestClosedForm:
    def test_matches_series_exact(self, example_set):
        matrix = survey(example_set).matrix(MeasureParams())
        assert kappa_total_closed(matrix) == 17

    @pytest.mark.parametrize("gamma", [1.0, 0.85, 0.6])
    @pytest.mark.parametrize("lam", [1.0, 0.9, 0.5])
    def test_matches_series_weighted(self, example_set, gamma, lam):
        params = MeasureParams(gamma=gamma, lam=lam, epsilon=0.0)
        sv = survey(example_set)
        series_total = kappa_series(sv, params).total
        closed = kappa_total_closed(sv.matrix(params))
        assert abs(closed - series_total) <= 1e-9 * max(1.0, abs(closed))


class TestDuplicates:
    def test_repeats_add_scaled_bonus(self):
        lines = EXAMPLE_LINES + (EXAMPLE_LINES[0],) * 3
        rset = make_set(*lines)
        assert kappa_dup(rset, MeasureParams()) == 24

    def test_two_copies_of_a_pair(self):
        rset = make_set("a b", "a b")
        assert kappa_dup(rset, MeasureParams()) == 7

    def test_all_distinct_adds_one(self, example_set):
        assert kappa_dup(example_set, MeasureParams()) == 18

    def test_weighted_variant_is_float(self):
        rset = make_set("a b", "a b")
        value = kappa_dup(rset, MeasureParams(gamma=0.9, lam=0.9))
        assert isinstance(value, float)
        total = measure(make_set("a b"), MeasureParams(gamma=0.9, lam=0.9)).total
        assert value == pytest.approx(total + 4.0)


def test_ell_is_the_last_term_the_series_kept():
    # Weighted, ell is the last p whose term exceeded epsilon, so a small
    # lambda cuts it short; exact, epsilon is ignored (kappa_4 = 3 < 5).
    rset = load_dataset(Dataset.SEARCH_GOOGLE).to_ranking_set()
    for lam, ell in ((1.0, 4), (0.5, 4), (0.05, 3)):
        assert measure(rset, MeasureParams(gamma=0.9, lam=lam)).ell == ell
    for epsilon in (1e-12, 5.0):
        assert measure(rset, MeasureParams(epsilon=epsilon)).ell == 4


class TestTopK:
    def test_single_ranking_geometric_sum(self):
        rset = make_set("a b c")
        params = MeasureParams(zeta=10.0, beta=0.5)
        assert kappa1_topk(survey(rset), params) == pytest.approx(0.875, abs=1e-12)

    def test_cutoff_excludes_everything(self):
        rset = make_set("a b")
        params = MeasureParams(zeta=1.0, beta=0.5)
        assert kappa1_topk(survey(rset), params) == 0.0

    def test_beta_near_one_recovers_plain_count(self):
        rset = make_set("a b c")
        params = MeasureParams(zeta=1e9, beta=1.0 - 1e-13)
        plain = measure(rset, MeasureParams()).value_at(1)
        assert kappa1_topk(survey(rset), params) == pytest.approx(plain, abs=1e-12)

    def test_requires_both_parameters(self, example_set):
        with pytest.raises(ValueError, match="requires both zeta and beta"):
            kappa1_topk(survey(example_set), MeasureParams(zeta=5.0))

    def test_refuses_params_with_topk_off(self, example_set):
        with pytest.raises(ValueError, match="requires both zeta and beta"):
            kappa1_topk(survey(example_set), MeasureParams(gamma=0.9))

    def test_deviation_shifts_the_cutoff(self):
        # f sits at positions 6, 5, 10, 5: mu 6.5, spread 1.75. A window
        # of 8.3 admits mu + dev for mad but not for std (2.06...).
        rset = make_set(*EXAMPLE_LINES)
        near = kappa1_topk(survey(rset), MeasureParams(zeta=8.3, beta=0.5))
        far = kappa1_topk(
            survey(rset), MeasureParams(zeta=8.3, beta=0.5, deviation=Deviation.STD)
        )
        assert near > far

    @given(ranking_sets(max_rankings=5), st.sampled_from(list(Deviation)), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_a_sum_over_the_reference_table(self, rset, variant, data):
        # The reference survey makes its sums, common flags and deviations
        # from the position table. zeta is either random or an item's own
        # mu + d, the edge that the strict cutoff leaves out.
        ref = pairwise_survey(rset)
        deviations = iter(ref._deviations[variant])
        items = [
            (ref.sums[i] / ref.count, next(deviations))
            for i in range(len(ref.items))
            if ref.common[i]
        ]
        edges = [mu + d for mu, d in items]
        zeta = data.draw(
            st.floats(0.5, 12.0) | (st.sampled_from(edges) if edges else st.nothing())
        )
        params = MeasureParams(
            gamma=data.draw(st.floats(0.05, 1.0)),
            deviation=variant,
            zeta=zeta,
            beta=data.draw(st.floats(0.05, 0.95)),
        )
        expected = 0.0
        for mu, d in items:
            if zeta - mu - d > 0:
                expected += params.beta**mu * params.gamma**d
        assert kappa1_topk(survey(rset), params) == expected


class TestSweep:
    def test_grid_order_gamma_outer(self, example_set):
        points = kappa_sweep(survey(example_set), [1.0, 0.9], [1.0, 0.8])
        combos = [(pt.gamma, pt.lam) for pt in points]
        assert combos == [(1.0, 1.0), (1.0, 0.8), (0.9, 1.0), (0.9, 0.8)]

    def test_single_point_matches_measure(self, example_set):
        params = MeasureParams(gamma=0.7, lam=0.6)
        direct = measure(example_set, params)
        (point,) = kappa_sweep(survey(example_set), [0.7], [0.6], MeasureParams())
        assert point.profile.series == direct.series

    def test_exact_corner_is_integer(self, example_set):
        (point,) = kappa_sweep(survey(example_set), [1.0], [1.0])
        assert point.profile.total == 17
        assert point.profile.exact

    def test_epsilon_cuts_kappa_1_per_gamma(self):
        # a and b swap places (mad 0.5), c stays third (mad 0), so the
        # trace is 2 * gamma**0.5 + 1. The only chains of two are (a, c)
        # and (b, c), both with gap 1.5, so kappa_2 = 2 * lambda**1.5.
        rset = make_set("a b c", "b a c")
        params = MeasureParams(epsilon=1.5)
        points = kappa_sweep(survey(rset), [0.25, 0.01], [1.0, 0.9], params)
        kept = {pt.lam: pt.profile for pt in points if pt.gamma == 0.25}
        assert kept[1.0].series == ((1, 2.0), (2, 2.0))
        assert kept[0.9].series == ((1, 2.0), (2, 2 * 0.9**1.5))
        for lam, profile in kept.items():
            assert profile.ell == 2
            assert profile == measure(rset, MeasureParams(gamma=0.25, lam=lam, epsilon=1.5))
        # 2 * 0.01**0.5 + 1 = 1.2 <= 1.5: the point is empty even though
        # kappa_2 = 2.0 at lambda = 1 lies above epsilon.
        for point in points[2:]:
            assert point.gamma == 0.01
            assert point.profile.series == ()
            assert point.profile.ell == 0
            assert point.profile.total == 0

    def test_every_series_runs_once_per_lambda(self, monkeypatch):
        # One series of later terms per lambda plus one for the exact
        # corner, each shared by every gamma, and no trace computed twice.
        sv = survey(load_dataset(Dataset.CLUSTERING_CE).to_ranking_set())
        series = []
        traces = []
        real_terms = measures._packed_terms
        real_trace = Survey._trace

        def recording_terms(sv, params):
            series.append((params.lam, params.exact))
            return real_terms(sv, params)

        def recording_trace(self, params):
            traces.append((params.gamma, params.exact))
            return real_trace(self, params)

        monkeypatch.setattr(measures, "_packed_terms", recording_terms)
        monkeypatch.setattr(Survey, "_trace", recording_trace)
        kappa_sweep(sv, GRID, GRID)
        assert sorted(series) == sorted([(lam, False) for lam in GRID] + [(1.0, True)])
        assert sorted(traces) == sorted([(gamma, False) for gamma in GRID] + [(1.0, True)])

    @pytest.mark.parametrize(
        "gammas,lams", [([0.9, 1.5], [0.9]), ([0.9], [0.5, 0.0]), ([0.9], [float("nan")])]
    )
    def test_invalid_grid_value_raises_before_the_survey(
        self, example_set, monkeypatch, gammas, lams
    ):
        sv = survey(example_set)
        calls = []
        for name in ("matrix", "_diagonal", "_trace"):
            real = getattr(Survey, name)

            def recording(self, params, name=name, real=real):
                calls.append(name)
                return real(self, params)

            monkeypatch.setattr(Survey, name, recording)
        with pytest.raises(ValueError):
            kappa_sweep(sv, gammas, lams)
        assert calls == []


@pytest.mark.parametrize(
    "table,dataset",
    [
        ("ce", Dataset.CLUSTERING_CE),
        ("ga", Dataset.CLUSTERING_GA),
        ("google", Dataset.SEARCH_GOOGLE),
        ("bing", Dataset.SEARCH_BING),
    ],
)
def test_std_variant_reproduces_reference_tables(table, dataset):
    """Golden check: every cell of the bundled 12 x 12 tables within 0.001."""
    rset = load_dataset(dataset).to_ranking_set()
    gammas, lams, reference = load_reference_sweep(table)
    assert gammas == GRID and lams == GRID
    points = kappa_sweep(survey(rset), gammas, lams, MeasureParams(deviation=Deviation.STD))
    for gi in range(12):
        for li in range(12):
            computed = float(points[gi * 12 + li].profile.total)
            assert computed == pytest.approx(reference[gi][li], abs=1e-3), (
                table,
                gammas[gi],
                lams[li],
            )
