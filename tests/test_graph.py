from __future__ import annotations

import math
import random
from dataclasses import fields
from fractions import Fraction
from itertools import compress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankconsensus.graph import Deviation, MeasureParams, Survey, survey
from rankconsensus.io import parse_text
from rankconsensus.measures import kappa_series, kappa_sweep
from rankconsensus.model import Ranking, RankingSet

from conftest import EXAMPLE_LINES, make_set, near_consensus_set, random_set
from reference import pairwise_edges, pairwise_survey, to_dense


class TestMeasureParams:
    def test_defaults_are_exact(self):
        params = MeasureParams()
        assert params.exact
        assert params.deviation is Deviation.MAD

    def test_weighted_is_not_exact(self):
        assert not MeasureParams(gamma=0.9).exact
        assert not MeasureParams(lam=0.9).exact

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            (dict(gamma=0.0), "gamma must be in (0,1]"),
            (dict(gamma=1.5), "gamma must be in (0,1]"),
            (dict(lam=0.0), "lambda must be in (0,1]"),
            (dict(lam=-0.2), "lambda must be in (0,1]"),
            (dict(epsilon=-1e-9), "epsilon must be non-negative"),
            (dict(zeta=0.0), "zeta must be positive"),
            (dict(zeta=math.inf, beta=0.5), "zeta must be finite"),
            (dict(zeta=-math.inf, beta=0.5), "zeta must be positive"),
            (dict(beta=1.0), "beta must be in (0,1)"),
            (dict(beta=0.0), "beta must be in (0,1)"),
            (dict(zeta=5.0), "top-k weighting requires both zeta and beta"),
            (dict(beta=0.5), "top-k weighting requires both zeta and beta"),
            # The range checks come first.
            (dict(zeta=-1.0), "zeta must be positive"),
            (dict(beta=2.0), "beta must be in (0,1)"),
        ],
    )
    def test_validation(self, kwargs, message):
        with pytest.raises(ValueError) as err:
            MeasureParams(**kwargs)
        assert message in str(err.value)

    def test_exact_path_weighs_one_and_keeps_every_nonzero_term(self):
        # Every weight of the matrix, item or pair, is the int 1.
        params = MeasureParams(epsilon=5)
        matrix = survey(make_set(*EXAMPLE_LINES)).matrix(params)
        weights = [w for w in matrix.diag if w] + [w for row in matrix.rows for _, w in row]
        assert len(weights) == 5 + 7
        assert all(w == 1 and type(w) is int for w in weights)
        assert params.keeps(1)
        assert not params.keeps(0)

    def test_weighted_path_weighs_by_power_and_cuts_at_epsilon(self):
        # An item weighs gamma**d and a pair lambda**gap.
        params = MeasureParams(gamma=0.9, lam=0.8, epsilon=3.9567393065812473)
        sv = survey(make_set(*EXAMPLE_LINES))
        matrix = sv.matrix(params)
        deviations = sv._deviations[params.deviation]
        assert list(compress(matrix.diag, sv.common)) == [0.9**d for d in deviations]
        pairs = {(i, j): w for i, row in enumerate(matrix.rows) for j, w in row}
        assert pairs == {(i, j): 0.8**gap for i, j, gap in sv.edges}
        assert not params.keeps(params.epsilon)
        assert params.keeps(math.nextafter(params.epsilon, math.inf))

    def test_deviation_accepts_strings(self):
        assert MeasureParams(deviation="std").deviation is Deviation.STD
        assert MeasureParams(deviation="sqrt-mad").deviation is Deviation.SQRT_MAD
        with pytest.raises(ValueError):
            MeasureParams(deviation="median")


class TestExampleMatrix:
    """The four-ranking example has a known adjacency pattern."""

    # Items in reference order a..f. Item a is missing from the third
    # ranking, so both its diagonal cell and its column vanish.
    PATTERN = [
        [0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 1, 1, 0, 0, 0],
        [0, 1, 0, 1, 0, 0],
        [0, 1, 0, 1, 1, 0],
        [0, 1, 0, 1, 1, 1],
    ]

    def test_exact_pattern_bit_identical(self):
        rset = make_set(*EXAMPLE_LINES)
        matrix = survey(rset).matrix(MeasureParams())
        assert to_dense(matrix) == self.PATTERN
        assert sum(matrix.diag) == 5
        assert sum(map(len, matrix.rows)) == 7
        assert all(isinstance(v, int) for row in to_dense(matrix) for v in row)

    def test_upper_triangle_is_zero(self):
        rset = make_set(*EXAMPLE_LINES)
        matrix = survey(rset).matrix(MeasureParams(gamma=0.9, lam=0.8))
        dense = to_dense(matrix)
        n = len(matrix.diag)
        for i in range(n):
            for j in range(i + 1, n):
                assert dense[i][j] == 0


class TestSurveyStatistics:
    def test_position_spread_of_item_f(self):
        rset = make_set(*EXAMPLE_LINES)
        sv = survey(rset)
        f = "f"
        index = sv.items.index(f)
        assert [ranking.position_of(f) for ranking in rset] == [6, 5, 10, 5]
        assert sv.sums[index] / sv.count == 6.5
        # The table holds the common items only, in reference order.
        row = sum(sv.common[:index])
        assert sv._deviations[Deviation.MAD][row] == 1.75
        assert sv._deviations[Deviation.SQRT_MAD][row] == math.sqrt(1.75)
        assert sv._deviations[Deviation.STD][row] == math.sqrt(4.25)

    def test_position_stats_covers_common_items_only(self):
        rset = make_set(*EXAMPLE_LINES)
        sv = survey(rset)
        tokens = sorted(item for item, c in zip(sv.items, sv.common) if c)
        assert tokens == ["b", "c", "d", "e", "f"]

    def test_gap_means(self):
        rset = make_set(*EXAMPLE_LINES)
        sv = survey(rset)
        b, c, f = (sv.items.index(t) for t in "bcf")
        gaps = {(i, j): gap for i, j, gap in sv.edges}
        assert gaps[(c, b)] == pytest.approx(2.25)
        assert gaps[(f, b)] == pytest.approx(5.25)

    def test_edge_weights_use_gap_means(self):
        rset = make_set(*EXAMPLE_LINES)
        params = MeasureParams(lam=0.5)
        sv = survey(rset)
        matrix = sv.matrix(params)
        b = sv.items.index("b")
        c = sv.items.index("c")
        f = sv.items.index("f")
        gaps = {(i, j): gap for i, j, gap in sv.edges}
        assert gaps[(c, b)] == 2.25
        assert gaps[(f, b)] == 5.25
        assert to_dense(matrix)[c][b] == pytest.approx(0.5**2.25)
        assert to_dense(matrix)[f][b] == pytest.approx(0.5**5.25)

    def test_diagonal_weights_use_deviation(self):
        rset = make_set(*EXAMPLE_LINES)
        sv = survey(rset)
        matrix = sv.matrix(MeasureParams(gamma=0.8, deviation=Deviation.MAD))
        f = sv.items.index("f")
        assert to_dense(matrix)[f][f] == pytest.approx(0.8**1.75)

    @pytest.mark.parametrize("gamma, lam", [(1.0, 1.0), (1, 0.5), (0.8, 1.0), (0.8, 0.5)])
    @pytest.mark.parametrize("variant", list(Deviation))
    def test_kappa_1_is_the_count_or_the_sum_of_gamma_to_each_deviation(
        self, gamma, lam, variant
    ):
        # Bit for bit and of the same type, through the series and the
        # sweep: the int count of the common items on the exact path, a
        # float otherwise, also for an int gamma of 1.
        rset = make_set(*EXAMPLE_LINES)
        sv = survey(rset)
        params = MeasureParams(gamma=gamma, lam=lam, deviation=variant)
        if params.exact:
            expected = 5
        else:
            expected = sum(gamma**d for d in pairwise_survey(rset)._deviations[variant])
        (point,) = kappa_sweep(sv, [gamma], [lam], params)
        for profile in (kappa_series(sv, params), point.profile):
            kappa_1, *_ = profile.series
            assert (kappa_1, type(kappa_1)) == (expected, type(expected))


class TestTies:
    def test_tied_items_share_a_position(self):
        rset = make_set("a {b c} d", "a b c d")
        sv = survey(rset)
        tied, untied = rset
        b, c = "bc"
        assert tied.position_of(b) == tied.position_of(c) == 2
        assert untied.position_of(c) == 3
        # The survey reads the same positions: b sits at 2 and 2, c at 2 and 3.
        assert sv.sums[sv.items.index(b)] / sv.count == 2.0
        assert sv.sums[sv.items.index(c)] / sv.count == 2.5

    def test_tie_breaks_strict_order(self):
        # b and c tie in the first ranking, so neither is strictly
        # after the other there and the pair carries no edge.
        rset = make_set("a {b c} d", "a b c d")
        sv = survey(rset)
        matrix = sv.matrix(MeasureParams())
        b = sv.items.index("b")
        c = sv.items.index("c")
        lower = {j for j, _ in matrix.rows[c]}
        assert b not in lower
        assert to_dense(matrix)[b][b] == 1
        assert to_dense(matrix)[c][c] == 1


class TestReferenceChoice:
    def test_override_changes_item_order_not_commonality(self):
        rset = make_set(*EXAMPLE_LINES)
        default = survey(rset)
        override = survey(rset, reference_index=1)
        assert default.reference_index == 0
        assert override.reference_index == 1
        common_default = {default.items[i] for i in range(6) if default.common[i]}
        common_override = {override.items[i] for i in range(6) if override.common[i]}
        assert common_default == common_override

    def test_out_of_range_reference_rejected(self):
        rset = make_set("a b", "b a")
        with pytest.raises(ValueError):
            survey(rset, reference_index=2)


class TestOneFactOnce:
    def test_survey_has_four_fields(self):
        # The item order and N are read from the rankings, so no field
        # restates another.
        assert [f.name for f in fields(Survey)] == [
            "reference_index", "common", "masks", "rankings"
        ]

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_items_and_count_follow_the_rankings(self, rng):
        rset = random_set(rng)
        for k in range(len(rset)):
            sv = survey(rset, k)
            assert sv.items == rset.rankings[k].tokens
            assert sv.count == len(rset)


class TestPredecessorMasks:
    """survey against the pairwise test of every pair in every ranking."""

    @staticmethod
    def assert_matches(sv, ref):
        # The statistics are not fields, so equality does not see them;
        # the reference's deviations are exact rationals over the table.
        assert sv == ref
        assert sv._columns == ref._columns
        assert (sv.sums, sv._deviations) == (ref.sums, ref._deviations)

    @given(st.randoms(use_true_random=False), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_random_sets_match_the_pairwise_survey(self, rng, last_reference):
        rset = random_set(rng)
        reference = len(rset) - 1 if last_reference else None
        sv = survey(rset, reference)
        self.assert_matches(sv, pairwise_survey(rset, reference))
        assert sv.edges == pairwise_edges(rset, reference)

    @given(st.randoms(use_true_random=False), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_sets_of_tied_and_untied_rankings_match_the_pairwise_survey(self, rng, last_reference):
        # Untied rankings from a plain document, which parse_text builds
        # unchecked, tied ones through Ranking, and a first ranking that
        # holds a token ("z") outside every other one, so never in the
        # reference: it is longer than the second and never last.
        untied = random_set(rng, allow_ties=False).rankings
        plain = parse_text("".join(" ".join(r.tokens) + "\n" for r in untied))
        rankings = [raw.ranking for raw in plain.rankings]
        rankings += [r for r in random_set(rng).rankings if not r.is_untied] or [
            Ranking([("a", "b"), "c"])
        ]
        rng.shuffle(rankings)
        rankings.insert(0, Ranking([*rankings[0].tokens, "z"]))
        rset = RankingSet(tuple(rankings))
        reference = len(rset) - 1 if last_reference else None
        sv = survey(rset, reference)
        assert {r.is_untied for r in rset} == {True, False}
        assert "z" not in sv.items
        self.assert_matches(sv, pairwise_survey(rset, reference))
        assert sv.edges == pairwise_edges(rset, reference)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_near_consensus_sets_match_the_pairwise_survey(self, seed):
        rset = near_consensus_set(random.Random(seed), 128, 50)
        sv = survey(rset)
        self.assert_matches(sv, pairwise_survey(rset))
        assert sv.edges == pairwise_edges(rset)
        assert len(sv.edges) > 128 * 127 // 4


class TestEdgesOnFirstRead:
    def test_statistics_are_made_once_on_first_read_and_kept(self):
        # The example set, and a tied one whose rankings hold items (x, y
        # and f) outside the reference or the common set.
        for lines in (EXAMPLE_LINES, ("a {b c} d e", "x b a c e d", "{a b} c y d f")):
            sv = survey(make_set(*lines))
            assert not {"_columns", "sums", "_deviations"} & set(vars(sv))
            deviations = sv._deviations
            assert vars(sv)["_deviations"] is deviations
            assert sv._deviations is deviations
            assert vars(sv)["sums"] is sv.sums
            assert vars(sv)["_columns"] is sv._columns
            # One N-long column per common item; the sums are 0 elsewhere.
            assert [len(column) for column in sv._columns] == [sv.count] * sum(sv.common)
            assert list(compress(sv.sums, sv.common)) == list(map(sum, sv._columns))
            assert set(compress(sv.sums, (not c for c in sv.common))) == {0}

    def test_exact_matrix_reads_no_deviations(self):
        sv = survey(make_set(*EXAMPLE_LINES))
        matrix = sv.matrix(MeasureParams())
        assert "_deviations" not in vars(sv)
        assert [(w, type(w)) for w in matrix.diag] == [(int(c), int) for c in sv.common]

    @pytest.mark.parametrize("variant", list(Deviation))
    def test_weighted_diagonal_is_gamma_to_each_deviation(self, variant):
        rset = make_set("a {b c} d e", "b a c e d", "{a b} c d f")
        sv = survey(rset)
        params = MeasureParams(gamma=0.7, lam=0.9, deviation=variant)
        # The reference makes its deviations from exact rationals over the table.
        deviations = iter(pairwise_survey(rset)._deviations[variant])
        expected = [params.gamma ** next(deviations) if common else 0 for common in sv.common]
        assert sv._diagonal(params) == expected
        assert sum(sv.common) == 4

    def test_rows_are_listed_once_and_kept(self):
        sv = survey(make_set(*EXAMPLE_LINES))
        assert "_shorter_rows" not in vars(sv)
        rows = sv._shorter_rows
        assert vars(sv)["_shorter_rows"] is rows
        assert sv._shorter_rows is rows
        assert [i for i, _, _ in rows] == [i for i, c in enumerate(sv.common) if c]

    def test_edges_are_listed_once_and_kept(self):
        sv = survey(make_set(*EXAMPLE_LINES))
        assert "edges" not in vars(sv)
        edges = sv.edges
        assert vars(sv)["edges"] is edges
        assert sv.edges is edges
        assert len(edges) == sum(mask.bit_count() for mask in sv.masks) == 7

    def test_equality_ignores_whether_edges_were_read(self):
        rset = make_set(*EXAMPLE_LINES)
        read, unread = survey(rset), survey(rset)
        read.edges, read._deviations, read.levels, read._shorter_rows
        assert read == unread
        assert hash(read) == hash(unread)

    def test_masks_hold_common_items_only(self):
        sv = survey(make_set(*EXAMPLE_LINES))
        common = sum(1 << i for i, c in enumerate(sv.common) if c)
        for i, mask in enumerate(sv.masks):
            assert mask & ~common == 0
            assert mask >> i == 0
            if not sv.common[i]:
                assert mask == 0


def _rounded_deviations(rset: RankingSet, sv: Survey) -> dict[Deviation, list[float]]:
    """Each variant's deviations of sv's common items: exact rationals, rounded once."""
    N = len(rset)
    mad, var = [], []
    for item in compress(sv.items, sv.common):
        column = [ranking.position_of(item) for ranking in rset]
        mean = Fraction(sum(column), N)
        mad.append(float(sum(abs(x - mean) for x in column) / N))
        var.append(float(sum((x - mean) ** 2 for x in column) / N))
    return {
        Deviation.MAD: mad,
        Deviation.SQRT_MAD: list(map(math.sqrt, mad)),
        Deviation.STD: list(map(math.sqrt, var)),
    }


class TestExactDeviations:
    """Every deviation is the correctly rounded rational, in every variant."""

    @given(st.randoms(use_true_random=False), st.integers(0, 3))
    @settings(max_examples=300, deadline=None)
    def test_random_sets_with_planted_duplicates(self, rng, planted):
        rankings = list(random_set(rng))
        rankings += [rng.choice(rankings) for _ in range(planted)]
        rng.shuffle(rankings)
        rset = RankingSet(tuple(rankings))
        sv = survey(rset)
        expected = _rounded_deviations(rset, sv)
        assert {variant: list(sv._deviations[variant]) for variant in Deviation} == expected

    @pytest.mark.parametrize("seed, n, count", [(1, 40, 10), (2, 40, 10), (3, 128, 50)])
    def test_near_consensus_sets(self, seed, n, count):
        rset = near_consensus_set(random.Random(seed), n, count)
        sv = survey(rset)
        expected = _rounded_deviations(rset, sv)
        assert {variant: list(sv._deviations[variant]) for variant in Deviation} == expected
