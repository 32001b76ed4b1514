from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankconsensus.baselines import (
    Aggregate,
    Baseline,
    UnsupportedRankingError,
    kendall_distance,
    kendall_tau,
    pairwise_aggregate,
    pairwise_index,
    pairwise_values,
    spearman_footrule,
    spearman_rho,
)
from rankconsensus.model import Ranking, RankingSet

from conftest import ALPHABET, make_set
from reference import ordered_pairwise_values


def pair(first: str, second: str):
    return Ranking(first), Ranking(second)


class TestKendall:
    def test_adjacent_swap(self):
        r1, r2 = pair("abc", "acb")
        assert kendall_tau(r1, r2) == pytest.approx(1 / 3)
        assert kendall_distance(r1, r2) == pytest.approx(1 / 3)

    def test_full_reversal(self):
        r1, r2 = pair("abc", "cba")
        assert kendall_tau(r1, r2) == pytest.approx(-1.0)
        assert kendall_distance(r1, r2) == pytest.approx(1.0)

    def test_identity(self):
        r1, r2 = pair("abcd", "abcd")
        assert kendall_tau(r1, r2) == pytest.approx(1.0)
        assert kendall_distance(r1, r2) == 0.0


class TestSpearman:
    def test_adjacent_swap_rho(self):
        r1, r2 = pair("abc", "acb")
        assert spearman_rho(r1, r2) == pytest.approx(0.5)

    def test_self_rho_is_one(self):
        r1, r2 = pair("abcde", "abcde")
        assert spearman_rho(r1, r2) == pytest.approx(1.0)
        assert spearman_footrule(r1, r2) == 0.0

    def test_footrule_values(self):
        r1, r2 = pair("abc", "acb")
        assert spearman_footrule(r1, r2) == pytest.approx(1 / 12)
        r1, r2 = pair("ab", "ba")
        assert spearman_footrule(r1, r2) == pytest.approx(1 / 3)


class TestIdentities:
    def shuffled_pairs(self, count=30):
        rng = random.Random(7)
        for _ in range(count):
            n = rng.randint(2, 9)
            tokens = [chr(ord("a") + i) for i in range(n)]
            first = tokens[:]
            second = tokens[:]
            rng.shuffle(first)
            rng.shuffle(second)
            yield Ranking(first), Ranking(second)

    def test_symmetry(self):
        for r1, r2 in self.shuffled_pairs():
            for index in (kendall_tau, kendall_distance, spearman_rho, spearman_footrule):
                assert index(r1, r2) == index(r2, r1)

    def test_reversal_negates_tau(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(2, 9)
            tokens = [chr(ord("a") + i) for i in range(n)]
            first = tokens[:]
            second = tokens[:]
            rng.shuffle(first)
            rng.shuffle(second)
            r1 = Ranking(first)
            r1_rev = Ranking(reversed(first))
            r2 = Ranking(second)
            assert kendall_tau(r1_rev, r2) == pytest.approx(-kendall_tau(r1, r2))

    def test_tau_distance_relation(self):
        for r1, r2 in self.shuffled_pairs():
            assert kendall_tau(r1, r2) + 2 * kendall_distance(r1, r2) == pytest.approx(
                1.0
            )

    def test_range_bounds(self):
        for r1, r2 in self.shuffled_pairs():
            assert -1.0 - 1e-12 <= kendall_tau(r1, r2) <= 1.0 + 1e-12
            assert 0.0 <= kendall_distance(r1, r2) <= 1.0 + 1e-12


class TestPreconditions:
    def test_tied_input_rejected(self):
        rset = make_set("a {b c}", "a b c")
        with pytest.raises(UnsupportedRankingError, match="tied rankings"):
            pairwise_index(rset.rankings[0], rset.rankings[1], Baseline.KENDALL_TAU)

    def test_mismatched_items_rejected(self):
        rset = make_set("a b c", "a b d")
        with pytest.raises(UnsupportedRankingError, match="same items"):
            kendall_tau(rset.rankings[0], rset.rankings[1])

    def test_too_few_items_rejected(self):
        rset = make_set("a", "a")
        with pytest.raises(ValueError, match="need at least 2 items, got 1"):
            kendall_tau(rset.rankings[0], rset.rankings[1])


class TestAggregate:
    def test_sum_over_ordered_pairs(self):
        rset = make_set("a b c", "a b c", "c b a")
        assert pairwise_aggregate(rset, Baseline.KENDALL_TAU, Aggregate.SUM) == pytest.approx(
            -2.0
        )

    def test_mean_divides_by_ordered_pair_count(self):
        rset = make_set("a b c", "a b c", "c b a")
        assert pairwise_aggregate(rset, Baseline.KENDALL_TAU, Aggregate.MEAN) == pytest.approx(
            -1 / 3
        )

    def test_min_picks_worst_pair(self):
        rset = make_set("a b c", "a b c", "c b a")
        assert pairwise_aggregate(rset, Baseline.KENDALL_TAU, Aggregate.MIN) == pytest.approx(
            -1.0
        )

    def test_string_arguments_accepted(self):
        rset = make_set("a b c", "c b a")
        value = pairwise_aggregate(rset, "tau", "mean")
        assert value == pytest.approx(-1.0)

    def test_single_ranking_rejected(self):
        rset = make_set("a b c")
        with pytest.raises(ValueError, match="at least two rankings"):
            pairwise_aggregate(rset, Baseline.KENDALL_TAU, Aggregate.MEAN)

    def test_pair_errors_name_the_pair(self):
        rset = make_set("a b c", "a c d")
        with pytest.raises(UnsupportedRankingError, match=r"pair \(1, 2\)"):
            pairwise_aggregate(rset, Baseline.KENDALL_TAU, Aggregate.SUM)


@st.composite
def baseline_sets(draw):
    """1 to 8 rankings of one item set, each full and untied unless it draws a fault."""
    tokens = ALPHABET[: draw(st.integers(1, 6))]
    rankings = []
    for _ in range(draw(st.integers(1, 8))):
        order: list = list(draw(st.permutations(tokens)))
        fault = draw(st.sampled_from(["none", "none", "none", "tied", "partial", "mismatched"]))
        if fault == "tied" and len(order) > 1:
            order = [order[:2]] + order[2:]
        elif fault == "partial" and len(order) > 1:
            order.pop()
        elif fault == "mismatched":
            order[-1] = "z"
        rankings.append(order)
    return RankingSet.build(rankings)


def outcome(function, *args):
    try:
        return function(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@given(baseline_sets(), st.sampled_from(list(Baseline)))
@settings(max_examples=300, deadline=None)
def test_pairwise_values_match_the_ordered_pair_reference(rset, kind):
    assert outcome(pairwise_values, rset, kind) == outcome(ordered_pairwise_values, rset, kind)
