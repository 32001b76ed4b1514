from __future__ import annotations

import math

import pytest

from rankconsensus.graph import (
    Deviation,
    MeasureParams,
    build_matrix,
    gap_mean,
    heaviside,
    position_stats,
    survey,
)

from conftest import EXAMPLE_LINES, make_set


class TestHeaviside:
    def test_left_continuous_step(self):
        assert heaviside(1.0) == 1
        assert heaviside(1e-300) == 1
        assert heaviside(0.0) == 0
        assert heaviside(-0.5) == 0
        assert heaviside(-1e-300) == 0


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
            (dict(beta=1.0), "beta must be in (0,1)"),
            (dict(beta=0.0), "beta must be in (0,1)"),
        ],
    )
    def test_validation(self, kwargs, message):
        with pytest.raises(ValueError) as err:
            MeasureParams(**kwargs)
        assert message in str(err.value)

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
        matrix = build_matrix(rset, MeasureParams())
        assert matrix.to_dense() == self.PATTERN
        assert matrix.trace() == 5
        assert matrix.edge_count == 7
        assert all(isinstance(v, int) for row in matrix.to_dense() for v in row)

    def test_upper_triangle_is_zero(self):
        rset = make_set(*EXAMPLE_LINES)
        matrix = build_matrix(rset, MeasureParams(gamma=0.9, lam=0.8))
        for i in range(matrix.order):
            for j in range(i + 1, matrix.order):
                assert matrix.entry(i, j) == 0


class TestSurveyStatistics:
    def test_position_spread_of_item_f(self):
        rset = make_set(*EXAMPLE_LINES)
        sv = survey(rset)
        f = rset.table.id_of("f")
        index = sv.items.index(f)
        assert sv.positions[0][index] == 6
        assert [row[index] for row in sv.positions] == [6, 5, 10, 5]
        assert sv.mu[index] == pytest.approx(6.5)
        assert sv.mad[index] == pytest.approx(1.75)
        assert sv.deviation_of(index, Deviation.MAD) == pytest.approx(1.75)
        assert sv.deviation_of(index, Deviation.SQRT_MAD) == pytest.approx(
            math.sqrt(1.75)
        )
        assert sv.deviation_of(index, Deviation.STD) == pytest.approx(
            math.sqrt(4.25)
        )

    def test_position_stats_covers_common_items_only(self):
        rset = make_set(*EXAMPLE_LINES)
        stats = position_stats(rset, MeasureParams())
        tokens = sorted(rset.table.token_of(i) for i in stats.mu)
        assert tokens == ["b", "c", "d", "e", "f"]

    def test_gap_means(self):
        rset = make_set(*EXAMPLE_LINES)
        b, c, f = (rset.table.id_of(t) for t in "bcf")
        assert gap_mean(rset, b, c) == pytest.approx(2.25)
        assert gap_mean(rset, b, f) == pytest.approx(5.25)

    def test_gap_mean_requires_presence_everywhere(self):
        rset = make_set(*EXAMPLE_LINES)
        a, b = rset.table.id_of("a"), rset.table.id_of("b")
        with pytest.raises(ValueError, match="absent from ranking 3"):
            gap_mean(rset, a, b)

    def test_edge_weights_use_gap_means(self):
        rset = make_set(*EXAMPLE_LINES)
        params = MeasureParams(lam=0.5)
        matrix = build_matrix(rset, params)
        b = matrix.items.index(rset.table.id_of("b"))
        c = matrix.items.index(rset.table.id_of("c"))
        f = matrix.items.index(rset.table.id_of("f"))
        assert matrix.entry(c, b) == pytest.approx(0.5**2.25)
        assert matrix.entry(f, b) == pytest.approx(0.5**5.25)

    def test_diagonal_weights_use_deviation(self):
        rset = make_set(*EXAMPLE_LINES)
        matrix = build_matrix(rset, MeasureParams(gamma=0.8, deviation=Deviation.MAD))
        f = matrix.items.index(rset.table.id_of("f"))
        assert matrix.entry(f, f) == pytest.approx(0.8**1.75)


class TestTies:
    def test_tied_items_share_a_position(self):
        rset = make_set("a {b c} d", "a b c d")
        sv = survey(rset)
        b = sv.items.index(rset.table.id_of("b"))
        c = sv.items.index(rset.table.id_of("c"))
        assert sv.positions[0][b] == sv.positions[0][c] == 2
        assert sv.positions[1][c] == 3

    def test_tie_breaks_strict_order(self):
        # b and c tie in the first ranking, so neither is strictly
        # after the other there and the pair carries no edge.
        rset = make_set("a {b c} d", "a b c d")
        matrix = build_matrix(rset, MeasureParams())
        b = matrix.items.index(rset.table.id_of("b"))
        c = matrix.items.index(rset.table.id_of("c"))
        lower = {j for j, _ in matrix.row_lower(c)}
        assert b not in lower
        assert matrix.entry(b, b) == 1
        assert matrix.entry(c, c) == 1


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


class TestDump:
    def test_dump_csv_lists_nonzero_entries(self):
        rset = make_set("a b c", "a b c")
        matrix = build_matrix(rset, MeasureParams())
        lines = matrix.dump_csv().splitlines()
        assert lines[0] == "row,col,value"
        assert "0,0,1" in lines
        assert "1,0,1" in lines
        assert len(lines) == 1 + 3 + 3
