from __future__ import annotations

import json
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankconsensus import cli
from rankconsensus.graph import MeasureParams, survey
from rankconsensus.measures import kappa_series
from rankconsensus.model import (
    ItemTable,
    Ranking,
    RankingSet,
    ValidationError,
    build_ranking,
    valid_token,
)

from conftest import make_set, near_consensus_set
from reference import EagerRanking, pairwise_survey, token_build_ranking


class TestItemTable:
    def test_intern_assigns_dense_ids(self):
        table = ItemTable()
        assert table.intern("a") == 0
        assert table.intern("b") == 1
        assert table.intern("a") == 0
        assert len(table) == 2
        assert table.token_of(1) == "b"
        assert table.id_of("a") == 0
        assert "a" in table and "z" not in table

    def test_rejects_bad_tokens(self):
        table = ItemTable()
        for bad in ("", "a b", "a\tb", "{x", "x}"):
            with pytest.raises(ValidationError):
                table.intern(bad)

    def test_rejects_non_string_tokens_after_interning(self):
        # Known tokens skip the check, so a non-string must not reach the lookup.
        table = ItemTable()
        table.intern("a")
        for bad in (None, 5, ["a"], ("a",)):
            with pytest.raises(ValidationError):
                table.intern(bad)

    def test_unknown_lookups_raise(self):
        table = ItemTable()
        with pytest.raises(ValueError, match="unknown item"):
            table.id_of("missing")
        with pytest.raises(ValueError, match="unknown item id"):
            table.token_of(0)


class TestRanking:
    def test_positions_are_group_indices_from_one(self):
        table = ItemTable()
        r = build_ranking(table, ["a", ["b", "c"], "d"])
        assert r.length == 4
        assert r.position_of(table.id_of("a")) == 1
        assert r.position_of(table.id_of("b")) == 2
        assert r.position_of(table.id_of("c")) == 2
        assert r.position_of(table.id_of("d")) == 3
        assert r.position_of(999) == 0

    def test_untied_flag(self):
        table = ItemTable()
        assert build_ranking(table, "a b c".split()).is_untied
        assert not build_ranking(table, ["a", ["b", "c"]]).is_untied

    def test_groups_are_canonical(self):
        table = ItemTable()
        table.intern("x")
        table.intern("y")
        left = build_ranking(table, [["y", "x"]])
        right = build_ranking(table, [["x", "y"]])
        assert left == right
        assert left.groups == ((table.id_of("x"), table.id_of("y")),)

    def test_items_iterates_in_rank_order(self):
        table = ItemTable()
        r = build_ranking(table, ["c", ["a", "b"]])
        tokens = [table.token_of(i) for i in r.items()]
        assert tokens == ["c", "a", "b"]
        assert r.item_set() == {table.id_of(t) for t in "abc"}

    def test_build_errors(self):
        table = ItemTable()
        with pytest.raises(ValidationError, match="empty ranking"):
            build_ranking(table, [])
        with pytest.raises(ValidationError, match="empty tie group"):
            build_ranking(table, [[]])
        with pytest.raises(ValidationError, match="duplicate item a"):
            build_ranking(table, ["a", "b", "a"])
        with pytest.raises(ValidationError, match="duplicate item a"):
            build_ranking(table, [["a", "a"]])

    @pytest.mark.parametrize(
        "groups,message",
        [
            ((), "empty ranking"),
            (None, "empty ranking"),
            (((),), "empty tie group"),
            (((0, 1), (), (1,)), "empty tie group"),
            (((0,), (0,)), "duplicate item id 0"),
            (((1, 0, 1),), "duplicate item id 1"),
        ],
    )
    def test_shape_errors(self, groups, message):
        # Ranking is the one check on ids; build_ranking names tokens instead.
        with pytest.raises(ValidationError, match=f"^{message}$"):
            Ranking(groups)

    def test_contains(self):
        table = ItemTable()
        r = build_ranking(table, ["a", "b"])
        assert table.id_of("a") in r
        assert 42 not in r


class TestRankingSet:
    def test_build_and_iteration(self):
        rset = RankingSet.build([["a", "b"], ["b", "a"]])
        assert len(rset) == 2
        assert [r.length for r in rset] == [2, 2]

    def test_empty_set_rejected(self):
        with pytest.raises(ValidationError, match="empty ranking set"):
            RankingSet.build([])

    def test_reference_is_shortest_first_wins(self):
        rset = RankingSet.build([["a", "b", "c"], ["b", "a"], ["c", "a"]])
        assert rset.reference_index() == 1

    def test_common_items(self):
        rset = RankingSet.build([["a", "b", "c"], ["b", "c", "d"]])
        sv = survey(rset)
        tokens = {rset.table.token_of(item) for item, c in zip(sv.items, sv.common) if c}
        assert tokens == {"b", "c"}

    def test_distinct_counts_multiplicity(self):
        rset = RankingSet.build([["a", "b"], ["a", "b"], ["b", "a"], ["a", "b"]])
        distinct, most = rset.distinct()
        assert len(distinct) == 2
        assert most == 3
        first = next(iter(distinct))
        assert [distinct.table.token_of(i) for i in first.items()] == ["a", "b"]

    def test_distinct_on_unique_set_is_identity(self):
        rset = RankingSet.build([["a", "b"], ["b", "a"]])
        distinct, most = rset.distinct()
        assert len(distinct) == 2
        assert most == 1


def _outcome(call):
    """The call's result, or the type and message of the error it raised."""
    try:
        return call()
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def _tokens(table: ItemTable) -> list[str]:
    return [table.token_of(item) for item in range(len(table))]


# Tokens with whitespace or braces, the empty token, non-str tokens and
# an unhashable one, drawn one time in four, so that many rankings pass.
BAD_TOKENS = ["a b", "{x", "y}", "", "a\u2028b", 1, None, ("a",), ["a"]]
TOKEN = st.sampled_from(list("abcdefgh") * 3 + BAD_TOKENS)
# A group is a bare token (a str is a singleton group), a list or a tuple.
GROUP = TOKEN | st.lists(TOKEN, max_size=3) | st.lists(TOKEN, max_size=3).map(tuple)


class TestWholeRankingChecks:
    """build_ranking and Ranking against the token-by-token build they replace."""

    @given(st.lists(st.lists(GROUP, max_size=6), min_size=1, max_size=4))
    @settings(max_examples=600, deadline=None)
    @example([["a", "b"], ["a", ["b", "c"], "c"], [["d", "e"], "a"]])
    @example([["a", "b c", "a"], ["a", [], "b"], ["c", 1, "c"], ["d", None]])
    def test_build_matches_the_token_by_token_build(self, rankings):
        # One table across the rankings, so known tokens, fresh tokens and
        # the table left behind by an error all meet later rankings.
        table, reference_table = ItemTable(), ItemTable()
        for groups in rankings:
            built = _outcome(lambda: build_ranking(table, groups))
            expected = _outcome(lambda: token_build_ranking(reference_table, groups))
            if isinstance(expected, EagerRanking):
                assert isinstance(built, Ranking)
                assert built.groups == expected.groups
            else:
                assert built == expected
            assert _tokens(table) == _tokens(reference_table)

    @given(
        st.lists(
            st.lists(st.integers(0, 5) | st.sampled_from(["x", [0]]), max_size=3)
            | st.tuples(st.integers(0, 5)),
            max_size=5,
        )
    )
    @settings(max_examples=600, deadline=None)
    def test_ranking_matches_the_eager_ranking(self, groups):
        built = _outcome(lambda: Ranking(groups))
        expected = _outcome(lambda: EagerRanking(groups))
        if not isinstance(expected, EagerRanking):
            assert built == expected
            return
        assert built.groups == expected.groups
        assert built.length == expected.length
        assert built.is_untied == expected.is_untied
        assert list(built.items()) == list(expected.items())
        assert built.item_set() == expected.item_set()
        for item in [-1, *range(7), "x"]:
            assert built.position_of(item) == expected.position_of(item)
            assert (item in built) == (item in expected)
        # The cached position table and length are not fields.
        fresh = Ranking(groups)
        assert built == fresh and hash(built) == hash(fresh)
        assert repr(built) == repr(fresh) == f"Ranking(groups={built.groups!r})"


class TestLazyPositions:
    EXACT = MeasureParams()
    WEIGHTED = MeasureParams(gamma=0.9, lam=0.8)
    # Tied and partial rankings; the first starts with a token, not a tie group.
    LINES = ("a {b c} d e f", "{a b} c e", "b a {c d e} f g", "e {a b c}")

    def test_survey_series_and_measure_read_no_positions(self, monkeypatch, tmp_path, capsys):
        sets = [make_set(*self.LINES), near_consensus_set(random.Random(4), 40, 5)]
        expected = [
            [kappa_series(pairwise_survey(rset), params) for params in (self.EXACT, self.WEIGHTED)]
            for rset in sets
        ]

        def refuse(self):
            raise AssertionError("a position table was read")

        monkeypatch.setattr(Ranking, "_positions", property(refuse))
        sets = [make_set(*self.LINES), near_consensus_set(random.Random(4), 40, 5)]
        for rset, profiles in zip(sets, expected):
            sv = survey(rset)
            assert [kappa_series(sv, p) for p in (self.EXACT, self.WEIGHTED)] == profiles
        doc = tmp_path / "set.txt"
        doc.write_text("\n".join(self.LINES) + "\n")
        assert cli.main(["measure", str(doc), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["kappa_total"] == expected[0][0].total


def test_valid_token_on_every_code_point():
    wrong = [
        code
        for code in range(sys.maxunicode + 1)
        if valid_token("a" + chr(code) + "b") == (chr(code).isspace() or chr(code) in "{}")
    ]
    assert wrong == []
    for token in ("", " a", "a ", "\u2028", "{", "a}"):
        assert not valid_token(token)
    for token in (None, 1, 1.5, b"a", ["a"], ("a",)):
        assert not valid_token(token)
