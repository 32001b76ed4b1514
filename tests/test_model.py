from __future__ import annotations

import json
import random
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankconsensus import cli
from rankconsensus.graph import MeasureParams, survey
from rankconsensus.measures import kappa_series
from rankconsensus.model import Ranking, RankingSet, ValidationError, valid_token

from conftest import make_set, near_consensus_set
from reference import EagerRanking, pairwise_survey


class TestRanking:
    def test_positions_are_group_indices_from_one(self):
        r = Ranking(["a", ["b", "c"], "d"])
        assert r.length == 4
        assert r.position_of("a") == 1
        assert r.position_of("b") == 2
        assert r.position_of("c") == 2
        assert r.position_of("d") == 3
        assert r.position_of("z") == 0

    def test_untied_flag(self):
        assert Ranking("a b c".split()).is_untied
        assert not Ranking(["a", ["b", "c"]]).is_untied

    def test_groups_are_canonical(self):
        left = Ranking([["y", "x"]])
        right = Ranking([("x", "y")])
        assert left == right
        assert left.groups == (("x", "y"),)

    def test_tied_tokens_come_out_in_token_order(self):
        r = Ranking(["c", ["b", "a"]])
        assert list(r.items()) == ["c", "a", "b"]
        assert r.item_set() == {"a", "b", "c"}

    def test_build_errors(self):
        with pytest.raises(ValidationError, match="^empty ranking$"):
            Ranking([])
        with pytest.raises(ValidationError, match="^empty tie group$"):
            Ranking([[]])
        with pytest.raises(ValidationError, match="^duplicate item a$"):
            Ranking(["a", "b", "a"])
        with pytest.raises(ValidationError, match="^duplicate item a$"):
            Ranking([["a", "a"]])
        with pytest.raises(ValidationError, match="^invalid item token 'a b'"):
            Ranking(["a", "a b"])

    @pytest.mark.parametrize(
        "groups,message",
        [
            ((("a", "b"), (), ("c d",)), "empty tie group"),
            ((("a",), ("b", "{c"), ("a",)), "invalid item token '{c'"),
            ((("a", "b"), ("a",), ("", 1)), "duplicate item a"),
            (("a", ["b", None], []), "invalid item token None"),
        ],
    )
    def test_first_fault_in_ranking_order(self, groups, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}"):
            Ranking(groups)

    def test_non_iterable_group_after_a_fault(self):
        with pytest.raises(ValidationError, match="^duplicate item a$"):
            Ranking([["a"], iter(["a"]), 5])
        with pytest.raises(TypeError, match="not iterable"):
            Ranking([["a"], iter(["b"]), 5])

    def test_contains(self):
        r = Ranking(["a", "b"])
        assert "a" in r
        assert "z" not in r

    def test_rankings_of_different_tokens_differ(self):
        left = RankingSet.build([["a", "b"]]).rankings[0]
        right = RankingSet.build([["x", "y"]]).rankings[0]
        assert left != right
        assert hash(left) != hash(right)
        assert left == RankingSet.build([["b"], ["a", "b"]]).rankings[1]


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
        assert {item for item, c in zip(sv.items, sv.common) if c} == {"b", "c"}

    def test_distinct_counts_multiplicity(self):
        rset = RankingSet.build([["a", "b"], ["a", "b"], ["b", "a"], ["a", "b"]])
        distinct, most = rset.distinct()
        assert len(distinct) == 2
        assert most == 3
        first = next(iter(distinct))
        assert list(first.items()) == ["a", "b"]

    def test_distinct_merges_only_equal_token_groups(self):
        rset = RankingSet.build(
            [["a", "b"], ["x", "y"], [["a", "b"]], [["b", "a"]], ["a", "b"], ["b", "a"]]
        )
        distinct, most = rset.distinct()
        assert [r.groups for r in distinct] == [
            (("a",), ("b",)),
            (("x",), ("y",)),
            (("a", "b"),),
            (("b",), ("a",)),
        ]
        assert most == 2

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


# Tokens with whitespace or braces, the empty token, non-str tokens and
# unhashable ones, drawn one time in four, so that many rankings pass.
BAD_TOKENS = ["a b", "{x", "y}", "", "a\u2028b", " ", 1, None, ("a",), ["a"], {"a": 1}]
TOKEN = st.sampled_from(list("abcdefgh") * 3 + BAD_TOKENS)
# A group is a bare token (a str is a singleton group, a non-str one is
# not iterable or not a group of str), a list or a tuple.
GROUP = TOKEN | st.lists(TOKEN, max_size=3) | st.lists(TOKEN, max_size=3).map(tuple)


class TestWholeRankingChecks:
    """Ranking against the token-by-token reference ranking."""

    @given(st.lists(GROUP, max_size=6) | st.lists(GROUP, max_size=6).map(tuple))
    @settings(max_examples=1000, deadline=None)
    @example(["a", ["b", "c"], "c"])
    @example(["a", [], "b c", "a"])
    @example(["c", 1, "c"])
    @example([["b", "a"], "c", ("e", "d")])
    def test_ranking_matches_the_token_by_token_ranking(self, groups):
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
        for item in ["z", *"abcdefgh"]:
            assert built.position_of(item) == expected.position_of(item)
            assert (item in built) == (item in expected)
        # The cached position table and length are not fields.
        fresh = Ranking(groups)
        assert built == fresh and hash(built) == hash(fresh)
        assert repr(built) == repr(fresh) == f"Ranking(groups={built.groups!r})"

    @pytest.mark.parametrize("groups", [None, 5])
    def test_non_iterable_ranking(self, groups):
        assert _outcome(lambda: Ranking(groups)) == _outcome(lambda: EagerRanking(groups))


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
