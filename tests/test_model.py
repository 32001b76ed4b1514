from __future__ import annotations

import json
import random
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankconsensus import cli, io, model
from rankconsensus.graph import MeasureParams, Survey, survey
from rankconsensus.io import parse_text
from rankconsensus.measures import kappa_series
from rankconsensus.model import Ranking, RankingSet, ValidationError, valid_tokens

from conftest import make_set, near_consensus_set
from reference import EagerRanking, is_token, pairwise_survey


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
        assert r.position_of("a") == 1
        assert r.position_of("z") == 0

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
        assert first.tokens == ("a", "b")

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
# Rankings of any groups; lists of bare tokens, which is what an untied
# line of a document is, drawn among all tokens and among good ones
# only, so that many pass; and good bare tokens mixed with tuple groups.
GOOD = st.sampled_from(list("abcdefgh"))
RANKINGS = (
    st.lists(GROUP, max_size=6)
    | st.lists(GROUP, max_size=6).map(tuple)
    | st.lists(TOKEN, max_size=8)
    | st.lists(GOOD, max_size=8, unique=True)
    | st.lists(GOOD | st.lists(GOOD, min_size=1, max_size=3).map(tuple), max_size=6)
)


class TestWholeRankingChecks:
    """Ranking against the token-by-token reference ranking."""

    @given(RANKINGS)
    @settings(max_examples=1000, deadline=None)
    @example(["a", ["b", "c"], "c"])
    @example(["a", [], "b c", "a"])
    @example(["c", 1, "c"])
    @example([["b", "a"], "c", ("e", "d")])
    @example(["b", "a", "c"])
    @example(["b", "a", "b"])
    @example(["b", ("a",), "c"])
    @example([])
    def test_ranking_matches_the_token_by_token_ranking(self, groups):
        built = _outcome(lambda: Ranking(groups))
        expected = _outcome(lambda: EagerRanking(groups))
        if not isinstance(expected, EagerRanking):
            assert built == expected
            return
        assert built.groups == expected.groups
        assert built.tokens == tuple(expected.items())
        assert built.sizes == tuple(map(len, expected.groups))
        assert list(built.positions) == list(map(expected.position_of, built.tokens))
        assert built.length == expected.length
        assert built.is_untied == expected.is_untied
        assert list(built.items()) == list(expected.items())
        assert built.item_set() == expected.item_set()
        for item in ["z", *"abcdefgh"]:
            assert built.position_of(item) == expected.position_of(item)
        assert repr(built) == "Ranking" + repr(expected).removeprefix("EagerRanking")
        # The cached groups, positions and position table are not fields.
        fresh = Ranking(groups)
        assert built == fresh and hash(built) == hash(fresh)
        assert repr(built) == repr(fresh) == f"Ranking(groups={built.groups!r})"

    @given(RANKINGS, RANKINGS)
    @settings(max_examples=500, deadline=None)
    @example(["a", "b"], [("a",), ("b",)])
    @example(["a", ("b", "c")], ["a", ["c", "b"]])
    @example([("a", "b")], ["a", "b"])
    @example(["a", ("b", "c")], [("a", "b"), "c"])
    def test_equality_and_hash_match_the_token_by_token_ranking(self, left, right):
        try:
            built = Ranking(left), Ranking(right)
        except (ValueError, TypeError):
            return
        expected = EagerRanking(left), EagerRanking(right)
        assert (built[0] == built[1]) == (expected[0] == expected[1])
        if built[0] == built[1]:
            assert hash(built[0]) == hash(built[1])
            assert repr(built[0]) == repr(built[1])

    @pytest.mark.parametrize("groups", [None, 5])
    def test_non_iterable_ranking(self, groups):
        assert _outcome(lambda: Ranking(groups)) == _outcome(lambda: EagerRanking(groups))


class TestLazyPositions:
    EXACT = MeasureParams()
    WEIGHTED = MeasureParams(gamma=0.9, lam=0.8)
    # Tied and partial rankings; the first starts with a token, not a tie group.
    LINES = ("a {b c} d e f", "{a b} c e", "b a {c d e} f g", "e {a b c}")

    def test_survey_series_and_measure_read_no_positions(self, monkeypatch, tmp_path, capsys):
        # One tied and partial document, one untied one.
        untied = near_consensus_set(random.Random(4), 40, 5)
        texts = ["\n".join(self.LINES) + "\n", "".join(" ".join(r.tokens) + "\n" for r in untied)]
        expected = [
            [
                kappa_series(pairwise_survey(parse_text(text).to_ranking_set()), params)
                for params in (self.EXACT, self.WEIGHTED)
            ]
            for text in texts
        ]

        def refuse(what):
            def read(self):
                raise AssertionError(f"{what} was read")

            return property(read)

        monkeypatch.setattr(Ranking, "_positions", refuse("a position table"))
        surveys = []
        with monkeypatch.context() as exact_only:
            # The exact path reads the masks alone, not the survey's columns.
            exact_only.setattr(Survey, "_columns", refuse("a survey's columns"))
            for k, (text, (exact, _)) in enumerate(zip(texts, expected)):
                sv = survey(parse_text(text).to_ranking_set())
                assert kappa_series(sv, self.EXACT) == exact
                surveys.append(sv)
                doc = tmp_path / f"set{k}.txt"
                doc.write_text(text)
                assert cli.main(["measure", str(doc), "--format", "json"]) == 0
                assert json.loads(capsys.readouterr().out)["kappa_total"] == exact.total
        for sv, (_, weighted) in zip(surveys, expected):
            assert "_columns" not in vars(sv)
            assert kappa_series(sv, self.WEIGHTED) == weighted

    def test_exact_measure_reads_no_groups(self, monkeypatch, tmp_path, capsys):
        doc = tmp_path / "set.txt"
        doc.write_text("\n".join(self.LINES) + "\nb a e\n")
        assert cli.main(["measure", str(doc), "--format", "json"]) == 0
        expected = capsys.readouterr().out

        def refuse(self):
            raise AssertionError("a ranking's groups were read")

        monkeypatch.setattr(Ranking, "groups", property(refuse))
        assert cli.main(["measure", str(doc), "--format", "json"]) == 0
        assert capsys.readouterr().out == expected
        with pytest.raises(AssertionError, match="groups were read"):
            make_set(*self.LINES).rankings[0].groups


class TestOneCheckPerRanking:
    def test_every_text_line_takes_one_route(self, monkeypatch, tmp_path, capsys):
        lines = [" ".join(random.Random(k).sample("abcdefgh", 6)) for k in range(7)]
        lines[2] = "x: " + lines[2]
        checks, builds = [], []
        init = Ranking.__init__

        def counted(tokens):
            checks.append(tokens)
            return valid_tokens(tokens)

        def counted_init(self, groups):
            builds.append(groups)
            init(self, groups)

        monkeypatch.setattr(model, "valid_tokens", counted)
        monkeypatch.setattr(io, "valid_tokens", counted)
        monkeypatch.setattr(Ranking, "__init__", counted_init)

        # A plain document: one split and one set per line, no token check.
        doc = tmp_path / "set.txt"
        doc.write_text("\n".join(lines) + "\n")
        assert cli.main(["measure", str(doc), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["ell"] >= 1
        plain = parse_text(doc.read_text()).to_ranking_set()
        # A comment and \r\n line ends (which a file read as text would
        # turn into \n, so parse_text reads them here) take the same route.
        for text in ("\n".join(lines) + "  # note\n", "\r\n".join(lines) + "\r\n"):
            assert parse_text(text).to_ranking_set().rankings == plain.rankings
        # So does a tie group, which is sorted as Ranking(groups) sorts it.
        tied = parse_text("{b a} c\ny: d {c e a} {b}\n")
        assert [(raw.ranking.tokens, raw.ranking.sizes) for raw in tied.rankings] == [
            (("a", "b", "c"), (2, 1)),
            (("d", "a", "c", "e", "b"), (1, 3, 1)),
        ]
        assert (checks, builds) == ([], [])
        assert tied.rankings[1].ranking == Ranking(["d", ["e", "a", "c"], ["b"]])
        # A line with a repeat goes to Ranking once, to have it named.
        builds.clear()
        with pytest.raises(io.ParseError, match="^duplicate item c at line 2$"):
            parse_text("a b\nx {c b c b}\n")
        assert len(builds) == 1

        # graph.survey reads no positions of an untied ranking, in a set
        # that mixes tied and untied rankings and tokens outside the reference.
        rset = make_set("b a e c d", "{a b} c d", "a b c d", "f a {c b} d e")
        expected = [pairwise_survey(rset, k) for k in range(len(rset))]
        real = Ranking.positions.fget

        def guarded(self):
            if self.is_untied:
                raise AssertionError("an untied ranking's positions were read")
            return real(self)

        monkeypatch.setattr(Ranking, "positions", property(guarded))
        assert [survey(rset, k) for k in range(len(rset))] == expected
        with pytest.raises(AssertionError, match="positions were read"):
            rset.rankings[0].positions

    def test_a_json_entry_and_a_library_ranking_make_one_check(self, monkeypatch):
        checks, builds = [], []
        init = Ranking.__init__

        def counted(tokens):
            checks.append(list(tokens))
            return valid_tokens(tokens)

        def counted_init(self, groups):
            builds.append(groups)
            init(self, groups)

        monkeypatch.setattr(model, "valid_tokens", counted)
        monkeypatch.setattr(io, "valid_tokens", counted)
        monkeypatch.setattr(Ranking, "__init__", counted_init)

        # A JSON entry: one check, on its tokens flattened in group order,
        # and no Ranking(groups).
        entries = [{"groups": [["d"], ["c", "a"], ["b"]]}, {"label": "x", "groups": [["a", "b"]]}]
        document = io.parse_json(json.dumps({"rankings": entries}))
        assert (checks, builds) == ([["d", "c", "a", "b"], ["a", "b"]], [])
        assert document.rankings[0].ranking.groups == (("d",), ("a", "c"), ("b",))
        # A tied library ranking whose first group is a tie: one check,
        # on its tokens.
        checks.clear()
        assert Ranking([["e", "a"], "c", ("b",)]).sizes == (2, 1, 1)
        assert checks == [["e", "a", "c", "b"]]
        # An untied one: one check of the whole list as bare tokens.
        checks.clear()
        Ranking(["b", "a", "c"])
        assert checks == [["b", "a", "c"]]
        # A text line: none.
        checks.clear()
        parse_text("a {c b} d\n")
        assert checks == []

    def test_the_set_holds_the_documents_rankings(self):
        doc = parse_text("a {b c} d\nx: d b a c\n")
        rset = doc.to_ranking_set()
        assert len(rset.rankings) == len(doc.rankings) == 2
        for ranking, raw in zip(rset.rankings, doc.rankings):
            assert ranking is raw.ranking


def test_valid_token_on_every_code_point():
    wrong = [
        code
        for code in range(sys.maxunicode + 1)
        if valid_tokens(["a" + chr(code) + "b"]) == (chr(code).isspace() or chr(code) in "{}")
    ]
    assert wrong == []
    for token in ("", " a", "a ", "\u2028", "{", "a}"):
        assert not valid_tokens([token])
    for token in (None, 1, 1.5, b"a", ["a"], ("a",)):
        assert not valid_tokens([token])


def test_every_split_token_of_a_brace_free_string_is_valid():
    # The corollary io.parse_text rests on: a line needs only its repeat
    # test after _split_line, because every token split() makes from
    # brace-free text passes valid_tokens.
    text = "".join(f" {char} a{char}b" for char in map(chr, range(sys.maxunicode + 1)))
    text = text.replace("{", "").replace("}", "")
    wrong = [token for token in text.split() if not valid_tokens([token])]
    assert wrong == []


# Spaces, printable and not, and non-printable characters that are not
# whitespace.
RULE_TOKEN = st.text(
    alphabet=["a", "b", " ", "\u00a0", "\u2028", "\u3000", "\u200b", "\ufeff", "{", "}"],
    max_size=3,
) | st.sampled_from([None, 1, ("a",), ["a"]])


@given(st.lists(RULE_TOKEN, max_size=6))
@settings(max_examples=1000, deadline=None)
@example(["", "a"])
@example(["a b"])
@example(["a\u200b", "b"])
@example(["a\u00a0b"])
def test_valid_tokens_is_the_per_character_rule(tokens):
    expected = all(map(is_token, tokens)) and len(set(tokens)) == len(tokens)
    assert valid_tokens(tokens) == expected
