from __future__ import annotations

import pytest

from rankconsensus.graph import survey
from rankconsensus.model import (
    ItemTable,
    Ranking,
    RankingSet,
    ValidationError,
    build_ranking,
)


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
            (((),), "empty tie group"),
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
