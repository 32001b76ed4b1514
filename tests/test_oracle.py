from __future__ import annotations

import pytest

from rankconsensus.graph import MeasureParams
from rankconsensus.measures import measure
from rankconsensus.oracle import (
    SIZE_GUARD,
    SizeLimitError,
    enumerate_common,
    format_subsequences,
    oracle_profile,
)

from conftest import EXAMPLE_LINES, make_set


class TestEnumeration:
    def test_example_sequences_by_length(self, example_set):
        subs = enumerate_common(example_set)
        by_len = {}
        for sub in subs:
            by_len.setdefault(len(sub.items), []).append("".join(sub.items))
        assert sorted(by_len[1]) == ["b", "c", "d", "e", "f"]
        assert by_len[3] == ["bde", "bdf", "bef", "def"]
        assert by_len[4] == ["bdef"]
        assert 5 not in by_len

    def test_single_ranking_triples(self):
        rset = make_set("a b c d e")
        subs = [s for s in enumerate_common(rset) if len(s.items) == 3]
        assert len(subs) == 10

    def test_max_len_truncates(self, example_set):
        subs = enumerate_common(example_set, max_len=2)
        assert max(len(s.items) for s in subs) == 2

    def test_sorted_by_length_then_position(self, example_set):
        subs = enumerate_common(example_set)
        keys = [(len(s.items), s.items) for s in subs]
        assert keys == sorted(keys)

    def test_downward_closure(self, example_set):
        found = {s.items for s in enumerate_common(example_set)}
        for items in found:
            for drop in range(len(items)):
                shorter = items[:drop] + items[drop + 1 :]
                if shorter:
                    assert shorter in found

    def test_exact_weights_are_unit(self, example_set):
        for sub in enumerate_common(example_set):
            assert sub.weight == 1
            assert isinstance(sub.weight, int)

    def test_weighted_singleton_and_chain(self):
        rset = make_set(*EXAMPLE_LINES)
        params = MeasureParams(gamma=0.8, lam=0.5)
        subs = enumerate_common(rset, params=params)
        weight = {"".join(s.items): s.weight for s in subs}
        assert weight["f"] == pytest.approx(0.8**1.75)
        assert weight["bc"] == pytest.approx(0.5**2.25)
        assert weight["bde"] == pytest.approx(weight["bd"] * weight["de"])
        assert weight["bde"] == pytest.approx(0.5 ** (1.75 + 1.25))

    def test_size_guard(self):
        tokens = " ".join(f"t{i}" for i in range(SIZE_GUARD + 1))
        rset = make_set(tokens)
        with pytest.raises(SizeLimitError, match="enumeration guard"):
            enumerate_common(rset)

    def test_guard_is_on_shortest_ranking(self):
        long_line = " ".join(f"t{i}" for i in range(SIZE_GUARD + 5))
        rset = make_set(long_line, "t0 t1 t2")
        assert enumerate_common(rset)


class TestOracleProfile:
    def test_matches_matrix_on_example(self, example_set):
        assert oracle_profile(example_set).series == measure(
            example_set, MeasureParams()
        ).series

    def test_weighted_profile_sums_weights(self, example_set):
        params = MeasureParams(gamma=0.9, lam=0.7)
        oracle = oracle_profile(example_set, params)
        computed = measure(example_set, params)
        assert oracle.ell == computed.ell
        for p in range(1, oracle.ell + 1):
            assert oracle.value_at(p) == pytest.approx(
                computed.value_at(p), rel=1e-9
            )


class TestFormatting:
    def test_lists_tokens_and_weight(self, example_set):
        subs = enumerate_common(example_set, max_len=1)
        text = format_subsequences(subs)
        lines = text.splitlines()
        assert lines[0] == "b 1"
        assert len(lines) == 5
