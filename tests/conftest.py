from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from rankconsensus import RankingSet, parse_text

# Four partially overlapping rankings used as the worked example across
# the test suite. Known by heart: kappa_p = 5, 7, 4, 1 and kappa = 17.
EXAMPLE_LINES = (
    "a b c d e f",
    "b d c e f a",
    "b c d e g h i j k f",
    "b a d e f c",
)


def make_set(*lines: str) -> RankingSet:
    return parse_text("\n".join(lines)).to_ranking_set()


@pytest.fixture
def example_set() -> RankingSet:
    return make_set(*EXAMPLE_LINES)


def random_set(
    rng: random.Random,
    max_rankings: int = 5,
    universe: int = 10,
    allow_ties: bool = True,
) -> RankingSet:
    """A small random instance: partial rankings over a shared universe,
    optionally with tie groups, sized for the enumeration oracle."""
    tokens = [chr(ord("a") + i) for i in range(universe)]
    count = rng.randint(2, max_rankings)
    lines = []
    for _ in range(count):
        size = rng.randint(1, universe)
        chosen = rng.sample(tokens, size)
        parts: list[str] = []
        index = 0
        while index < len(chosen):
            if allow_ties and index + 1 < len(chosen) and rng.random() < 0.25:
                width = rng.randint(2, min(3, len(chosen) - index))
                group = " ".join(chosen[index : index + width])
                parts.append("{" + group + "}")
                index += width
            else:
                parts.append(chosen[index])
                index += 1
        lines.append(" ".join(parts))
    return make_set(*lines)


def near_consensus_set(rng: random.Random, n: int, count: int) -> RankingSet:
    """count untied full rankings of n items, each one shuffled base order
    after n random swaps of adjacent items."""
    base = [f"t{k}" for k in range(n)]
    rng.shuffle(base)
    rankings = []
    for _ in range(count):
        order = base[:]
        for _ in range(n):
            k = rng.randrange(n - 1)
            order[k], order[k + 1] = order[k + 1], order[k]
        rankings.append(order)
    return RankingSet.build(rankings)


ALPHABET = [chr(ord("a") + i) for i in range(8)]


@st.composite
def ranking_sets(draw, min_rankings=1, max_rankings=4, universe=6, ties=True):
    tokens = ALPHABET[:universe]
    count = draw(st.integers(min_rankings, max_rankings))
    rankings = []
    for _ in range(count):
        size = draw(st.integers(1, universe))
        chosen = draw(st.permutations(tokens))[:size]
        groups: list[list[str]] = []
        index = 0
        while index < len(chosen):
            width = 1
            if ties and index + 1 < len(chosen) and draw(st.booleans()):
                width = draw(st.integers(2, min(3, len(chosen) - index)))
            groups.append(list(chosen[index : index + width]))
            index += width
        rankings.append(groups)
    return RankingSet.build(rankings)
