"""Classical pairwise rank-correlation indices and their set aggregation.

These operate on pairs of full, untied rankings over the same items;
anything else raises UnsupportedRankingError. Each index reads one
vector, the second ranking's position of each item of the first. Such
rankings order every item pair one way or the other, so Kendall counts
only the discordant pairs, the vector's inversions, by a direct O(n^2)
enumeration. Every index is symmetric, so the set aggregation evaluates
each unordered ranking pair once.

The footrule here divides by n(n^2 - 1), not the usual n^2 based
normalizer. That matches the source material for this artifact verbatim
and is kept on purpose, so footrule values differ from most textbook
definitions by a constant factor.
"""
from __future__ import annotations

from enum import Enum
from typing import Sequence

from .model import Ranking, RankingSet


class UnsupportedRankingError(ValueError):
    """The input rankings are outside an index's scope (tied, partial, disjoint)."""


class Baseline(str, Enum):
    """The pairwise indices, by their command-line names."""

    KENDALL_TAU = "tau"
    KENDALL_DIST = "dtau"
    SPEARMAN_RHO = "rho"
    FOOTRULE = "footrule"


class Aggregate(str, Enum):
    """How the pair values of a set combine into one number."""

    SUM = "sum"
    MEAN = "mean"
    MIN = "min"


def _order(r1: Ranking, r2: Ranking) -> list[int]:
    """r2's position of each item of r1, in r1's order; r1's own positions are 1..n."""
    if not r1.is_untied or not r2.is_untied:
        raise UnsupportedRankingError("tied rankings are not supported")
    if r1.item_set() != r2.item_set():
        raise UnsupportedRankingError("rankings do not cover the same items")
    if r1.length < 2:
        raise ValueError(f"need at least 2 items, got {r1.length}")
    return list(map(r2.position_of, r1.tokens))


def _discordant(r1: Ranking, r2: Ranking) -> tuple[int, int]:
    """(discordant, all) unordered item pairs: the inversions of the order, n(n-1)/2."""
    order = _order(r1, r2)
    pairs = len(order) * (len(order) - 1) // 2
    return sum(x > y for a, x in enumerate(order) for y in order[a + 1 :]), pairs


def kendall_tau(r1: Ranking, r2: Ranking) -> float:
    """Concordant-minus-discordant pair fraction, in [-1, 1]."""
    discordant, pairs = _discordant(r1, r2)
    return (pairs - 2 * discordant) / pairs


def kendall_distance(r1: Ranking, r2: Ranking) -> float:
    """Discordant pair fraction, in [0, 1]."""
    discordant, pairs = _discordant(r1, r2)
    return discordant / pairs


def spearman_rho(r1: Ranking, r2: Ranking) -> float:
    """Spearman's rank correlation, 1 - 6 * sum of squared rank differences / (n(n^2 - 1))."""
    order = _order(r1, r2)
    n = len(order)
    squares = sum((k - position) ** 2 for k, position in enumerate(order, 1))
    return 1.0 - 6.0 * squares / (n * (n * n - 1))


def spearman_footrule(r1: Ranking, r2: Ranking) -> float:
    """Sum of absolute rank differences over n(n^2 - 1); see the module note."""
    order = _order(r1, r2)
    n = len(order)
    moves = sum(abs(k - position) for k, position in enumerate(order, 1))
    return moves / (n * (n * n - 1))


_INDEX_FUNCS = {
    Baseline.KENDALL_TAU: kendall_tau,
    Baseline.KENDALL_DIST: kendall_distance,
    Baseline.SPEARMAN_RHO: spearman_rho,
    Baseline.FOOTRULE: spearman_footrule,
}


def pairwise_index(r1: Ranking, r2: Ranking, kind: Baseline | str) -> float:
    """The index named by kind for one ranking pair."""
    return _INDEX_FUNCS[Baseline(kind)](r1, r2)


def pairwise_values(rset: RankingSet, kind: Baseline | str) -> list[tuple[int, int, float]]:
    """(i, j, index) for every ordered ranking pair i != j, i outer, j inner.

    i and j are 0-based positions in the set. Each unordered pair i < j
    is evaluated once; its value, like its refusal, holds for (j, i) too.
    Index errors are re-raised with the offending pair named (1-based
    positions in the set).
    """
    kind = Baseline(kind)
    N = len(rset)
    if N < 2:
        raise ValueError("aggregation needs at least two rankings")
    values = {}
    for i in range(N):
        for j in range(i + 1, N):
            try:
                value = pairwise_index(rset.rankings[i], rset.rankings[j], kind)
            except ValueError as exc:
                raise type(exc)(f"pair ({i + 1}, {j + 1}): {exc}") from exc
            values[i, j] = values[j, i] = value
    return [(i, j, values[i, j]) for i in range(N) for j in range(N) if i != j]


def aggregate_values(values: Sequence[float], mode: Aggregate | str = Aggregate.MEAN) -> float:
    """SUM is the plain sum, MEAN divides it by the pair count, MIN is the smallest."""
    mode = Aggregate(mode)
    if mode is Aggregate.SUM:
        return sum(values)
    if mode is Aggregate.MEAN:
        return sum(values) / len(values)
    return min(values)


def pairwise_aggregate(
    rset: RankingSet, kind: Baseline | str, mode: Aggregate | str = Aggregate.MEAN
) -> float:
    """Aggregate an index over all ordered ranking pairs i != j.

    SUM is the plain double sum, MEAN divides it by N(N-1), MIN takes
    the smallest pair value. Index errors are re-raised with the
    offending pair named (1-based positions in the set).
    """
    mode = Aggregate(mode)
    return aggregate_values([v for _, _, v in pairwise_values(rset, kind)], mode)
