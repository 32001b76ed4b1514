"""Classical pairwise rank-correlation indices and their set aggregation.

These operate on pairs of full, untied rankings over the same items;
anything else raises UnsupportedRankingError. Pair counting is a direct
O(n^2) enumeration, which is plenty at the scale these indices are used
here.

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
    KENDALL_TAU = "tau"
    KENDALL_DIST = "dtau"
    SPEARMAN_RHO = "rho"
    FOOTRULE = "footrule"


class Aggregate(str, Enum):
    SUM = "sum"
    MEAN = "mean"
    MIN = "min"


def _check_pair(r1: Ranking, r2: Ranking) -> list[str]:
    if not r1.is_untied or not r2.is_untied:
        raise UnsupportedRankingError("tied rankings are not supported")
    if r1.item_set() != r2.item_set():
        raise UnsupportedRankingError("rankings do not cover the same items")
    if r1.length < 2:
        raise ValueError(f"need at least 2 items, got {r1.length}")
    return list(r1.items())


def _pair_counts(r1: Ranking, r2: Ranking, items: list[str]) -> tuple[int, int]:
    """(concordant, discordant) over all unordered item pairs."""
    concordant = discordant = 0
    n = len(items)
    for a in range(n):
        for b in range(a + 1, n):
            d1 = r1.position_of(items[a]) - r1.position_of(items[b])
            d2 = r2.position_of(items[a]) - r2.position_of(items[b])
            if d1 * d2 > 0:
                concordant += 1
            else:
                discordant += 1
    return concordant, discordant


def kendall_tau(r1: Ranking, r2: Ranking) -> float:
    """Concordant-minus-discordant pair fraction, in [-1, 1]."""
    items = _check_pair(r1, r2)
    concordant, discordant = _pair_counts(r1, r2, items)
    return (concordant - discordant) / (concordant + discordant)


def kendall_distance(r1: Ranking, r2: Ranking) -> float:
    """Discordant pair fraction, in [0, 1]."""
    items = _check_pair(r1, r2)
    concordant, discordant = _pair_counts(r1, r2, items)
    return discordant / (concordant + discordant)


def spearman_rho(r1: Ranking, r2: Ranking) -> float:
    items = _check_pair(r1, r2)
    n = len(items)
    squares = sum(
        (r1.position_of(item) - r2.position_of(item)) ** 2 for item in items
    )
    return 1.0 - 6.0 * squares / (n * (n * n - 1))


def spearman_footrule(r1: Ranking, r2: Ranking) -> float:
    items = _check_pair(r1, r2)
    n = len(items)
    moves = sum(abs(r1.position_of(item) - r2.position_of(item)) for item in items)
    return moves / (n * (n * n - 1))


_INDEX_FUNCS = {
    Baseline.KENDALL_TAU: kendall_tau,
    Baseline.KENDALL_DIST: kendall_distance,
    Baseline.SPEARMAN_RHO: spearman_rho,
    Baseline.FOOTRULE: spearman_footrule,
}


def pairwise_index(r1: Ranking, r2: Ranking, kind: Baseline | str) -> float:
    return _INDEX_FUNCS[Baseline(kind)](r1, r2)


def pairwise_values(rset: RankingSet, kind: Baseline | str) -> list[tuple[int, int, float]]:
    """(i, j, index) for every ordered ranking pair i != j, i outer, j inner.

    i and j are 0-based positions in the set. Index errors are re-raised
    with the offending pair named (1-based positions in the set).
    """
    kind = Baseline(kind)
    N = len(rset)
    if N < 2:
        raise ValueError("aggregation needs at least two rankings")
    values = []
    for i in range(N):
        for j in range(N):
            if i == j:
                continue
            try:
                values.append((i, j, pairwise_index(rset.rankings[i], rset.rankings[j], kind)))
            except ValueError as exc:
                raise type(exc)(f"pair ({i + 1}, {j + 1}): {exc}") from exc
    return values


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
