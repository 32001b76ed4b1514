"""Weighted precedence-graph construction over a set of rankings.

The graph is a lower-triangular matrix indexed by the items of a
reference ranking (the shortest member of the set), held as a diagonal
vector plus one adjacency list per row. The diagonal carries per-item
weights gamma**d for items that occur in every ranking; the adjacency
lists carry the strict lower part, pair weights lambda**g for item pairs
ordered consistently by every ranking. Everything above the diagonal is
zero, so the graph is acyclic by construction.

The zero/nonzero pattern, the deviation statistics and the pair gaps do
not depend on gamma or lambda. ``survey`` captures that invariant part
once so that parameter sweeps only re-exponentiate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Mapping

from .model import RankingSet


class Deviation(str, Enum):
    """Statistic summarizing how much an item's position varies.

    MAD is the mean absolute deviation from the mean position, SQRT_MAD its
    square root, and STD the population standard deviation. STD is the
    variant that reproduces the bundled reference sweep tables; MAD is the
    default.
    """

    MAD = "mad"
    SQRT_MAD = "sqrt-mad"
    STD = "std"


@dataclass(frozen=True)
class MeasureParams:
    """Knobs for the weighted measures.

    gamma and lambda (``lam``) are the per-item and per-pair weight bases,
    epsilon the series termination threshold, zeta and beta the cutoff and
    weight base for the top-k variant.
    """

    gamma: float = 1.0
    lam: float = 1.0
    epsilon: float = 1e-12
    deviation: Deviation = Deviation.MAD
    zeta: float | None = None
    beta: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0,1]")
        if not 0.0 < self.lam <= 1.0:
            raise ValueError("lambda must be in (0,1]")
        if not self.epsilon >= 0.0:
            raise ValueError("epsilon must be non-negative")
        object.__setattr__(self, "deviation", Deviation(self.deviation))
        if self.zeta is not None and not self.zeta > 0.0:
            raise ValueError("zeta must be positive")
        if self.beta is not None and not 0.0 < self.beta < 1.0:
            raise ValueError("beta must be in (0,1)")

    @property
    def exact(self) -> bool:
        """True when both weight bases are 1 and integer arithmetic applies."""
        return self.gamma == 1.0 and self.lam == 1.0


def heaviside(x: float) -> int:
    """Left-continuous step: 1 for strictly positive x, else 0."""
    return 1 if x > 0 else 0


@dataclass(frozen=True)
class PositionStats:
    """Mean position and deviation statistic per common item id."""

    mu: Mapping[int, float]
    dev: Mapping[int, float]


@dataclass(frozen=True)
class Survey:
    """The parameter-independent part of the matrix for one ranking set.

    positions is an N x n table of 1-based tie-group indices (0 marks
    absence) over the reference ranking's items. edges lists the strict
    lower-triangle candidates (i, j, mean gap) that survive the ordering
    test in every ranking.
    """

    items: tuple[int, ...]
    reference_index: int
    positions: tuple[tuple[int, ...], ...]
    common: tuple[bool, ...]
    mu: tuple[float, ...]
    mad: tuple[float, ...]
    var: tuple[float, ...]
    edges: tuple[tuple[int, int, float], ...]

    def deviation_of(self, index: int, variant: Deviation) -> float:
        if variant is Deviation.MAD:
            return self.mad[index]
        if variant is Deviation.SQRT_MAD:
            return math.sqrt(self.mad[index])
        return math.sqrt(self.var[index])

    def matrix(self, params: MeasureParams) -> "ConsensusMatrix":
        n = len(self.items)
        exact = params.exact
        diag: list[int | float] = [0] * n
        for i in range(n):
            if self.common[i]:
                if exact:
                    diag[i] = 1
                else:
                    diag[i] = params.gamma ** self.deviation_of(i, params.deviation)
        rows: list[list[tuple[int, int | float]]] = [[] for _ in range(n)]
        for i, j, gap in self.edges:
            rows[i].append((j, 1 if exact else params.lam ** gap))
        return ConsensusMatrix(
            order=n,
            items=self.items,
            diag=diag,
            rows=rows,
            reference_index=self.reference_index,
            exact=exact,
            edge_count=len(self.edges),
        )


def survey(rset: RankingSet, reference_index: int | None = None) -> Survey:
    """Scan the set once: positions, commonality, deviations, ordered pairs.

    reference_index overrides the default shortest-ranking choice; any
    member is admissible and yields the same measures.
    """
    if reference_index is None:
        reference_index = rset.reference_index()
    elif not 0 <= reference_index < len(rset):
        raise ValueError(f"reference index out of range: {reference_index}")
    for ranking in rset:
        if ranking.length == 0:
            raise ValueError("empty ranking in set")
    items = tuple(rset.rankings[reference_index].items())
    n = len(items)
    N = len(rset)
    positions = tuple(
        tuple(ranking.position_of(item) for item in items) for ranking in rset
    )
    common = tuple(all(positions[k][i] > 0 for k in range(N)) for i in range(n))
    mu = [0.0] * n
    mad = [0.0] * n
    var = [0.0] * n
    for i in range(n):
        if not common[i]:
            continue
        column = [positions[k][i] for k in range(N)]
        mean = sum(column) / N
        mu[i] = mean
        mad[i] = sum(abs(x - mean) for x in column) / N
        var[i] = sum((x - mean) ** 2 for x in column) / N
    edges = []
    for i in range(n):
        if not common[i]:
            continue
        for j in range(i):
            if not common[j]:
                continue
            if all(positions[k][i] - positions[k][j] > 0 for k in range(N)):
                gap = sum(abs(positions[k][i] - positions[k][j]) for k in range(N)) / N
                edges.append((i, j, gap))
    return Survey(
        items=items,
        reference_index=reference_index,
        positions=positions,
        common=common,
        mu=tuple(mu),
        mad=tuple(mad),
        var=tuple(var),
        edges=tuple(edges),
    )


def position_stats(rset: RankingSet, params: MeasureParams) -> PositionStats:
    """Mean position and deviation for every item common to all rankings."""
    sv = survey(rset)
    mu: dict[int, float] = {}
    dev: dict[int, float] = {}
    for i, item in enumerate(sv.items):
        if sv.common[i]:
            mu[item] = sv.mu[i]
            dev[item] = sv.deviation_of(i, params.deviation)
    return PositionStats(mu=mu, dev=dev)


def gap_mean(rset: RankingSet, first: int, second: int) -> float:
    """Mean absolute position difference between two items over all rankings."""
    for item in (first, second):
        for k, ranking in enumerate(rset):
            if rset.position_of(ranking, item) == 0:
                token = rset.table.token_of(item)
                raise ValueError(f"item {token!r} absent from ranking {k + 1}")
    total = 0
    for ranking in rset:
        total += abs(ranking.position_of(second) - ranking.position_of(first))
    return total / len(rset)


def build_matrix(
    rset: RankingSet,
    params: MeasureParams,
    reference_index: int | None = None,
) -> "ConsensusMatrix":
    return survey(rset, reference_index).matrix(params)


@dataclass(eq=False)
class ConsensusMatrix:
    """Lower-triangular weighted adjacency matrix over reference items.

    ``diag`` holds the per-item weights (index by reference position,
    zeros for items missing from some ranking); ``rows`` holds the strict
    lower part as per-row adjacency lists of (column, weight), columns
    ascending. ``entry`` and ``to_dense`` are read-only views of them.
    """

    order: int
    items: tuple[int, ...]
    diag: list[int | float]
    rows: list[list[tuple[int, int | float]]]
    reference_index: int
    exact: bool
    edge_count: int

    def entry(self, i: int, j: int) -> int | float:
        if i == j:
            return self.diag[i]
        if i < j:
            return 0
        for col, w in self.rows[i]:
            if col == j:
                return w
        return 0

    def trace(self) -> int | float:
        return sum(self.diag)

    def row_lower(self, i: int) -> Iterator[tuple[int, int | float]]:
        """Strict-lower entries (j, weight) of row i, j ascending."""
        yield from self.rows[i]

    def multiply_lower(self, vector: list[int | float]) -> list[int | float]:
        """L @ vector over the adjacency lists."""
        result: list[int | float] = [0] * self.order
        for i, row in enumerate(self.rows):
            acc: int | float = 0
            for j, w in row:
                acc += w * vector[j]
            result[i] = acc
        return result

    def to_dense(self) -> list[list[int | float]]:
        """Full n x n matrix as nested lists (a copy)."""
        dense = [[0] * self.order for _ in range(self.order)]
        for i in range(self.order):
            dense[i][i] = self.diag[i]
            for j, w in self.rows[i]:
                dense[i][j] = w
        return dense

    def dump_csv(self) -> str:
        """Nonzero entries as ``row,col,value`` lines at full precision."""
        lines = ["row,col,value"]
        for i in range(self.order):
            if self.diag[i]:
                lines.append(f"{i},{i},{self.diag[i]!r}")
            for j, w in sorted(self.rows[i]):
                lines.append(f"{i},{j},{w!r}")
        return "\n".join(lines) + "\n"
