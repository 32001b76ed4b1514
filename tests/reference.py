"""Reference implementations that the fast paths are tested against.

``pairwise_survey`` is ``graph.survey`` as it was before predecessor
masks: it tests every pair of common items against every ranking.
``product_series`` is the exact path of ``measures.kappa_series`` as it
was before packing: one product y <- L y per term. Neither is used
outside the tests.
"""
from __future__ import annotations

from rankconsensus.graph import ConsensusMatrix, MeasureParams, Survey
from rankconsensus.measures import KappaProfile
from rankconsensus.model import RankingSet


def pairwise_survey(rset: RankingSet, reference_index: int | None = None) -> Survey:
    if reference_index is None:
        reference_index = rset.reference_index()
    items = tuple(rset.rankings[reference_index].items())
    n = len(items)
    N = len(rset)
    positions = tuple(
        tuple(ranking.position_of(item) for item in items) for ranking in rset
    )
    columns = tuple(zip(*positions))
    common = tuple(all(x > 0 for x in column) for column in columns)
    sums = [sum(column) for column in columns]
    mu = [0.0] * n
    mad = [0.0] * n
    var = [0.0] * n
    for i in range(n):
        if not common[i]:
            continue
        mean = sums[i] / N
        mu[i] = mean
        mad[i] = sum(abs(x - mean) for x in columns[i]) / N
        var[i] = sum((x - mean) ** 2 for x in columns[i]) / N
    edges = []
    for i in range(n):
        if not common[i]:
            continue
        for j in range(i):
            if common[j] and all(a > b for a, b in zip(columns[i], columns[j])):
                edges.append((i, j, (sums[i] - sums[j]) / N))
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


def product_series(matrix: ConsensusMatrix, params: MeasureParams) -> KappaProfile:
    term = matrix.trace()
    series: list[tuple[int, int | float]] = []
    vector: list[int | float] = [1] * matrix.order
    while params.keeps(term) and len(series) < matrix.order:
        series.append((len(series) + 1, term))
        vector = matrix.multiply_lower(vector)
        term = sum(vector)
    return KappaProfile(series=tuple(series), exact=params.exact)
