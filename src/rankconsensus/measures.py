"""Consensus measures on top of the precedence matrix.

kappa_1 is the trace; kappa_p for p >= 2 comes from iterated
multiplication by the strict lower part L, which counts (or weights)
the consistently ordered item chains of length p. The total over all p
is also available in closed form through one forward substitution.

When gamma = lambda = 1 every weight is exactly 1 and all arithmetic is
done in plain integers, which Python keeps exact at any magnitude; the
total for a single ranking of length n is 2**n - 1.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .graph import ConsensusMatrix, MeasureParams, Survey, survey
from .model import RankingSet


@dataclass(frozen=True)
class KappaProfile:
    """The series kappa_1..kappa_ell; ell and the total kappa read from it.

    p runs 1..ell without gaps, so ell is the length of the series and
    the total its sum. The series stops at the first term that
    ``MeasureParams.keeps`` refuses, which says when ell depends on epsilon.
    """

    series: tuple[tuple[int, int | float], ...]
    exact: bool

    @property
    def ell(self) -> int:
        return len(self.series)

    @property
    def total(self) -> int | float:
        return sum(value for _, value in self.series)

    def value_at(self, p: int) -> int | float:
        """kappa_p, taking p beyond the series as zero."""
        if 1 <= p <= len(self.series):
            return self.series[p - 1][1]
        return 0


def kappa_series(matrix: ConsensusMatrix, params: MeasureParams) -> KappaProfile:
    """Accumulate kappa_p by repeated y <- L y until the terms vanish.

    kappa_1 is the trace; later terms never read the diagonal, so they
    depend on lambda alone. The loop stops at the first term that
    params.keeps refuses; L is nilpotent, so at most order steps can
    contribute. kappa_sweep makes one call per lambda plus one for the
    exact corner.
    """
    term = matrix.trace()
    series: list[tuple[int, int | float]] = []
    vector: list[int | float] = [1] * matrix.order
    while params.keeps(term) and len(series) < matrix.order:
        series.append((len(series) + 1, term))
        vector = matrix.multiply_lower(vector)
        term = sum(vector)
    return KappaProfile(series=tuple(series), exact=params.exact)


def measure(rset: RankingSet, params: MeasureParams) -> KappaProfile:
    """Build the matrix for the set and run the series in one call.

    The reference ranking is the default one; to choose another, call
    ``kappa_series(survey(rset, k).matrix(params), params)``.
    """
    return kappa_series(survey(rset).matrix(params), params)


def kappa_total_closed(matrix: ConsensusMatrix) -> int | float:
    """Total kappa without the series: trace(A) + z' (I - L)^-1 z - n.

    (I - L) v = z is solved by forward substitution; no inversion, one
    pass over the nonzero entries.
    """
    n = matrix.order
    v: list[int | float] = [1] * n
    for i in range(n):
        acc: int | float = 1
        for j, w in matrix.rows[i]:
            acc += w * v[j]
        v[i] = acc
    return matrix.trace() + sum(v) - n


def kappa_dup(rset: RankingSet, params: MeasureParams) -> int | float:
    """Duplicate-aware total: kappa of the distinct set plus N*s/D.

    N is the multiset size, s the largest multiplicity, D the distinct
    count. The plain measures cannot tell a multiset from its distinct
    set; this correction can.
    """
    distinct, s = rset.distinct()
    profile = measure(distinct, params)
    bonus = Fraction(len(rset) * s, len(distinct))
    if profile.exact and bonus.denominator == 1:
        return profile.total + int(bonus)
    return float(profile.total + bonus)


def kappa1_topk(sv: Survey, params: MeasureParams) -> float:
    """Cutoff-weighted variant of kappa_1 for top-k style rankings.

    Each common item of ``sv = survey(rset)`` adds beta**mu * gamma**d,
    but only while mu + d stays strictly below the cutoff zeta.
    """
    if params.zeta is None or params.beta is None:
        raise ValueError("top-k weighting requires both zeta and beta")
    total = 0.0
    for i, mu in enumerate(sv.mu):
        if not sv.common[i]:
            continue
        d = sv.deviation_of(i, params.deviation)
        if params.zeta - mu - d > 0:
            total += (params.beta ** mu) * (params.gamma ** d)
    return total


@dataclass(frozen=True)
class SweepPoint:
    gamma: float
    lam: float
    profile: KappaProfile


def kappa_sweep(
    sv: Survey,
    gammas: Sequence[float],
    lams: Sequence[float],
    params: MeasureParams | None = None,
) -> list[SweepPoint]:
    """Evaluate the measure over a (gamma, lambda) grid of one survey.

    Call it as ``kappa_sweep(survey(rset), gammas, lams, params)``. Every
    gamma and lambda is checked before any weight is computed. kappa_1 is
    the trace, which depends on gamma alone, and every kappa_p with
    p >= 2 comes from the strict lower part, which depends on lambda
    alone. So the grid costs one trace per gamma and one kappa_series
    call per lambda, plus one for the exact corner gamma = lambda = 1.
    Each point is the profile kappa_series gives for its own matrix, bit
    for bit, including the epsilon cutoff on kappa_1: a gamma whose trace
    does not exceed epsilon gets the empty profile (ell 0, total 0) at
    every lambda, and a gamma whose trace does gets kappa_1 followed by
    that lambda's whole series. A lambda's series is only computed once
    some point needs it. Points come back in grid order, gamma outer,
    lambda inner.
    """
    if params is None:
        params = MeasureParams()
    # MeasureParams refuses an invalid value before any work is done.
    for gamma in gammas:
        replace(params, gamma=gamma)
    for lam in lams:
        replace(params, lam=lam)
    tails: dict[tuple[int, bool], tuple[tuple[int, int | float], ...]] = {}
    points = []
    for gamma in gammas:
        traces: dict[bool, int | float] = {}
        for index, lam in enumerate(lams):
            point_params = replace(params, gamma=gamma, lam=lam)
            exact = point_params.exact
            if exact not in traces:
                traces[exact] = sum(sv._diagonal(point_params))
            trace = traces[exact]
            series = ()
            if point_params.keeps(trace):
                key = (index, exact)
                if key not in tails:
                    # The matrix's trace() is the same sum as trace, which
                    # exceeds the cutoff, so this series keeps kappa_1 and
                    # its tail is the lambda's whole series.
                    matrix = sv.matrix(point_params)
                    tails[key] = kappa_series(matrix, point_params).series[1:]
                series = ((1, trace), *tails[key])
            points.append(SweepPoint(gamma, lam, KappaProfile(series=series, exact=exact)))
    return points
