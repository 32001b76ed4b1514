"""Consensus measures on top of the precedence matrix.

kappa_1 is the trace; kappa_p for p >= 2 is 1' L^(p-1) 1 for the strict
lower part L, which counts (or weights) the consistently ordered item
chains of length p. The total over all p is also available in closed
form through one forward substitution.

``kappa_series`` takes a ``Survey`` and one of two paths, chosen by
``params.exact``:

- weighted (gamma or lambda below 1): it builds the survey's matrix and
  repeats float products y <- L y, one per term;
- exact (gamma = lambda = 1): every weight is exactly 1 and all
  arithmetic is done in plain integers, which Python keeps exact at any
  magnitude. One forward pass over the common items builds, per item,
  the polynomial that counts the chains ending there by length, packed
  into one int with n-bit slots (Kronecker substitution). A chain visits
  distinct rows, so no count reaches 2**n and a slot never carries into
  the next; kappa_p is read back from slot p of the sum.

The exact pass reads the survey's predecessor masks, not an edge list.
A row's sum over its predecessors equals the sum over every common item
before it (a running prefix) minus the sum over the common items
missing from its mask. The pass adds whichever list is shorter, so on
near-consensus input, where almost every pair is ordered the same way,
most rows subtract a few ints instead of adding hundreds. The
subtraction is exact, so every count is bit for bit the direct sum.

The total for a single ranking of length n is 2**n - 1.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator, Sequence

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


def _product_terms(matrix: ConsensusMatrix) -> Iterator[int | float]:
    """kappa_2, kappa_3, ... as sums of y <- L y, starting from y = 1."""
    vector: list[int | float] = [1] * matrix.order
    while True:
        vector = matrix.multiply_lower(vector)
        yield sum(vector)


def _shorter_rows(sv: Survey) -> Iterator[tuple[int, int, bool]]:
    """(i, bits, complement) for each common item i, in reference order.

    bits is the item's predecessor mask, or, when complement is true, the
    common items before i that are missing from the mask, whichever has
    fewer set bits. A tie goes to the mask, which needs no subtraction.
    The mask of a common item holds only common items before it, so the
    two lists partition those items.
    """
    below = 0
    for i, mask in enumerate(sv.masks):
        if sv.common[i]:
            missing = below & ~mask
            if missing.bit_count() < mask.bit_count():
                yield i, missing, True
            else:
                yield i, mask, False
            below |= 1 << i


def _packed_terms(sv: Survey) -> Iterator[int]:
    """kappa_2, kappa_3, ... on the exact path, from one pass over the masks.

    f_i = x * (1 + sum of f_j over i's predecessors j) counts the chains
    that end at item i by their length, and kappa_p is the coefficient of
    x**p in P(x) = sum_i f_i(x). Each f_i is one int whose B-bit slot p
    holds its coefficient of x**p (Kronecker substitution), so a row
    costs one sum of ints. B is the order n: a chain visits distinct
    items, so every coefficient is at most C(n, p) <= 2**n - 1 < 2**B, no
    slot carries into the next, and each slot reads back the exact count.
    prefix is the sum of f_j over the common items so far; a complement
    row (see ``_shorter_rows``) is prefix minus its listed f_j.
    """
    width = len(sv.items)
    packed = [0] * width
    prefix = 0
    for i, bits, complement in _shorter_rows(sv):
        listed = 0
        while bits:
            low = bits & -bits
            listed += packed[low.bit_length() - 1]
            bits ^= low
        f = (1 + (prefix - listed if complement else listed)) << width
        packed[i] = f
        prefix += f
    slot = (1 << width) - 1
    rest = prefix >> 2 * width  # slot 1 counts the common items, the trace
    while True:
        yield rest & slot
        rest >>= width


def kappa_series(sv: Survey, params: MeasureParams) -> KappaProfile:
    """kappa_1 is the trace; each later kappa_p weighs the chains of p items.

    Call it as ``kappa_series(survey(rset), params)``. Later terms never
    read the diagonal, so they depend on lambda alone. On the weighted
    path the series builds ``sv.matrix(params)`` and each term comes from
    one float product y <- L y. On the exact path (``params.exact``)
    every weight is 1, no matrix is built, and all the terms come from
    one integer pass over the survey's masks (``_packed_terms``): each
    item's chain counts by length are packed into one int, in slots of n
    bits for n reference items, and each row adds the shorter of its
    predecessor list and the complement of it among the common items
    before it. A chain visits distinct items, so every count is below
    2**n and no slot carries into the next; each slot holds bit for bit
    the count the products would give. The series stops at the first
    term that params.keeps refuses, and after at most n terms, since L
    is nilpotent. kappa_sweep makes one call per lambda plus one for the
    exact corner.
    """
    if params.exact:
        term = sum(sv._diagonal(params))
        later = _packed_terms(sv)
    else:
        matrix = sv.matrix(params)
        term = matrix.trace()
        later = _product_terms(matrix)
    series: list[tuple[int, int | float]] = []
    while params.keeps(term) and len(series) < len(sv.items):
        series.append((len(series) + 1, term))
        term = next(later)
    return KappaProfile(series=tuple(series), exact=params.exact)


def measure(rset: RankingSet, params: MeasureParams) -> KappaProfile:
    """Survey the set and run the series in one call.

    The reference ranking is the default one; to choose another, call
    ``kappa_series(survey(rset, k), params)``. On the exact path this
    reads the survey's masks and lists no edges.
    """
    return kappa_series(survey(rset), params)


def kappa_total_closed(matrix: ConsensusMatrix) -> int | float:
    """Total kappa without the series: trace(A) + z' (I - L)^-1 z - n.

    (I - L) v = z is solved by forward substitution; no inversion, one
    pass over the nonzero entries. It reads the matrix's rows, which
    list every edge (``Survey.edges``), never the complement rows of the
    exact series, so it checks that series by an independent route.
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

    Call it as ``kappa_sweep(survey(rset), gammas, lams, params)``.
    ``params`` gives epsilon and the deviation variant; its gamma and
    lambda are replaced by the grid's at every point. Every
    gamma and lambda is checked before any weight is computed. kappa_1 is
    the trace, which depends on gamma alone, and every kappa_p with
    p >= 2 comes from the strict lower part, which depends on lambda
    alone. So the grid costs one trace per gamma and one kappa_series
    call per lambda, plus one for the exact corner gamma = lambda = 1.
    Each point is the profile kappa_series gives for its own parameters,
    bit for bit, including the epsilon cutoff on kappa_1: a gamma whose
    trace does not exceed epsilon gets the empty profile (ell 0, total 0)
    at every lambda, and a gamma whose trace does gets kappa_1 followed
    by that lambda's whole series. A lambda's series is only computed once
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
                    # The series' kappa_1 is the same sum as trace, which
                    # exceeds the cutoff, so this series keeps kappa_1 and
                    # its tail is the lambda's whole series.
                    tails[key] = kappa_series(sv, point_params).series[1:]
                series = ((1, trace), *tails[key])
            points.append(SweepPoint(gamma, lam, KappaProfile(series=series, exact=exact)))
    return points
