"""Consensus measures on top of the precedence matrix.

kappa_1 is the trace; kappa_p for p >= 2 is 1' L^(p-1) 1 for the strict
lower part L, which counts (or weights) the consistently ordered item
chains of length p. The total over all p is also available in closed
form through one forward substitution.

``kappa_series`` takes a ``Survey`` and one of two paths, chosen by
``params.exact``; neither builds a matrix:

- weighted (gamma or lambda below 1): each term is one float product
  y <- L y, restricted to the chains that can exist. For p >= 2, entry
  i of y = L^(p-1) 1 weighs the chains of p items that end at item i,
  so it is exactly zero unless the item's level (``Survey.levels``, its
  longest common chain) is p or more. The product for term p + 1
  visits only the rows whose level is above p, and each row starts at
  its first predecessor whose level is p or more, then adds in
  ascending order as a full product would. Every entry it skips is
  zero, and adding a zero to a sum changes no bit, so every term is
  bit for bit the full product's. The weight of a pair is
  lambda ** ((S_i - S_j) / N), the same float the matrix holds, made
  once per distinct difference;
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


def _level_terms(sv: Survey, lam: float) -> Iterator[int | float]:
    """kappa_2, kappa_3, ... on the weighted path, over the chains that can exist.

    y starts as all ones, and each term is the sum of y <- L y. Only the
    rows of ``Survey._level_rows`` whose level is above p take part in the
    product after term p, each from its first predecessor of level p or
    more (see the module docstring); every other entry of y is 0.
    """
    N = sv.count
    rows = sv._level_rows
    weights = {d: lam ** (d / N) for d in set().union(*(row[3] for row in rows))}
    active = [
        (i, level, list(zip(predecessors, map(weights.__getitem__, differences))), starts)
        for i, level, predecessors, differences, starts in rows
    ]
    vector: list[int | float] = [1] * len(sv.items)
    p = 1
    while True:
        result: list[int | float] = [0] * len(vector)
        for i, _, row, starts in active:
            acc: int | float = 0
            k = starts[p - 1]
            for j, w in row[k:] if k else row:
                acc += w * vector[j]
            result[i] = acc
        vector = result
        p += 1
        active = [row for row in active if row[1] > p]
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
    read the diagonal, so they depend on lambda alone. Neither path
    builds a matrix. On the weighted path each term comes from one float
    product y <- L y over the rows that can end a chain of that length
    (``_level_terms``): a row whose level (``Survey.levels``) is too low,
    and the predecessors before a row's first one of high enough level,
    only hold zeros, so skipping them leaves every term bit for bit the
    full product's. On the exact path (``params.exact``) every weight is
    1, and all the terms come from one integer pass over the survey's
    masks (``_packed_terms``): each
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
    term = sum(sv._diagonal(params))
    later = _packed_terms(sv) if params.exact else _level_terms(sv, params.lam)
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
    # One MeasureParams per gamma (at lambda 1) and one per lambda (at
    # gamma 1), all made before any weight is computed, so an invalid
    # value is refused first. A point takes its trace from the one of the
    # two that has its gamma and its exactness, and its series from the
    # one that has its lambda and its exactness; only the corner
    # gamma = lambda = 1 is exact. A series run at gamma 1 keeps kappa_1
    # whenever the point does: every gamma**d is at most 1.0, so the
    # point's trace is at most the float count of the common items.
    corner = replace(params, gamma=1.0, lam=1.0)
    by_gamma = [replace(corner, gamma=gamma) for gamma in gammas]
    by_lam = [replace(corner, lam=lam) for lam in lams]
    tails: dict[tuple[int, bool], tuple[tuple[int, int | float], ...]] = {}
    points = []
    for gamma, at_gamma in zip(gammas, by_gamma):
        traces: dict[bool, int | float] = {}
        for index, (lam, at_lam) in enumerate(zip(lams, by_lam)):
            exact = at_gamma.exact and at_lam.exact
            trace_params = at_gamma if at_gamma.exact == exact else at_lam
            if exact not in traces:
                traces[exact] = sum(sv._diagonal(trace_params))
            trace = traces[exact]
            series = ()
            if trace_params.keeps(trace):
                key = (index, exact)
                if key not in tails:
                    # That series keeps its kappa_1 (see above), so its
                    # tail is the lambda's whole series.
                    series_params = at_lam if at_lam.exact == exact else at_gamma
                    tails[key] = kappa_series(sv, series_params).series[1:]
                series = ((1, trace), *tails[key])
            points.append(SweepPoint(gamma, lam, KappaProfile(series=series, exact=exact)))
    return points
