"""Consensus measures on top of the precedence graph.

kappa_1 is the trace; kappa_p for p >= 2 is 1' L^(p-1) 1 for the strict
lower part L, which counts (or weights) the consistently ordered item
chains of length p. The total over all p is also available in closed
form through one forward substitution.

``kappa_series``, ``kappa_sweep``, ``kappa1_topk`` and ``kappa_dup``
take the caller's ``Survey``, so one survey serves every measure of an
input; only ``measure`` surveys. ``kappa_series`` builds no matrix. Both
paths run the same integer pass over the survey's masks; the weighted
path only gives it weights.

Chain weights telescope. A pair j -> i is an edge only when every
ranking puts j strictly before i, so S_i - S_j >= N for the position sums
S, and its weight is lambda ** ((S_i - S_j) / N). With t = (S - S0) / N
for any offset S0, the product of the weights along a chain is
lambda ** (t_end - t_start): it depends only on the chain's two ends. So
kappa_p is the sum, over the chains of p items, of a_start * b_end, with
a start weight a_j = lambda ** -t_j and an end weight b_i = lambda ** t_i
per item. At lambda = 1 both are 1 and kappa_p counts the chains.

The pass. f_i = a_i + x * (sum of f_j over i's predecessors j) holds the
chains that end at item i as a polynomial: its coefficient of x**(p - 1)
is the sum of a_start over the chains of p items ending at i. kappa_p is
then the coefficient of x**(p - 1) in sum_i b_i f_i. Each f_i is one int
whose W-bit slot q holds its coefficient of x**q (Kronecker
substitution), so a row costs one sum of ints, a shift and, with
weights, one multiply. A row's sum over its predecessors equals the sum
over every common item before it (a running prefix) minus the sum over
the common items missing from its mask; the pass adds whichever list is
shorter, so on near-consensus input most rows subtract a few ints
instead of adding hundreds.

Weights are exact ints. With S0 the smallest position sum of a common
item, every a_j is at least 1 and every b_i at most 1. The pass holds
A_j = a_j * 2**52 and B_i = b_i * 2**(scale - 52), each as a 53-bit
mantissa shifted left, where scale = 104 + ceil(max -t_i log2 lambda).
So no float overflows or underflows at any lambda in (0, 1], and
multiplying by B_i is a multiply by 53 bits and a shift. Every sum and
difference of the pass is exact, so nothing cancels, and kappa_p is
slot p - 1 of the total divided by 2**scale, one correctly rounded
int/int division. The only rounding is in the weights, each within a
few units of 2**-52 relative, and every chain weight is positive. Over
4,000 random tied and partial sets at nine lambdas from 5e-324 to 1, and
near-consensus sets of up to 300 items, every weighted term stayed
within 6e-13 relative of per-term float products (the worst at
lambda = 1e-300), and within 5e-14 for lambda >= 1e-5. At lambda = 1,
a = b = 1, scale = 0 and every slot holds an exact count.

No slot carries. A chain is a set of common items, so fewer than 2**c
chains exist for c common items. A slot of any f_i, of the prefix or of
a row's sum adds A_start over distinct chains, each below 2**scale. A
slot of the total adds A_start * B_end, which is
2**scale * lambda ** (t_end - t_start) <= 2**scale up to the rounding of
the weights, far less than a factor of 2. Every slot is therefore below
2**W with W = c + scale + 1, and reads back exactly.

Only the slots the epsilon cut can reach are computed. Slot q of f_i
depends only on the slots below q of its predecessors, so the pass can
run block by block: one block holds slots low .. low + K - 1 of every
f_i, drops the slot that would leave it, and keeps that slot as the
first of the next block. Each block gives K more terms exactly, and no
block recomputes a slot. The exact path keeps every nonzero term, so it
runs one block of all ``max(Survey.levels)`` slots. The weighted path
starts with as many slots as fit in a few thousand bits, at least 2,
and runs the next block, as large as all before it, only while
``MeasureParams.keeps`` keeps the last term: at small lambda the
weights are wide and the series short. A row whose level is below a
block holds only zeros there and is skipped. Each chain of two items
weighs at most lambda, since S_i - S_j >= N, so when keeps refuses
twice the edge count times lambda, the series ends at kappa_1 without
a pass.

The total for a single ranking of length n is 2**n - 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain, compress, repeat, takewhile
from typing import Iterable, Iterator, Sequence

from .graph import ConsensusMatrix, MeasureParams, Survey, survey
from .model import RankingSet


@dataclass(frozen=True)
class KappaProfile:
    """The series kappa_1..kappa_ell; ell and the total kappa read from it.

    series[p - 1] is kappa_p, so ell is the length of the series and the
    total its sum. The series stops at the first term that
    ``MeasureParams.keeps`` refuses, which says when ell depends on epsilon.
    """

    series: tuple[int | float, ...]
    exact: bool

    @property
    def ell(self) -> int:
        """The length of the series, the largest p it holds."""
        return len(self.series)

    @property
    def total(self) -> int | float:
        """kappa, the sum of the series."""
        return sum(self.series)

    def value_at(self, p: int) -> int | float:
        """kappa_p, taking p beyond the series as zero."""
        return self.series[p - 1] if 1 <= p <= len(self.series) else 0


# A block costs about the same for any number of slots while its ints stay
# below a few thousand bits. At n=40 (Python 3.11, shared 2-vCPU VM), 2
# slots of 151 bits took 57 us and 16 took 67 us; 4 slots of 772 bits
# took 81 us and 8 took 138 us. So a weighted series starts with as many
# slots as fit in this many bits, and no fewer than 2.
BLOCK_BITS = 4096


def _powers_of_two(exponents: list[float]) -> tuple[list[int], list[int]]:
    """(mantissas, shifts): mantissa << shift is 2 ** (52 + x) to 53 bits, for each x >= 0."""
    shifts = list(map(math.floor, exponents))
    mantissas = [int(math.ldexp(2.0 ** (x - whole), 52)) for x, whole in zip(exponents, shifts)]
    return mantissas, shifts


def _chain_weights(sv: Survey, lam: float) -> tuple[list[int], list[int], list[int], int]:
    """(starts, mantissas, shifts, scale): the weights of each item as exact ints.

    starts[j] is A_j = lambda ** -t_j * 2**52, and
    mantissas[i] << shifts[i] is B_i = lambda ** t_i * 2**(scale - 52), so
    that A_j * B_i / 2**scale is lambda ** (t_i - t_j), the weight of every
    chain from j to i (see the module docstring). Items outside the common
    set get the weights of t = 0, which no row reads. At lambda = 1 every
    weight is exactly 1: starts are 1, mantissas and shifts empty, scale 0.
    """
    if lam == 1.0:
        return [1] * len(sv.items), [], [], 0
    low, N = min(compress(sv.sums, sv.common)), sv.count
    bits = -math.log2(lam)
    exponents = [
        (total - low) / N * bits if common else 0.0
        for total, common in zip(sv.sums, sv.common)
    ]
    top = math.ceil(max(exponents))
    mantissas, shifts = _powers_of_two(exponents)
    starts = list(map(int.__lshift__, mantissas, shifts))
    mantissas, shifts = _powers_of_two([top - x for x in exponents])
    return starts, mantissas, shifts, 104 + top


def _packed_block(
    sv: Survey,
    rows: tuple[tuple[int, int, bool], ...],
    first: list[int],
    mantissas: list[int],
    shifts: list[int],
    width: int,
    low: int,
    size: int,
) -> int:
    """sum_i B_i f_i over the coefficients low .. low + size - 1 of each f_i.

    f_i's coefficient low is first[i]: A_i in the first block. The others
    are the predecessors' coefficients one below, summed over the shorter
    row of ``Survey._shorter_rows``: the prefix (the sum over the common
    items so far) minus the listed items on a complement row. A row whose
    level reaches past the block drops the coefficient that would leave
    it and keeps it in first[i], where the next block starts; a row whose
    level is low or less holds only zeros here and is skipped. Without
    mantissas (lambda = 1) every B_i is 1 and the total is the prefix.
    """
    levels = sv.levels
    packed = [0] * len(levels)
    top = (size - 1) * width
    kept = (1 << top) - 1
    prefix = total = 0
    for i, bits, complement in rows:
        if levels[i] <= low:
            continue
        listed = 0
        while bits:
            lowest = bits & -bits
            listed += packed[lowest.bit_length() - 1]
            bits ^= lowest
        chains = prefix - listed if complement else listed
        f = first[i]
        if levels[i] > low + size:
            first[i] = chains >> top
            chains &= kept
        f += chains << width
        packed[i] = f
        prefix += f
        if mantissas:
            total += f * mantissas[i] << shifts[i]
    return total if mantissas else prefix


def _quotient(term: int, denominator: int) -> float:
    """term / denominator, correctly rounded; inf past the float range, as a float sum gives."""
    try:
        return term / denominator
    except OverflowError:
        return math.inf


def _packed_terms(sv: Survey, params: MeasureParams) -> Iterator[int | float]:
    """kappa_2, kappa_3, ... up to the longest common chain, block by block.

    Each block is one pass over the rows that gives the next size terms;
    a block starts only when the caller asks for its first term, and the
    next one is as large as all before it. At lambda = 1 every term is a
    count, so one block covers the whole series. The exact path gives
    ints; the weighted path gives each slot divided by 2**scale, and
    nothing when a bound on kappa_2 already fails params.keeps.
    """
    longest = max(sv.levels, default=0)
    if longest < 2:
        return
    # Every edge has S_i - S_j >= N, so kappa_2 is at most lambda per edge;
    # a bound with room for rounding that params.keeps refuses ends the
    # series before a pass whose weights could be thousands of bits wide.
    edges = sum(map(int.bit_count, sv.masks))
    if not params.keeps(2 * edges * params.lam):
        return
    first, mantissas, shifts, scale = _chain_weights(sv, params.lam)
    width = sv.common.count(True) + scale + 1
    slot = (1 << width) - 1
    denominator = 1 << scale
    rows = sv._shorter_rows
    low = 0
    size = longest if params.lam == 1.0 else max(2, BLOCK_BITS // width)
    while low < longest:
        size = min(size, longest - low)
        terms = _packed_block(sv, rows, first, mantissas, shifts, width, low, size)
        if not low:
            terms >>= width  # coefficient 0 sums every chain of one item
        for _ in range(size if low else size - 1):
            term = terms & slot
            yield term if params.exact else _quotient(term, denominator)
            terms >>= width
        low += size
        size = low


def kappa_series(sv: Survey, params: MeasureParams) -> KappaProfile:
    """kappa_1 is the trace; each later kappa_p weighs the chains of p items.

    Call it as ``kappa_series(survey(rset), params)``. The trace is
    ``sum(sv._diagonal(params))``. Later terms never read the diagonal,
    so they depend on lambda alone. No path builds a matrix. A chain's
    weight is the product of lambda ** gap over its pairs, which
    telescopes to a start weight of its first item times an end weight
    of its last, so every term comes from one integer pass
    over the survey's masks (``_packed_terms``): each item's chains are
    packed into one int by length, and each row adds the shorter of its
    predecessor list and the complement of it among the common items
    before it. On the exact path (``params.exact``) every weight is 1 and
    each slot holds bit for bit the count of the chains. On the weighted
    path the weights are exact ints, so each term is correctly rounded
    from sums of rounded weights. The terms, trace first, are cut by
    ``takewhile(params.keeps, ...)``, so the series stops at the first
    term that params.keeps refuses, and at the longest common chain;
    a refused trace starts no pass. series[p - 1] is kappa_p.
    kappa_sweep runs one pass of later terms per lambda, the exact
    corner included.
    """
    trace = sum(sv._diagonal(params))
    series = tuple(takewhile(params.keeps, chain((trace,), _packed_terms(sv, params))))
    return KappaProfile(series=series, exact=params.exact)


def measure(rset: RankingSet, params: MeasureParams) -> KappaProfile:
    """Survey the set and run the series in one call.

    The reference ranking is the default one; to choose another, call
    ``kappa_series(survey(rset, k), params)``. On the exact path this
    reads the survey's masks and common flags: it lists no edges and
    makes no position sums or deviations.
    """
    return kappa_series(survey(rset), params)


def kappa_total_closed(matrix: ConsensusMatrix) -> int | float:
    """Total kappa without the series: trace(A) + z' (I - L)^-1 z - n.

    (I - L) v = z is solved by forward substitution; no inversion, one
    pass over the nonzero entries. It reads the matrix's rows, which
    list every edge (``Survey.edges``), never the complement rows of the
    exact series, so it checks that series by an independent route.
    """
    n = len(matrix.diag)
    v: list[int | float] = [1] * n
    for i in range(n):
        acc: int | float = 1
        for j, w in matrix.rows[i]:
            acc += w * v[j]
        v[i] = acc
    return sum(matrix.diag) + sum(v) - n


def kappa_dup(sv: Survey, params: MeasureParams) -> int | float:
    """Duplicate-aware total: kappa of the distinct set plus N*s/D.

    Call it as ``kappa_dup(survey(rset), params)``. N is the multiset
    size, s the largest multiplicity, D the distinct count. The plain
    measures cannot tell a multiset from its distinct set; this
    correction can. The distinct set's survey is this one with the
    distinct rankings and the same reference ranking: AND is idempotent,
    so a repeated ranking changes no mask and no common flag. And
    ``RankingSet.distinct`` keeps the order of first appearance, so the
    default reference of a set is that of its distinct set.
    """
    distinct, s = RankingSet(sv.rankings).distinct()
    reference = sv.rankings[sv.reference_index]
    unique = replace(
        sv, rankings=distinct.rankings, reference_index=distinct.rankings.index(reference)
    )
    profile = kappa_series(unique, params)
    bonus = Fraction(sv.count * s, len(distinct))
    if profile.exact and bonus.denominator == 1:
        return profile.total + int(bonus)
    return float(profile.total + bonus)


def kappa1_topk(sv: Survey, params: MeasureParams) -> float:
    """Cutoff-weighted variant of kappa_1 for top-k style rankings.

    Each common item of ``sv = survey(rset)`` adds beta**mu * gamma**d,
    but only while mu + d stays strictly below the cutoff zeta. mu is
    the item's mean position, its position sum over N, and d its
    deviation, read from the table the weighted series reads.
    """
    if params.zeta is None:
        raise ValueError("top-k weighting requires both zeta and beta")
    total = 0.0
    deviations = sv._deviations[params.deviation]
    for position_sum, d in zip(compress(sv.sums, sv.common), deviations):
        mu = position_sum / sv.count
        if params.zeta - mu - d > 0:
            total += (params.beta ** mu) * (params.gamma ** d)
    return total


@dataclass(frozen=True)
class SweepPoint:
    """The profile at one (gamma, lambda) point of a sweep."""

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
    the trace, the sum of ``sv._diagonal``, which depends on gamma alone,
    and every kappa_p with p >= 2 comes from the strict lower part, which
    depends on lambda alone. So the grid costs one trace per gamma, plus
    one for the exact corner gamma = lambda = 1, and one integer pass of
    later terms per lambda. At lambda = 1 every weight is 1, so the exact corner and the
    weighted points gamma < 1 share that pass's counts: the corner reads
    them as they are, and a weighted point reads each as the float the
    weighted pass gives, count / 1 (inf past the float range).
    Each point is the profile kappa_series gives for its own parameters,
    bit for bit, including the epsilon cutoff on kappa_1: a gamma whose
    trace does not exceed epsilon gets the empty profile (ell 0, total 0)
    at every lambda, and a gamma whose trace does gets the series
    (trace, *tail). The tail is that lambda's later terms cut by
    ``takewhile(params.keeps, ...)`` at the point's exactness, and every
    point with the same lambda and exactness shares it. A lambda's tail
    is only computed once some point needs it. Points come back in grid
    order, gamma outer, lambda inner.
    """
    if params is None:
        params = MeasureParams()
    # One MeasureParams per gamma (at lambda 1) and one per lambda (at
    # gamma 1), all made before any weight is computed, so an invalid
    # value is refused first. A point takes its trace from the one of the
    # two that has its gamma and its exactness, and its series from the
    # one that has its lambda and its exactness; only the corner
    # gamma = lambda = 1 is exact. counts: the integer terms at lambda = 1,
    # made once, when the grid first reaches a point there.
    corner = replace(params, gamma=1.0, lam=1.0)
    by_gamma = [replace(corner, gamma=gamma) for gamma in gammas]
    by_lam = [replace(corner, lam=lam) for lam in lams]
    tails: dict[tuple[int, bool], tuple[int | float, ...]] = {}
    counts: tuple[int, ...] | None = None
    points = []
    for gamma, at_gamma in zip(gammas, by_gamma):
        traces: dict[bool, int | float] = {}
        for index, (lam, at_lam) in enumerate(zip(lams, by_lam)):
            exact = at_gamma.exact and at_lam.exact
            trace_params = at_gamma if at_gamma.exact == exact else at_lam
            if exact not in traces:
                traces[exact] = sum(sv._diagonal(trace_params))
            trace = traces[exact]
            series: tuple[int | float, ...] = ()
            if trace_params.keeps(trace):
                key = (index, exact)
                if key not in tails:
                    series_params = at_lam if at_lam.exact == exact else at_gamma
                    if lam != 1.0:
                        terms: Iterable[int | float] = _packed_terms(sv, series_params)
                    else:
                        if counts is None:
                            counts = tuple(_packed_terms(sv, corner))
                        terms = counts if exact else map(_quotient, counts, repeat(1))
                    tails[key] = tuple(takewhile(series_params.keeps, terms))
                series = (trace, *tails[key])
            points.append(SweepPoint(gamma, lam, KappaProfile(series=series, exact=exact)))
    return points
