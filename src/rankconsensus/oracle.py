"""Brute-force enumeration of common subsequences, as ground truth.

This module deliberately recomputes everything from raw positions and
never touches the survey or the series, so it can stand as an
independent check of ``kappa_series``. It first tables, for each item
shared by all rankings, the later items that every ranking puts
strictly after it, with the pair's weight. One depth-first pass then extends each chain
once along that table; a chain's weight is its prefix's weight times the
new pair's. Consecutive pairs suffice: positions within one ranking are
transitive, so a chain whose consecutive pairs are all strictly ordered
is strictly ordered as a whole.

Cost grows with 2**(shortest ranking length); the guard refuses inputs
past SIZE_GUARD items and points callers at ``kappa_series`` instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import takewhile

from .graph import Deviation, MeasureParams
from .measures import KappaProfile
from .model import RankingSet

SIZE_GUARD = 20


class SizeLimitError(ValueError):
    """Input too large for exhaustive enumeration."""


@dataclass(frozen=True)
class CommonSubsequence:
    """One chain common to every ranking: its items in order and its weight."""

    items: tuple[str, ...]
    weight: int | float


def _deviation(column: list[int], variant: Deviation) -> float:
    mean = sum(column) / len(column)
    mad = sum(abs(x - mean) for x in column) / len(column)
    if variant is Deviation.MAD:
        return mad
    if variant is Deviation.SQRT_MAD:
        return math.sqrt(mad)
    return math.sqrt(sum((x - mean) ** 2 for x in column) / len(column))


def _weight(params: MeasureParams, base: float, exponent: float) -> int | float:
    """An item's or pair's weight base**exponent; the int 1 on the exact path."""
    return 1 if params.exact else base ** exponent


def enumerate_common(
    rset: RankingSet, params: MeasureParams | None = None
) -> list[CommonSubsequence]:
    """All common subsequences, in length-then-reference-order.

    Weights follow ``params`` (exact 1 at the default gamma = lambda = 1):
    a singleton weighs gamma**d, a longer chain the product of
    lambda**gap over its consecutive pairs.
    """
    if params is None:
        params = MeasureParams()
    shortest = min(ranking.length for ranking in rset)
    if shortest > SIZE_GUARD:
        raise SizeLimitError(
            f"shortest ranking has {shortest} items, more than the enumeration "
            f"guard of {SIZE_GUARD}; use the series instead (the measure command or kappa_series)"
        )
    reference = rset.rankings[rset.reference_index()]
    candidates = [
        item
        for item in reference.tokens
        if all(ranking.position_of(item) for ranking in rset)
    ]
    columns = [[ranking.position_of(item) for ranking in rset] for item in candidates]
    singleton_weight = [
        _weight(params, params.gamma, _deviation(column, params.deviation))
        for column in columns
    ]
    # successors[i]: each later candidate j that every ranking puts strictly
    # after candidate i, with the pair's weight lambda**gap.
    successors = [
        [
            (j, _weight(params, params.lam, sum(b - a for a, b in zip(ci, cj)) / len(ci)))
            for j, cj in enumerate(columns[i + 1 :], i + 1)
            if all(b > a for a, b in zip(ci, cj))
        ]
        for i, ci in enumerate(columns)
    ]

    found: list[tuple[tuple[int, ...], int | float]] = []

    def extend(chain: tuple[int, ...], product: int | float) -> None:
        """Record every extension of chain; product is its pair-weight product."""
        for j, pair in successors[chain[-1]]:
            longer, weight = chain + (j,), product * pair
            found.append((longer, weight))
            extend(longer, weight)

    for i, weight in enumerate(singleton_weight):
        found.append(((i,), weight))
        extend((i,), 1)

    found.sort(key=lambda entry: (len(entry[0]), entry[0]))
    return [
        CommonSubsequence(items=tuple(candidates[i] for i in chain), weight=weight)
        for chain, weight in found
    ]


def oracle_profile(rset: RankingSet, params: MeasureParams | None = None) -> KappaProfile:
    """Kappa profile obtained by summing enumerated subsequence weights.

    It cuts kappa_1, kappa_2, ... by the rule of kappa_series,
    ``takewhile(params.keeps, ...)``. It enumerates once per
    (gamma, lambda), where kappa_sweep runs one pass of later terms per
    lambda plus one for the exact corner.
    """
    if params is None:
        params = MeasureParams()
    by_length: dict[int, int | float] = {}
    for sub in enumerate_common(rset, params=params):
        length = len(sub.items)
        by_length[length] = by_length.get(length, 0) + sub.weight
    # enumerate_common sorts by length and every prefix of a common chain
    # is common, so the lengths run 1..longest in order.
    series = tuple(takewhile(params.keeps, by_length.values()))
    return KappaProfile(series=series, exact=params.exact)
