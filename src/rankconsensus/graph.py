"""Weighted precedence-graph construction over a set of rankings.

The graph is a lower-triangular matrix indexed by the items of a
reference ranking (by default the shortest member of the set). The
diagonal carries per-item weights gamma**d for items that occur in every
ranking; the strict lower part carries pair weights lambda**g for item
pairs ordered consistently by every ranking. Everything above the
diagonal is zero, so the graph is acyclic by construction.

Its vertices and edges, the deviation statistics and the pair gaps do
not depend on gamma or lambda. ``survey`` captures them once, and the
``Survey`` owns the reference index and the item order. A
``ConsensusMatrix`` holds only weights: a diagonal vector plus one
adjacency list per row, indexed like the survey's items. The diagonal
depends only on gamma and the strict lower part only on lambda, so a
(gamma, lambda) sweep costs one trace per gamma and one lower-part
series per lambda (see ``measures.kappa_sweep``).

``survey`` walks each ranking's tie groups once. For every reference
item it meets, it appends the group index to that item's column and
ANDs the item's predecessor mask; there is no per-ranking position
table. An item is common when its column has N entries, and its
position sum, mean and deviations come from the column.

The masks are the bit-parallel order intersection of Allison & Dix
(1986) and Hyyrö's bit-vector LCS applied to N weak orders. The mask of
item i is a Python int whose bit j stands for the pair (i, j); it starts
as every item before i in reference order. Each ranking ANDs it with
the items of that ranking's strictly earlier tie groups, so after all N
rankings its set bits are exactly the j that every ranking puts strictly
before i. Such a j is in every ranking that holds i, so for a common i
it is common too; the masks of the other items are zeroed. That is
O(N n) big-int operations instead of a test of every pair in every
ranking.

The survey keeps the masks and the integer position sums; it lists no
pairs. A pair (i, j) is an edge only when every ranking k puts i
strictly after j, so |p_k(i) - p_k(j)| = p_k(i) - p_k(j) in every
ranking and the mean gap telescopes to (S_i - S_j) / N, with S_i the
item's position sum. The numerator is the same integer the per-ranking
sum of absolute differences gives, and the division is the same int/int
true division, so the gap is exact, not an approximation of the
per-ranking mean. ``Survey.edges`` spells the masks out as (i, j, gap)
triples on its first read and keeps them; only ``Survey.matrix`` reads
them, for the closed-form total. Both series read the masks instead
(see ``measures``): the exact one directly, the weighted one through
``Survey.levels``, the number of items in the longest common chain that
ends at each item, and the predecessor rows built from the masks and
levels on first read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import compress, repeat

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
        if math.isinf(self.epsilon):
            raise ValueError("epsilon must be finite")
        object.__setattr__(self, "deviation", Deviation(self.deviation))
        if self.zeta is not None and not self.zeta > 0.0:
            raise ValueError("zeta must be positive")
        if self.beta is not None and not 0.0 < self.beta < 1.0:
            raise ValueError("beta must be in (0,1)")

    @property
    def exact(self) -> bool:
        """True when both weight bases are 1 and integer arithmetic applies."""
        return self.gamma == 1.0 and self.lam == 1.0

    def weight(self, base: float, exponent: float) -> int | float:
        """An item's or pair's weight base**exponent; the int 1 on the exact path."""
        return 1 if self.exact else base ** exponent

    def keeps(self, term: int | float) -> bool:
        """Whether a series keeps the term; it stops at the first one it does not.

        The exact path keeps every nonzero count and ignores epsilon, so
        there ell is the longest common chain. The weighted path keeps a
        term that exceeds epsilon, so there ell depends on epsilon.
        """
        return term > (0 if self.exact else self.epsilon)


@dataclass(frozen=True)
class Survey:
    """The parameter-independent part of the matrix for one ranking set.

    Every per-item field is indexed by the reference ranking's items.
    common[i] says the item is in every ranking; mu, mad and var are its
    mean position and deviations, read from its column of 1-based
    tie-group indices, one per ranking (0.0 off the common items). The
    columns themselves are not kept. sums[i] is the column's integer sum
    and count the number N of rankings, so on the common items mu[i] is
    sums[i] / N. Bit j of masks[i] is set when every ranking puts item j
    strictly before item i (so j < i); the masks of the items outside
    ``common`` are 0.

    ``edges`` lists those pairs as (i, j, mean gap) triples, i then j
    ascending. It is built from the masks on its first read and kept.
    Because i follows j in every ranking, the mean gap is
    (S_i - S_j) / N for the position sums S, bit-for-bit the mean of the
    per-ranking gaps. ``levels`` gives each item's longest common chain,
    also on first read and kept.
    """

    items: tuple[int, ...]
    reference_index: int
    common: tuple[bool, ...]
    mu: tuple[float, ...]
    mad: tuple[float, ...]
    var: tuple[float, ...]
    masks: tuple[int, ...]
    sums: tuple[int, ...]
    count: int

    @cached_property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """(i, j, mean gap) for each set bit j of each masks[i], listed on first read.

        Only ``matrix`` reads them; the series read the masks.
        """
        sums, N = self.sums, self.count
        return tuple(
            (i, j, (sums[i] - sums[j]) / N)
            for i, mask in enumerate(self.masks)
            for j in _bits(mask)
        )

    @cached_property
    def levels(self) -> tuple[int, ...]:
        """The number of items in the longest common chain that ends at each item.

        It is 0 off the common items. On a common item i it is
        1 + max(levels[j] for j in masks[i]), and 1 for an empty mask. A
        chain of p items can only end at an item whose level is p or
        more, which is what lets the weighted series skip the rest. Built
        on first read and kept, so every lambda of a sweep shares it.
        """
        levels = [0] * len(self.masks)
        # reached[k]: the common items so far whose level is k + 1, as a mask.
        reached: list[int] = []
        for i, mask in enumerate(self.masks):
            if self.common[i]:
                below = len(reached)
                while below and not mask & reached[below - 1]:
                    below -= 1
                if below == len(reached):
                    reached.append(0)
                reached[below] |= 1 << i
                levels[i] = below + 1
        return tuple(levels)

    @cached_property
    def _level_rows(
        self,
    ) -> tuple[tuple[int, int, tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...]:
        """(i, level, predecessors, differences, starts) for each item with a predecessor.

        Rows come in reference order. predecessors lists the set bits j of
        masks[i] ascending, differences the integers S_i - S_j beside
        them, so each mean gap is difference / N, and starts[p - 1] is the
        index in predecessors of the first one whose level is p or more,
        for p = 1 .. level - 1. None of it reads gamma or lambda, so it is
        built on first read and kept.
        """
        sums, levels = self.sums, self.levels
        rows = []
        for i, mask in enumerate(self.masks):
            if not mask:
                continue
            predecessors = _bits(mask)
            starts = []
            for k, j in enumerate(predecessors):
                while levels[j] > len(starts):
                    starts.append(k)
            rows.append(
                (
                    i,
                    levels[i],
                    tuple(predecessors),
                    tuple(sums[i] - sums[j] for j in predecessors),
                    tuple(starts),
                )
            )
        return tuple(rows)

    def deviation_of(self, index: int, variant: Deviation | str) -> float:
        """The item's deviation; variant is a Deviation or its string value."""
        if variant is Deviation.MAD:
            return self.mad[index]
        if variant is Deviation.SQRT_MAD:
            return math.sqrt(self.mad[index])
        if variant is Deviation.STD:
            return math.sqrt(self.var[index])
        return self.deviation_of(index, Deviation(variant))

    def _diagonal(self, params: MeasureParams) -> list[int | float]:
        """Per-item weights gamma**d, 1 on the exact path, 0 off the common items.

        It reads only gamma, the deviation variant and the exact flag, so a
        sweep can take one trace per gamma from it without building a matrix.
        """
        diag: list[int | float] = [0] * len(self.items)
        for i, common in enumerate(self.common):
            if common:
                diag[i] = params.weight(params.gamma, self.deviation_of(i, params.deviation))
        return diag

    def matrix(self, params: MeasureParams) -> "ConsensusMatrix":
        n = len(self.items)
        exact = params.exact
        rows: list[list[tuple[int, int | float]]] = [[] for _ in range(n)]
        # params.weight(params.lam, gap), written out: a method call per edge
        # took 12 builds of a 689-edge n=40 set from 1.3-1.7 ms to 3.3-3.6 ms
        # (Python 3.11, 2-vCPU Xeon).
        for i, j, gap in self.edges:
            rows[i].append((j, 1 if exact else params.lam ** gap))
        return ConsensusMatrix(diag=self._diagonal(params), rows=rows)


def _bits(mask: int) -> list[int]:
    """The set bits of mask, ascending."""
    # bin() reversed puts bit j at string index j.
    digits = bin(mask)[:1:-1]
    return list(compress(range(len(digits)), map("1".__eq__, digits)))


def survey(rset: RankingSet, reference_index: int | None = None) -> Survey:
    """Walk the set once: commonality, deviations, ordered pairs.

    reference_index overrides the default shortest-ranking choice; any
    member is admissible and yields the same measures. One walk over the
    tie groups fills each item's column and predecessor mask (see the
    module docstring). The survey keeps the masks as the walk leaves
    them, with the masks of the items outside the common set zeroed; it
    lists no pairs.
    """
    if reference_index is None:
        reference_index = rset.reference_index()
    elif not 0 <= reference_index < len(rset):
        raise ValueError(f"reference index out of range: {reference_index}")
    items = tuple(rset.rankings[reference_index].items())
    n = len(items)
    N = len(rset)
    index_of = {item: i for i, item in enumerate(items)}.get
    bit = [1 << i for i in range(n)]
    # columns[i] lists item i's group index in each ranking that holds it,
    # in set order; bit j of masks[i] stands for the pair (i, j).
    columns: list[list[int]] = [[] for _ in range(n)]
    masks = [b - 1 for b in bit]
    for ranking in rset:
        earlier = 0
        for position, group in enumerate(ranking.groups, start=1):
            bits = 0
            for item in group:
                i = index_of(item)
                if i is not None:
                    masks[i] &= earlier
                    columns[i].append(position)
                    bits |= bit[i]
            earlier |= bits
    common = tuple(len(column) == N for column in columns)
    sums = list(map(sum, columns))
    mu = [0.0] * n
    mad = [0.0] * n
    var = [0.0] * n
    for i, column in enumerate(columns):
        if not common[i]:
            masks[i] = 0
            continue
        mean = sums[i] / N
        mu[i] = mean
        # x - mean for each x, then the same sums in the same order as a
        # generator over the column would make.
        deviations = list(map(mean.__rsub__, column))
        mad[i] = sum(map(abs, deviations)) / N
        var[i] = sum(map(pow, deviations, repeat(2))) / N
    return Survey(
        items=items,
        reference_index=reference_index,
        common=common,
        mu=tuple(mu),
        mad=tuple(mad),
        var=tuple(var),
        masks=tuple(masks),
        sums=tuple(sums),
        count=N,
    )


@dataclass(eq=False)
class ConsensusMatrix:
    """The weights of one survey's lower-triangular graph for one (gamma, lambda).

    It holds weights only: row and column k stand for the survey's
    ``items[k]``, and the item order and reference ranking live on the
    ``Survey`` that built it. ``diag`` holds the per-item weights (zeros
    for items missing from some ranking); ``rows`` holds the strict lower
    part as per-row adjacency lists of (column, weight), columns
    ascending, so entry (i, j) is ``diag[i]`` when i == j and the weight
    beside column j in ``rows[i]`` when j < i; every other entry is 0.
    ``measures.kappa_total_closed`` reads it; neither series builds one.
    """

    diag: list[int | float]
    rows: list[list[tuple[int, int | float]]]

    @property
    def order(self) -> int:
        return len(self.diag)

    def trace(self) -> int | float:
        return sum(self.diag)
