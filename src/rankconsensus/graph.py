"""Weighted precedence-graph construction over a set of rankings.

The graph is a lower-triangular matrix indexed by the items of a
reference ranking (by default the shortest member of the set). The
diagonal carries per-item weights gamma**d for items that occur in every
ranking; the strict lower part carries pair weights lambda**g for item
pairs ordered consistently by every ranking. Everything above the
diagonal is zero, so the graph is acyclic by construction.

Its vertices and edges, the deviation statistics and the pair gaps do
not depend on gamma or lambda. ``survey`` captures them once. The
``Survey`` owns the rankings and the reference index, and reads the item
order and N from them. A ``ConsensusMatrix`` holds only weights: a
diagonal vector plus one adjacency list per row, indexed like the
survey's items; only the closed-form total reads one. The diagonal
depends only on gamma and the strict lower part only on lambda, so a
(gamma, lambda) sweep costs one trace, the sum of ``_diagonal``, per
gamma and one pass of later terms per lambda, the exact corner sharing
the pass at lambda = 1, each read from the survey, not from a matrix
(see ``measures.kappa_sweep``).

``survey`` walks each ranking's flat tokens once. For every reference
item it meets, it ANDs the item's predecessor mask with the items of
the earlier groups and adds the item to the ranking's seen mask. In an
untied ranking every token opens a new group, so the earlier groups'
items are the seen mask itself and the walk reads no positions. A tied
ranking's walk reads each token's tie-group position beside it and
moves its earlier-groups mask forward only when the position changes.
There is no per-ranking position table and no position is kept. A
ranking holds a token at most once, so an item is common when it is in
the AND of the N seen masks. That walk, the common test and the zeroing
of the other items' masks are all that ``survey`` does: the exact series
needs only the masks. The survey keeps the set's
rankings, and the common items' position columns, their sums and the
deviation table are made from them on their first read and then kept,
like the edge list and the levels; only the weighted path, the top-k
variant and the matrix read them.

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

The survey keeps the masks and the rankings; it lists no pairs. A pair
(i, j) is an edge only when every ranking k puts i strictly after j, so
|p_k(i) - p_k(j)| = p_k(i) - p_k(j) in every ranking and the mean gap
telescopes to (S_i - S_j) / N, with S_i the item's position sum. The
numerator is the same integer the per-ranking sum of absolute
differences gives, and the division is the same int/int true division,
so the gap is exact, not an approximation of the per-ranking mean. It
also telescopes along a chain, so a chain's weight depends only on the
position sums of its two ends. ``Survey.edges`` spells the masks out as
(i, j, gap) triples on its first read and keeps them; only
``Survey.matrix`` reads them, for the closed-form total. The series
reads the masks, ``Survey.levels``, the number of items in the longest
common chain that ends at each item, and, with weights, the position
sums (see ``measures``); it lists no pairs.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import compress
from operator import mul

from .model import Ranking, RankingSet


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
    weight base for the top-k variant, which is on when both are given
    and off when neither is.
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
        if self.zeta is not None and math.isinf(self.zeta):
            raise ValueError("zeta must be finite")
        if self.beta is not None and not 0.0 < self.beta < 1.0:
            raise ValueError("beta must be in (0,1)")
        if (self.zeta is None) != (self.beta is None):
            raise ValueError("top-k weighting requires both zeta and beta")

    @property
    def exact(self) -> bool:
        """True when both weight bases are 1 and integer arithmetic applies."""
        return self.gamma == 1.0 and self.lam == 1.0

    def keeps(self, term: int | float) -> bool:
        """Whether a series keeps the term; it stops at the first one it does not.

        The exact path keeps every nonzero count and ignores epsilon, so
        there ell is the longest common chain. The weighted path keeps a
        term that exceeds epsilon, so there ell depends on epsilon.
        """
        return term > (0 if self.exact else self.epsilon)


@dataclass(frozen=True)
class Survey:
    """What one walk over a ranking set finds, before any gamma or lambda.

    It has four fields, and each fact is stated once. ``rankings`` holds
    the set's rankings in set order and ``reference_index`` picks one of
    them. ``items``, that ranking's tokens, and ``count``, N, are read
    from the two, so no copy of a field can disagree with it. Every
    per-item field is indexed by ``items``. ``survey`` fills the fields
    and nothing else. common[i] says the item is in every one of the N
    rankings. Bit j of masks[i] is set when every ranking puts item j
    strictly before item i (so j < i); the masks of the items outside
    ``common`` are 0.

    The rest is made on first read and kept, so it is not a field, and
    equality and hashing see the fields alone. ``_columns`` holds each
    common item's N 1-based tie-group indices, in reference order; an
    exact measure never reads it. sums[i] is a common item's column sum,
    so its mean position is sums[i] / N; off the common items it is 0.
    ``_deviations`` holds each deviation variant's values for the common
    items, in reference order; only the weighted path, the top-k variant
    and a weighted ``matrix`` read it. ``edges`` lists the mask pairs as
    (i, j, mean gap) triples, i then j ascending. Because i follows j in
    every ranking, the mean gap is (S_i - S_j) / N for the position sums
    S, bit-for-bit the mean of the per-ranking gaps. ``levels`` gives each
    item's longest common chain and ``_shorter_rows`` the lists the series
    sums for each common item.
    """

    reference_index: int
    common: tuple[bool, ...]
    masks: tuple[int, ...]
    rankings: tuple[Ranking, ...]

    @property
    def items(self) -> tuple[str, ...]:
        """The reference ranking's tokens, the order of every per-item field."""
        return self.rankings[self.reference_index].tokens

    @property
    def count(self) -> int:
        """N, the number of rankings."""
        return len(self.rankings)

    @cached_property
    def _columns(self) -> tuple[tuple[int, ...], ...]:
        """The N tie-group indices of each common item, in reference order, each in set order."""
        index_of = {item: i for i, item in enumerate(compress(self.items, self.common))}.get
        columns: list[list[int]] = [[] for _ in range(self.common.count(True))]
        for ranking in self.rankings:
            for i, position in zip(map(index_of, ranking.tokens), ranking.positions):
                if i is not None:
                    columns[i].append(position)
        return tuple(map(tuple, columns))

    @cached_property
    def sums(self) -> tuple[int, ...]:
        """Each common item's position sum, the integer sum of its column; 0 elsewhere."""
        sums = map(sum, self._columns)
        return tuple(next(sums) if common else 0 for common in self.common)

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
        more, which is what lets the series skip or cut the rest of a
        row. Built on first read and kept, so every lambda of a sweep
        shares it.
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
    def _shorter_rows(self) -> tuple[tuple[int, int, bool], ...]:
        """(i, bits, complement) for each common item i, in reference order.

        bits is the item's predecessor mask, or, when complement is true,
        the common items before i that are missing from the mask,
        whichever has fewer set bits. A tie goes to the mask, which needs
        no subtraction. The mask of a common item holds only common items
        before it, so the two lists partition those items. Built on first
        read and kept, so every lambda of a sweep shares it.
        """
        rows = []
        below = 0
        for i in compress(range(len(self.masks)), self.common):
            mask = self.masks[i]
            missing = below & ~mask
            if missing.bit_count() < mask.bit_count():
                rows.append((i, missing, True))
            else:
                rows.append((i, mask, False))
            below |= 1 << i
        return tuple(rows)

    @cached_property
    def _deviations(self) -> dict[Deviation, tuple[float, ...]]:
        """Each variant's deviations of the common items, in reference order.

        Each is one correctly rounded int/int division. With S a column's
        sum, Q its sum of squares and L the sum of its k positions at or
        below the mean (x <= S // N), N**2 * MAD = 2 * (S * k - N * L) and
        N**2 * variance = N * Q - S**2.
        """
        N = self.count
        mad: list[float] = []
        var: list[float] = []
        for total, column in zip(compress(self.sums, self.common), self._columns):
            ordered = sorted(column)
            below = ordered[: bisect_right(ordered, total // N)]
            mad.append(2 * (total * len(below) - N * sum(below)) / (N * N))
            var.append((N * sum(map(mul, column, column)) - total * total) / (N * N))
        return {
            Deviation.MAD: tuple(mad),
            Deviation.SQRT_MAD: tuple(map(math.sqrt, mad)),
            Deviation.STD: tuple(map(math.sqrt, var)),
        }

    def _diagonal(self, params: MeasureParams) -> list[int | float]:
        """Per-item weights gamma**d, 1 on the exact path, 0 off the common items.

        Their sum is kappa_1. The exact path reads no deviations.
        """
        if params.exact:
            return list(map(int, self.common))
        deviations = iter(self._deviations[params.deviation])
        return [params.gamma ** next(deviations) if common else 0 for common in self.common]

    def matrix(self, params: MeasureParams) -> "ConsensusMatrix":
        """The ``ConsensusMatrix`` of these edges, weighted by params."""
        n = len(self.items)
        exact = params.exact
        rows: list[list[tuple[int, int | float]]] = [[] for _ in range(n)]
        # The int 1 on the exact path, lambda ** gap otherwise, inline: a
        # method call per edge took 12 builds of a 689-edge n=40 set from
        # 1.3-1.7 ms to 3.3-3.6 ms (Python 3.11, 2-vCPU Xeon).
        for i, j, gap in self.edges:
            rows[i].append((j, 1 if exact else params.lam ** gap))
        return ConsensusMatrix(diag=self._diagonal(params), rows=rows)


def _bits(mask: int) -> list[int]:
    """The set bits of mask, ascending."""
    # bin() reversed puts bit j at string index j.
    digits = bin(mask)[:1:-1]
    return list(compress(range(len(digits)), map("1".__eq__, digits)))


def survey(rset: RankingSet, reference_index: int | None = None) -> Survey:
    """Walk the set once: each item's predecessor mask, and commonality.

    reference_index overrides the default shortest-ranking choice; any
    member is admissible and yields the same measures. One pass over
    each ranking's tokens, and a tied ranking's positions beside them,
    fills each item's predecessor mask and the items each ranking holds
    (see the module docstring).
    The survey keeps the masks as the walk leaves them, with the masks of
    the items outside the common set zeroed, and the set's rankings; it
    keeps no positions, lists no pairs and makes no statistics.
    """
    if reference_index is None:
        reference_index = rset.reference_index()
    elif not 0 <= reference_index < len(rset):
        raise ValueError(f"reference index out of range: {reference_index}")
    items = rset.rankings[reference_index].tokens
    n = len(items)
    index_of = {item: i for i, item in enumerate(items)}.get
    bit = [1 << i for i in range(n)]
    # Bit j of masks[i] stands for the pair (i, j); bit i of everywhere
    # stays set while every ranking so far holds item i.
    masks = [b - 1 for b in bit]
    everywhere = (1 << n) - 1
    for ranking in rset:
        # seen: the items met so far. In an untied ranking every token
        # opens a new group, so the items of the earlier groups are seen.
        seen = 0
        if ranking.is_untied:
            for i in map(index_of, ranking.tokens):
                if i is not None:
                    masks[i] &= seen
                    seen |= bit[i]
        else:
            # earlier: the items of the groups before position last, the
            # group of the item met last; positions never fall, so at a new
            # position they are all of seen.
            earlier = last = 0
            for i, position in zip(map(index_of, ranking.tokens), ranking.positions):
                if i is not None:
                    if position != last:
                        earlier = seen
                        last = position
                    masks[i] &= earlier
                    seen |= bit[i]
        everywhere &= seen
    common = tuple(map(bool, map(everywhere.__and__, bit)))
    return Survey(
        reference_index=reference_index,
        common=common,
        masks=tuple(mask if kept else 0 for mask, kept in zip(masks, common)),
        rankings=rset.rankings,
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
    The order is ``len(diag)`` and the trace ``sum(diag)``.
    ``measures.kappa_total_closed`` reads it; neither series builds one.
    """

    diag: list[int | float]
    rows: list[list[tuple[int, int | float]]]
