"""Reference implementations that the fast paths are tested against.

``pairwise_survey`` is ``graph.survey`` as it was before predecessor
masks: it fills an N x n position table and tests every pair of common
items against every ranking. ``pairwise_edges`` lists the pairs that
test finds, with their per-ranking mean gaps, and the reference survey
sets its masks from them. ``product_series`` is ``measures.kappa_series``
as it was before the exact path packed its counts and the weighted path
skipped the rows that can hold no chain: one full product y <- L y per
term (``multiply_lower``), over the matrix's adjacency lists.
``char_split_line`` is ``io._split_line`` as it was before it split on
braces: a state machine over the characters. ``EagerRanking`` is
``model.Ranking`` as it was before its checks took the whole ranking at
once: one loop over the groups that checks, sorts each group and fills
the position table up front. ``token_build_ranking`` is
``model.build_ranking`` as it was then: it interns token by token and
builds an ``EagerRanking``. None of them is used outside the tests;
``to_dense`` only spells a matrix out for assertions.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from rankconsensus.graph import ConsensusMatrix, MeasureParams, Survey
from rankconsensus.io import ParseError
from rankconsensus.measures import KappaProfile
from rankconsensus.model import ItemTable, RankingSet, ValidationError


def _position_columns(
    rset: RankingSet, reference_index: int | None
) -> tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(reference index, items, one column of 1-based positions per item, 0 if absent)."""
    if reference_index is None:
        reference_index = rset.reference_index()
    items = tuple(rset.rankings[reference_index].items())
    positions = tuple(
        tuple(ranking.position_of(item) for item in items) for ranking in rset
    )
    return reference_index, items, tuple(zip(*positions))


def pairwise_edges(
    rset: RankingSet, reference_index: int | None = None
) -> tuple[tuple[int, int, float], ...]:
    """(i, j, mean gap) for every j < i that every ranking puts strictly before i."""
    _, items, columns = _position_columns(rset, reference_index)
    edges = []
    for i in range(len(items)):
        for j in range(i):
            pairs = list(zip(columns[i], columns[j]))
            if all(a > b > 0 for a, b in pairs):
                edges.append((i, j, sum(a - b for a, b in pairs) / len(rset)))
    return tuple(edges)


def pairwise_survey(rset: RankingSet, reference_index: int | None = None) -> Survey:
    reference_index, items, columns = _position_columns(rset, reference_index)
    n = len(items)
    N = len(rset)
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
    masks = [0] * n
    for i, j, _ in pairwise_edges(rset, reference_index):
        masks[i] |= 1 << j
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


def multiply_lower(matrix: ConsensusMatrix, vector: list[int | float]) -> list[int | float]:
    """L @ vector over the adjacency lists."""
    result: list[int | float] = [0] * matrix.order
    for i, row in enumerate(matrix.rows):
        acc: int | float = 0
        for j, w in row:
            acc += w * vector[j]
        result[i] = acc
    return result


def product_series(matrix: ConsensusMatrix, params: MeasureParams) -> KappaProfile:
    term = matrix.trace()
    series: list[tuple[int, int | float]] = []
    vector: list[int | float] = [1] * matrix.order
    while params.keeps(term) and len(series) < matrix.order:
        series.append((len(series) + 1, term))
        vector = multiply_lower(matrix, vector)
        term = sum(vector)
    return KappaProfile(series=tuple(series), exact=params.exact)


def char_split_line(line: str, lineno: int) -> list[tuple[str, ...]]:
    groups: list[tuple[str, ...]] = []
    depth = 0
    buf: list[str] = []
    for ch in line:
        if ch == "{":
            if depth:
                raise ParseError(f"nested braces at line {lineno}")
            if buf and not buf[-1].isspace():
                raise ParseError(f"brace must start a token at line {lineno}")
            depth = 1
            buf = []
        elif ch == "}":
            if not depth:
                raise ParseError(f"unbalanced braces at line {lineno}")
            members = tuple("".join(buf).split())
            if not members:
                raise ParseError(f"empty tie group at line {lineno}")
            groups.append(members)
            depth = 0
            buf = []
        elif ch.isspace() and not depth:
            if buf:
                groups.append(("".join(buf),))
                buf = []
        else:
            buf.append(ch)
    if depth:
        raise ParseError(f"unbalanced braces at line {lineno}")
    if buf:
        groups.append(("".join(buf),))
    return groups


def to_dense(matrix: ConsensusMatrix) -> list[list[int | float]]:
    """The full n x n matrix as nested lists: diag on the diagonal, rows below."""
    entries = [[0] * matrix.order for _ in range(matrix.order)]
    for i, row in enumerate(matrix.rows):
        entries[i][i] = matrix.diag[i]
        for j, w in row:
            entries[i][j] = w
    return entries


@dataclass(frozen=True)
class EagerRanking:
    groups: tuple[tuple[int, ...], ...]
    _positions: dict[int, int] = field(
        init=False, repr=False, compare=False, hash=False, default=None  # type: ignore[assignment]
    )

    def __post_init__(self) -> None:
        if not self.groups:
            raise ValidationError("empty ranking")
        positions: dict[int, int] = {}
        canonical = []
        for index, group in enumerate(self.groups, start=1):
            if not group:
                raise ValidationError("empty tie group")
            for item in group:
                if item in positions:
                    raise ValidationError(f"duplicate item id {item}")
                positions[item] = index
            canonical.append(tuple(sorted(group)))
        object.__setattr__(self, "groups", tuple(canonical))
        object.__setattr__(self, "_positions", positions)

    @property
    def length(self) -> int:
        return len(self._positions)

    @property
    def is_untied(self) -> bool:
        return all(len(g) == 1 for g in self.groups)

    def position_of(self, item: int) -> int:
        return self._positions.get(item, 0)

    def items(self) -> Iterator[int]:
        for group in self.groups:
            yield from group

    def item_set(self) -> frozenset[int]:
        return frozenset(self._positions)

    def __contains__(self, item: int) -> bool:
        return item in self._positions


def token_build_ranking(table: ItemTable, groups: Iterable[str | Iterable[str]]) -> EagerRanking:
    id_groups: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for group in groups:
        ids = []
        for token in [group] if isinstance(group, str) else group:
            item = table.intern(token)
            if item in seen:
                raise ValidationError(f"duplicate item {token}")
            seen.add(item)
            ids.append(item)
        id_groups.append(tuple(ids))
    return EagerRanking(tuple(id_groups))
