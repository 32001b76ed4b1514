"""Reference implementations that the fast paths are tested against.

``pairwise_survey`` is ``graph.survey`` as it was before predecessor
masks: it fills an N x n position table, tests every pair of common
items against every ranking, and makes the position sums and the
deviation table up front, each deviation the exact rational of its
definition over the table (``fractions.Fraction``) rounded once.
``pairwise_edges`` lists the pairs that test finds, with their
per-ranking mean gaps, and the reference survey sets its masks from
them. ``product_series`` is ``measures.kappa_series``
as it was before the exact path packed its counts and the weighted path
skipped the rows that can hold no chain: one full product y <- L y per
term (``multiply_lower``), over the matrix's adjacency lists.
``level_series`` is ``measures.kappa_series`` as it was before chain
weights telescoped: one float product per term over the rows that can
end a chain of that length (``level_terms``, over ``level_rows``).
``char_split_line`` is ``io._split_line`` as it was before it split on
braces: a state machine over the characters. ``stepwise_parse_text`` is
``io.parse_text`` as it was before ``Ranking`` checked its lines: it
splits each line into tuples, one per group, finds the label by
looking at the line's first character, and checks for a repeat with
its own chain and set. ``stepwise_parse_json`` is ``io.parse_json`` as
it was before it checked an entry whole: a token test and a set lookup
per token. Both hand ``Ranking`` groups they have already checked.
``EagerRanking`` is ``model.Ranking`` checked token by token: one loop
over the groups that checks each token, sorts each group and fills the
position table up front, so the first fault in ranking order is the one
it raises. ``stepwise_parse_json`` and ``EagerRanking`` test a token
with ``is_token``, the token rule written one character at a time, so
they do not share the library's rule. ``ordered_pairwise_values`` is
``baselines.pairwise_values`` as it was before it evaluated each
unordered ranking pair once: it evaluates every ordered pair, looks
each item's positions up in both rankings, and counts the concordant
and the discordant item pairs of a Kendall index. ``serialize_text``
and ``serialize_json`` write a document in the two formats, so that the
round-trip tests can read it back; no command writes a ranking file.
``enumerate_upto`` is ``oracle.enumerate_common`` as it was when it took
a ``max_len``: the full enumeration filtered by length.
``format_subsequences`` writes one enumerated subsequence per line.
None of them is used outside the tests; ``to_dense`` only spells a
matrix out for assertions.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Iterator

from rankconsensus.baselines import Baseline, UnsupportedRankingError
from rankconsensus.graph import ConsensusMatrix, Deviation, MeasureParams, Survey
from rankconsensus.io import ParseError, RankingDocument, RawRanking, _json_fail
from rankconsensus.measures import KappaProfile
from rankconsensus.model import Ranking, RankingSet, ValidationError, valid_tokens
from rankconsensus.oracle import CommonSubsequence, enumerate_common


def is_token(token: object) -> bool:
    """A non-empty str with no character that ``isspace`` accepts and no brace."""
    return (
        isinstance(token, str)
        and token != ""
        and not any(char.isspace() or char in "{}" for char in token)
    )


def _position_columns(
    rset: RankingSet, reference_index: int | None
) -> tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(reference index, items, one column of 1-based positions per item, 0 if absent)."""
    if reference_index is None:
        reference_index = rset.reference_index()
    items = rset.rankings[reference_index].tokens
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
    """The survey from the position table, its columns and statistics already made.

    The columns are the table's columns of the common items. They, the
    position sums (0 off the common items) and each common item's
    deviations are put in the survey's cache, so reading them gives
    these values and not the ones ``Survey`` would make from its
    rankings. Each deviation is the rational written from its
    definition, sum(|N x - S|) / N**2 and sum((N x - S)**2) / N**3 for
    the position sum S, rounded to a float once.
    """
    reference_index, items, table = _position_columns(rset, reference_index)
    N = len(rset)
    common = tuple(all(x > 0 for x in column) for column in table)
    columns = [column for column, kept in zip(table, common) if kept]
    sums = [sum(column) if kept else 0 for column, kept in zip(table, common)]
    mad = []
    var = []
    for column in columns:
        total = sum(column)
        mad.append(float(Fraction(sum(abs(N * x - total) for x in column), N * N)))
        var.append(float(Fraction(sum((N * x - total) ** 2 for x in column), N**3)))
    masks = [0] * len(items)
    for i, j, _ in pairwise_edges(rset, reference_index):
        masks[i] |= 1 << j
    sv = Survey(
        reference_index=reference_index,
        common=common,
        masks=tuple(masks),
        rankings=rset.rankings,
    )
    deviations = {
        Deviation.MAD: tuple(mad),
        Deviation.SQRT_MAD: tuple(math.sqrt(x) for x in mad),
        Deviation.STD: tuple(math.sqrt(x) for x in var),
    }
    vars(sv).update(_columns=tuple(columns), sums=tuple(sums), _deviations=deviations)
    return sv


def multiply_lower(matrix: ConsensusMatrix, vector: list[int | float]) -> list[int | float]:
    """L @ vector over the adjacency lists."""
    result: list[int | float] = [0] * len(matrix.diag)
    for i, row in enumerate(matrix.rows):
        acc: int | float = 0
        for j, w in row:
            acc += w * vector[j]
        result[i] = acc
    return result


def product_series(matrix: ConsensusMatrix, params: MeasureParams) -> KappaProfile:
    n = len(matrix.diag)
    term = sum(matrix.diag)
    series: list[int | float] = []
    vector: list[int | float] = [1] * n
    while params.keeps(term) and len(series) < n:
        series.append(term)
        vector = multiply_lower(matrix, vector)
        term = sum(vector)
    return KappaProfile(series=tuple(series), exact=params.exact)


def level_rows(
    sv: Survey,
) -> tuple[tuple[int, int, tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...]:
    """(i, level, predecessors, differences, starts) for each item with a predecessor.

    Rows come in reference order. predecessors lists the set bits j of
    masks[i] ascending, differences the integers S_i - S_j beside them,
    so each mean gap is difference / N, and starts[p - 1] is the index
    in predecessors of the first one whose level is p or more, for
    p = 1 .. level - 1.
    """
    sums, levels = sv.sums, sv.levels
    rows = []
    for i, mask in enumerate(sv.masks):
        if not mask:
            continue
        predecessors = [j for j in range(i) if mask >> j & 1]
        starts: list[int] = []
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


def level_terms(sv: Survey, lam: float) -> Iterator[int | float]:
    """kappa_2, kappa_3, ... on the weighted path, over the chains that can exist.

    y starts as all ones, and each term is the sum of y <- L y. Only the
    rows of ``level_rows`` whose level is above p take part in the
    product after term p, each from its first predecessor of level p or
    more; every other entry of y is 0, so every term is bit for bit
    ``product_series``'s.
    """
    N = sv.count
    rows = level_rows(sv)
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


def level_series(sv: Survey, params: MeasureParams) -> KappaProfile:
    """``measures.kappa_series`` as it was before chain weights telescoped.

    The trace, then one float product per term over the levels
    (``level_terms``), stopping at the first term params.keeps refuses.
    """
    term = sum(sv._diagonal(params))
    later = level_terms(sv, params.lam)
    series: list[int | float] = []
    while params.keeps(term) and len(series) < len(sv.items):
        series.append(term)
        term = next(later)
    return KappaProfile(series=tuple(series), exact=params.exact)


def char_split_line(line: str, lineno: int) -> list[str | tuple[str, ...]]:
    """A bare token per token outside braces, a tuple per group in braces."""
    groups: list[str | tuple[str, ...]] = []
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
                groups.append("".join(buf))
                buf = []
        else:
            buf.append(ch)
    if depth:
        raise ParseError(f"unbalanced braces at line {lineno}")
    if buf:
        groups.append("".join(buf))
    return groups


def stepwise_parse_text(content: str) -> RankingDocument:
    rankings: list[RawRanking] = []
    labels_seen: set[str] = set()
    lines = content.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw_line in enumerate(lines, start=1):
        line = raw_line.split("#", 1)[0]
        if not line.strip():
            continue
        groups = [
            (group,) if isinstance(group, str) else group
            for group in char_split_line(line, lineno)
        ]
        label = None
        first = groups[0]
        if len(first) == 1 and first[0].endswith(":") and line.lstrip()[0] != "{":
            label = first[0][:-1]
            if not label:
                raise ParseError(f"empty label at line {lineno}")
            groups = groups[1:]
        if label is not None:
            if label in labels_seen:
                raise ParseError(f"duplicate label {label} at line {lineno}")
            labels_seen.add(label)
        if not groups:
            raise ParseError(f"empty ranking at line {lineno}")
        seen_tokens: set[str] = set()
        for token in chain.from_iterable(groups):
            if token in seen_tokens:
                raise ParseError(f"duplicate item {token} at line {lineno}")
            seen_tokens.add(token)
        rankings.append(RawRanking(label=label, ranking=Ranking(groups)))
    return RankingDocument(rankings=tuple(rankings))


def stepwise_parse_json(content: str) -> RankingDocument:
    try:
        payload = json.loads(content)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise _json_fail("$", "expected an object")
    if "rankings" not in payload:
        raise _json_fail("$", "missing key rankings")
    entries = payload["rankings"]
    if not isinstance(entries, list):
        raise _json_fail("$.rankings", "expected a list")
    if not entries:
        raise _json_fail("$.rankings", "empty ranking set")
    rankings: list[RawRanking] = []
    labels_seen: set[str] = set()
    for k, entry in enumerate(entries):
        path = f"$.rankings[{k}]"
        if not isinstance(entry, dict):
            raise _json_fail(path, "expected an object")
        label = entry.get("label")
        if label is not None:
            if not isinstance(label, str):
                raise _json_fail(f"{path}.label", "expected a string")
            if label in labels_seen:
                raise _json_fail(f"{path}.label", f"duplicate label {label}")
            labels_seen.add(label)
        if "groups" not in entry:
            raise _json_fail(path, "missing key groups")
        raw_groups = entry["groups"]
        if not isinstance(raw_groups, list) or not raw_groups:
            raise _json_fail(f"{path}.groups", "expected a non-empty list")
        groups: list[tuple[str, ...]] = []
        seen_tokens: set[str] = set()
        for g, raw_group in enumerate(raw_groups):
            gpath = f"{path}.groups[{g}]"
            if not isinstance(raw_group, list):
                raise _json_fail(gpath, "expected a list of tokens")
            if not raw_group:
                raise _json_fail(gpath, "empty tie group")
            for token in raw_group:
                if not is_token(token):
                    raise _json_fail(gpath, f"invalid token {token!r}")
                if token in seen_tokens:
                    raise _json_fail(path, f"duplicate item {token}")
                seen_tokens.add(token)
            groups.append(tuple(raw_group))
        rankings.append(RawRanking(label=label, ranking=Ranking(groups)))
    return RankingDocument(rankings=tuple(rankings))


def _checked_items(r1: Ranking, r2: Ranking) -> list[str]:
    if not r1.is_untied or not r2.is_untied:
        raise UnsupportedRankingError("tied rankings are not supported")
    if r1.item_set() != r2.item_set():
        raise UnsupportedRankingError("rankings do not cover the same items")
    if r1.length < 2:
        raise ValueError(f"need at least 2 items, got {r1.length}")
    return list(r1.tokens)


def _pair_counts(r1: Ranking, r2: Ranking, items: list[str]) -> tuple[int, int]:
    """(concordant, discordant) over all unordered item pairs."""
    concordant = discordant = 0
    n = len(items)
    for a in range(n):
        for b in range(a + 1, n):
            d1 = r1.position_of(items[a]) - r1.position_of(items[b])
            d2 = r2.position_of(items[a]) - r2.position_of(items[b])
            if d1 * d2 > 0:
                concordant += 1
            else:
                discordant += 1
    return concordant, discordant


def _ordered_index(r1: Ranking, r2: Ranking, kind: Baseline) -> float:
    items = _checked_items(r1, r2)
    n = len(items)
    if kind in (Baseline.KENDALL_TAU, Baseline.KENDALL_DIST):
        concordant, discordant = _pair_counts(r1, r2, items)
        if kind is Baseline.KENDALL_TAU:
            return (concordant - discordant) / (concordant + discordant)
        return discordant / (concordant + discordant)
    gaps = [r1.position_of(item) - r2.position_of(item) for item in items]
    if kind is Baseline.SPEARMAN_RHO:
        return 1.0 - 6.0 * sum(gap**2 for gap in gaps) / (n * (n * n - 1))
    return sum(abs(gap) for gap in gaps) / (n * (n * n - 1))


def ordered_pairwise_values(rset: RankingSet, kind: Baseline | str) -> list[tuple[int, int, float]]:
    """(i, j, index) for every ordered ranking pair i != j, each evaluated on its own."""
    kind = Baseline(kind)
    N = len(rset)
    if N < 2:
        raise ValueError("aggregation needs at least two rankings")
    values = []
    for i in range(N):
        for j in range(N):
            if i == j:
                continue
            try:
                values.append((i, j, _ordered_index(rset.rankings[i], rset.rankings[j], kind)))
            except ValueError as exc:
                raise type(exc)(f"pair ({i + 1}, {j + 1}): {exc}") from exc
    return values


def serialize_text(document: RankingDocument) -> str:
    """The document in the text format, which parse_text reads back unchanged.

    Raises ValueError naming the first token or label the format cannot
    hold: one with "#", which starts a comment; a label that is empty or
    holds whitespace or braces; or a single token ending in ":" at the
    start of an unlabelled ranking, which would be read as its label.
    Every token has passed the token rule when its ``Ranking`` was
    built, so a token is tested for "#" alone.
    """
    lines = []
    for raw in document.rankings:
        if raw.label is not None and (not valid_tokens([raw.label]) or "#" in raw.label):
            raise ValueError(f"label {raw.label!r} cannot be written as text")
        groups = raw.ranking.groups
        first = groups[0]
        if raw.label is None and len(first) == 1 and first[0].endswith(":"):
            raise ValueError(
                f"token {first[0]!r} cannot start an unlabelled ranking in text; "
                "it would be read as a label"
            )
        parts = []
        for group in groups:
            for token in group:
                if "#" in token:
                    raise ValueError(f"token {token!r} cannot be written as text")
            if len(group) == 1:
                parts.append(group[0])
            else:
                parts.append("{" + " ".join(group) + "}")
        prefix = f"{raw.label}: " if raw.label is not None else ""
        lines.append(prefix + " ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def serialize_json(document: RankingDocument) -> str:
    entries = []
    for raw in document.rankings:
        entry: dict[str, object] = {}
        if raw.label is not None:
            entry["label"] = raw.label
        entry["groups"] = [list(group) for group in raw.ranking.groups]
        entries.append(entry)
    return json.dumps({"rankings": entries}, indent=2) + "\n"


def enumerate_upto(
    rset: RankingSet, max_len: int, params: MeasureParams | None = None
) -> list[CommonSubsequence]:
    """The common subsequences of at most max_len items, in the oracle's order."""
    return [sub for sub in enumerate_common(rset, params=params) if len(sub.items) <= max_len]


def format_subsequences(subsequences: list[CommonSubsequence]) -> str:
    """One subsequence per line: tokens space-separated, weight appended."""
    lines = [f"{' '.join(sub.items)} {sub.weight!r}" for sub in subsequences]
    return "\n".join(lines) + ("\n" if lines else "")


def to_dense(matrix: ConsensusMatrix) -> list[list[int | float]]:
    """The full n x n matrix as nested lists: diag on the diagonal, rows below."""
    n = len(matrix.diag)
    entries = [[0] * n for _ in range(n)]
    for i, row in enumerate(matrix.rows):
        entries[i][i] = matrix.diag[i]
        for j, w in row:
            entries[i][j] = w
    return entries


@dataclass(frozen=True)
class EagerRanking:
    groups: tuple[tuple[str, ...], ...]
    _positions: dict[str, int] = field(
        init=False, repr=False, compare=False, hash=False, default=None  # type: ignore[assignment]
    )

    def __post_init__(self) -> None:
        groups = list(self.groups)
        if not groups:
            raise ValidationError("empty ranking")
        positions: dict[str, int] = {}
        canonical = []
        for index, group in enumerate(groups, start=1):
            members = []
            for token in [group] if isinstance(group, str) else group:
                if not is_token(token):
                    raise ValidationError(
                        f"invalid item token {token!r}: tokens are non-empty strings"
                        " without whitespace or braces"
                    )
                if token in positions:
                    raise ValidationError(f"duplicate item {token}")
                positions[token] = index
                members.append(token)
            if not members:
                raise ValidationError("empty tie group")
            canonical.append(tuple(sorted(members)))
        object.__setattr__(self, "groups", tuple(canonical))
        object.__setattr__(self, "_positions", positions)

    @property
    def length(self) -> int:
        return len(self._positions)

    @property
    def is_untied(self) -> bool:
        return all(len(g) == 1 for g in self.groups)

    def position_of(self, item: str) -> int:
        return self._positions.get(item, 0)

    def items(self) -> Iterator[str]:
        for group in self.groups:
            yield from group

    def item_set(self) -> frozenset[str]:
        return frozenset(self._positions)
