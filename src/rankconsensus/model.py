"""Core data model: interned items, rankings with tie groups, ranking sets.

Rankings are purely ordinal. Each ranking is a sequence of tie groups; a
group holds one or more item ids that share the same preference level.
Positions are 1-based group indices, so an item in the third group of a
ranking has position 3 whether or not earlier groups are tied.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator

RESERVED_CHARS = "{}"


class ValidationError(ValueError):
    """Raised when tokens or ranking structure violate the model rules."""


def valid_token(token: object) -> bool:
    """True for an item token: a non-empty string without braces or whitespace.

    Whitespace is what ``str.isspace`` accepts, Unicode spaces included.
    ``ItemTable.intern`` and ``io.parse_json`` both apply this rule.
    """
    return (
        isinstance(token, str)
        and bool(token)
        and not any(c.isspace() or c in RESERVED_CHARS for c in token)
    )


class ItemTable:
    """Bijection between item tokens and dense integer ids, in intern order."""

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._tokens: list[str] = []

    def intern(self, token: str) -> int:
        # A stored token has passed valid_token, so only new tokens are
        # checked. The isinstance test keeps an unhashable token away from
        # the dict; valid_token refuses it.
        item = self._ids.get(token) if isinstance(token, str) else None
        if item is None:
            if not valid_token(token):
                raise ValidationError(
                    f"invalid item token {token!r}: tokens are non-empty strings"
                    " without whitespace or braces"
                )
            item = len(self._tokens)
            self._ids[token] = item
            self._tokens.append(token)
        return item

    def id_of(self, token: str) -> int:
        try:
            return self._ids[token]
        except KeyError:
            raise ValueError(f"unknown item: {token!r}") from None

    def token_of(self, item: int) -> str:
        if not 0 <= item < len(self._tokens):
            raise ValueError(f"unknown item id: {item}")
        return self._tokens[item]

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def __repr__(self) -> str:
        return f"ItemTable({len(self._tokens)} items)"


@dataclass(frozen=True)
class Ranking:
    """An ordered sequence of tie groups of item ids.

    Groups are stored with their members sorted by id, which makes equality
    structural: two rankings are equal when they place the same items in the
    same groups in the same order. A ranking has at least one group, each
    group at least one item, and no item appears twice.
    """

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
        """1-based tie-group index of the item, or 0 when absent."""
        return self._positions.get(item, 0)

    def items(self) -> Iterator[int]:
        """Items in group order; members of one group come out in id order."""
        for group in self.groups:
            yield from group

    def item_set(self) -> frozenset[int]:
        return frozenset(self._positions)

    def __contains__(self, item: int) -> bool:
        return item in self._positions


def build_ranking(table: ItemTable, groups: Iterable[str | Iterable[str]]) -> Ranking:
    """Intern tokens and assemble a validated Ranking.

    Each element of ``groups`` is either a single token (a singleton group)
    or an iterable of tokens forming one tie group. A repeated token is
    refused here, by name; ``Ranking`` refuses the other shape faults.
    """
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
    return Ranking(tuple(id_groups))


@dataclass(frozen=True, eq=False)
class RankingSet:
    """An ordered multiset of rankings over one shared item table."""

    rankings: tuple[Ranking, ...]
    table: ItemTable

    def __post_init__(self) -> None:
        if not self.rankings:
            raise ValidationError("empty ranking set")

    @classmethod
    def build(cls, rankings: Iterable[Iterable[str | Iterable[str]]]) -> "RankingSet":
        table = ItemTable()
        built = tuple(build_ranking(table, groups) for groups in rankings)
        return cls(built, table)

    def __len__(self) -> int:
        return len(self.rankings)

    def __iter__(self) -> Iterator[Ranking]:
        return iter(self.rankings)

    def reference_index(self) -> int:
        """Index of the ranking with the fewest items; earlier wins a tie."""
        best = 0
        for k, ranking in enumerate(self.rankings):
            if ranking.length < self.rankings[best].length:
                best = k
        return best

    def distinct(self) -> tuple["RankingSet", int]:
        """Deduplicated copy plus the largest multiplicity s."""
        counts = Counter(self.rankings)
        unique = tuple(dict.fromkeys(self.rankings))
        return RankingSet(unique, self.table), max(counts.values())
