"""Core data model: interned items, rankings with tie groups, ranking sets.

Rankings are purely ordinal. Each ranking is a sequence of tie groups; a
group holds one or more item ids that share the same preference level.
Positions are 1-based group indices, so an item in the third group of a
ranking has position 3 whether or not earlier groups are tied. A ranking
builds its position table and its length on first read. The survey
reads no position table; the oracle and the baselines do, and
``RankingSet.reference_index`` reads the length.

Each check is a whole-ranking test made of C-level operations: a set
over all tokens or ids, ``all`` over the groups, ``valid_token`` over the
tokens the table has not seen. Only when one fails does a per-token loop
run, and it only names the fault: the first one in ranking order, with
the item table left as a token-by-token intern would leave it.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count, filterfalse, islice, repeat
from typing import Iterable, Iterator, NoReturn


class ValidationError(ValueError):
    """Raised when tokens or ranking structure violate the model rules."""


def valid_token(token: object) -> bool:
    """True for an item token: a non-empty string without braces or whitespace.

    Whitespace is what ``str.isspace`` accepts, Unicode spaces included:
    ``str.split()`` splits at exactly those code points, so a token
    splits into itself alone when it is non-empty and holds none.
    ``ItemTable.intern``, ``build_ranking`` and ``io.parse_json`` all
    apply this rule.
    """
    return (
        isinstance(token, str)
        and token.split() == [token]
        and "{" not in token
        and "}" not in token
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

    Construction checks the whole ranking at once, with ``all`` over the
    groups and one set over their items, and sorts only the tied groups;
    the group-by-group loop runs only to name a fault. The position table
    and the length are built on first read and kept. They are not fields,
    so equality and hashing see the groups alone.
    """

    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        try:
            groups = tuple(map(tuple, self.groups))
            members = set(chain.from_iterable(groups))
        except TypeError:
            _name_shape_fault(self.groups)
        if not (groups and all(groups) and len(members) == sum(map(len, groups))):
            _name_shape_fault(groups)
        # Every group is non-empty and no item repeats, so there are more
        # items than groups exactly when some group is tied.
        if len(members) > len(groups):
            groups = tuple(g if len(g) == 1 else tuple(sorted(g)) for g in groups)
        object.__setattr__(self, "groups", groups)

    @cached_property
    def _positions(self) -> dict[int, int]:
        return {item: index for index, group in enumerate(self.groups, start=1) for item in group}

    @cached_property
    def length(self) -> int:
        return sum(map(len, self.groups))

    @property
    def is_untied(self) -> bool:
        return self.length == len(self.groups)

    def position_of(self, item: int) -> int:
        """1-based tie-group index of the item, or 0 when absent."""
        return self._positions.get(item, 0)

    def items(self) -> Iterator[int]:
        """Items in group order; members of one group come out in id order."""
        return chain.from_iterable(self.groups)

    def item_set(self) -> frozenset[int]:
        return frozenset(self.items())

    def __contains__(self, item: int) -> bool:
        return item in self._positions


def _name_shape_fault(groups: tuple[tuple[int, ...], ...]) -> NoReturn:
    """Raise the fault a group-by-group check of the groups meets first."""
    if not groups:
        raise ValidationError("empty ranking")
    seen = set()
    for group in groups:
        if not group:
            raise ValidationError("empty tie group")
        for item in group:
            if item in seen:
                raise ValidationError(f"duplicate item id {item}")
            seen.add(item)
        # Unorderable ids in a tied group fail here, where sorting that
        # group would, before any fault in a later group.
        sorted(group)
    raise AssertionError("a whole-ranking check failed on a ranking without a fault")


def build_ranking(table: ItemTable, groups: Iterable[str | Iterable[str]]) -> Ranking:
    """Intern tokens and assemble a validated Ranking.

    Each element of ``groups`` is either a single token (a singleton group)
    or an iterable of tokens forming one tie group. A repeated token is
    refused here, by name; ``Ranking`` refuses the other shape faults.

    The checks are whole-ranking tests: every token a str, no token
    twice, and ``valid_token`` on the tokens the table has not seen.
    Those are then interned in order of first appearance, and the rest
    are looked up. When a check fails, the tokens are interned one by
    one until the first fault raises, so the error and the table left
    behind are those of a token-by-token build.
    """
    groups = list(groups)
    try:
        token_groups = [(group,) if isinstance(group, str) else tuple(group) for group in groups]
    except TypeError:
        _name_token_fault(table, groups)
    tokens = list(chain.from_iterable(token_groups))
    if not (all(map(isinstance, tokens, repeat(str))) and len(set(tokens)) == len(tokens)):
        _name_token_fault(table, token_groups)
    ids = table._ids
    fresh = list(filterfalse(ids.__contains__, tokens))
    if not all(map(valid_token, fresh)):
        _name_token_fault(table, token_groups)
    ids.update(zip(fresh, count(len(table._tokens))))
    table._tokens += fresh
    flat = map(ids.__getitem__, tokens)
    if len(tokens) == len(token_groups) and all(token_groups):
        return Ranking(tuple(zip(flat)))
    # Some group is tied or empty: one shared iterator over the ids, cut to
    # the token groups' sizes.
    return Ranking(tuple(map(tuple, map(islice, repeat(flat), map(len, token_groups)))))


def _name_token_fault(table: ItemTable, groups: list[str | Iterable[str]]) -> NoReturn:
    """Intern token by token until the first fault raises."""
    seen: set[int] = set()
    for group in groups:
        for token in [group] if isinstance(group, str) else group:
            item = table.intern(token)
            if item in seen:
                raise ValidationError(f"duplicate item {token}")
            seen.add(item)
    raise AssertionError("a whole-ranking check failed on a ranking without a fault")


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
