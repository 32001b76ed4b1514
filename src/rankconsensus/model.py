"""Core data model: rankings with tie groups, ranking sets.

Items are their tokens: non-empty strings without braces or whitespace
(``valid_token``). Two rankings hold the same item when they hold the
same token. Rankings are purely ordinal. Each ranking is a sequence of
tie groups; a group holds one or more tokens that share the same
preference level. Positions are 1-based group indices, so an item in the
third group of a ranking has position 3 whether or not earlier groups
are tied. A ranking builds its position table and its length on first
read. The survey reads no position table; the oracle and the baselines
do, and ``RankingSet.reference_index`` reads the length.

``Ranking`` is the one place that checks a ranking. Each check is a
whole-ranking test made of C-level operations: ``all`` over the groups,
the tokens joined by spaces and split back apart, two brace tests over
that join, and one set over the tokens. Only when one fails does a
per-token loop run, and it only names the fault: the first one in
ranking order.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import Iterable, Iterator


class ValidationError(ValueError):
    """Raised when tokens or ranking structure violate the model rules."""


def valid_token(token: object) -> bool:
    """True for an item token: a non-empty string without braces or whitespace.

    Whitespace is what ``str.isspace`` accepts, Unicode spaces included:
    ``str.split()`` splits at exactly those code points, so a token
    splits into itself alone when it is non-empty and holds none.
    ``Ranking`` and ``io.parse_json`` both apply this rule.
    """
    return (
        isinstance(token, str)
        and token.split() == [token]
        and "{" not in token
        and "}" not in token
    )


@dataclass(frozen=True)
class Ranking:
    """An ordered sequence of tie groups of item tokens.

    ``Ranking(groups)`` takes an iterable of groups, each either a bare
    token (a singleton group) or an iterable of tokens forming one tie
    group. A ranking has at least one group, each group at least one
    valid token, and no token appears twice. Tied groups are stored with
    their tokens sorted, which makes equality structural: two rankings
    are equal when they place the same tokens in the same groups in the
    same order.

    The position table and the length are built on first read and kept.
    They are not fields, so equality and hashing see the groups alone.
    """

    groups: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        source = tuple(self.groups)
        groups: list[tuple[str, ...]] = []
        try:
            # Documents give no bare str, so their groups take the map with
            # no Python step per group. A non-iterable group stops the
            # extend with the groups before it kept, so a fault among them
            # is named first.
            if any(map(isinstance, source, repeat(str))):
                groups.extend((g,) if isinstance(g, str) else tuple(g) for g in source)
            else:
                groups.extend(map(tuple, source))
            tokens = list(chain.from_iterable(groups))
            joined = " ".join(tokens)
        except TypeError:
            _name_fault(groups)
            raise
        # The join splits back into the tokens exactly when none is empty
        # or holds whitespace.
        if not (
            groups
            and all(groups)
            and joined.split() == tokens
            and "{" not in joined
            and "}" not in joined
            and len(set(tokens)) == len(tokens)
        ):
            if not groups:
                raise ValidationError("empty ranking")
            _name_fault(groups)
            raise AssertionError("a whole-ranking check failed on a ranking without a fault")
        # No group is empty, so there are more tokens than groups exactly
        # when some group is tied.
        if len(tokens) > len(groups):
            groups = [g if len(g) == 1 else tuple(sorted(g)) for g in groups]
        object.__setattr__(self, "groups", tuple(groups))

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {item: index for index, group in enumerate(self.groups, start=1) for item in group}

    @cached_property
    def length(self) -> int:
        return sum(map(len, self.groups))

    @property
    def is_untied(self) -> bool:
        return self.length == len(self.groups)

    def position_of(self, item: str) -> int:
        """1-based tie-group index of the item, or 0 when absent."""
        return self._positions.get(item, 0)

    def items(self) -> Iterator[str]:
        """Items in group order; members of one group come out in token order."""
        return chain.from_iterable(self.groups)

    def item_set(self) -> frozenset[str]:
        return frozenset(self.items())

    def __contains__(self, item: str) -> bool:
        return item in self._positions


def _name_fault(groups: list[tuple[object, ...]]) -> None:
    """Raise the first fault of the groups in ranking order, if they hold one."""
    seen = set()
    for group in groups:
        if not group:
            raise ValidationError("empty tie group")
        for token in group:
            if not valid_token(token):
                raise ValidationError(
                    f"invalid item token {token!r}: tokens are non-empty strings"
                    " without whitespace or braces"
                )
            if token in seen:
                raise ValidationError(f"duplicate item {token}")
            seen.add(token)


@dataclass(frozen=True, eq=False)
class RankingSet:
    """An ordered multiset of rankings."""

    rankings: tuple[Ranking, ...]

    def __post_init__(self) -> None:
        if not self.rankings:
            raise ValidationError("empty ranking set")

    @classmethod
    def build(cls, rankings: Iterable[Iterable[str | Iterable[str]]]) -> "RankingSet":
        return cls(tuple(map(Ranking, rankings)))

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
        return RankingSet(unique), max(counts.values())
