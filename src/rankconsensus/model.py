"""Core data model: rankings with tie groups, ranking sets.

Items are their tokens: non-empty strings without braces or whitespace
(``valid_token``). Two rankings hold the same item when they hold the
same token. Rankings are purely ordinal. Each ranking is a sequence of
tie groups; a group holds one or more tokens that share the same
preference level. Positions are 1-based group indices, so an item in the
third group of a ranking has position 3 whether or not earlier groups
are tied.

A ranking stores two flat tuples: its tokens in group order and the
size of each group. Everything else is derived from them: the groups,
the per-token positions, the position table and the length. The groups,
the positions and the position table are built on first read. The
survey reads the tokens and the positions; the oracle and the baselines
read the position table.

``Ranking`` is the one place that checks a ranking, and it checks each
ranking once. Each check is a whole-ranking test made of C-level
operations: ``valid_tokens`` over the tokens, which joins them by
spaces, splits them back apart, makes two brace tests over that join
and one set. A list of bare tokens, which is what an untied line of a
document is, passes that test as it is: the join is already the test
that every group is a str. Other input is first split into groups, each
checked non-empty. Only when a check fails does a per-token loop run,
and it only names the fault: the first one in ranking order. The
parsers in ``io`` hand each line or entry to ``Ranking`` and name its
fault with the line number or JSON path.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, repeat
from typing import Iterable, Iterator, Sequence


class ValidationError(ValueError):
    """Raised when tokens or ranking structure violate the model rules."""


def valid_token(token: object) -> bool:
    """True for an item token: a non-empty string without braces or whitespace.

    Whitespace is what ``str.isspace`` accepts, Unicode spaces included:
    ``str.split()`` splits at exactly those code points, so a token
    splits into itself alone when it is non-empty and holds none.
    ``Ranking`` and ``io.parse_json`` both apply this rule, a whole list
    at a time through ``valid_tokens``.
    """
    return (
        isinstance(token, str)
        and token.split() == [token]
        and "{" not in token
        and "}" not in token
    )


def valid_tokens(tokens: list[object]) -> bool:
    """True when every token passes ``valid_token`` and none repeats.

    One whole-list test at C speed: the tokens joined by spaces split
    back into exactly the tokens when every one is a non-empty string
    without whitespace, two brace tests over the join, and one set.
    """
    try:
        joined = " ".join(tokens)  # type: ignore[arg-type]
    except TypeError:
        return False
    return (
        joined.split() == tokens
        and "{" not in joined
        and "}" not in joined
        and len(set(tokens)) == len(tokens)
    )


@dataclass(frozen=True, init=False, repr=False)
class Ranking:
    """An ordered sequence of tie groups of item tokens.

    ``Ranking(groups)`` takes an iterable of groups, each either a bare
    token (a singleton group) or an iterable of tokens forming one tie
    group. A ranking has at least one group, each group at least one
    valid token, and no token appears twice.

    It stores ``tokens``, every token in group order with the tokens of
    a tied group sorted, and ``sizes``, the number of tokens in each
    group. Sorting makes equality structural: two rankings are equal,
    and hash alike, when they place the same tokens in the same groups
    in the same order. The groups, the per-token positions and the
    position table are built from the two on first read and kept; they
    are not fields, so equality and hashing see the two tuples alone.
    """

    tokens: tuple[str, ...]
    sizes: tuple[int, ...]

    def __init__(self, groups: Iterable[str | Iterable[str]]) -> None:
        source = list(groups)
        if source and valid_tokens(source):
            # Bare tokens only, each checked by the join: an untied ranking.
            tokens = tuple(source)
            sizes = (1,) * len(tokens)
        else:
            tokens, sizes = _checked_groups(source)
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "sizes", sizes)

    def __repr__(self) -> str:
        return f"Ranking(groups={self.groups!r})"

    @cached_property
    def groups(self) -> tuple[tuple[str, ...], ...]:
        """The tie groups in order, each a tuple of its sorted tokens."""
        tokens = iter(self.tokens)
        return tuple(tuple(islice(tokens, size)) for size in self.sizes)

    @cached_property
    def positions(self) -> Sequence[int]:
        """Each token's 1-based tie-group index, in token order."""
        if self.is_untied:
            return range(1, len(self.tokens) + 1)
        return tuple(chain.from_iterable(map(repeat, range(1, len(self.sizes) + 1), self.sizes)))

    @cached_property
    def _positions(self) -> dict[str, int]:
        return dict(zip(self.tokens, self.positions))

    @property
    def length(self) -> int:
        return len(self.tokens)

    @property
    def is_untied(self) -> bool:
        return len(self.sizes) == len(self.tokens)

    def position_of(self, item: str) -> int:
        """1-based tie-group index of the item, or 0 when absent."""
        return self._positions.get(item, 0)

    def items(self) -> Iterator[str]:
        """Items in group order; members of one group come out in token order."""
        return iter(self.tokens)

    def item_set(self) -> frozenset[str]:
        return frozenset(self.tokens)

    def __contains__(self, item: str) -> bool:
        return item in self._positions


def _checked_groups(source: list[object]) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """(tokens, sizes) of groups that are not all bare tokens, or the first fault raised."""
    groups: list[tuple[str, ...]] = []
    try:
        # Documents give no bare str in a list of groups, so their groups
        # take the map with no Python step per group. A non-iterable group
        # stops the extend with the groups before it kept, so a fault among
        # them is named first.
        if any(map(isinstance, source, repeat(str))):
            groups.extend(
                (g,) if isinstance(g, str) else tuple(g) for g in source  # type: ignore[arg-type]
            )
        else:
            groups.extend(map(tuple, source))  # type: ignore[arg-type]
        tokens = list(chain.from_iterable(groups))
    except TypeError:
        _name_fault(groups)
        raise
    if not (groups and all(groups) and valid_tokens(tokens)):
        if not groups:
            raise ValidationError("empty ranking")
        _name_fault(groups)
        raise AssertionError("a whole-ranking check failed on a ranking without a fault")
    # No group is empty, so there are more tokens than groups exactly
    # when some group is tied.
    if len(tokens) > len(groups):
        groups = [g if len(g) == 1 else tuple(sorted(g)) for g in groups]
        tokens = list(chain.from_iterable(groups))
    return tuple(tokens), tuple(map(len, groups))


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
