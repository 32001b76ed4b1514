"""Core data model: rankings with tie groups, ranking sets.

Items are their tokens: non-empty strings without braces or whitespace
(``valid_tokens``). Two rankings hold the same item when they hold the
same token. Rankings are purely ordinal. Each ranking is a sequence of
tie groups; a group holds one or more tokens that share the same
preference level. Positions are 1-based group indices, so an item in the
third group of a ranking has position 3 whether or not earlier groups
are tied.

A ranking stores two flat tuples: its tokens in group order and the
size of each group. Everything else is derived from them: the groups,
the per-token positions, the position table and the length. The groups,
a tied ranking's positions and the position table are built on first
read and kept; an untied ranking's positions are ``range(1, m + 1)``,
made on each read. The survey reads the tokens, and a tied ranking's
positions; the oracle and the baselines read the position table.

The token rule is stated once, in ``valid_tokens``, a whole-list test
made of C-level operations. ``io.parse_json`` applies it once to each
entry's groups flattened into tokens. ``Ranking(groups)`` applies it to
library input: a list that starts with a str is first offered whole, as
bare tokens (the join inside the test is already the test that every
group is a str); other input, or a list that test refuses, is split
into groups, each checked non-empty, and its tokens are tested once.
Only when a check fails does ``_first_fault`` walk the groups, to find
the first fault in ranking order, which each caller words.

A text line needs no token check: every token that ``str.split()``
makes from brace-free text is non-empty and holds no whitespace and no
brace, so it passes ``valid_tokens``, as the rule's corollary rather
than a second statement of it. ``io.parse_text`` tests a line's tokens
for a repeat with one set and builds its ``Ranking`` with
``Ranking._unchecked``; only a line with a repeat goes to ``Ranking``,
which names it.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, islice, repeat
from typing import Iterable, Iterator, Sequence


class ValidationError(ValueError):
    """Raised when tokens or ranking structure violate the model rules."""


def valid_tokens(tokens: list[object]) -> bool:
    """True when each token is a non-empty str without braces or whitespace, none repeated.

    Whitespace is what ``str.isspace`` accepts, Unicode spaces included:
    ``str.split()`` splits at exactly those code points. So the tokens
    joined by spaces split back into exactly the tokens when every one
    is a non-empty string without whitespace; with two brace tests over
    the join and one set, that is one whole-list test at C speed.
    ``Ranking`` and ``io.parse_json`` apply this rule, no text line
    reaches it, and a single token is tested as ``valid_tokens([token])``.
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
    in the same order. The groups, a tied ranking's per-token positions
    and the position table are built from the two on first read and
    kept; they are not fields, so equality and hashing see the two
    tuples alone.
    """

    tokens: tuple[str, ...]
    sizes: tuple[int, ...]

    def __init__(self, groups: Iterable[str | Iterable[str]]) -> None:
        self._store(*_checked_groups(list(groups)))

    @classmethod
    def _unchecked(cls, tokens: list[str], sizes: Sequence[int]) -> "Ranking":
        """The ranking of valid, distinct tokens in groups of these sizes; no check runs."""
        ranking = object.__new__(cls)
        ranking._store(tokens, sizes)
        return ranking

    def _store(self, tokens: list[str], sizes: Sequence[int]) -> None:
        # Sort each tied group in place; only a tied ranking has fewer groups than tokens.
        if len(sizes) < len(tokens):
            for end, size in zip(accumulate(sizes), sizes):
                if size > 1:
                    tokens[end - size : end] = sorted(tokens[end - size : end])
        object.__setattr__(self, "tokens", tuple(tokens))
        object.__setattr__(self, "sizes", tuple(sizes))

    def __repr__(self) -> str:
        return f"Ranking(groups={self.groups!r})"

    @cached_property
    def groups(self) -> tuple[tuple[str, ...], ...]:
        """The tie groups in order, each a tuple of its sorted tokens."""
        tokens = iter(self.tokens)
        return tuple(tuple(islice(tokens, size)) for size in self.sizes)

    @property
    def positions(self) -> Sequence[int]:
        """Each token's 1-based tie-group index, in token order."""
        if self.is_untied:
            return range(1, len(self.tokens) + 1)
        return self._tied_positions

    @cached_property
    def _tied_positions(self) -> tuple[int, ...]:
        return tuple(chain.from_iterable(map(repeat, range(1, len(self.sizes) + 1), self.sizes)))

    @cached_property
    def _positions(self) -> dict[str, int]:
        return dict(zip(self.tokens, self.positions))

    @property
    def length(self) -> int:
        """The number of tokens."""
        return len(self.tokens)

    @property
    def is_untied(self) -> bool:
        """True when every group holds one token."""
        return len(self.sizes) == len(self.tokens)

    def position_of(self, item: str) -> int:
        """1-based tie-group index of the item, or 0 when absent."""
        return self._positions.get(item, 0)

    def items(self) -> Iterator[str]:
        """Items in group order; members of one group come out in token order."""
        return iter(self.tokens)

    def item_set(self) -> frozenset[str]:
        """The tokens as a set."""
        return frozenset(self.tokens)


def _checked_groups(source: list[object]) -> tuple[list[str], Sequence[int]]:
    """(tokens, sizes) of the groups, or the first fault raised."""
    if source and isinstance(source[0], str) and valid_tokens(source):
        # Bare tokens only, each checked by the join: an untied ranking.
        return source, (1,) * len(source)  # type: ignore[return-value]
    groups: list[list[str]] = []
    try:
        # A non-iterable group stops the extend with the groups before it
        # kept, so a fault among them is named first.
        groups.extend(
            [g] if isinstance(g, str) else list(g) for g in source  # type: ignore[arg-type]
        )
        tokens = list(chain.from_iterable(groups))
    except TypeError:
        _name_fault(groups)
        raise
    if not (groups and all(groups) and valid_tokens(tokens)):
        if not groups:
            raise ValidationError("empty ranking")
        _name_fault(groups)
        raise AssertionError("a whole-ranking check failed on a ranking without a fault")
    return tokens, list(map(len, groups))


def _first_fault(groups: Sequence[object]) -> tuple[str, int, object] | None:
    """The first fault in ranking order as (kind, group index, token), or None.

    The kinds, in the order each group is tested: "group" (not a list),
    "empty", then per token "token" (fails ``valid_tokens``) and "repeat".
    """
    seen = set()
    for g, group in enumerate(groups):
        if not isinstance(group, list):
            return "group", g, group
        if not group:
            return "empty", g, None
        for token in group:
            if not valid_tokens([token]):
                return "token", g, token
            if token in seen:
                return "repeat", g, token
            seen.add(token)
    return None


# How Ranking words each fault kind; its groups are always lists.
_FAULTS = {
    "empty": "empty tie group",
    "token": "invalid item token {!r}: tokens are non-empty strings without whitespace or braces",
    "repeat": "duplicate item {}",
}


def _name_fault(groups: Sequence[object]) -> None:
    """Raise the first fault of the groups in ranking order, if they hold one."""
    fault = _first_fault(groups)
    if fault:
        kind, _, token = fault
        raise ValidationError(_FAULTS[kind].format(token))


@dataclass(frozen=True, eq=False)
class RankingSet:
    """An ordered multiset of rankings."""

    rankings: tuple[Ranking, ...]

    def __post_init__(self) -> None:
        if not self.rankings:
            raise ValidationError("empty ranking set")

    @classmethod
    def build(cls, rankings: Iterable[Iterable[str | Iterable[str]]]) -> "RankingSet":
        """The set of ``Ranking(groups)`` for each element, in order."""
        return cls(tuple(map(Ranking, rankings)))

    def __len__(self) -> int:
        return len(self.rankings)

    def __iter__(self) -> Iterator[Ranking]:
        return iter(self.rankings)

    def reference_index(self) -> int:
        """Index of the ranking with the fewest items; earlier wins a tie."""
        return min(range(len(self.rankings)), key=lambda k: self.rankings[k].length)

    def distinct(self) -> tuple["RankingSet", int]:
        """Deduplicated copy plus the largest multiplicity s."""
        counts = Counter(self.rankings)
        return RankingSet(tuple(counts)), max(counts.values())
