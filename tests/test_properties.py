from __future__ import annotations

import itertools
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import replace

from rankconsensus.cli import _profiles_match
from rankconsensus.graph import Deviation, MeasureParams, survey
from rankconsensus.measures import kappa_series, kappa_sweep, measure
from rankconsensus.model import Ranking, RankingSet, ValidationError, valid_tokens
from rankconsensus.oracle import enumerate_common, oracle_profile
from rankconsensus.io import (
    ParseError,
    RankingDocument,
    RawRanking,
    _split_line,
    parse_json,
    parse_text,
)

from conftest import ALPHABET, random_set, ranking_sets
from reference import (
    char_split_line,
    serialize_json,
    serialize_text,
    stepwise_parse_json,
    stepwise_parse_text,
    to_dense,
)


@given(ranking_sets(ties=False))
@settings(max_examples=60, deadline=None)
def test_untied_positions_are_one_to_m(rset):
    for ranking in rset:
        positions = sorted(ranking.position_of(item) for item in ranking.item_set())
        assert positions == list(range(1, ranking.length + 1))


@given(ranking_sets())
@settings(max_examples=60, deadline=None)
def test_distinct_is_idempotent(rset):
    once, most = rset.distinct()
    twice, again = once.distinct()
    assert len(twice) == len(once)
    assert again == 1
    assert most >= 1


@given(ranking_sets())
@settings(max_examples=60, deadline=None)
def test_upper_triangle_is_always_zero(rset):
    matrix = survey(rset).matrix(MeasureParams(gamma=0.9, lam=0.7))
    dense = to_dense(matrix)
    n = len(matrix.diag)
    for i in range(n):
        for j in range(i + 1, n):
            assert dense[i][j] == 0


@given(ranking_sets(), st.floats(0.05, 1.0), st.floats(0.05, 1.0))
@settings(max_examples=60, deadline=None)
def test_weights_never_change_the_matrix_pattern(rset, gamma, lam):
    exact = to_dense(survey(rset).matrix(MeasureParams()))
    weighted = to_dense(survey(rset).matrix(MeasureParams(gamma=gamma, lam=lam)))
    for exact_row, weighted_row in zip(exact, weighted):
        for e, w in zip(exact_row, weighted_row):
            assert (e == 0) == (w == 0)
            assert e in (0, 1)


@given(ranking_sets(min_rankings=2), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_reordering_the_set_changes_nothing(rset, rng):
    lines = [
        [list(group) for group in ranking.groups]
        for ranking in rset
    ]
    shuffled = lines[:]
    rng.shuffle(shuffled)
    original = measure(rset, MeasureParams())
    reordered = measure(RankingSet.build(shuffled), MeasureParams())
    assert reordered.series == original.series


@given(st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_survey_gaps_are_the_per_ranking_mean(rng):
    # Differential check of the telescoped gap (S_i - S_j) / N against
    # the mean of the per-ranking gaps, recomputed from the positions.
    rset = random_set(rng)
    sv = survey(rset)
    n, N = len(sv.items), len(rset)
    positions = [[ranking.position_of(item) for item in sv.items] for ranking in rset]
    ordered = {
        (i, j)
        for i in range(n)
        for j in range(i)
        if all(p[i] > p[j] > 0 for p in positions)
    }
    assert {(i, j) for i, j, _ in sv.edges} == ordered
    for i, j, gap in sv.edges:
        assert gap == sum(abs(p[i] - p[j]) for p in positions) / N


# Grid values that hit the exact corner, the float tail at lambda = 1,
# weights near underflow and mid values; duplicates are allowed.
SWEEP_VALUES = st.sampled_from([1.0, 1e-9, 0.05, 0.3, 0.5, 0.77, 0.9, 0.999])
SWEEP_GRIDS = st.lists(SWEEP_VALUES, min_size=1, max_size=5)


@given(
    st.randoms(use_true_random=False),
    SWEEP_GRIDS,
    SWEEP_GRIDS,
    st.sampled_from([0.0, 1e-12, 0.5, 1.5, 3.0]),
    st.sampled_from(list(Deviation)),
)
@settings(max_examples=150, deadline=None)
def test_sweep_matches_the_per_point_series(rng, gammas, lams, epsilon, deviation):
    # Differential check of the separable sweep against one matrix and one
    # series per point. The epsilon values cut kappa_1 for some gammas and
    # not for others; repr tells 2 from 2.0, so the tails' types must match.
    rset = random_set(rng)
    params = MeasureParams(epsilon=epsilon, deviation=deviation)
    sv = survey(rset)
    points = kappa_sweep(sv, gammas, lams, params)
    assert [(pt.gamma, pt.lam) for pt in points] == [(g, l) for g in gammas for l in lams]
    for point in points:
        point_params = replace(params, gamma=point.gamma, lam=point.lam)
        expected = kappa_series(sv, point_params)
        assert point.profile == expected
        assert repr(point.profile) == repr(expected)


@given(
    st.randoms(use_true_random=False),
    SWEEP_GRIDS,
    SWEEP_GRIDS,
    st.sampled_from([1e-12, 0.5, 1.0, 3.0]),
)
@settings(max_examples=60, deadline=None)
def test_sweep_matches_the_oracle(rng, gammas, lams, epsilon):
    rset = random_set(rng, max_rankings=4, universe=7)
    for point in kappa_sweep(survey(rset), gammas, lams, MeasureParams(epsilon=epsilon)):
        reference = oracle_profile(
            rset, MeasureParams(gamma=point.gamma, lam=point.lam, epsilon=epsilon)
        )
        assert _profiles_match(point.profile, reference, point.profile.exact)


@given(ranking_sets(min_rankings=2))
@settings(max_examples=60, deadline=None)
def test_absent_items_zero_their_row_and_column(rset):
    sv = survey(rset)
    dense = to_dense(sv.matrix(MeasureParams()))
    for i in range(len(sv.items)):
        if not sv.common[i]:
            assert all(v == 0 for v in dense[i])
            assert all(row[i] == 0 for row in dense)


@given(ranking_sets())
@settings(max_examples=40, deadline=None)
def test_reference_choice_does_not_change_the_series(rset):
    baseline = measure(rset, MeasureParams())
    weighted_params = MeasureParams(gamma=0.85, lam=0.65, epsilon=0.0)
    weighted = measure(rset, weighted_params)
    for k in range(len(rset)):
        sv = survey(rset, k)
        exact = kappa_series(sv, MeasureParams())
        assert exact.series == baseline.series
        other = kappa_series(sv, weighted_params)
        assert other.ell == weighted.ell
        for p in range(1, weighted.ell + 1):
            a, b = weighted.value_at(p), other.value_at(p)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


@given(ranking_sets(max_rankings=3), st.permutations(ALPHABET[:6]), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_adding_a_ranking_never_increases_counts(rset, extra, size):
    rankings = [
        [list(group) for group in ranking.groups]
        for ranking in rset
    ]
    grown = RankingSet.build(rankings + [list(extra[:size])])
    before = measure(rset, MeasureParams())
    after = measure(grown, MeasureParams())
    for p in range(1, max(before.ell, after.ell) + 1):
        assert after.value_at(p) <= before.value_at(p)


@given(ranking_sets(min_rankings=2))
@settings(max_examples=40, deadline=None)
def test_smaller_weights_never_raise_kappa(rset):
    loose = measure(rset, MeasureParams(gamma=0.9, lam=0.9, epsilon=0.0))
    tight = measure(rset, MeasureParams(gamma=0.6, lam=0.5, epsilon=0.0))
    assert tight.total <= loose.total + 1e-12


@given(ranking_sets(max_rankings=3, universe=5))
@settings(max_examples=40, deadline=None)
def test_oracle_and_matrix_agree(rset):
    exact = measure(rset, MeasureParams())
    subs = enumerate_common(rset)
    by_length: dict[int, int] = {}
    for sub in subs:
        by_length[len(sub.items)] = by_length.get(len(sub.items), 0) + 1
    assert dict(enumerate(exact.series, 1)) == by_length


@given(ranking_sets(max_rankings=3, universe=6))
@settings(max_examples=80, deadline=None)
def test_levels_are_the_longest_chain_ending_at_each_item(rset):
    sv = survey(rset)
    levels = sv.levels
    assert len(levels) == len(sv.items)
    for i, mask in enumerate(sv.masks):
        if not sv.common[i]:
            assert levels[i] == 0
            continue
        below = [levels[j] for j in range(i) if mask >> j & 1]
        assert levels[i] == 1 + max(below, default=0)
    longest = max((len(sub.items) for sub in enumerate_common(rset)), default=0)
    assert max(levels, default=0) == measure(rset, MeasureParams()).ell == longest


@given(ranking_sets(max_rankings=3, universe=5))
@settings(max_examples=30, deadline=None)
def test_enumeration_is_downward_closed(rset):
    found = {sub.items for sub in enumerate_common(rset)}
    for items in found:
        for drop in range(len(items)):
            shorter = items[:drop] + items[drop + 1 :]
            if shorter:
                assert shorter in found


# The exact corner and weighted parameters with every deviation variant.
ORACLE_PARAMS = st.sampled_from(
    [
        MeasureParams(),
        MeasureParams(gamma=0.9, lam=0.8),
        MeasureParams(gamma=0.3, lam=0.99, deviation=Deviation.STD),
        MeasureParams(gamma=0.7, lam=0.5, deviation=Deviation.SQRT_MAD),
    ]
)


def _columns(rset, items):
    return [[ranking.position_of(item) for ranking in rset] for item in items]


def _strictly_ordered(columns):
    return all(
        all(pb > pa for pa, pb in zip(ca, cb)) for ca, cb in zip(columns, columns[1:])
    )


@given(st.randoms(use_true_random=False), ORACLE_PARAMS)
@settings(max_examples=100, deadline=None)
def test_enumeration_finds_exactly_the_strictly_ordered_chains(rng, params):
    # Every chain is strictly ordered in every ranking, and every such
    # subset of the reference order is found once, in (length, order) order.
    rset = random_set(rng, max_rankings=3)
    reference = rset.rankings[rset.reference_index()]
    common = [item for item in reference.tokens if all(r.position_of(item) for r in rset)]
    expected = [
        chain
        for length in range(1, len(common) + 1)
        for chain in itertools.combinations(common, length)
        if _strictly_ordered(_columns(rset, chain))
    ]
    assert [sub.items for sub in enumerate_common(rset, params=params)] == expected


@given(st.randoms(use_true_random=False), ORACLE_PARAMS)
@settings(max_examples=100, deadline=None)
def test_enumerated_weights_follow_the_positions(rng, params):
    # A singleton weighs gamma**d and a longer chain the left-to-right
    # product of lambda**gap over its consecutive pairs, both recomputed
    # here from the positions; == holds because the arithmetic is the same.
    # On the exact path every weight is the int 1.
    rset = random_set(rng, max_rankings=3)
    for sub in enumerate_common(rset, params=params):
        columns = _columns(rset, sub.items)
        if len(columns) == 1:
            column = columns[0]
            mean = sum(column) / len(column)
            mad = sum(abs(x - mean) for x in column) / len(column)
            d = {
                Deviation.MAD: mad,
                Deviation.SQRT_MAD: math.sqrt(mad),
                Deviation.STD: math.sqrt(sum((x - mean) ** 2 for x in column) / len(column)),
            }[params.deviation]
            assert sub.weight == (1 if params.exact else params.gamma**d)
            continue
        weight = 1
        for ca, cb in zip(columns, columns[1:]):
            gap = sum(abs(pb - pa) for pa, pb in zip(ca, cb)) / len(ca)
            weight = weight * (1 if params.exact else params.lam**gap)
        assert sub.weight == weight
        assert type(sub.weight) is type(weight)


@given(ranking_sets())
@settings(max_examples=40, deadline=None)
def test_single_ranking_total_is_power_of_two(rset):
    first = rset.rankings[0]
    groups = [list(group) for group in first.groups]
    alone = RankingSet.build([groups])
    if first.is_untied:
        assert measure(alone, MeasureParams()).total == 2**first.length - 1


@st.composite
def documents(draw):
    count = draw(st.integers(1, 4))
    lines = []
    for k in range(count):
        size = draw(st.integers(1, 6))
        chosen = draw(st.permutations(ALPHABET[:6]))[:size]
        label = draw(st.booleans())
        prefix = f"r{k}: " if label else ""
        lines.append(prefix + " ".join(chosen))
    return "\n".join(lines) + "\n"


@given(documents())
@settings(max_examples=60, deadline=None)
def test_parse_serialize_round_trips(text):
    doc = parse_text(text)
    assert parse_text(serialize_text(doc)).rankings == doc.rankings
    assert parse_json(serialize_json(doc)).rankings == doc.rankings


# Tokens are JSON-legal by construction; labels may be any string. Both
# draw on the characters the text format gives a meaning to.
JSON_TOKENS = st.text(alphabet="ab:#", min_size=1, max_size=3)
JSON_LABELS = st.none() | st.text(alphabet="ab:# {}\u2028", max_size=3)


@st.composite
def json_documents(draw):
    entries = []
    labels = set()
    for _ in range(draw(st.integers(1, 3))):
        tokens = draw(st.lists(JSON_TOKENS, min_size=1, max_size=4, unique=True))
        cuts = draw(st.lists(st.booleans(), min_size=len(tokens) - 1, max_size=len(tokens) - 1))
        groups = [[tokens[0]]]
        for token, cut in zip(tokens[1:], cuts):
            if cut:
                groups.append([token])
            else:
                groups[-1].append(token)
        entry: dict[str, object] = {"groups": groups}
        label = draw(JSON_LABELS)
        if label is not None and label not in labels:
            labels.add(label)
            entry["label"] = label
        entries.append(entry)
    return parse_json(json.dumps({"rankings": entries}))


@given(json_documents())
@settings(max_examples=300, deadline=None)
def test_text_serialization_round_trips_or_refuses(doc):
    try:
        text = serialize_text(doc)
    except ValueError:
        return
    assert parse_text(text) == doc


ASCII_WHITESPACE = " \t\n\r\x0b\x0c"
UNICODE_WHITESPACE = "\u00a0\u2003"


@given(st.text(alphabet="ab:{}" + ASCII_WHITESPACE + UNICODE_WHITESPACE, max_size=4))
@settings(max_examples=300, deadline=None)
def test_one_token_rule_for_the_model_and_json(token):
    forbidden = set("{}" + ASCII_WHITESPACE + UNICODE_WHITESPACE)
    expected = bool(token) and not forbidden.intersection(token)
    try:
        Ranking([token])
        built = True
    except ValidationError:
        built = False
    try:
        parse_json(json.dumps({"rankings": [{"groups": [[token]]}]}))
        parsed = True
    except ParseError:
        parsed = False
    assert valid_tokens([token]) == built == parsed == expected


def _parsed(parse, content):
    try:
        return parse(content)
    except ParseError as exc:
        return type(exc), str(exc)


# Every kind of bad token: empty, with whitespace or braces, or not a
# string at all.
BAD_TOKENS = ["", "a b", "\u2003", "{", "x}", 3, None, ["a"], {"a": 1}, 1.5, True]
# Groups that are not lists: a str token, other JSON values, and false
# ones that an emptiness test alone would take for an empty group.
NON_LIST_GROUPS = ["a", 7, None, {"a": "b"}, "", 0, {}, False]


@st.composite
def json_entries(draw):
    """A ranking entry: well formed, or with faults put in at drawn places.

    The faults are a bad token (a str that breaks the token rule, or no
    str at all), a repeated token, a token repeated in another group, an
    empty group and a group that is not a list (some of them empty or
    false); an entry may hold none or up to three of them. Now and then
    the entry itself is malformed instead.
    """
    tokens = draw(st.permutations("abcdef"))[: draw(st.integers(1, 6))]
    groups: list[object] = [[tokens[0]]]
    for token in tokens[1:]:
        if draw(st.booleans()):
            groups.append([token])
        else:
            groups[-1].append(token)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        fault = draw(st.sampled_from(["token", "repeat", "across", "empty", "non-list"]))
        where = draw(st.integers(0, len(groups)))
        if fault == "empty":
            groups.insert(where, [])
        elif fault == "non-list":
            groups.insert(where, draw(st.sampled_from(NON_LIST_GROUPS)))
        elif fault == "across":
            # A token of one group, or a bad token, also put in a group
            # of its own elsewhere.
            lists = [g for g in groups if isinstance(g, list) and g]
            source = draw(st.sampled_from(lists or [[3]]))
            groups.insert(where, [draw(st.sampled_from(source))])
        else:
            token = draw(st.sampled_from(BAD_TOKENS if fault == "token" else tokens))
            group = groups[min(where, len(groups) - 1)]
            if isinstance(group, list):
                group.insert(draw(st.integers(0, len(group))), token)
    entry: dict[str, object] = {"groups": groups}
    label = draw(st.none() | st.sampled_from(["x", "y", 1]))
    if label is not None:
        entry["label"] = label
    odd = [{"label": "z"}, {"groups": []}, {"groups": "a"}, [], "entry"]
    return draw(st.sampled_from([entry] * 10 + odd))


@given(st.lists(json_entries(), max_size=4))
@settings(max_examples=500, deadline=None)
def test_parse_json_matches_the_token_loop(entries):
    content = json.dumps({"rankings": entries})
    assert _parsed(parse_json, content) == _parsed(stepwise_parse_json, content)


def _read(parse, content):
    """Each ranking's label and groups, or the type and message of the parse error."""
    try:
        document = parse(content)
    except ParseError as exc:
        return type(exc), str(exc)
    return [(raw.label, raw.ranking.groups) for raw in document.rankings]


# Tokens, labels (an empty one among them), singleton and tied groups,
# repeats, stray, nested and glued braces, and comments.
TEXT_PIECES = st.sampled_from(
    ["a", "b", "c", "a", "b", "x:", "y:", ":", "{a}", "{b}", "{a b}", "{c a}", "{b c}",
     "{}", "{", "}", "{a {b}}", "a{b}", "a}", "# c {", "#"]
)
TEXT_SEPARATORS = st.sampled_from([" ", " ", "  ", "\t", "\u2028", "\x1c"])
LINE_ENDS = st.sampled_from(["\n", "\n", "\r\n", "\r"])


@st.composite
def text_documents(draw):
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        pieces = draw(st.lists(TEXT_PIECES, max_size=6))
        separators = draw(st.lists(TEXT_SEPARATORS, min_size=len(pieces), max_size=len(pieces)))
        lines.append("".join(sep + piece for sep, piece in zip(separators, pieces)))
        lines.append(draw(LINE_ENDS))
    return "".join(lines)


@given(text_documents())
@settings(max_examples=1000, deadline=None)
def test_parse_text_matches_the_stepwise_parser(content):
    assert _read(parse_text, content) == _read(stepwise_parse_text, content)


def test_parse_text_matches_the_stepwise_parser_on_every_short_document():
    for size in range(6):
        for chars in itertools.product("a{} :\r", repeat=size):
            content = "".join(chars)
            assert _read(parse_text, content) == _read(stepwise_parse_text, content)


# Plain documents: no brace, "#" or "\r" anywhere, so every line is its
# split(). Tokens with characters that are neither printable nor
# whitespace, repeats, and the label forms x:, :, x:: and y:.
PLAIN_TOKENS = st.sampled_from(
    ["a", "b", "a", "b", "c", "a\x00", "\u200bb", "\ufeff", "c\u200b\ufeff"]
    + ["x:", ":", "x::", "y:"]
)
# Separators within a line; \x85 and \u2028 end no line.
PLAIN_SEPARATORS = st.sampled_from(
    [" ", "  ", "   ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", ""]
)


@st.composite
def plain_documents(draw):
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        tokens = draw(st.lists(PLAIN_TOKENS, max_size=5))
        # Blank lines, whitespace-only lines and label-only lines among them.
        size = len(tokens) + 1
        separators = draw(st.lists(PLAIN_SEPARATORS, min_size=size, max_size=size))
        lines.append("".join(map("".join, zip(separators, tokens))) + separators[-1])
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def _plain_read(parse, content):
    """Each ranking's label, tokens, sizes and ranking, or the type and message of the error."""
    try:
        document = parse(content)
    except ParseError as exc:
        return type(exc), str(exc)
    return [
        (raw.label, raw.ranking.tokens, raw.ranking.sizes, raw.ranking)
        for raw in document.rankings
    ]


@given(plain_documents())
@settings(max_examples=1000, deadline=None)
def test_plain_documents_match_the_stepwise_parser(content):
    assert not set("{}#\r") & set(content)
    read, expected = _plain_read(parse_text, content), _plain_read(stepwise_parse_text, content)
    assert read == expected
    if isinstance(read, list):
        for (*_, ranking), (*_, reference) in zip(read, expected):
            assert ranking.is_untied
            assert hash(ranking) == hash(reference)


def _char_tokens_and_sizes(line, lineno):
    """char_split_line's groups as _split_line gives them: tokens in line order, group sizes."""
    groups = [(g,) if isinstance(g, str) else g for g in char_split_line(line, lineno)]
    return list(itertools.chain.from_iterable(groups)), tuple(map(len, groups))


def _tokenized(split_line, line):
    try:
        return split_line(line, 3)
    except ParseError as exc:
        return str(exc)


# Braces, a label colon and a comment sign, which _split_line leaves in
# tokens, with whitespace that str.split() and str.isspace() both accept.
LINE_ALPHABET = "ab:#{}" + ASCII_WHITESPACE + "\x1c\u00a0\u2028"


@given(st.text(alphabet=LINE_ALPHABET, max_size=30))
@settings(max_examples=500, deadline=None)
def test_split_line_matches_the_character_loop(line):
    assert _tokenized(_split_line, line) == _tokenized(_char_tokens_and_sizes, line)


def test_split_line_matches_the_character_loop_on_every_short_line():
    for size in range(7):
        for chars in itertools.product("a{} ", repeat=size):
            line = "".join(chars)
            assert _tokenized(_split_line, line) == _tokenized(_char_tokens_and_sizes, line)


# Tie groups, labels, repeats and comment signs, between the separators
# that end no line, those of test_other_line_breaks_separate_tokens among them.
SPLIT_PIECES = st.sampled_from(
    ["a", "b", "a#", "x:", ":", "{a}", "{a b}", "{b: a}", "{ a\x85b }", "{", "}", "a{b}"]
)
SPLIT_SEPARATORS = st.sampled_from(
    [" ", "\t", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\u3000"]
)


@given(st.lists(st.tuples(SPLIT_SEPARATORS, SPLIT_PIECES), max_size=8), SPLIT_SEPARATORS)
@settings(max_examples=1000, deadline=None)
def test_every_token_of_a_split_line_passes_the_token_rule(pieces, end):
    # parse_text builds each line's Ranking with no token check; this is
    # the fact that lets it.
    line = "".join(map("".join, pieces)) + end
    try:
        tokens, sizes = _split_line(line, 1)
    except ParseError:
        return
    assert all(valid_tokens([token]) for token in tokens)
    assert valid_tokens(list(dict.fromkeys(tokens)))
    assert all(sizes) and sum(sizes) == len(tokens)


# Declared labels are unique, as both parsers require; the candidates
# include the indices and their "#" forms so that collisions are common.
DECLARED_LABELS = st.lists(
    st.none() | st.sampled_from(["1", "2", "3", "#1", "#2", "##2", "x"]), max_size=7
).map(lambda labels: [None if label in labels[:k] else label for k, label in enumerate(labels)])


@given(DECLARED_LABELS)
@settings(max_examples=200, deadline=None)
def test_display_labels_are_pairwise_distinct(declared):
    document = RankingDocument(tuple(RawRanking(label, Ranking(["a"])) for label in declared))
    labels = document.labels()
    assert len(set(labels)) == len(labels)
    assert all(shown == label for shown, label in zip(labels, declared) if label is not None)
    indices = [label if label is not None else str(k + 1) for k, label in enumerate(declared)]
    if len(set(indices)) == len(indices):
        assert labels == indices
