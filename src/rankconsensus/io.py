r"""Ranking file formats, bundled datasets, and result serialization.

Text format, one ranking per line:

    label: item item {tied tied} item   # comment

The leading ``label:`` is optional (any first token ending in a colon is
taken as a label), braces group tied items, ``#`` starts a comment and
blank lines are skipped. A line ends at ``\n``, ``\r\n`` or ``\r``, the
line ends that ``Path.read_text`` and editors agree on, and the line
numbers in error messages count those. Every other whitespace character,
``\f``, ``\x1c`` and ``\u2028`` among them, separates tokens within
a line.

The JSON format is an object with a "rankings" list of
{"label": ..., "groups": [[token, ...], ...]} entries. Both describe the
same model, and every text document round-trips through JSON. The
library writes no ranking file; the round-trip tests write them with
``serialize_text`` and ``serialize_json`` from ``tests/reference.py``.
JSON can hold more: a token or label with "#", a label that is empty or
holds whitespace or braces, and an unlabelled ranking that starts with a
token ending in ":". That text writer refuses those.

Both parsers build each line's or entry's ``model.Ranking`` once: a
``RawRanking`` holds the label and the ``Ranking``, and
``RankingDocument.to_ranking_set`` wraps those same objects. A text
line is split by ``_split_line`` and, unless one set finds a repeat in
it, built by ``Ranking._unchecked`` with no token check (see ``model``);
a JSON entry is checked once, by ``Ranking``. The parser names a fault
with its line number or JSON path.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Context, Decimal
from enum import Enum
from importlib import resources
from itertools import repeat
from typing import NoReturn

from .graph import MeasureParams
from .measures import KappaProfile, SweepPoint
from .model import Ranking, RankingSet, ValidationError, valid_tokens


class ParseError(ValueError):
    """Malformed ranking input; the message carries line or path context."""


@dataclass(frozen=True)
class RawRanking:
    """One line or entry of a document: its declared label, if any, and its ranking.

    The parser builds the ``Ranking`` once, and
    ``RankingDocument.to_ranking_set`` hands the same object on.
    """

    label: str | None
    ranking: Ranking


@dataclass(frozen=True)
class RankingDocument:
    """A parsed ranking file: its lines or entries, in order."""

    rankings: tuple[RawRanking, ...]

    def labels(self) -> list[str]:
        """Display labels: the declared ones, 1-based indices otherwise.

        Declared labels keep their text. An index that some ranking
        declares as its label gets "#" prefixed until no label has it, so
        a document whose declared labels differ gets distinct labels.
        """
        labels = [
            raw.label if raw.label is not None else str(k + 1)
            for k, raw in enumerate(self.rankings)
        ]
        declared = {raw.label for raw in self.rankings}
        taken = set(labels)
        for k, raw in enumerate(self.rankings):
            if raw.label is None and labels[k] in declared:
                while labels[k] in taken:
                    labels[k] = "#" + labels[k]
                taken.add(labels[k])
        return labels

    def to_ranking_set(self) -> RankingSet:
        """The document's own ``Ranking`` objects as a set; none is built or checked again."""
        return RankingSet(tuple(raw.ranking for raw in self.rankings))


def _split_line(line: str, lineno: int) -> tuple[list[str], tuple[int, ...]]:
    """A line's tokens in line order and the size of each of its groups.

    Each piece after a "{" opens a tie group that its first "}" closes;
    the text after that "}", like the text before the first "{", holds
    bare tokens, each a group of one. A brace-free line is its
    ``split()``. The brace checks run in line order, so the first fault
    in the line is the one reported. Every token is a ``split()`` piece
    of brace-free text, so it passes ``model.valid_tokens``.
    """
    if "{" not in line and "}" not in line:
        tokens = line.split()
        return tokens, (1,) * len(tokens)
    tokens = []
    sizes: list[int] = []
    pieces = line.split("{")
    last = len(pieces) - 1
    for k, piece in enumerate(pieces):
        if k:
            inner, closed, piece = piece.partition("}")
            if not closed:
                fault = "nested" if k < last else "unbalanced"
                raise ParseError(f"{fault} braces at line {lineno}")
            members = inner.split()
            if not members:
                raise ParseError(f"empty tie group at line {lineno}")
            tokens += members
            sizes.append(len(members))
        if "}" in piece:
            raise ParseError(f"unbalanced braces at line {lineno}")
        bare = piece.split()
        tokens += bare
        sizes += [1] * len(bare)
        if k < last and piece and not piece[-1].isspace():
            raise ParseError(f"brace must start a token at line {lineno}")
    return tokens, tuple(sizes)


def parse_text(content: str) -> RankingDocument:
    """Read the text format; a fault raises ParseError with its line number.

    Each line, up to its first "#", goes to ``_split_line``; a line with
    no tokens is skipped. The first token is the label when it ends in
    ":" and the line does not start with "{". A line whose tokens one set
    finds distinct becomes ``Ranking._unchecked(tokens, sizes)``; a line
    with a repeat goes to ``Ranking``, which names the first one.
    """
    if "\r" in content:
        content = content.replace("\r\n", "\n").replace("\r", "\n")
    rankings: list[RawRanking] = []
    labels_seen: set[str] = set()
    for lineno, line in enumerate(content.split("\n"), start=1):
        tokens, sizes = _split_line(line.partition("#")[0], lineno)
        if not tokens:
            continue
        label = None
        if tokens[0].endswith(":") and not line.lstrip().startswith("{"):
            label = tokens[0][:-1]
            if not label:
                raise ParseError(f"empty label at line {lineno}")
            if label in labels_seen:
                raise ParseError(f"duplicate label {label} at line {lineno}")
            labels_seen.add(label)
            tokens, sizes = tokens[1:], sizes[1:]
            if not tokens:
                raise ParseError(f"empty ranking at line {lineno}")
        if len(set(tokens)) < len(tokens):
            try:
                Ranking(tokens)
            except ValidationError as exc:
                raise ParseError(f"{exc} at line {lineno}") from None
        rankings.append(RawRanking(label=label, ranking=Ranking._unchecked(tokens, sizes)))
    return RankingDocument(rankings=tuple(rankings))


def _json_fail(path: str, message: str) -> ParseError:
    return ParseError(f"{path}: {message}")


def parse_json(content: str) -> RankingDocument:
    """Read the JSON format; a fault raises ParseError with its JSON path.

    Each entry's groups must all be lists, which one ``isinstance`` map
    tests; then they go to ``Ranking`` as they are. Only when either
    refuses them does a loop over the tokens run, to name the first
    fault with its path.
    """
    # Besides JSONDecodeError, integers past the interpreter's digit limit
    # raise ValueError and very deep nesting raises RecursionError.
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
        if not all(map(isinstance, raw_groups, repeat(list))):
            _name_json_fault(raw_groups, path)
        try:
            ranking = Ranking(raw_groups)
        except ValidationError:
            _name_json_fault(raw_groups, path)
        rankings.append(RawRanking(label=label, ranking=ranking))
    return RankingDocument(rankings=tuple(rankings))


def _name_json_fault(raw_groups: list[object], path: str) -> NoReturn:
    """Raise the entry's first fault in group and token order."""
    seen_tokens: set[str] = set()
    for g, raw_group in enumerate(raw_groups):
        gpath = f"{path}.groups[{g}]"
        if not isinstance(raw_group, list):
            raise _json_fail(gpath, "expected a list of tokens")
        if not raw_group:
            raise _json_fail(gpath, "empty tie group")
        for token in raw_group:
            if not valid_tokens([token]):
                raise _json_fail(gpath, f"invalid token {token!r}")
            if token in seen_tokens:
                raise _json_fail(path, f"duplicate item {token}")
            seen_tokens.add(token)
    raise AssertionError("an entry that failed a check has no fault")


class Dataset(str, Enum):
    """The bundled ranking sets, by file name."""

    CLUSTERING = "clustering"
    CLUSTERING_GA = "clustering_ga"
    CLUSTERING_CE = "clustering_ce"
    SEARCH_GOOGLE = "search_google"
    SEARCH_BING = "search_bing"


def _data_text(filename: str) -> str:
    return (resources.files(__package__) / "data" / filename).read_text(encoding="utf-8")


def load_dataset(name: Dataset | str) -> RankingDocument:
    """Parse a bundled ranking set; an unknown name raises ValueError."""
    dataset = Dataset(name)
    return parse_text(_data_text(f"{dataset.value}.txt"))


REFERENCE_TABLES = ("ce", "ga", "google", "bing")


def load_reference_sweep(name: str) -> tuple[list[float], list[float], list[list[float]]]:
    """Bundled reference kappa table: (gammas, lambdas, grid[gamma][lambda])."""
    if name not in REFERENCE_TABLES:
        raise ValueError(f"unknown reference table: {name!r}")
    lines = _data_text(f"reference_{name}.csv").strip().splitlines()
    lams = [float(cell) for cell in lines[0].split(",")[1:]]
    gammas = []
    grid = []
    for line in lines[1:]:
        cells = line.split(",")
        gammas.append(float(cells[0]))
        grid.append([float(cell) for cell in cells[1:]])
    return gammas, lams, grid


def round3(value: int | float) -> str:
    """Three decimals, halves away from zero, as the reference tables print.

    An int is written as its digits, so an exact count past the float
    range keeps every digit instead of being rounded or overflowing. A
    float has at most 309 digits before the point, more than the default
    context's 28, so the rounding runs at a precision that holds them all.
    A non-finite float is written as its repr, as the csv output writes it.
    """
    if isinstance(value, int):
        return f"{value}.000"
    if not math.isfinite(value):
        return repr(value)
    quantum = Decimal("0.001")
    return str(
        Decimal(repr(float(value))).quantize(
            quantum, rounding=ROUND_HALF_UP, context=Context(prec=320)
        )
    )


def _params_payload(params: MeasureParams) -> dict[str, object]:
    return {
        "gamma": params.gamma,
        "lambda": params.lam,
        "epsilon": params.epsilon,
        "deviation": params.deviation.value,
        "zeta": params.zeta,
        "beta": params.beta,
    }


def profile_json(
    profile: KappaProfile, params: MeasureParams, extras: dict[str, object] | None = None
) -> str:
    payload: dict[str, object] = {
        "params": _params_payload(params),
        "kappa_series": [[p, value] for p, value in profile.series],
        "ell": profile.ell,
        "kappa_total": profile.total,
    }
    if extras:
        payload.update(extras)
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def profile_csv(
    profile: KappaProfile, params: MeasureParams, extras: dict[str, object] | None = None
) -> str:
    extras = extras or {}
    header = ["gamma", "lambda", "kappa"] + list(extras)
    row = [repr(params.gamma), repr(params.lam), repr(profile.total)]
    row += [repr(v) for v in extras.values()]
    return ",".join(header) + "\n" + ",".join(row) + "\n"


def profile_table(
    profile: KappaProfile, params: MeasureParams, extras: dict[str, object] | None = None
) -> str:
    def shown(value: int | float) -> str:
        return str(value) if isinstance(value, int) else round3(value)

    lines = ["p kappa_p"]
    for p, value in profile.series:
        lines.append(f"{p} {shown(value)}")
    lines.append(f"ell {profile.ell}")
    lines.append(f"kappa {shown(profile.total)}")
    for key, value in (extras or {}).items():
        lines.append(f"{key} {shown(value)}")
    return "\n".join(lines) + "\n"


def sweep_csv(points: list[SweepPoint], per_p: list[int] | None = None) -> str:
    header = ["gamma", "lambda", "kappa"]
    if per_p:
        header += [f"kappa_{p}" for p in per_p]
    lines = [",".join(header)]
    for point in points:
        row = [repr(point.gamma), repr(point.lam), repr(point.profile.total)]
        if per_p:
            row += [repr(point.profile.value_at(p)) for p in per_p]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def sweep_table(points: list[SweepPoint]) -> str:
    """Grid as gamma rows by lambda columns, three-decimal cells."""
    gammas = list(dict.fromkeys(point.gamma for point in points))
    lams = list(dict.fromkeys(point.lam for point in points))
    values = {(point.gamma, point.lam): point.profile.total for point in points}
    head = ["gamma\\lambda"] + [repr(lam) for lam in lams]
    body = []
    for gamma in gammas:
        body.append([repr(gamma)] + [round3(values[(gamma, lam)]) for lam in lams])
    widths = [max(len(row[c]) for row in [head] + body) for c in range(len(head))]
    lines = []
    for row in [head] + body:
        lines.append("  ".join(cell.rjust(widths[c]) for c, cell in enumerate(row)))
    return "\n".join(lines) + "\n"


def write_results(
    result: KappaProfile | list[SweepPoint],
    fmt: str,
    params: MeasureParams | None = None,
    per_p: list[int] | None = None,
    extras: dict[str, object] | None = None,
) -> str:
    """Render a profile or a sweep in one of json, csv, table.

    JSON has no word for a non-finite float, so json raises ValueError on
    an inf or nan value; csv and table write it as ``inf`` or ``nan``.
    """
    if fmt not in ("json", "csv", "table"):
        raise ValueError(f"unknown format: {fmt!r}")
    if isinstance(result, KappaProfile):
        if params is None:
            raise ValueError("profile output requires params")
        if fmt == "json":
            return profile_json(result, params, extras)
        if fmt == "csv":
            return profile_csv(result, params, extras)
        return profile_table(result, params, extras)
    if fmt == "json":
        payload = [
            {
                "gamma": point.gamma,
                "lambda": point.lam,
                "kappa": point.profile.total,
                "series": [[p, v] for p, v in point.profile.series],
            }
            for point in result
        ]
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    if fmt == "csv":
        return sweep_csv(result, per_p)
    return sweep_table(result)
