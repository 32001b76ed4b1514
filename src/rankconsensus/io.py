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
a JSON entry is flattened and checked once by ``parse_json`` itself, then
built by ``Ranking._unchecked`` too. The parser names a fault with its
line number or JSON path.

``write_results`` renders each result as json, csv or table: a kappa
profile, a sweep, or a baseline's pair values and their aggregate.
"""
from __future__ import annotations

import csv
import json
import math
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Context, Decimal
from enum import Enum
from importlib import resources
from io import StringIO
from itertools import chain, repeat
from typing import Iterator

from .graph import MeasureParams
from .measures import KappaProfile, SweepPoint
from .model import Ranking, RankingSet, ValidationError, _first_fault, valid_tokens


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


# How parse_json words each fault kind of model._first_fault.
_JSON_FAULTS = {
    "group": "expected a list of tokens",
    "empty": "empty tie group",
    "token": "invalid token {!r}",
    "repeat": "duplicate item {}",
}


def parse_json(content: str) -> RankingDocument:
    """Read the JSON format; a fault raises ParseError with its JSON path.

    An entry is checked once: one ``isinstance`` map that every group is
    a list, one ``all`` that none is empty and one ``valid_tokens`` call
    on the groups flattened into tokens. It then becomes
    ``Ranking._unchecked(tokens, sizes)``. Only a failed check runs
    ``model._first_fault``, to name the first fault with its path.
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
        if all(map(isinstance, raw_groups, repeat(list))):
            sizes = list(map(len, raw_groups))
            tokens = list(chain.from_iterable(raw_groups))
            if all(sizes) and valid_tokens(tokens):
                rankings.append(RawRanking(label=label, ranking=Ranking._unchecked(tokens, sizes)))
                continue
        kind, g, token = _first_fault(raw_groups)  # type: ignore[misc]
        where = path if kind == "repeat" else f"{path}.groups[{g}]"
        raise _json_fail(where, _JSON_FAULTS[kind].format(token))
    return RankingDocument(rankings=tuple(rankings))


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


def _profile_text(
    profile: KappaProfile, fmt: str, params: MeasureParams, extras: dict[str, object]
) -> str:
    if fmt == "json":
        payload = {
            "params": {
                "gamma": params.gamma,
                "lambda": params.lam,
                "epsilon": params.epsilon,
                "deviation": params.deviation.value,
                "zeta": params.zeta,
                "beta": params.beta,
            },
            "kappa_series": [[p, value] for p, value in enumerate(profile.series, 1)],
            "ell": profile.ell,
            "kappa_total": profile.total,
            **extras,
        }
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    if fmt == "csv":
        header = ["gamma", "lambda", "kappa", *extras]
        row = [params.gamma, params.lam, profile.total, *extras.values()]
        return ",".join(header) + "\n" + ",".join(map(repr, row)) + "\n"

    def shown(value: int | float) -> str:
        return str(value) if isinstance(value, int) else round3(value)

    lines = ["p kappa_p", *(f"{p} {shown(value)}" for p, value in enumerate(profile.series, 1))]
    lines += [f"ell {profile.ell}", f"kappa {shown(profile.total)}"]
    lines += [f"{key} {shown(value)}" for key, value in extras.items()]
    return "\n".join(lines) + "\n"


def _sweep_text(points: list[SweepPoint], fmt: str, per_p: list[int] | None) -> str:
    if fmt == "json":
        payload = [
            {
                "gamma": point.gamma,
                "lambda": point.lam,
                "kappa": point.profile.total,
                "series": [[p, v] for p, v in enumerate(point.profile.series, 1)],
            }
            for point in points
        ]
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    if fmt == "csv":
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
    # Gamma rows by lambda columns, three-decimal cells.
    gammas = list(dict.fromkeys(point.gamma for point in points))
    lams = list(dict.fromkeys(point.lam for point in points))
    values = {(point.gamma, point.lam): point.profile.total for point in points}
    rows = [["gamma\\lambda", *map(repr, lams)]]
    rows += [[repr(gamma), *(round3(values[gamma, lam]) for lam in lams)] for gamma in gammas]
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "".join("  ".join(map(str.rjust, row, widths)) + "\n" for row in rows)


def _csv_line(row: list[str]) -> str:
    """One csv row ending in "\\n", quoted wherever csv.reader needs it.

    The writer quotes a field holding a character of its line terminator,
    so its default "\\r\\n" makes it quote a bare "\\r" as well as "\\n".
    """
    buffer = StringIO()
    csv.writer(buffer).writerow(row)
    return buffer.getvalue()[:-2] + "\n"


def _baseline_text(result: dict, fmt: str) -> str:
    pairs, mode, aggregate = result["pairs"], result["mode"], result["aggregate"]
    if fmt == "json":
        return json.dumps(result, indent=2, allow_nan=False) + "\n"
    if fmt == "csv":
        rows = [
            ["first", "second", "value"],
            *([a, b, repr(v)] for a, b, v in pairs),
            ["aggregate", mode, repr(aggregate)],
        ]
        return "".join(map(_csv_line, rows))
    # A label-by-label grid, "." on the diagonal.
    labels = list(dict.fromkeys(a for a, _, _ in pairs))
    shown = {(a, b): round3(v) for a, b, v in pairs}
    cells = [["-", *labels], *([a, *(shown.get((a, b), ".") for b in labels)] for a in labels)]
    width = max(len(cell) for row in cells for cell in row)
    lines = ["  ".join(cell.rjust(width) for cell in row) for row in cells]
    lines.append(f"aggregate ({mode}): {round3(aggregate)}")
    return "\n".join(lines) + "\n"


_DIGIT_LIMIT = threading.Lock()


@contextmanager
def _every_digit() -> Iterator[None]:
    """Lift the interpreter's limit on int-to-str digits, and restore it after.

    The limit is one setting for the whole interpreter, so the lock keeps
    a writer in another thread from reading the lifted value as the one
    to restore. Python before 3.10.7 has no limit and no getter.
    """
    with _DIGIT_LIMIT:
        limit = getattr(sys, "get_int_max_str_digits", int)()
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            yield
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)


def write_results(
    result: KappaProfile | list[SweepPoint] | dict,
    fmt: str,
    params: MeasureParams | None = None,
    per_p: list[int] | None = None,
    extras: dict[str, object] | None = None,
) -> str:
    """Render a profile, a sweep or a baseline in one of json, csv, table.

    A baseline is its JSON object: {"index", "mode", "pairs": [[first
    label, second label, value], ...], "aggregate"}, a pair for each
    ordered pair of distinct labels, the first label outer.
    JSON has no word for a non-finite float, so json raises ValueError on
    an inf or nan value; csv and table write it as ``inf`` or ``nan``.
    An exact int is written with every digit, however many: the
    interpreter's limit on int-to-str digits is lifted while the writer
    runs (see ``_every_digit``).
    """
    if fmt not in ("json", "csv", "table"):
        raise ValueError(f"unknown format: {fmt!r}")
    with _every_digit():
        if isinstance(result, dict):
            return _baseline_text(result, fmt)
        if not isinstance(result, KappaProfile):
            return _sweep_text(result, fmt, per_p)
        if params is None:
            raise ValueError("profile output requires params")
        return _profile_text(result, fmt, params, extras or {})
