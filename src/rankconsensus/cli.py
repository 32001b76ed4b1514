"""Command line interface.

Subcommands: measure, sweep, baseline, oracle-check, experiment. Input
is a file path or the name of a bundled dataset; output goes to stdout
or --output. Exit codes: 0 success, 2 unreadable or malformed input
(including a file that is not UTF-8) or an --output that cannot be
written, 3 invalid parameters or grid (including NaN, an infinite
epsilon and grids of more than MAX_GRID_POINTS points), 4 input
outside a baseline's scope, 5 oracle mismatch, 6 enumeration size guard,
an exact ``--dedup`` total that is not an integer and exceeds the
float range, or an infinite or NaN result asked for as JSON.
Every failure except an oracle mismatch is reported by ``main`` as one
``error: <message>`` line on stderr.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields, replace
from decimal import Decimal, InvalidOperation, Overflow, localcontext
from io import StringIO
from itertools import takewhile
from pathlib import Path

from . import baselines, io, measures, oracle
from .graph import Deviation, MeasureParams
from .model import RankingSet, ValidationError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PARAMS = 3
EXIT_UNSUPPORTED = 4
EXIT_MISMATCH = 5
EXIT_SIZE = 6

EXPERIMENT_GRID = "1:0.45:0.05"
MAX_GRID_POINTS = 1000


class CommandError(Exception):
    """A failure that ``main`` reports as ``error: <message>`` and exits with ``code``."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _emit(text: str, output: str | None) -> None:
    if output:
        try:
            Path(output).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise CommandError(EXIT_PARSE, f"{output}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _load_document(source: str) -> io.RankingDocument:
    """Resolve a positional input: bundled dataset name, else file path."""
    normalized = source.lower().replace("-", "_")
    try:
        dataset = io.Dataset(normalized)
    except ValueError:
        dataset = None
    if dataset is not None:
        return io.load_dataset(dataset)
    # Plain utf-8, not utf-8-sig, so a decode error reports a file offset;
    # a leading byte order mark is dropped after the decode.
    content = Path(source).read_text(encoding="utf-8").removeprefix("\ufeff")
    if content.lstrip().startswith("{"):
        return io.parse_json(content)
    return io.parse_text(content)


def _load(source: str) -> tuple[io.RankingDocument, RankingSet]:
    """Load and validate the positional input; any defect in it exits 2."""
    try:
        document = _load_document(source)
        return document, document.to_ranking_set()
    except UnicodeDecodeError as exc:
        raise CommandError(
            EXIT_PARSE, f"{source}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None
    except OSError as exc:
        raise CommandError(EXIT_PARSE, f"{source}: {exc.strerror}") from None
    except (io.ParseError, ValidationError) as exc:
        raise CommandError(EXIT_PARSE, str(exc)) from None


def _default_format(chosen: str | None) -> str:
    if chosen:
        return chosen
    return "table" if sys.stdout.isatty() else "csv"


def _params_from(args: argparse.Namespace) -> MeasureParams:
    """The subcommand's options named like MeasureParams fields; the rest keep their defaults."""
    given = {f.name: getattr(args, f.name) for f in fields(MeasureParams) if hasattr(args, f.name)}
    try:
        return MeasureParams(**given)
    except ValueError as exc:
        raise CommandError(EXIT_PARAMS, str(exc)) from None


def parse_grid(text: str) -> list[float]:
    """Expand "start:stop:step" into an inclusive grid; both directions work.

    A zero step is only allowed for the single-point case start == stop.
    Decimal arithmetic keeps the values exact, so 1:0.45:0.05 yields the
    twelve conventional points without drift. The point count is checked
    against MAX_GRID_POINTS before any point is made.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (Decimal(part) for part in parts)
    except InvalidOperation:
        raise ValueError(f"grid must be numeric, got {text!r}") from None
    if not all(value.is_finite() for value in (start, stop, step)):
        raise ValueError(f"grid must be finite, got {text!r}")
    if step < 0:
        raise ValueError("grid step must be non-negative")
    if step == 0:
        if start != stop:
            raise ValueError("grid step 0 requires start == stop")
        values = [start]
    else:
        # Exponents beyond the context's range become Infinity instead of
        # raising; an infinite span is rejected by the count check and an
        # infinite value by the range check below.
        with localcontext() as ctx:
            ctx.traps[Overflow] = False
            steps = abs(stop - start) / step
            if steps >= MAX_GRID_POINTS:
                raise ValueError(
                    f"grid has more than {MAX_GRID_POINTS} points, got {text!r}"
                )
            direction = -1 if start >= stop else 1
            values = [start + direction * k * step for k in range(int(steps) + 1)]
    grid = [float(value) for value in values]
    for value in grid:
        if not 0.0 < value <= 1.0:
            raise ValueError(f"grid value out of range (0,1]: {value}")
    return grid


def _parse_per_p(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"per-p must be a comma list of integers, got {text!r}") from None
    if not values or any(p < 1 for p in values):
        raise ValueError("per-p values must be positive integers")
    return values


def _render(result: measures.KappaProfile | list[measures.SweepPoint], fmt: str, **options) -> str:
    """io.write_results; a non-finite result asked for as JSON exits 6."""
    try:
        return io.write_results(result, fmt, **options)
    except ValueError:
        if fmt != "json":
            raise
        raise CommandError(
            EXIT_SIZE, "a result is inf or nan, which JSON cannot hold; csv and table write it"
        ) from None


def cmd_measure(args: argparse.Namespace) -> int:
    params = _params_from(args)
    _, rset = _load(args.input)
    sv = measures.survey(rset)
    profile = measures.kappa_series(sv, params)
    extras: dict[str, object] = {}
    if args.dedup:
        try:
            extras["kappa_dup"] = measures.kappa_dup(rset, params)
        except OverflowError:
            raise CommandError(
                EXIT_SIZE, "kappa_dup is not an integer and exceeds the float range"
            ) from None
    if params.zeta is not None:
        extras["kappa_1_topk"] = measures.kappa1_topk(sv, params)
    text = _render(profile, _default_format(args.format), params=params, extras=extras or None)
    _emit(text, args.output)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    params = _params_from(args)
    try:
        gammas = parse_grid(args.gamma_grid)
        lams = parse_grid(args.lambda_grid)
        per_p = _parse_per_p(args.per_p) if args.per_p else None
    except ValueError as exc:
        raise CommandError(EXIT_PARAMS, str(exc)) from None
    fmt = _default_format(args.format)
    if per_p and fmt != "csv":
        raise CommandError(EXIT_PARAMS, "per-p columns are only available with --format csv")
    _, rset = _load(args.input)
    points = measures.kappa_sweep(measures.survey(rset), gammas, lams, params)
    _emit(_render(points, fmt, per_p=per_p), args.output)
    return EXIT_OK


def _csv_line(row: list[str]) -> str:
    """One csv row ending in "\\n", quoted wherever csv.reader needs it.

    The writer quotes a field holding a character of its line terminator,
    so its default "\\r\\n" makes it quote a bare "\\r" as well as "\\n".
    """
    buffer = StringIO()
    csv.writer(buffer).writerow(row)
    return buffer.getvalue()[:-2] + "\n"


def cmd_baseline(args: argparse.Namespace) -> int:
    document, rset = _load(args.input)
    labels = document.labels()
    try:
        values = baselines.pairwise_values(rset, args.index)
    except ValueError as exc:
        raise CommandError(EXIT_UNSUPPORTED, str(exc)) from None
    aggregate = baselines.aggregate_values([v for _, _, v in values], args.mode)
    pairs = [(labels[i], labels[j], v) for i, j, v in values]
    fmt = _default_format(args.format)
    if fmt == "json":
        payload = {
            "index": args.index,
            "mode": args.mode,
            "pairs": [[a, b, v] for a, b, v in pairs],
            "aggregate": aggregate,
        }
        text = json.dumps(payload, indent=2) + "\n"
    elif fmt == "csv":
        rows = [
            ["first", "second", "value"],
            *([a, b, repr(v)] for a, b, v in pairs),
            ["aggregate", args.mode, repr(aggregate)],
        ]
        text = "".join(_csv_line(row) for row in rows)
    else:
        shown = {(i, j): io.round3(v) for i, j, v in values}
        cells = [["-", *labels]]
        for i, label in enumerate(labels):
            row = ["." if i == j else shown[(i, j)] for j in range(len(labels))]
            cells.append([label, *row])
        width = max(len(cell) for row in cells for cell in row)
        lines = ["  ".join(cell.rjust(width) for cell in row) for row in cells]
        lines.append(f"aggregate ({args.mode}): {io.round3(aggregate)}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return EXIT_OK


def _profiles_match(
    a: measures.KappaProfile, b: measures.KappaProfile, exact: bool
) -> bool:
    if exact:
        return a.series == b.series
    ell = max(a.ell, b.ell)
    for p in range(1, ell + 1):
        va, vb = a.value_at(p), b.value_at(p)
        if abs(va - vb) > 1e-9 * max(1.0, abs(va), abs(vb)):
            return False
    return True


def cmd_oracle_check(args: argparse.Namespace) -> int:
    params = _params_from(args)
    _, rset = _load(args.input)
    # The routes sum weighted terms in different orders, so a term within
    # an ulp of epsilon could be kept by one and dropped by the other. They
    # are compared with every term kept, and the cutoff is applied once.
    uncut = replace(params, epsilon=0.0)
    try:
        reference = oracle.oracle_profile(rset, uncut)
    except oracle.SizeLimitError as exc:
        raise CommandError(EXIT_SIZE, str(exc)) from None
    computed = measures.measure(rset, uncut)
    if _profiles_match(computed, reference, params.exact):
        kept = takewhile(lambda term: params.keeps(term[1]), computed.series)
        shown = measures.KappaProfile(series=tuple(kept), exact=params.exact)
        print(f"oracle check passed: ell={shown.ell} kappa={shown.total}")
        return EXIT_OK
    print("oracle check FAILED", file=sys.stderr)
    print("p series oracle", file=sys.stderr)
    for p in range(1, max(computed.ell, reference.ell) + 1):
        print(f"{p} {computed.value_at(p)} {reference.value_at(p)}", file=sys.stderr)
    return EXIT_MISMATCH


def _experiment_report(name: str) -> str:
    if name == "clustering":
        jobs = [("CE", "clustering_ce", "ce"), ("GA", "clustering_ga", "ga")]
    else:
        jobs = [("Google", "search_google", "google"), ("Bing", "search_bing", "bing")]
    grid = parse_grid(EXPERIMENT_GRID)
    contract_variants = (Deviation.MAD, Deviation.SQRT_MAD)
    lines: list[str] = []
    for title, dataset, table in jobs:
        sv = measures.survey(_load(dataset)[1])
        gammas, lams, reference = io.load_reference_sweep(table)
        if gammas != grid or lams != grid:
            raise CommandError(
                EXIT_PARSE, f"reference table {table} is not on the grid {EXPERIMENT_GRID}"
            )
        lines.append(f"== {title} ==")
        max_dev: dict[Deviation, float] = {}
        for variant in Deviation:
            params = MeasureParams(deviation=variant)
            points = measures.kappa_sweep(sv, gammas, lams, params)
            lines.append(f"kappa table (deviation={variant.value}):")
            lines.append(io.sweep_table(points).rstrip("\n"))
            worst = 0.0
            diff_rows = []
            for gi, gamma in enumerate(gammas):
                row = []
                for li, lam in enumerate(lams):
                    point = points[gi * len(lams) + li]
                    diff = float(point.profile.total) - reference[gi][li]
                    worst = max(worst, abs(diff))
                    row.append(f"{diff:+.4f}")
                diff_rows.append(" ".join(row))
            max_dev[variant] = worst
            lines.append(f"deviation from reference (computed - reference, {variant.value}):")
            lines.extend(diff_rows)
            lines.append(f"max abs deviation ({variant.value}): {worst:.4f}")
        best = min(contract_variants, key=lambda v: max_dev[v])
        lines.append(f"best variant: {best.value}")
        within = [v.value for v in Deviation if max_dev[v] <= 0.001]
        lines.append(
            "reproduces reference within 0.001: " + (", ".join(within) if within else "none")
        )
        if name == "search":
            # The grid starts at gamma = lambda = 1, the exact point of every variant.
            lines.append(f"kappa_1 at gamma=1: {points[0].profile.value_at(1)}")
        lines.append("")
    return "\n".join(lines)


def cmd_experiment(args: argparse.Namespace) -> int:
    _emit(_experiment_report(args.name), args.output)
    return EXIT_OK


# Every option of the command line, defined once. A dest that names a
# MeasureParams field is read by _params_from.
_OPTIONS: dict[str, dict] = {
    "input": {
        "help": "ranking file (text or JSON) or bundled dataset name"
        f" ({', '.join(d.value for d in io.Dataset)})",
    },
    "name": {"choices": ["clustering", "search"]},
    "--gamma": {"type": float, "default": 1.0, "help": "item weight base in (0,1]"},
    "--lambda": {
        "dest": "lam", "type": float, "default": 1.0, "help": "pair weight base in (0,1]"
    },
    "--epsilon": {"type": float, "default": 1e-12, "help": "series termination threshold"},
    "--deviation": {
        "choices": [d.value for d in Deviation],
        "default": Deviation.MAD.value,
        "help": "position deviation statistic (std reproduces the bundled reference tables)",
    },
    "--dedup": {"action": "store_true", "help": "add the duplicate-adjusted total"},
    "--topk-zeta": {"dest": "zeta", "type": float, "help": "top-k position cutoff"},
    "--topk-beta": {"dest": "beta", "type": float, "help": "top-k weight base in (0,1)"},
    "--gamma-grid": {"default": EXPERIMENT_GRID, "help": "start:stop:step"},
    "--lambda-grid": {"default": EXPERIMENT_GRID, "help": "start:stop:step"},
    "--per-p": {"metavar": "P1,P2,...", "help": "also emit kappa_p columns (csv format only)"},
    "--index": {
        "required": True,
        "choices": [b.value for b in baselines.Baseline],
        "help": "tau, dtau, rho or footrule",
    },
    "--mode": {
        "choices": [m.value for m in baselines.Aggregate],
        "default": baselines.Aggregate.MEAN.value,
    },
    "--format": {"choices": ("json", "csv", "table")},
    "--output": {"metavar": "PATH", "help": "write results to a file"},
}

_PARAMS = ("--gamma", "--lambda", "--epsilon", "--deviation")
_OUTPUT = ("--format", "--output")

# Subcommand: handler, help line and options in help order. sweep takes
# no --gamma or --lambda, since its grids set both at every point.
_COMMANDS = {
    "measure": (
        cmd_measure,
        "kappa series, ell and total for one set",
        ("input", *_PARAMS, "--dedup", "--topk-zeta", "--topk-beta", *_OUTPUT),
    ),
    "sweep": (
        cmd_sweep,
        "evaluate a gamma/lambda grid",
        ("input", "--epsilon", "--deviation", "--gamma-grid", "--lambda-grid", "--per-p",
         *_OUTPUT),
    ),
    "baseline": (
        cmd_baseline,
        "pairwise correlation indices and aggregate",
        ("input", "--index", "--mode", *_OUTPUT),
    ),
    "oracle-check": (
        cmd_oracle_check, "compare the series against enumeration", ("input", *_PARAMS)
    ),
    "experiment": (
        cmd_experiment, "reproduce the bundled reference sweeps", ("name", "--output")
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankconsensus",
        description="Set-wise consensus measures of rankings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, summary, options) in _COMMANDS.items():
        # Without abbreviations, sweep reads no --gamma as --gamma-grid.
        p = sub.add_parser(command, help=summary, allow_abbrev=False)
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
        p.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    raise SystemExit(main())
