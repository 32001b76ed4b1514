"""Every subcommand on the bundled datasets, byte for byte against recorded outputs.

Each case runs ``cli.main`` in-process and compares its stdout, stderr
and exit code with ``data/golden_cli.json``. Only outputs that do not
hang on the last bit of a float are recorded: exact results in every
format, weighted results as three-decimal tables, baselines, the
experiment reports and exact oracle checks. Every run names its
``--format``, so the terminal default plays no part.

To re-record after a change that is meant to alter an output:

    PYTHONPATH=src python tests/test_golden_cli.py
"""
from __future__ import annotations

import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from rankconsensus import cli
from rankconsensus.baselines import Aggregate, Baseline
from rankconsensus.io import Dataset

GOLDEN = Path(__file__).parent / "data" / "golden_cli.json"
FORMATS = ("json", "csv", "table")
CORNER = ("--gamma-grid", "1:1:0", "--lambda-grid", "1:1:0")
WEIGHTED = ("--gamma", "0.9", "--lambda", "0.8")
TOPK = ("--topk-zeta", "8.3", "--topk-beta", "0.5")


def cases() -> list[tuple[str, ...]]:
    runs: list[tuple[str, ...]] = []
    for name in (dataset.value for dataset in Dataset):
        for fmt in FORMATS:
            runs.append(("measure", name, "--format", fmt))
            runs.append(("measure", name, "--dedup", "--format", fmt))
            runs.append(("sweep", name, *CORNER, "--format", fmt))
        runs.append(("measure", name, *TOPK, "--format", "table"))
        runs.append(("measure", name, *WEIGHTED, "--format", "table"))
        runs.append(
            ("measure", name, *WEIGHTED, "--deviation", "std", "--dedup", *TOPK,
             "--format", "table")
        )
        runs.append(("sweep", name, *CORNER, "--per-p", "1,2,3,40", "--format", "csv"))
        runs.append(("sweep", name, "--format", "table"))
        runs.append(("sweep", name, "--deviation", "std", "--format", "table"))
        for index in Baseline:
            for fmt in FORMATS:
                runs.append(("baseline", name, "--index", index.value, "--format", fmt))
            for mode in Aggregate:
                runs.append(
                    ("baseline", name, "--index", index.value, "--mode", mode.value,
                     "--format", "table")
                )
        runs.append(("oracle-check", name))
    runs.append(("experiment", "clustering"))
    runs.append(("experiment", "search"))
    runs.append(("measure", "clustering", "--gamma", "0", "--format", "csv"))
    runs.append(("sweep", "clustering", "--per-p", "1", "--format", "table"))
    return runs


def run(argv: tuple[str, ...]) -> dict[str, object]:
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def record() -> None:
    golden = {" ".join(argv): run(argv) for argv in cases()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(golden)} runs in {GOLDEN}", file=sys.stderr)


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, object]]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_case_is_recorded(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in cases())


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_output_matches_the_recording(golden, argv):
    assert run(argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    record()
