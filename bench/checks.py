"""Output checks for one CLI operation against its plan's reference values.

``check`` returns None when the operation did what the plan expects and
a one-line reason otherwise. ``known_defect`` names the one failure the
benchmark expects today: a text file whose first ranking starts with a
tie group begins with "{", so the CLI sniffs it as JSON and exits 2
with "invalid JSON". Such operations still count as failed.
"""
from __future__ import annotations

import json

REL = 1e-9
TABLE_ABS = 1e-3
LEADING_TIE_DEFECT = "leading tie group sniffed as JSON"


def close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def known_defect(op: dict, code: int | None, stderr: str) -> str | None:
    if op["leading_tie"] and code == 2 and "invalid JSON" in stderr:
        return LEADING_TIE_DEFECT
    return None


def _check_sweep(ref: dict, text: str) -> str | None:
    lines = text.splitlines()
    if lines[0] != "gamma,lambda,kappa" or len(lines) != len(ref["points"]) + 1:
        return f"sweep: unexpected shape ({len(lines)} lines)"
    table = ref.get("table")
    width = len(table[0]) if table else 0
    for k, (line, (gamma, lam, total)) in enumerate(zip(lines[1:], ref["points"])):
        g, l, value = line.split(",")
        if float(g) != gamma or float(l) != lam:
            return f"sweep: point {k} is ({g}, {l}), expected ({gamma}, {lam})"
        if isinstance(total, int):
            if value != str(total):
                return f"sweep: exact total at ({g}, {l}) is {value}, expected {total}"
        elif not close(float(value), total):
            return f"sweep: total at ({g}, {l}) is {value}, closed form gives {total!r}"
        if table and abs(float(value) - table[k // width][k % width]) > TABLE_ABS:
            return f"sweep: total at ({g}, {l}) is {value}, reference table gives {table[k // width][k % width]}"
    return None


def _check_measure_exact(ref: dict, text: str) -> str | None:
    payload = json.loads(text)
    series = [value for _, value in payload["kappa_series"]]
    total = payload["kappa_total"]
    if total != ref["total"] or not isinstance(total, int):
        return f"measure: total {total} differs from closed form {ref['total']}"
    if sum(series) != total or payload["ell"] != len(series):
        return "measure: series, ell and total disagree"
    return None


def _check_measure_dedup(ref: dict, text: str) -> str | None:
    header, row = text.splitlines()
    if header != "gamma,lambda,kappa,kappa_dup":
        return f"measure --dedup: header {header!r}"
    _, _, total, dup = row.split(",")
    if not close(float(total), ref["total"]):
        return f"measure --dedup: total {total}, closed form gives {ref['total']!r}"
    if not close(float(dup), ref["kappa_dup"]):
        return f"measure --dedup: kappa_dup {dup}, closed form gives {ref['kappa_dup']!r}"
    return None


def _check_oracle(ref: dict, stdout: str) -> str | None:
    prefix = "oracle check passed: ell="
    if not stdout.startswith(prefix):
        return f"oracle-check: output {stdout[:60]!r}"
    ell, kappa = stdout[len(prefix):].strip().split(" kappa=")
    if int(ell) != ref["ell"] or not close(float(kappa), ref["total"]):
        return f"oracle-check: ell={ell} kappa={kappa}, oracle gives {ref['ell']} {ref['total']!r}"
    return None


def _check_baseline(ref: dict, text: str) -> str | None:
    lines = text.splitlines()
    if lines[0] != "first,second,value" or len(lines) != ref["pairs"] + 2:
        return f"baseline: unexpected shape ({len(lines)} lines)"
    value = float(lines[-1].rsplit(",", 1)[1])
    if not close(value, ref["aggregate"]):
        return f"baseline: aggregate {value!r}, pair count gives {ref['aggregate']!r}"
    return None


def _check_experiment(ref: dict, text: str) -> str | None:
    marker = "max abs deviation (std): "
    worst = [float(line[len(marker):]) for line in text.splitlines() if line.startswith(marker)]
    if len(worst) != ref["sections"] or max(worst) > TABLE_ABS:
        return f"experiment: std deviations from the reference tables {worst}"
    return None


_OUTPUT_CHECKS = {
    "sweep": _check_sweep,
    "measure_exact": _check_measure_exact,
    "measure_dedup": _check_measure_dedup,
    "baseline": _check_baseline,
    "experiment": _check_experiment,
}


def check(op: dict, code: int | None, stdout: str, output: str | None) -> str | None:
    """None when exit code and output match the plan, else the reason.

    ``output`` is the text the operation wrote to its --output file
    (None when it wrote none); oracle-check reports on stdout instead.
    """
    if code != op["expected"]:
        return f"exit code {code}, expected {op['expected']}"
    if code != 0:
        return None
    try:
        if op["kind"] == "oracle":
            return _check_oracle(op["ref"], stdout)
        if output is None:
            return "no output file written"
        return _OUTPUT_CHECKS[op["kind"]](op["ref"], output)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"{op['kind']}: unreadable output ({exc})"
