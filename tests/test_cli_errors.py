"""Malformed input and parameters exit with a documented code and one line."""
from __future__ import annotations

import contextlib
import errno
import io as stdio
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rankconsensus import baselines, cli, io
from rankconsensus.graph import MeasureParams

from conftest import EXAMPLE_LINES


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.txt"
    path.write_text("\n".join(EXAMPLE_LINES) + "\n", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command", ["measure", "sweep", "baseline", "oracle-check"])
def test_non_utf8_file_exits_2(tmp_path, capsys, command):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"a b \xe9 c\nb a c\n")
    extra = ["--index", "tau"] if command == "baseline" else []
    code, out, err = run(capsys, command, str(path), *extra)
    assert code == cli.EXIT_PARSE
    assert out == ""
    assert err == f"error: {path}: not UTF-8 text (invalid continuation byte at byte 4)\n"


def test_non_utf8_offset_after_a_byte_order_mark_is_a_file_offset(tmp_path, capsys):
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbfa b \xe9 c\nb a c\n")
    code, out, err = run(capsys, "measure", str(path))
    assert (code, out) == (cli.EXIT_PARSE, "")
    assert err == f"error: {path}: not UTF-8 text (invalid continuation byte at byte 7)\n"


@pytest.mark.parametrize(
    "content",
    ['{"rankings": ' + "1" * 5000 + "}", '{"rankings": ' + "[" * 100000 + "]" * 100000 + "}"],
    ids=["long-integer", "deep-nesting"],
)
def test_json_beyond_decoder_limits_exits_2(tmp_path, capsys, content):
    path = tmp_path / "in.json"
    path.write_text(content, encoding="utf-8")
    code, _, err = run(capsys, "measure", str(path))
    assert code == cli.EXIT_PARSE
    assert err.startswith("error: invalid JSON: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("field", ["epsilon", "zeta"])
def test_nan_parameters_rejected(field):
    with pytest.raises(ValueError):
        MeasureParams(**{field: float("nan")})


def test_nan_epsilon_exits_3(example_file, capsys):
    code, out, err = run(capsys, "measure", example_file, "--gamma", "0.9", "--epsilon", "nan")
    assert code == cli.EXIT_PARAMS
    assert out == ""
    assert err == "error: epsilon must be non-negative\n"


def test_infinite_epsilon_exits_3(example_file, capsys):
    code, out, err = run(capsys, "measure", example_file, "--gamma", "0.9", "--epsilon", "inf")
    assert code == cli.EXIT_PARAMS
    assert out == ""
    assert err == "error: epsilon must be finite\n"


def test_infinite_topk_zeta_exits_3(example_file, capsys):
    # Refused as a parameter, before --format json could blame the result.
    argv = ["measure", example_file, "--topk-zeta", "inf", "--topk-beta", "0.5", "--format", "json"]
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_PARAMS
    assert out == ""
    assert err == "error: zeta must be finite\n"


@pytest.mark.parametrize(
    "argv", [["measure", "clustering"], ["experiment", "clustering"]], ids=["measure", "experiment"]
)
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run(capsys, *argv, "--output", str(target))
    assert code == cli.EXIT_PARSE
    assert out == ""
    assert err == f"error: {target}: {os.strerror(errno.ENOENT)}\n"


@pytest.mark.parametrize("code", [errno.ENOENT, errno.EISDIR], ids=["missing-file", "directory"])
def test_unreadable_input_exits_2(tmp_path, capsys, code):
    path = tmp_path / "input"
    if code == errno.EISDIR:
        path.mkdir()
    status, out, err = run(capsys, "measure", str(path))
    assert status == cli.EXIT_PARSE
    assert out == ""
    assert err == f"error: {path}: {os.strerror(code)}\n"


@pytest.mark.parametrize("grid", ["nan:1:0.1", "0.5:inf:0.1", "1:0.5:nan", "0.5:1:-inf", "snan:1:0.1"])
def test_non_finite_grid_exits_3(example_file, capsys, grid):
    with pytest.raises(ValueError, match="finite"):
        cli.parse_grid(grid)
    code, _, err = run(capsys, "sweep", example_file, "--gamma-grid", grid)
    assert code == cli.EXIT_PARAMS
    assert err.startswith("error: grid must be finite")


@pytest.mark.parametrize("grid", ["0.5:1:1e-30", "1e-400:1:1e-999999999", "0.1:1e999999999:1"])
def test_grid_point_count_is_bounded_before_expansion(grid):
    with pytest.raises(ValueError, match=f"more than {cli.MAX_GRID_POINTS} points"):
        cli.parse_grid(grid)


def test_grid_at_the_point_limit_is_accepted():
    grid = cli.parse_grid("0.001:1:0.001")
    assert len(grid) == cli.MAX_GRID_POINTS
    assert grid[0] == 0.001 and grid[-1] == 1.0


def test_experiment_rejects_a_reference_table_off_the_grid(monkeypatch, capsys):
    real = io.load_reference_sweep

    def shifted(name):
        gammas, lams, table = real(name)
        return gammas[1:], lams, table[1:]

    monkeypatch.setattr(io, "load_reference_sweep", shifted)
    code, out, err = run(capsys, "experiment", "clustering")
    assert code == cli.EXIT_PARSE
    assert out == ""
    assert err == f"error: reference table ce is not on the grid {cli.EXPERIMENT_GRID}\n"


def test_baseline_evaluates_each_unordered_pair_once(tmp_path, monkeypatch, capsys):
    path = tmp_path / "full.txt"
    path.write_text("a b c d\nb a c d\nd c b a\n", encoding="utf-8")
    calls = []
    real = baselines._INDEX_FUNCS[baselines.Baseline.KENDALL_TAU]

    def counted(r1, r2):
        calls.append((r1, r2))
        return real(r1, r2)

    monkeypatch.setitem(baselines._INDEX_FUNCS, baselines.Baseline.KENDALL_TAU, counted)
    code, out, _ = run(capsys, "baseline", str(path), "--index", "tau", "--format", "csv")
    assert code == 0
    assert len(calls) == 3
    assert len(out.splitlines()) == 1 + 3 * 2 + 1


@pytest.mark.parametrize("flag", ["--gamma", "--lambda"])
def test_sweep_refuses_gamma_and_lambda(capsys, flag):
    # The grids set both at every point. The flag is not read as an
    # abbreviation of --gamma-grid or --lambda-grid either.
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "clustering_ce", flag, "0.5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ")
    assert captured.err.endswith(f"error: unrecognized arguments: {flag} 0.5\n")


FLOATS = ["nan", "inf", "-inf", "0", "-1", "1e-30", "0.5", "0.9", "1", "2"]
GRIDS = st.builds(
    lambda a, b, c: f"{a}:{b}:{c}", *(st.sampled_from(FLOATS) for _ in range(3))
) | st.sampled_from(["1:0.5", "a:b:c", "0.5:0.5:0"])
PARAMS = {"--epsilon": FLOATS}
WEIGHTS = {"--gamma": FLOATS, "--lambda": FLOATS}  # sweep's grids set both instead
TEXT = st.text(alphabet="abc {}:#\n", max_size=30).map(lambda s: s.encode("utf-8"))
INPUT = (
    TEXT
    | st.binary(max_size=30)
    | st.just("\n".join(EXAMPLE_LINES).encode("utf-8"))
    | st.just(b"2: a b c\nc b a\nx,y: b a c\n")
)
BASELINE_OPTIONS = {
    "--index": [b.value for b in baselines.Baseline] + ["kendall"],
    "--mode": [m.value for m in baselines.Aggregate] + ["max"],
    "--format": ["json", "csv", "table", "xml"],
}


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(["measure", "sweep", "oracle-check", "baseline", "experiment"]))
    if command == "experiment":
        return [command, draw(st.sampled_from(["clustering", "search", "other"]))], None
    options = BASELINE_OPTIONS if command == "baseline" else dict(PARAMS)
    if command in ("measure", "oracle-check"):
        options.update(WEIGHTS)
    if command == "measure":
        options.update({"--topk-zeta": FLOATS, "--topk-beta": FLOATS})
    argv = [command]
    for flag, values in options.items():
        if draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(values))]
    if command == "sweep":
        for flag in ("--gamma-grid", "--lambda-grid"):
            if draw(st.booleans()):
                argv += [flag, draw(GRIDS)]
    return argv, draw(INPUT)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_fuzzed_cli_exits_with_a_documented_code(invocation):
    argv, content = invocation
    with tempfile.TemporaryDirectory() as tmp:
        if content is not None:  # every command but experiment reads an input file
            path = Path(tmp) / "input"
            path.write_bytes(content)
            argv = [argv[0], str(path), *argv[1:]]
        stdout, stderr = stdio.StringIO(), stdio.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
    assert code in {0, 2, 3, 4, 5, 6}, (argv, content, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()
    if code not in (0, 5):
        assert stderr.getvalue().startswith(("error: ", "usage: "))
