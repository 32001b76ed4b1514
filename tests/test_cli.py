from __future__ import annotations

import argparse
import csv
import json
import math
from dataclasses import replace
from decimal import Decimal
from io import StringIO
from math import comb

import pytest

from rankconsensus import cli, graph, measures, oracle
from rankconsensus.graph import MeasureParams
from rankconsensus.measures import measure

from conftest import EXAMPLE_LINES, make_set


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGridParsing:
    def test_descending_grid(self):
        assert cli.parse_grid("1:0.45:0.05") == [
            x / 100 for x in range(100, 44, -5)
        ]

    def test_ascending_grid(self):
        assert cli.parse_grid("0.5:1:0.25") == [0.5, 0.75, 1.0]

    def test_single_point(self):
        assert cli.parse_grid("0.7:0.7:0") == [0.7]

    @pytest.mark.parametrize(
        "grid",
        ["1:0.45", "1:0.45:0.05:0", "a:b:c", "1:0.5:0", "0:1:0.5", "0.5:1.5:0.5", "1:0.45:-0.05"],
    )
    def test_rejected_grids(self, grid):
        with pytest.raises(ValueError):
            cli.parse_grid(grid)


class TestMeasure:
    def test_table_output_golden(self, capsys):
        code, out, _ = run(
            capsys,
            "measure", "clustering_ce",
            "--gamma", "1", "--lambda", "0.95", "--format", "table",
        )
        assert code == 0
        assert out.splitlines()[0] == "p kappa_p"
        assert "kappa 17.589" in out

    def test_default_format_is_csv_when_piped(self, capsys):
        code, out, _ = run(capsys, "measure", "clustering_ce")
        assert code == 0
        assert out.splitlines()[0] == "gamma,lambda,kappa"
        assert out.splitlines()[1] == "1.0,1.0,19"

    def test_dataset_names_are_forgiving(self, capsys):
        code, out, _ = run(capsys, "measure", "Clustering-CE")
        assert code == 0
        assert "19" in out

    def test_invalid_gamma_exits_3(self, capsys):
        code, out, err = run(capsys, "measure", "clustering", "--gamma", "0")
        assert code == 3
        assert out == ""
        assert "gamma must be in (0,1]" in err

    def test_half_specified_topk_exits_3(self, capsys):
        code, _, err = run(capsys, "measure", "clustering", "--topk-zeta", "5")
        assert code == 3
        assert "topk" in err or "top-k" in err

    @pytest.mark.parametrize("option", [("--topk-zeta", "5"), ("--topk-beta", "0.5")])
    def test_half_specified_topk_names_the_rule(self, capsys, option):
        code, out, err = run(capsys, "measure", "clustering", *option)
        assert (code, out, err) == (3, "", "error: top-k weighting requires both zeta and beta\n")

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "measure", "/no/such/file.txt")
        assert code == 2
        assert err.startswith("error:")

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("a b a\n")
        code, _, err = run(capsys, "measure", str(bad))
        assert code == 2
        assert "duplicate item a at line 1" in err

    def test_form_feed_separates_tokens_like_a_space(self, tmp_path, capsys):
        outputs = []
        for name, separator in (("ff", "\f"), ("space", " ")):
            path = tmp_path / f"{name}.txt"
            path.write_text(f"a b{separator}c d\na b c d\n", encoding="utf-8")
            outputs.append(run(capsys, "measure", str(path), "--format", "csv"))
        assert outputs[0] == outputs[1]
        assert outputs[0][1].splitlines()[1] == "1.0,1.0,15"

    def test_json_file_input(self, tmp_path, capsys):
        doc = tmp_path / "set.json"
        doc.write_text(json.dumps({"rankings": [
            {"groups": [["a"], ["b"], ["c"]]},
            {"groups": [["a"], ["b"], ["c"]]},
        ]}))
        code, out, _ = run(capsys, "measure", str(doc), "--format", "csv")
        assert code == 0
        assert out.splitlines()[1] == "1.0,1.0,7"

    @pytest.mark.parametrize(
        "content",
        ["a b c\na b c\n", json.dumps({"rankings": [{"groups": [["a"], ["b"], ["c"]]}] * 2})],
        ids=["text", "json"],
    )
    def test_leading_byte_order_mark_is_dropped(self, tmp_path, capsys, content):
        # A kept mark joins the first token (text: kappa 3) or hides the
        # leading brace from the JSON sniff (exit 2).
        doc = tmp_path / "bom.txt"
        doc.write_bytes(b"\xef\xbb\xbf" + content.encode("utf-8"))
        code, out, err = run(capsys, "measure", str(doc), "--format", "csv")
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == "1.0,1.0,7"

    def test_dedup_and_topk_extras(self, tmp_path, capsys):
        doc = tmp_path / "set.txt"
        doc.write_text("a b c\na b c\n")
        code, out, _ = run(
            capsys,
            "measure", str(doc), "--dedup",
            "--topk-zeta", "10", "--topk-beta", "0.5",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kappa_total"] == 7
        assert payload["kappa_dup"] == 11
        assert payload["kappa_1_topk"] == pytest.approx(0.875)

    def test_dedup_total_past_the_float_range_exits_6(self, tmp_path, monkeypatch, capsys):
        # Three distinct rankings, one of them twice: N*s/D = 8/3 is not an
        # integer, so the exact total plus it can only be written as a float.
        doc = tmp_path / "set.txt"
        doc.write_text("a b c\nc b a\na b c\nb a c\n")
        huge = measures.KappaProfile(series=(2**1100,), exact=True)
        monkeypatch.setattr(measures, "kappa_series", lambda sv, params: huge)
        code, out, err = run(capsys, "measure", str(doc), "--dedup", "--format", "csv")
        assert (code, out) == (6, "")
        assert err == "error: kappa_dup is not an integer and exceeds the float range\n"

    @pytest.mark.parametrize("command", ["measure", "oracle-check"])
    def test_out_of_memory_exits_6_with_one_line(self, tmp_path, monkeypatch, capsys, command):
        # The pass raises at once, as a too-large allocation would; nothing
        # large is allocated.
        doc = tmp_path / "set.txt"
        doc.write_text("a b c\nc b a\n")

        def exhausted(sv, params):
            raise MemoryError

        monkeypatch.setattr(measures, "kappa_series", exhausted)
        code, out, err = run(capsys, command, str(doc))
        assert (code, out) == (6, "")
        assert err == "error: out of memory; the input is too large for this machine\n"

    @pytest.mark.parametrize(
        "fmt, tail",
        [("table", ["2 inf", "ell 2", "kappa inf"]), ("csv", ["0.9,1.0,inf"])],
    )
    def test_weighted_term_past_the_float_range(self, tmp_path, monkeypatch, capsys, fmt, tail):
        # About 1030 common items at gamma and lambda near 1 take a term past
        # the float range; that run takes minutes, so the series is stubbed.
        doc = tmp_path / "set.txt"
        doc.write_text("a b c\n")
        series = measures.KappaProfile(series=(3.0, float("inf")), exact=False)
        monkeypatch.setattr(measures, "kappa_series", lambda sv, params: series)
        code, out, err = run(capsys, "measure", str(doc), "--gamma", "0.9", "--format", fmt)
        assert (code, err) == (0, "")
        assert out.splitlines()[-len(tail) :] == tail

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_an_exact_total_past_the_digit_limit_is_written_in_full(
        self, tmp_path, monkeypatch, capsys, fmt
    ):
        # 2**15000 - 1 has 4516 digits, past the 4300 that str() of an int
        # allows by default. The stub returns it, so nothing large is computed.
        doc = tmp_path / "set.txt"
        doc.write_text("a b c\n")
        total = 2**15000 - 1
        series = measures.KappaProfile(series=(total,), exact=True)
        monkeypatch.setattr(measures, "kappa_series", lambda sv, params: series)
        code, out, err = run(capsys, "measure", str(doc), "--format", fmt)
        assert (code, err) == (0, "")
        assert str(Decimal(total)) in out

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    @pytest.mark.parametrize(
        "argv",
        [
            ["measure", "--gamma", "0.9"],
            ["sweep", "--gamma-grid", "0.9:0.9:0", "--lambda-grid", "1:1:0"],
        ],
    )
    def test_weighted_term_past_the_float_range_as_json_exits_6(
        self, tmp_path, monkeypatch, capsys, argv, value
    ):
        # JSON has no word for inf or nan; csv and table write them. An
        # inf term reaches the writer through either route: the stub gives
        # the terms after the trace, kappa_1 = 3.0. params.keeps refuses a
        # nan term, so no route keeps one, and the results are stubbed whole.
        doc = tmp_path / "set.txt"
        doc.write_text("a b c\n")
        if value == math.inf:
            monkeypatch.setattr(measures, "_packed_terms", lambda sv, params: iter((value,)))
        else:
            profile = measures.KappaProfile(series=(3.0, value), exact=False)
            point = measures.SweepPoint(0.9, 1.0, profile)
            monkeypatch.setattr(measures, "kappa_series", lambda sv, params: profile)
            monkeypatch.setattr(measures, "kappa_sweep", lambda sv, *grid: [point])
        code, out, err = run(capsys, argv[0], str(doc), *argv[1:], "--format", "json")
        assert (code, out) == (6, "")
        assert err == (
            "error: a result is inf or nan, which JSON cannot hold; csv and table write it\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["measure", "--gamma", "0.9"],
            ["sweep", "--gamma-grid", "0.9:0.9:0", "--lambda-grid", "1:1:0"],
            # The exact corner and the weighted point share one pass of
            # counts, whichever of the two the grid reaches first.
            ["sweep", "--gamma-grid", "1:0.9:0.1", "--lambda-grid", "1:1:0"],
            ["sweep", "--gamma-grid", "0.9:1:0.1", "--lambda-grid", "1:1:0"],
        ],
    )
    def test_counts_past_the_float_range_are_inf(self, tmp_path, capsys, argv):
        # One ranking of 1100 tokens at lambda = 1: kappa_p = C(1100, p),
        # which passes the float range from p = 388 to 712 (and so does the total).
        tokens = " ".join(f"t{k}" for k in range(1100))
        doc = tmp_path / "long.txt"
        doc.write_text(tokens + "\n")
        code, out, err = run(capsys, argv[0], str(doc), *argv[1:], "--format", "csv")
        assert (code, err) == (0, "")
        rows = {tuple(row.split(",")[:2]): row.split(",")[2] for row in out.splitlines()[1:]}
        assert rows.pop(("0.9", "1.0")) == "inf"
        # The exact corner, where the sweep has one, keeps every digit.
        assert rows in ({}, {("1.0", "1.0"): str(2**1100 - 1)})
        code, out, err = run(capsys, argv[0], str(doc), *argv[1:], "--format", "json")
        assert (code, out) == (6, "")
        profile = measure(make_set(tokens), MeasureParams(gamma=0.9))
        inf = [p for p, value in enumerate(profile.series, 1) if value == math.inf]
        assert (inf[0], inf[-1], len(inf)) == (388, 712, 325)
        assert profile.value_at(387) == float(comb(1100, 387))
        assert profile.ell == 1100

    def test_weighted_table_total_past_1e25(self, tmp_path, capsys):
        # Two identical rankings of 100 tokens: every item deviates by 0, so
        # at lambda = 1 the weighted total is 2**100 - 1 up to rounding.
        doc = tmp_path / "same.txt"
        tokens = " ".join(f"t{k}" for k in range(100))
        doc.write_text(f"{tokens}\n{tokens}\n")
        code, out, err = run(capsys, "measure", str(doc), "--gamma", "0.9", "--format", "table")
        assert (code, err) == (0, "")
        label, cell = out.splitlines()[-1].split()
        assert label == "kappa" and cell.endswith(".000")
        assert float(cell) == pytest.approx(2**100, rel=1e-12)

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "result.csv"
        code, out, _ = run(
            capsys, "measure", "clustering", "--output", str(target), "--format", "csv"
        )
        assert code == 0
        assert out == ""
        assert target.read_text().splitlines()[0] == "gamma,lambda,kappa"


class TestSweep:
    def test_single_point_matches_measure(self, capsys):
        code, sweep_out, _ = run(
            capsys,
            "sweep", "clustering_ce",
            "--gamma-grid", "1:1:0", "--lambda-grid", "0.95:0.95:0",
            "--format", "csv",
        )
        assert code == 0
        rset = cli._load_document("clustering_ce").to_ranking_set()
        expected = measure(rset, MeasureParams(gamma=1.0, lam=0.95)).total
        line = sweep_out.splitlines()[1].split(",")
        assert line[0] == "1.0" and line[1] == "0.95"
        assert float(line[2]) == expected

    def test_full_grid_row_count(self, capsys):
        code, out, _ = run(capsys, "sweep", "clustering_ce", "--format", "csv")
        assert code == 0
        assert len(out.splitlines()) == 1 + 144

    def test_bad_grid_exits_3(self, capsys):
        code, _, err = run(capsys, "sweep", "clustering", "--gamma-grid", "1:2:1")
        assert code == 3
        assert "grid" in err

    def test_per_p_requires_csv(self, capsys):
        code, _, err = run(
            capsys,
            "sweep", "clustering", "--per-p", "1,2", "--format", "table",
        )
        assert code == 3
        assert "csv" in err

    @pytest.mark.parametrize(
        "per_p,message",
        [
            ("1,x", "per-p must be a comma list of integers, got '1,x'"),
            ("0", "per-p values must be positive integers"),
        ],
    )
    def test_bad_per_p_exits_3(self, capsys, per_p, message):
        code, out, err = run(capsys, "sweep", "clustering", "--per-p", per_p, "--format", "csv")
        assert (code, out, err) == (3, "", f"error: {message}\n")

    def test_per_p_columns(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "clustering_ce",
            "--gamma-grid", "1:1:0", "--lambda-grid", "1:1:0",
            "--per-p", "1,2", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "gamma,lambda,kappa,kappa_1,kappa_2"
        assert lines[1].startswith("1.0,1.0,19,10,")

    def test_byte_determinism(self, capsys):
        args = ("sweep", "clustering_ga", "--format", "csv")
        code1, first, _ = run(capsys, *args)
        code2, second, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert first == second

    def test_exact_table_cell_past_two_to_the_53(self, tmp_path, capsys):
        # Two identical rankings of 60 tokens share 2**60 - 1 chains.
        path = tmp_path / "same.txt"
        tokens = " ".join(f"t{k}" for k in range(60))
        path.write_text(f"{tokens}\n{tokens}\n")
        code, out, _ = run(
            capsys,
            "sweep", str(path), "--gamma-grid", "1:1:0", "--lambda-grid", "1:1:0",
            "--format", "table",
        )
        assert code == 0
        assert out.splitlines()[1].split() == ["1.0", f"{2**60 - 1}.000"]

    def test_single_exact_point_equals_measure_bytes(self, capsys):
        _, from_sweep, _ = run(
            capsys,
            "sweep", "clustering_ce",
            "--gamma-grid", "1:1:0", "--lambda-grid", "1:1:0", "--format", "csv",
        )
        _, from_measure, _ = run(capsys, "measure", "clustering_ce", "--format", "csv")
        assert from_sweep == from_measure

    def test_std_variant_reaches_reference_corner(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "clustering_ce",
            "--gamma-grid", "0.45:0.45:0", "--lambda-grid", "0.45:0.45:0",
            "--deviation", "std", "--format", "csv",
        )
        assert code == 0
        value = float(out.splitlines()[1].split(",")[2])
        assert abs(value - 3.101) <= 1e-3


class TestBaseline:
    def test_csv_pairs_and_aggregate(self, tmp_path, capsys):
        doc = tmp_path / "pair.txt"
        doc.write_text("a b c\na c b\n")
        code, out, _ = run(
            capsys, "baseline", str(doc), "--index", "tau", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "first,second,value"
        assert lines[1].startswith("1,2,0.333")
        assert lines[-1].startswith("aggregate,mean,0.333")

    def test_tied_input_exits_4(self, tmp_path, capsys):
        doc = tmp_path / "tied.txt"
        doc.write_text("a {b c}\na b c\n")
        code, _, err = run(capsys, "baseline", str(doc), "--index", "tau")
        assert code == 4
        assert "tied rankings are not supported" in err

    def test_mismatched_items_exit_4(self, tmp_path, capsys):
        doc = tmp_path / "mismatch.txt"
        doc.write_text("a b c\na b d\n")
        code, _, err = run(capsys, "baseline", str(doc), "--index", "rho")
        assert code == 4
        assert "pair (1, 2)" in err

    def test_partial_dataset_exits_4(self, capsys):
        code, _, err = run(capsys, "baseline", "search_google", "--index", "tau")
        assert code == 4
        assert "rankings do not cover the same items" in err

    def test_full_dataset_mean_is_bounded(self, capsys):
        code, out, _ = run(
            capsys, "baseline", "clustering", "--index", "tau", "--format", "csv"
        )
        assert code == 0
        aggregate = float(out.splitlines()[-1].split(",")[2])
        assert -1.0 <= aggregate <= 1.0

    def test_identical_rankings_footrule_sum_is_zero(self, tmp_path, capsys):
        doc = tmp_path / "same.txt"
        doc.write_text("a b c\na b c\n")
        code, out, _ = run(
            capsys,
            "baseline", str(doc), "--index", "footrule", "--mode", "sum",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[-1] == "aggregate,sum,0.0"

    def test_table_uses_labels(self, tmp_path, capsys):
        doc = tmp_path / "labeled.txt"
        doc.write_text("x: a b c\ny: c b a\n")
        code, out, _ = run(
            capsys,
            "baseline", str(doc), "--index", "tau", "--mode", "min", "--format", "table",
        )
        assert code == 0
        assert "x" in out and "y" in out
        assert "aggregate (min): -1.000" in out

    @pytest.mark.parametrize(
        "content,expected",
        [
            (
                # The unlabeled second ranking would be 2, which the first declares.
                "2: a b c\nc b a\n",
                "     -       2      #2\n"
                "     2       .  -1.000\n"
                "    #2  -1.000       .\n"
                "aggregate (mean): -1.000\n",
            ),
            (
                "a b c\na c b\n",
                "    -      1      2\n"
                "    1      .  0.333\n"
                "    2  0.333      .\n"
                "aggregate (mean): 0.333\n",
            ),
        ],
        ids=["repeated-label", "cells-wider-than-labels"],
    )
    def test_table_golden(self, tmp_path, capsys, content, expected):
        doc = tmp_path / "rankings.txt"
        doc.write_text(content)
        code, out, _ = run(capsys, "baseline", str(doc), "--index", "tau", "--format", "table")
        assert code == 0
        assert out == expected

    def test_generated_label_differs_from_declared_ones(self, tmp_path, capsys):
        doc = tmp_path / "rankings.txt"
        doc.write_text("2: a b c\nc b a\n")
        code, out, _ = run(capsys, "baseline", str(doc), "--index", "tau", "--format", "csv")
        assert code == 0
        assert out == "first,second,value\n2,#2,-1.0\n#2,2,-1.0\naggregate,mean,-1.0\n"
        code, out, _ = run(capsys, "baseline", str(doc), "--index", "tau", "--format", "json")
        assert code == 0
        assert out == (
            '{\n  "index": "tau",\n  "mode": "mean",\n  "pairs": [\n'
            '    [\n      "2",\n      "#2",\n      -1.0\n    ],\n'
            '    [\n      "#2",\n      "2",\n      -1.0\n    ]\n'
            '  ],\n  "aggregate": -1.0\n}\n'
        )

    def test_csv_quotes_labels(self, tmp_path, capsys):
        doc = tmp_path / "rankings.json"
        doc.write_text(json.dumps({"rankings": [
            {"label": "x,y", "groups": [["a"], ["b"], ["c"]]},
            {"label": 'say "q"\nnow', "groups": [["c"], ["b"], ["a"]]},
        ]}))
        code, out, _ = run(capsys, "baseline", str(doc), "--index", "tau", "--format", "csv")
        assert code == 0
        assert out == (
            "first,second,value\n"
            '"x,y","say ""q""\nnow",-1.0\n'
            '"say ""q""\nnow","x,y",-1.0\n'
            "aggregate,mean,-1.0\n"
        )
        assert [len(row) for row in csv.reader(StringIO(out))] == [3, 3, 3, 3]

    def test_csv_quotes_a_bare_carriage_return(self, tmp_path, capsys):
        doc = tmp_path / "rankings.json"
        doc.write_text(json.dumps({"rankings": [
            {"label": "a\rb", "groups": [["a"], ["b"]]},
            {"label": "c", "groups": [["b"], ["a"]]},
        ]}))
        code, out, _ = run(capsys, "baseline", str(doc), "--index", "tau", "--format", "csv")
        assert code == 0
        assert out == (
            "first,second,value\n"
            '"a\rb",c,-1.0\n'
            'c,"a\rb",-1.0\n'
            "aggregate,mean,-1.0\n"
        )
        rows = list(csv.reader(StringIO(out)))
        assert rows[1:3] == [["a\rb", "c", "-1.0"], ["c", "a\rb", "-1.0"]]


class TestOracleCheck:
    def test_passes_on_small_sets(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "clustering_ce")
        assert code == 0
        assert "oracle check passed" in out
        assert "kappa=19" in out

    def test_weighted_pass(self, capsys):
        code, out, _ = run(
            capsys,
            "oracle-check", "clustering_ga", "--gamma", "0.8", "--lambda", "0.6",
        )
        assert code == 0

    def test_weighted_routes_share_the_epsilon_cutoff(self, tmp_path, capsys):
        # kappa_4 = 1.0 does not exceed epsilon = 1, so neither route keeps it.
        path = tmp_path / "example.txt"
        path.write_text("\n".join(EXAMPLE_LINES) + "\n")
        code, out, err = run(
            capsys, "oracle-check", str(path), "--gamma", "0.9", "--epsilon", "1"
        )
        assert code == 0
        assert err == ""
        assert out == "oracle check passed: ell=3 kappa=15.579425958575573\n"

    def test_a_term_within_an_ulp_of_epsilon_is_cut_once(self, capsys):
        # The matrix route's kappa_2 is 3.9567393065812473, the oracle's
        # 3.956739306581248: one ulp apart, on either side of epsilon.
        code, out, err = run(
            capsys,
            "oracle-check", "clustering_ga", "--gamma", "0.9", "--lambda", "0.8",
            "--epsilon", "3.9567393065812473",
        )
        assert (code, err) == (0, "")
        assert out == "oracle check passed: ell=1 kappa=8.227843743254285\n"

    def test_large_input_exits_6(self, capsys):
        code, _, err = run(capsys, "oracle-check", "search_google")
        assert code == 6
        assert "enumeration guard" in err

    @pytest.mark.parametrize(
        "weights", [(), ("--gamma", "0.9", "--lambda", "0.8")], ids=["exact", "weighted"]
    )
    def test_forced_mismatch_exits_5(self, monkeypatch, capsys, weights):
        # The exact routes must agree on every count; the weighted routes
        # within 1e-9 relative, so one term 1e-6 relative off fails.
        def fake_profile(rset, params):
            if params.exact:
                return measure(make_set("a b", "b a"), params)
            profile = measure(rset, params)
            first, *rest = profile.series
            return replace(profile, series=(first * (1 + 1e-6), *rest))

        monkeypatch.setattr(oracle, "oracle_profile", fake_profile)
        code, _, err = run(capsys, "oracle-check", "clustering", *weights)
        assert code == 5
        assert err.startswith("oracle check FAILED\np series oracle\n")

    @pytest.mark.parametrize(
        "weights", [(), ("--gamma", "0.9", "--lambda", "0.8")], ids=["exact", "weighted"]
    )
    def test_a_series_one_term_short_exits_5(self, monkeypatch, capsys, weights):
        # Every term the two routes share agrees; the one the oracle lacks
        # is 0 there, so the series do not match.
        def short_profile(rset, params):
            profile = measure(rset, params)
            return replace(profile, series=profile.series[:-1])

        monkeypatch.setattr(oracle, "oracle_profile", short_profile)
        code, out, err = run(capsys, "oracle-check", "clustering", *weights)
        assert (code, out) == (5, "")
        assert err.startswith("oracle check FAILED\np series oracle\n")
        assert err.splitlines()[-1].endswith(" 0")


class TestExperiment:
    def test_clustering_report(self, capsys):
        code, out, _ = run(capsys, "experiment", "clustering")
        assert code == 0
        assert "== CE ==" in out
        assert "== GA ==" in out
        assert "best variant: mad" in out
        assert "max abs deviation (std): 0.000" in out
        assert "reproduces reference within 0.001: std" in out

    def test_search_report(self, capsys):
        code, out, _ = run(capsys, "experiment", "search")
        assert code == 0
        assert "== Google ==" in out
        assert "== Bing ==" in out
        assert "kappa_1 at gamma=1: 7" in out
        assert "kappa_1 at gamma=1: 8" in out

    def test_report_is_deterministic(self, capsys):
        _, first, _ = run(capsys, "experiment", "search")
        _, second, _ = run(capsys, "experiment", "search")
        assert first == second


@pytest.mark.parametrize(
    "argv,surveys",
    [
        (["measure", "clustering"], 1),
        (
            ["measure", "clustering", "--gamma", "0.9", "--dedup",
             "--topk-zeta", "8.3", "--topk-beta", "0.5"],
            1,
        ),
        (["sweep", "clustering"], 1),
        (["oracle-check", "clustering"], 1),
        (["experiment", "clustering"], 2),
        (["experiment", "search"], 2),
    ],
    ids=["measure", "measure-dedup-topk", "sweep", "oracle-check", "experiment-clustering",
         "experiment-search"],
)
def test_survey_calls_per_command(monkeypatch, capsys, argv, surveys):
    # One survey per input; --dedup and top-k read the measure's survey.
    calls = []
    for module in (graph, measures):
        real = module.survey

        def counted(*args, real=real):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(module, "survey", counted)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert len(calls) == surveys


def test_repeated_calls_in_one_process_give_the_same_results(tmp_path, capsys):
    # main runs many times in one process (the benchmark's worker does);
    # calls that fail, in argparse or in a handler, leave the next call's
    # output and exit code as they were.
    doc = tmp_path / "set.txt"
    doc.write_text("\n".join(EXAMPLE_LINES) + "\n")
    measure_argv = ["measure", str(doc), "--format", "json"]
    first = run(capsys, *measure_argv)
    assert first[0] == 0
    assert json.loads(first[1])["kappa_total"] == 17
    sweep = run(capsys, "sweep", str(doc), "--gamma-grid", "1:0.9:0.1",
                "--lambda-grid", "1:1:0", "--per-p", "1,2", "--format", "csv")
    assert sweep[0] == 0
    assert sweep[1].splitlines()[0] == "gamma,lambda,kappa,kappa_1,kappa_2"
    assert run(capsys, "measure", str(doc), "--gamma", "1.5") == (
        3, "", "error: gamma must be in (0,1]\n"
    )
    with pytest.raises(SystemExit) as exc:
        cli.main(["measure", str(doc), "--format", "yaml"])
    assert exc.value.code == 2
    assert "invalid choice: 'yaml'" in capsys.readouterr().err
    assert run(capsys, *measure_argv) == first


def test_each_subcommand_takes_the_listed_options():
    # A flag added or dropped shows here. sweep takes no --gamma or
    # --lambda, since its grids set both at every point.
    parser = cli.build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    found = {
        name: [a.option_strings[0] if a.option_strings else a.dest
               for a in sub._actions if a.dest != "help"]
        for name, sub in commands.choices.items()
    }
    assert found == {
        "measure": ["input", "--gamma", "--lambda", "--epsilon", "--deviation", "--dedup",
                    "--topk-zeta", "--topk-beta", "--format", "--output"],
        "sweep": ["input", "--epsilon", "--deviation", "--gamma-grid", "--lambda-grid",
                  "--per-p", "--format", "--output"],
        "baseline": ["input", "--index", "--mode", "--format", "--output"],
        "oracle-check": ["input", "--gamma", "--lambda", "--epsilon", "--deviation"],
        "experiment": ["name", "--output"],
    }
