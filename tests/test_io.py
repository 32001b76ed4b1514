from __future__ import annotations

import hashlib
import json
import sys
import threading
from decimal import Decimal

import pytest

from rankconsensus.graph import MeasureParams, survey
from rankconsensus.io import (
    Dataset,
    ParseError,
    load_dataset,
    load_reference_sweep,
    parse_json,
    parse_text,
    round3,
    write_results,
)
from rankconsensus.measures import measure
from rankconsensus.model import ValidationError

from conftest import make_set
from reference import serialize_json, serialize_text

# The bundled data files are inputs to golden tests elsewhere, so any
# edit must be deliberate. Checksums catch silent drift.
DATA_SHA256 = {
    "clustering.txt": "779e9c79db6eff0479f7b070dca136563f25ea75b65263614e82d61a83740376",
    "clustering_ce.txt": "d35f16646cac8499bf8ab3bdbd12d3cdb9b0673ba52365e8dcd1c37193e24176",
    "clustering_ga.txt": "191d1ca069d083b93800bb42a7a6c65ddc0b65926c14165abe31a4c732c2c669",
    "reference_bing.csv": "77460d26ed4debb0a5021a1f71be74552f9839f2ee20c83bce27c0a806791881",
    "reference_ce.csv": "dd668b402320c1a2b6b8bfc5436baefc8b686debbc7fe1255a7cee54d5317ae5",
    "reference_ga.csv": "cc5ee50f220be61c45cf61c0cc4a9dd411ca6615d7dc8cda1fbac76309e92766",
    "reference_google.csv": "050c490c181157b019c727207347c8abb172fb25300cfb3aaed6f34d2ccda2c5",
    "search_bing.txt": "693740da09e465c8877169f58b807ffc1d4c72be168b724e348afd8c972d96ef",
    "search_google.txt": "50ce05dfa77c365105d3eb58d7b1147b6f7a4e149eed73e1beede38691d07b4a",
}


class TestParseText:
    def test_plain_lines(self):
        doc = parse_text("a b c\nb a c\n")
        assert len(doc.rankings) == 2
        assert doc.rankings[0].ranking.groups == (("a",), ("b",), ("c",))
        assert doc.labels() == ["1", "2"]

    def test_labels_comments_and_blanks(self):
        doc = parse_text("# header\n\nfirst: a b  # trailing\nsecond: b a\n")
        assert doc.labels() == ["first", "second"]
        assert doc.rankings[0].ranking.groups == (("a",), ("b",))

    def test_tie_groups(self):
        doc = parse_text("a {c b} d")
        assert doc.rankings[0].ranking.groups == (("a",), ("b", "c"), ("d",))

    def test_brace_only_line_is_not_a_label(self):
        doc = parse_text("{a} b")
        assert doc.rankings[0].label is None

    @pytest.mark.parametrize(
        "content,message",
        [
            ("a b a", "duplicate item a at line 1"),
            ("x: a\nx: b", "duplicate label x at line 2"),
            (": a b", "empty label at line 1"),
            ("lonely:", "empty ranking at line 1"),
            ("a {b c", "unbalanced braces at line 1"),
            ("a b} c", "unbalanced braces at line 1"),
            ("a {}", "empty tie group at line 1"),
            ("a {b {c} }", "nested braces at line 1"),
            ("ok\na{b c}", "brace must start a token at line 2"),
            ("a\x1cb\nc c", "duplicate item c at line 2"),
            ("a b {c b} a", "duplicate item b at line 1"),
            # A repeat in a tie group is named in line order, not sorted order.
            ("x {c b c b}", "duplicate item c at line 1"),
            ("y: {z y z} a", "duplicate item z at line 1"),
            ("{d c} a {a b}", "duplicate item a at line 1"),
        ],
    )
    def test_errors(self, content, message):
        with pytest.raises(ParseError) as err:
            parse_text(content)
        assert str(err.value) == message

    def test_newline_and_carriage_return_end_a_line(self):
        doc = parse_text("a b\r\nb a\rc a\n")
        assert [raw.ranking.groups for raw in doc.rankings] == [
            (("a",), ("b",)),
            (("b",), ("a",)),
            (("c",), ("a",)),
        ]

    @pytest.mark.parametrize(
        "separator", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_other_line_breaks_separate_tokens(self, separator):
        assert parse_text(f"a b{separator}c d\na b c d\n") == parse_text(
            "a b c d\na b c d\n"
        )

    def test_empty_document_fails_at_model_level(self):
        doc = parse_text("# only comments\n")
        with pytest.raises(ValidationError, match="empty ranking set"):
            doc.to_ranking_set()


class TestParseJson:
    def test_minimal_document(self):
        doc = parse_json('{"rankings": [{"groups": [["a"], ["b", "c"]]}]}')
        assert doc.rankings[0].ranking.groups == (("a",), ("b", "c"))
        assert doc.labels() == ["1"]

    @pytest.mark.parametrize(
        "content,fragment",
        [
            ("[1]", "$: expected an object"),
            ("{}", "$: missing key rankings"),
            ('{"rankings": {}}', "$.rankings: expected a list"),
            ('{"rankings": []}', "$.rankings: empty ranking set"),
            ('{"rankings": [5]}', "$.rankings[0]: expected an object"),
            ('{"rankings": [{}]}', "$.rankings[0]: missing key groups"),
            ('{"rankings": [{"label": 7, "groups": [["a"]]}]}', "$.rankings[0].label: expected a string"),
            ('{"rankings": [{"groups": []}]}', "$.rankings[0].groups: expected a non-empty list"),
            ('{"rankings": [{"groups": ["a"]}]}', "$.rankings[0].groups[0]: expected a list of tokens"),
            ('{"rankings": [{"groups": [[]]}]}', "$.rankings[0].groups[0]: empty tie group"),
            ('{"rankings": [{"groups": [["a"], [7]]}]}', "$.rankings[0].groups[1]: invalid token 7"),
            ('{"rankings": [{"groups": [["a b"]]}]}', "invalid token 'a b'"),
            ('{"rankings": [{"groups": [["a"], ["a"]]}]}', "$.rankings[0]: duplicate item a"),
            ('{"rankings": [{"label": "x", "groups": [["a"]]}, {"label": "x", "groups": [["a"]]}]}',
             "duplicate label x"),
            ("not json", "invalid JSON"),
        ],
    )
    def test_errors(self, content, fragment):
        with pytest.raises(ParseError) as err:
            parse_json(content)
        assert fragment in str(err.value)


class TestRoundTrips:
    DOC = "one: a {b c} d\ntwo: d c b a\n"

    def test_text_round_trip(self):
        doc = parse_text(self.DOC)
        assert serialize_text(doc) == self.DOC
        assert parse_text(serialize_text(doc)) == doc

    @pytest.mark.parametrize(
        "entry,named",
        [
            ({"groups": [["a:"], ["b"]]}, "'a:'"),
            ({"groups": [["a"], ["b#c"]]}, "'b#c'"),
            ({"label": "x y", "groups": [["a"]]}, "'x y'"),
            ({"label": "x#", "groups": [["a"]]}, "'x#'"),
            ({"label": "{x}", "groups": [["a"]]}, "'{x}'"),
            ({"label": "", "groups": [["a"]]}, "''"),
        ],
    )
    def test_text_refuses_what_it_cannot_hold(self, entry, named):
        doc = parse_json(json.dumps({"rankings": [entry]}))
        with pytest.raises(ValueError, match=named):
            serialize_text(doc)

    def test_text_writes_a_colon_token_that_cannot_be_a_label(self):
        doc = parse_json(
            '{"rankings": [{"label": "x", "groups": [["a:"]]}, {"groups": [["b", "c:"]]}]}'
        )
        assert parse_text(serialize_text(doc)) == doc

    def test_json_round_trip(self):
        doc = parse_text(self.DOC)
        again = parse_json(serialize_json(doc))
        assert again.rankings == doc.rankings

    def test_json_output_is_valid_json(self):
        doc = parse_text(self.DOC)
        payload = json.loads(serialize_json(doc))
        assert payload["rankings"][0]["label"] == "one"


class TestDatasets:
    def test_checksums(self):
        from importlib import resources

        root = resources.files("rankconsensus") / "data"
        for filename, expected in DATA_SHA256.items():
            digest = hashlib.sha256(
                (root / filename).read_bytes()
            ).hexdigest()
            assert digest == expected, filename

    def test_clustering_shape(self):
        doc = load_dataset(Dataset.CLUSTERING)
        assert len(doc.rankings) == 7
        assert doc.labels() == [
            "APN", "AD", "ADM", "FOM", "Connectivity", "Dunn", "Silhouette",
        ]
        assert all(len(raw.ranking.groups) == 10 for raw in doc.rankings)

    def test_clustering_variants_append_one_row(self):
        for name, label in ((Dataset.CLUSTERING_GA, "GA"), (Dataset.CLUSTERING_CE, "CE")):
            doc = load_dataset(name)
            assert len(doc.rankings) == 8
            assert doc.labels()[-1] == label

    def test_clustering_ga_row(self):
        doc = load_dataset("clustering_ga")
        tokens = [group[0] for group in doc.rankings[-1].ranking.groups]
        assert tokens == "SM HR KM FN AG PM CL DI ST MO".split()

    def test_search_shape(self):
        for name in (Dataset.SEARCH_GOOGLE, Dataset.SEARCH_BING):
            doc = load_dataset(name)
            assert len(doc.rankings) == 6
            assert doc.labels() == ["BF", "BM", "0M", "0F", "JF", "JM"]
            assert all(len(raw.ranking.groups) == 25 for raw in doc.rankings)

    def test_google_first_row_prefix(self):
        doc = load_dataset(Dataset.SEARCH_GOOGLE)
        tokens = [group[0] for group in doc.rankings[0].ranking.groups]
        assert tokens[:4] == ["0", "68", "9", "59"]

    def test_unknown_dataset(self):
        with pytest.raises(ValueError):
            load_dataset("nonexistent")


class TestReferenceSweeps:
    def test_shape_and_axes(self):
        grid12 = [x / 100 for x in range(100, 44, -5)]
        for name in ("ce", "ga", "google", "bing"):
            gammas, lams, grid = load_reference_sweep(name)
            assert gammas == grid12
            assert lams == grid12
            assert len(grid) == 12 and all(len(row) == 12 for row in grid)

    def test_known_corners(self):
        _, _, ce = load_reference_sweep("ce")
        assert ce[0][0] == 19.0
        _, _, ga = load_reference_sweep("ga")
        assert ga[0][0] == 19.0
        _, _, google = load_reference_sweep("google")
        assert google[0][0] == 33.0
        _, _, bing = load_reference_sweep("bing")
        assert bing[0][0] == 23.0

    def test_unknown_table(self):
        with pytest.raises(ValueError, match="unknown reference table"):
            load_reference_sweep("altavista")


class TestRendering:
    def test_round3_half_up(self):
        assert round3(17.589037) == "17.589"
        assert round3(0.0005) == "0.001"
        assert round3(2.0005) == "2.001"
        assert round3(19) == "19.000"
        assert round3(-0.0005) == "-0.001"

    def test_round3_keeps_every_digit_of_an_int(self):
        assert round3(0) == "0.000"
        assert round3(-7) == "-7.000"
        assert round3(2**1100) == f"{2**1100}.000"

    def test_round3_of_a_float_past_the_default_decimal_precision(self):
        assert round3(1e30) == "1" + "0" * 30 + ".000"
        assert round3(-1.5e300) == "-15" + "0" * 299 + ".000"
        # The digits are those of the float's repr, as for any other value.
        assert round3(sys.float_info.max) == "17976931348623157" + "0" * 292 + ".000"

    def test_round3_writes_a_non_finite_float_as_its_repr(self):
        assert round3(float("inf")) == "inf"
        assert round3(float("-inf")) == "-inf"
        assert round3(float("nan")) == "nan"

    def test_profile_table_golden_cell(self):
        rset = load_dataset(Dataset.CLUSTERING_CE).to_ranking_set()
        params = MeasureParams(gamma=1.0, lam=0.95)
        profile = measure(rset, params)
        text = write_results(profile, "table", params=params)
        assert "kappa 17.589" in text
        assert text.startswith("p kappa_p\n")

    def test_example_profile_json(self, example_set):
        params = MeasureParams()
        payload = json.loads(
            write_results(measure(example_set, params), "json", params=params)
        )
        assert payload["kappa_series"] == [[1, 5], [2, 7], [3, 4], [4, 1]]
        assert payload["kappa_total"] == 17
        assert payload["ell"] == 4

    def test_sweep_table_golden_cell(self):
        from rankconsensus.measures import kappa_sweep

        rset = load_dataset(Dataset.CLUSTERING_CE).to_ranking_set()
        points = kappa_sweep(survey(rset), [1.0], [0.95])
        text = write_results(points, "table")
        assert "17.589" in text

    def test_profile_csv_and_json(self):
        rset = make_set("a b c", "a b c")
        params = MeasureParams()
        profile = measure(rset, params)
        csv = write_results(profile, "csv", params=params)
        assert csv == "gamma,lambda,kappa\n1.0,1.0,7\n"
        payload = json.loads(write_results(profile, "json", params=params))
        assert payload["kappa_total"] == 7
        assert payload["ell"] == 3
        assert payload["kappa_series"] == [[1, 3], [2, 3], [3, 1]]
        assert payload["params"]["lambda"] == 1.0

    def test_profile_with_extras(self):
        rset = make_set("a b", "a b")
        params = MeasureParams()
        profile = measure(rset, params)
        csv = write_results(profile, "csv", params=params, extras={"kappa_dup": 7})
        assert csv.splitlines()[0] == "gamma,lambda,kappa,kappa_dup"
        assert csv.splitlines()[1] == "1.0,1.0,3,7"

    def test_empty_profile_csv(self):
        rset = make_set("a b", "c d")
        params = MeasureParams()
        profile = measure(rset, params)
        assert write_results(profile, "csv", params=params) == "gamma,lambda,kappa\n1.0,1.0,0\n"

    def test_sweep_csv_per_p_fills_missing_with_zero(self):
        from rankconsensus.measures import kappa_sweep

        rset = make_set("a b c", "a b c")
        points = kappa_sweep(survey(rset), [1.0], [1.0])
        text = write_results(points, "csv", per_p=[1, 2, 9])
        lines = text.splitlines()
        assert lines[0] == "gamma,lambda,kappa,kappa_1,kappa_2,kappa_9"
        assert lines[1] == "1.0,1.0,7,3,3,0"

    def test_sweep_table_layout(self):
        from rankconsensus.measures import kappa_sweep

        rset = make_set("a b c", "a b c")
        points = kappa_sweep(survey(rset), [1.0, 0.9], [1.0, 0.8])
        text = write_results(points, "table")
        lines = text.splitlines()
        assert lines[0].split() == ["gamma\\lambda", "1.0", "0.8"]
        assert lines[1].split() == ["1.0", "7.000", "5.880"]

    def test_sweep_json_lists_points(self):
        from rankconsensus.measures import kappa_sweep

        rset = make_set("a b", "a b")
        points = kappa_sweep(survey(rset), [1.0], [1.0])
        payload = json.loads(write_results(points, "json"))
        assert payload == [
            {"gamma": 1.0, "lambda": 1.0, "kappa": 3, "series": [[1, 2], [2, 1]]}
        ]

    # 4516 digits, past the interpreter's default limit of 4300 on str() of an int.
    HUGE = 2**15000 - 1

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_an_exact_total_of_any_size_is_written_in_full(self, fmt):
        from rankconsensus.measures import KappaProfile, SweepPoint

        digits = str(Decimal(self.HUGE))
        profile = KappaProfile(series=(self.HUGE,), exact=True)
        extras = {"kappa_dup": self.HUGE}
        limit = sys.get_int_max_str_digits()
        profile_text = write_results(profile, fmt, params=MeasureParams(), extras=extras)
        sweep_text = write_results([SweepPoint(gamma=1.0, lam=1.0, profile=profile)], fmt)
        assert sys.get_int_max_str_digits() == limit
        if fmt == "json":
            sys.set_int_max_str_digits(0)
            try:
                written, swept = json.loads(profile_text), json.loads(sweep_text)
            finally:
                sys.set_int_max_str_digits(limit)
            assert written["kappa_total"] == written["kappa_dup"] == self.HUGE
            assert written["kappa_series"] == [[1, self.HUGE]]
            assert swept[0]["kappa"] == self.HUGE
        elif fmt == "csv":
            assert profile_text.splitlines()[1] == f"1.0,1.0,{digits},{digits}"
            assert sweep_text.splitlines()[1] == f"1.0,1.0,{digits}"
        else:
            assert profile_text.splitlines()[-2:] == [f"kappa {digits}", f"kappa_dup {digits}"]
            assert sweep_text.splitlines()[1].split() == ["1.0", f"{digits}.000"]

    def test_the_digit_limit_is_restored_when_a_writer_fails(self):
        from rankconsensus.measures import KappaProfile

        limit = sys.get_int_max_str_digits()
        profile = KappaProfile(series=(float("nan"),), exact=False)
        with pytest.raises(ValueError):
            write_results(profile, "json", params=MeasureParams())
        assert sys.get_int_max_str_digits() == limit
        with pytest.raises(ValueError):
            str(self.HUGE)

    def test_a_writer_in_another_thread_keeps_every_digit(self):
        # Writer A lifts the limit and is held inside; writer B starts
        # then. Were B to read the lifted value as its own to restore, A's
        # restore would cut B's digits short.
        from rankconsensus.measures import KappaProfile

        def held():
            inside, go = threading.Event(), threading.Event()

            class Held(KappaProfile):
                @property
                def total(self):
                    inside.set()
                    go.wait(10)
                    return super().total

            return Held(series=(self.HUGE,), exact=True), inside, go

        limit = sys.get_int_max_str_digits()
        outputs = {}

        def write(name, profile):
            try:
                outputs[name] = write_results(profile, "csv", params=MeasureParams())
            except ValueError as exc:
                outputs[name] = exc

        (first, first_inside, first_go), (second, second_inside, second_go) = held(), held()
        a = threading.Thread(target=write, args=("a", first))
        b = threading.Thread(target=write, args=("b", second))
        a.start()
        assert first_inside.wait(10)
        b.start()
        second_inside.wait(0.2)
        first_go.set()
        a.join(10)
        second_go.set()
        b.join(10)
        assert not a.is_alive() and not b.is_alive()
        expected = f"gamma,lambda,kappa\n1.0,1.0,{Decimal(self.HUGE)}\n"
        assert outputs == {"a": expected, "b": expected}
        assert sys.get_int_max_str_digits() == limit

    def test_profile_requires_params(self):
        rset = make_set("a b", "a b")
        profile = measure(rset, MeasureParams())
        with pytest.raises(ValueError, match="requires params"):
            write_results(profile, "csv")

    def test_unknown_format(self):
        rset = make_set("a b", "a b")
        profile = measure(rset, MeasureParams())
        with pytest.raises(ValueError, match="unknown format"):
            write_results(profile, "yaml", params=MeasureParams())

