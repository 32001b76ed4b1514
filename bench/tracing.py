"""Spans and counts around each layer's public functions, from outside.

``Recorder.install`` replaces the public functions of every layer with
wrappers, on the module or class where their callers look them up, so
the program's source stays untouched. Each call records a span (name,
start, end, parent span, operation id) in memory; counts are taken from
the arguments and results at the same boundary. Self time is a span's
duration minus the durations of its direct children.

Only the traced run installs the wrappers; end-to-end metrics come from
runs without them.
"""
from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from time import perf_counter

# Span names, in the order their metrics are reported.
SPANS = (
    "cli",
    "io.parse",
    "model.build",
    "graph.survey",
    "graph.matrix",
    "measures.measure",
    "measures.sweep",
    "measures.series_exact",
    "measures.series_weighted",
    "io.render",
    "oracle.enumerate",
    "baselines.aggregate",
    "baselines.index",
)

COUNTS = (
    "graph.survey_calls",
    "graph.common_items",
    "graph.edges",
    "graph.pairs",
    "graph.matrix_builds",
    "measures.series_calls",
    "measures.terms",
    "measures.edge_mults",
    "measures.total_bits",
    "io.bytes_in",
    "io.bytes_out",
    "oracle.subsequences",
    "baselines.pair_evals",
)


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.counts: Counter[str] = Counter()
        self.last_edges = 0
        self.missing: list[str] = []

    def call(self, name, func, args, kwargs, after=None):
        index = len(self.spans)
        span = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.op]
        self.spans.append(span)
        self.stack.append(index)
        try:
            result = func(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self.stack.pop()
        if after is not None:
            after(span, args, result)
        return result

    def _wrap(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return

        def wrapper(*args, **kwargs):
            return self.call(name, original, args, kwargs, after)

        setattr(owner, attr, wrapper)

    def _count(self, table: dict, entry, key: str) -> None:
        """Count calls of a function held in a lookup table, without a span."""
        original = table[entry]

        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return original(*args, **kwargs)

        table[entry] = wrapper

    # Hooks run after a successful call: (span, args, result).
    def _after_parse(self, span, args, result) -> None:
        self.counts["io.bytes_in"] += len(args[0].encode("utf-8"))

    def _after_render(self, span, args, result) -> None:
        self.counts["io.bytes_out"] += len(result.encode("utf-8"))

    def _after_survey(self, span, args, result) -> None:
        common = sum(result.common)
        self.last_edges = len(result.edges)
        self.counts["graph.survey_calls"] += 1
        self.counts["graph.common_items"] += common
        self.counts["graph.edges"] += self.last_edges
        self.counts["graph.pairs"] += common * (common - 1) // 2

    def _after_matrix(self, span, args, result) -> None:
        self.counts["graph.matrix_builds"] += 1

    def _after_series(self, span, args, result) -> None:
        # One y <- L y product per reported term.
        steps = len(result.series)
        self.counts["measures.series_calls"] += 1
        self.counts["measures.terms"] += steps
        self.counts["measures.edge_mults"] += self.last_edges * steps
        if result.exact:
            span[0] = "measures.series_exact"
            self.counts["measures.total_bits"] += int(result.total).bit_length()

    def _after_enumerate(self, span, args, result) -> None:
        self.counts["oracle.subsequences"] += len(result)

    def install(self) -> None:
        from rankconsensus import baselines, graph, io, measures, oracle

        self._wrap(io, "parse_text", "io.parse", self._after_parse)
        self._wrap(io, "write_results", "io.render", self._after_render)
        self._wrap(io.RankingDocument, "to_ranking_set", "model.build")
        self._wrap(graph, "survey", "graph.survey", self._after_survey)
        self._wrap(measures, "survey", "graph.survey", self._after_survey)
        self._wrap(graph.Survey, "matrix", "graph.matrix", self._after_matrix)
        self._wrap(measures, "kappa_series", "measures.series_weighted", self._after_series)
        self._wrap(measures, "measure", "measures.measure")
        self._wrap(measures, "kappa_sweep", "measures.sweep")
        self._wrap(oracle, "oracle_profile", "oracle.enumerate")
        self._wrap(oracle, "enumerate_common", "oracle.enumerate", self._after_enumerate)
        self._wrap(baselines, "pairwise_aggregate", "baselines.aggregate")
        self._wrap(baselines, "pairwise_index", "baselines.index")
        # pairwise_aggregate and pairwise_index both look the index
        # functions up in this table; each lookup is one pair evaluation.
        table = getattr(baselines, "_INDEX_FUNCS", {})
        for key in list(table):
            self._count(table, key, "baselines.pair_evals")

    def times(self) -> dict[str, tuple[float, float]]:
        """(total, self) seconds per span name.

        Total sums only outermost spans of a name, so a name nested in
        itself (enumeration inside the oracle profile) is not counted twice.
        """
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        result = {name: [0.0, 0.0] for name in SPANS}
        for k, (name, start, end, parent, _) in enumerate(self.spans):
            duration = end - start
            if parent < 0 or self.spans[parent][0] != name:
                result[name][0] += duration
            result[name][1] += duration - children[k]
        return {name: (total, own) for name, (total, own) in result.items()}

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps([name, start, end, parent, op]) + "\n")
