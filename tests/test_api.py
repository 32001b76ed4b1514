import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rankconsensus

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def test_every_exported_name_resolves():
    missing = [name for name in rankconsensus.__all__ if not hasattr(rankconsensus, name)]
    assert missing == []
    assert len(set(rankconsensus.__all__)) == len(rankconsensus.__all__)


def test_readme_library_example_gives_its_comments():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict[str, object] = {}
    shown = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if comment:
            shown.append((code.strip(), ast.literal_eval(comment.strip())))
        else:
            exec(code, namespace)
    assert [name for name, _ in shown] == ["profile.series", "profile.ell", "profile.total"]
    for expression, expected in shown:
        assert eval(expression, namespace) == expected


@pytest.mark.skipif(not (BENCH / "tracing.py").is_file(), reason="bench/ is absent")
def test_benchmark_tracer_finds_every_name_it_wraps():
    # A renamed or deleted name would otherwise show only in a benchmark
    # run: the workloads import names at load time, the tracer wraps them,
    # and the reference totals and the survey hook read Survey.matrix and
    # Survey.edges on a call.
    paths = [str(BENCH.parent / "src"), str(BENCH)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths), PYTHONDONTWRITEBYTECODE="1")
    script = (
        "import json, tracing, workloads\n"
        "from rankconsensus import RankingSet, graph\n"
        "recorder = tracing.Recorder()\n"
        "recorder.install()\n"
        "rset = RankingSet.build([['a', 'b', 'c'], ['a', 'c', 'b']])\n"
        "params = graph.MeasureParams(gamma=0.9, lam=0.9)\n"
        "assert workloads.closed_total(graph.survey(rset), params) > 0\n"
        "assert recorder.counts['graph.edges'] == 2\n"
        "print(json.dumps(recorder.missing))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert json.loads(done.stdout) == []
