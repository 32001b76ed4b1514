import ast
import functools
import inspect
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import rankconsensus

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def test_every_exported_name_resolves():
    missing = [name for name in rankconsensus.__all__ if not hasattr(rankconsensus, name)]
    assert missing == []
    assert len(set(rankconsensus.__all__)) == len(rankconsensus.__all__)


def test_every_exported_class_and_function_has_a_docstring():
    # A dataclass without one gets its generated signature as __doc__,
    # which says nothing its fields do not. Methods and properties count
    # only with their own docstring, not one inherited from a base.
    missing = []
    for name in rankconsensus.__all__:
        obj = getattr(rankconsensus, name)
        if inspect.isfunction(obj):
            if not obj.__doc__:
                missing.append(name)
            continue
        if not inspect.isclass(obj):
            continue
        doc = vars(obj).get("__doc__")
        if not doc or doc.startswith(f"{obj.__name__}("):
            missing.append(name)
        for attr, member in vars(obj).items():
            if attr.startswith("_"):
                continue
            if isinstance(member, (classmethod, staticmethod)):
                member = member.__func__
            kinds = (property, functools.cached_property)
            if (inspect.isfunction(member) or isinstance(member, kinds)) and not member.__doc__:
                missing.append(f"{name}.{attr}")
    assert missing == []


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports names to export them.
    unused = []
    for path in sorted((ROOT / "src" / "rankconsensus").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used
        ]
    assert unused == []


def test_no_source_line_is_longer_than_100_characters():
    long_lines = [
        f"{path.name}:{number}"
        for path in sorted((ROOT / "src" / "rankconsensus").glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert long_lines == []


def test_only_io_imports_a_format_module():
    # The io module reads and writes every format; the others hand it results.
    importers = []
    for path in sorted((ROOT / "src" / "rankconsensus").glob("*.py")):
        if path.name == "io.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module.split(".")[0]]
            else:
                continue
            importers += [f"{path.name}:{node.lineno} {m}" for m in modules if m in ("json", "csv")]
    assert importers == []


def test_every_exported_function_is_read_by_the_library_or_the_benchmark():
    # A public function that no code in src/ or bench/ reads only widens
    # the surface; helpers that only the tests need live in
    # tests/reference.py. A read is a name, an attribute or a string
    # constant (bench/tracing.py wraps functions by name), outside the
    # function's own def and outside __init__.py, which only exports.
    # A docstring is no read.
    exported = {
        name for name in rankconsensus.__all__ if inspect.isfunction(getattr(rankconsensus, name))
    }
    read = set()
    for path in [*(ROOT / "src" / "rankconsensus").glob("*.py"), *BENCH.glob("*.py")]:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        documented = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        docstrings = {
            id(node.body[0].value)
            for node in ast.walk(tree)
            if isinstance(node, documented) and ast.get_docstring(node, clean=False) is not None
        }
        for statement in tree.body:
            own = statement.name if isinstance(statement, ast.FunctionDef) else None
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    word = node.id
                elif isinstance(node, ast.Attribute):
                    word = node.attr
                elif isinstance(node, ast.Constant) and id(node) not in docstrings:
                    word = node.value
                else:
                    continue
                if word != own:
                    read.add(word)
    assert sorted(exported - read) == []


def test_readme_library_example_gives_its_comments():
    # Every python block of the section runs, in order, in one namespace,
    # so a stale name or signature in any of them fails here. A comment
    # that is a Python literal is the value of the line's expression.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    namespace: dict[str, object] = {}
    checked = []
    for line in "".join(blocks).splitlines():
        code, _, comment = line.partition("#")
        try:
            expected = ast.literal_eval(comment.strip())
        except (SyntaxError, ValueError):
            exec(line, namespace)
        else:
            checked.append(code.strip())
            assert eval(code, namespace) == expected, code
    assert checked == ["profile.series", "profile.ell", "profile.total", "kappa_dup(sv, p)"]


def test_readme_attribute_names_resolve():
    # A backticked sv.X, Survey.X, r.X, p.X or profile.X in the prose
    # names an attribute or a dataclass field of the class it stands for,
    # so a renamed or deleted one cannot linger there. Fields without a
    # default, such as Survey.masks and Ranking.tokens, are no class
    # attributes, so the fields are checked too.
    owners = {
        "sv": rankconsensus.Survey,
        "Survey": rankconsensus.Survey,
        "r": rankconsensus.Ranking,
        "p": rankconsensus.MeasureParams,
        "profile": rankconsensus.KappaProfile,
    }
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    prose = re.sub(r"```.*?```", "", readme, flags=re.S)
    named = {
        match.groups()
        for span in re.findall(r"`([^`]+)`", prose)
        for match in re.finditer(r"\b(sv|Survey|r|p|profile)\.(\w+)", span)
    }
    stale = [
        f"{owner}.{name}"
        for owner, name in sorted(named)
        if not hasattr(owners[owner], name)
        and name not in {field.name for field in fields(owners[owner])}
    ]
    assert stale == []
    assert {owner for owner, _ in named} == set(owners)


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
