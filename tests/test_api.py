import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rankconsensus

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_exported_name_resolves():
    missing = [name for name in rankconsensus.__all__ if not hasattr(rankconsensus, name)]
    assert missing == []
    assert len(set(rankconsensus.__all__)) == len(rankconsensus.__all__)


@pytest.mark.skipif(not (BENCH / "tracing.py").is_file(), reason="bench/ is absent")
def test_benchmark_tracer_finds_every_name_it_wraps():
    # A renamed or deleted name would otherwise show only in a traced bench run.
    paths = [str(BENCH.parent / "src"), str(BENCH)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    script = (
        "import json, tracing\n"
        "recorder = tracing.Recorder()\n"
        "recorder.install()\n"
        "print(json.dumps(recorder.missing))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert json.loads(done.stdout) == []
