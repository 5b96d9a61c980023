"""The traced benchmark's per-layer names still name functions of the package."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_benchmark_layer_name_is_produced():
    """A renamed or moved function fails here, not only in a traced benchmark run.

    `tracing.install` wraps the package's functions in place, so it runs in
    its own interpreter; it prints the names its wrappers can produce.
    """
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    code = "import json, tracing; print(json.dumps(sorted(tracing.install(tracing.Tracer()))))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=ROOT, check=True)
    produced = set(json.loads(proc.stdout))
    assert names
    assert [n for n in names if n not in produced] == []
