"""The benchmark's tracer (`perfbench/spans.py`) against the live package.

The tracer wraps korovkinlab's callables by name from outside the package,
so renaming or re-signing a hooked name would otherwise fail only in a
traced benchmark run. One traced `korovkin run` must record a span at every
hooked layer and write the same report as an untraced run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from korovkinlab.cli import main

ROOT = Path(__file__).resolve().parent.parent

# every span a traced `korovkin run --preset example43_fejer` records
SPANS = {
    "cli.main",
    "config.validate_config",
    "config.build_experiment",
    "space.build",
    "engine.hypotheses",
    "engine.convergence",
    "choquet.scan",
    "choquet.linprog",
    "choquet.verify",
    "operators.kernel_build",
    "operators.apply",
    "operators.positivity",
    "functions.values",
}


def test_traced_run_records_every_layer(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    trace = tmp_path / "trace.json"
    args = ["korovkin", "run", "--preset", "example43_fejer", "--out"]
    child = [sys.executable, str(ROOT / "perfbench" / "traced_child.py"), "t", str(trace), "--"]
    proc = subprocess.run(
        [*child, *args, str(tmp_path / "traced")], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(trace.read_text())
    assert {span["name"] for span in payload["spans"]} == SPANS
    assert payload["rule_calls"] > 0

    assert main([*args, str(tmp_path / "plain")]) == 0
    report = (tmp_path / "traced" / "report.csv").read_bytes()
    assert report == (tmp_path / "plain" / "report.csv").read_bytes()
