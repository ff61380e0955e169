"""The benchmark's tracer (`perfbench/spans.py`) against the live package.

The tracer wraps korovkinlab's callables by name from outside the package,
so renaming or re-signing a hooked name would otherwise fail only in a
traced benchmark run. One traced `korovkin run` and one traced `choquet`
must each record a span at every layer they reach and write the same files
as an untraced run.
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


# every span a traced `choquet --preset example43_disc` records; its span
# holds d(., x0)^2, so the Korovkin candidate certifies every point and no
# `choquet.linprog` span appears (the fejer run above keeps that hook covered)
CHOQUET_SPANS = {
    "cli.main",
    "config.validate_config",
    "config.build_spaces",
    "config.build_spans",
    "config.build_choquet_params",
    "space.build",
    "choquet.scan",
    "choquet.verify",
    "functions.values",
}


def _traced(args: list[str], out, trace) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    child = [sys.executable, str(ROOT / "perfbench" / "traced_child.py"), "t", str(trace), "--"]
    proc = subprocess.run(
        [*child, *args, "--out", str(out)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(trace.read_text())


def test_traced_run_records_every_layer(tmp_path):
    args = ["korovkin", "run", "--preset", "example43_fejer"]
    payload = _traced(args, tmp_path / "traced", tmp_path / "trace.json")
    assert {span["name"] for span in payload["spans"]} == SPANS
    assert payload["rule_calls"] > 0

    assert main([*args, "--out", str(tmp_path / "plain")]) == 0
    report = (tmp_path / "traced" / "report.csv").read_bytes()
    assert report == (tmp_path / "plain" / "report.csv").read_bytes()


def test_traced_choquet_records_every_layer(tmp_path):
    args = ["choquet", "--preset", "example43_disc"]
    payload = _traced(args, tmp_path / "traced", tmp_path / "trace.json")
    names = {span["name"] for span in payload["spans"]}
    assert "choquet.linprog" not in names
    assert names == CHOQUET_SPANS

    assert main([*args, "--out", str(tmp_path / "plain")]) == 0
    for name in ("choquet.csv", "certificates.json"):
        traced = (tmp_path / "traced" / name).read_bytes()
        assert traced == (tmp_path / "plain" / name).read_bytes(), name
