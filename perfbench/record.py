"""Run every workload over several seeds and print its metrics by name.

Usage (from the root of a source checkout):

    python3 perfbench/record.py [--runs 10] [--first-seed 1]
                                [--workloads a,b] [--write]

Runs `run.py --trace 0` once per seed and workload, then `--trace 1` once
per workload on the first seed. Prints, per workload and end-to-end metric,
the median, the quartiles and their spread as a share of the median next
to the metric's bound from BENCHMARK.json, then the traced per-layer
numbers and the five largest self times. `--write` stores all of it, with
the machine description, in perfbench/baseline.json, replacing only the
entries of the workloads it ran. Exits 1 when any run failed its output
check.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import workloads
from spans import self_time_table

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload} seed {seed}: no result (exit {proc.returncode})")
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med, "values": values}


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    seconds = BENCHMARK["run_seconds"]
    bounds = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))

    out = HERE / "baseline.json"
    record = json.loads(out.read_text()) if out.exists() else {"workloads": {}}
    record.update(machine=machine(), run_seconds=seconds)
    all_correct = True
    for name in args.workloads.split(","):
        results = [bench(name, seed, seconds, 0) for seed in seeds]
        traced = bench(name, seeds[0], seconds, 1)
        all_correct &= all(r["correct"] for r in results + [traced])
        wl = workloads.generate(name, seeds[0])
        entry = {
            "why": workloads.WHY[name],
            "gated": name in [w["name"] for w in BENCHMARK["workloads"]],
            "seeds": seeds,
            "command": "korovkinlab " + " ".join(wl.argv),
            "points": wl.n_points,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "correct": all(r["correct"] for r in results),
            "end_to_end": {},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(f"\n{name}: {entry['command']} on {wl.n_points} points, seeds {seeds[0]}..{seeds[-1]}")
        for metric, spec in bounds.items():
            s = spread([r["metrics"][metric]["value"] for r in results])
            s["unit"] = spec["unit"]
            entry["end_to_end"][metric] = s
            print(
                f"  {metric:<12} median {s['median']:10.5g} {spec['unit']:<3}"
                f" quartiles {s['q1']:.5g} .. {s['q3']:.5g}"
                f"  spread {s['iqr_share']:.4f} (bound {spec['bound']}, a third is {spec['bound'] / 3:.4f})"
            )
        share = entry["failed"] / entry["attempted"]
        print(f"  failed_share {share:.4g} ({entry['failed']} of {entry['attempted']})")
        trace_file = ROOT / ".perfbench_work" / f"trace-{name}-s{seeds[0]}.json"
        trace = json.loads(trace_file.read_text())
        entry["self_time_s"] = dict(list(self_time_table(trace).items())[:8])
        entry["indeterminate_notes"] = [
            n for s in trace["spans"] if s["name"] == "choquet.scan"
            for n in s["attrs"].get("indeterminate", [])
        ]
        print("  largest self times: " + ", ".join(
            f"{k} {v:.3g} s" for k, v in list(entry["self_time_s"].items())[:5]))
        for metric, value in entry["per_layer"].items():
            print(f"    {metric:<26} {value:.6g}")
        record["workloads"][name] = entry
    if args.write:
        out.write_text(json.dumps(record, indent=1) + "\n")
        print(f"\nwrote {out}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
