"""korovkinlab benchmark: run one workload and print its metrics.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run generates the workload's config from the seed, then runs its
`korovkinlab` command again and again as a fresh process (a closed loop
with one client) until S seconds have passed, at least once. Every
command's outputs go through `check.py`.

--trace 0 reports the end-to-end metrics:
  wall_s       median wall time of one command, spawn to exit;
  setup_s      median of SETUP_SAMPLES fresh processes that import
               korovkinlab.cli, validate the config and build its objects;
  peak_rss_mb  median over the commands of each one's peak resident memory.
--trace 1 adds one run of the same command in-process under the span
wrappers of `spans.py`, checks that its output files are byte-identical to
the untraced ones, and reports the per-layer metrics instead. The spans go
to .perfbench_work/trace-<workload>-s<seed>.json.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. An operation is one grid
point's classification; it fails when labelled Indeterminate, and every
point of a command fails when the command fails its check. The exit code
is 1 when a check failed and 2 when the run could not start (for example
when `src/korovkinlab` is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import spans
import workloads
from check import CheckResult, check_command, load_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 3
# a run must end within 180 s; no command starts after this point
DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class RunFailed(Exception):
    """The run cannot produce a result."""


@dataclass
class Proc:
    code: int
    wall_s: float
    peak_rss_mb: float


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("KOROVKINLAB_OUT", None)
    # one BLAS thread: with one client on a 2-core machine, threaded BLAS
    # made the same command's wall time vary by about 20% between runs
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: list[str], deadline: float, log: Path) -> Proc:
    """Run `python3 ARGS`, timing it and reading its peak RSS from wait4."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunFailed("out of time before starting a command")
    with log.open("ab") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=out, env=_env(), cwd=ROOT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode < 0:
        raise RunFailed(f"command killed by signal {-proc.returncode}: {args}")
    return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


class Runner:
    def __init__(self, wl: workloads.Workload, seed: int, work: Path):
        self.wl = wl
        self.seed = seed
        self.work = work
        self.config = work / "config.json"
        self.config.write_text(json.dumps(wl.config, indent=1) + "\n")
        self.log = work / "commands.log"
        self.reference = load_reference()
        self.deadline = time.monotonic() + DEADLINE_S
        self.results: list[CheckResult] = []

    def setup_once(self) -> float:
        args = [str(HERE / "setup_child.py"), str(self.config), self.wl.argv[0]]
        proc = spawn(args, self.deadline, self.log)
        if proc.code != 0:
            raise RunFailed(f"set-up probe exited {proc.code}; see {self.log}")
        return proc.wall_s

    def command(self, out: Path) -> Proc:
        args = ["-m", "korovkinlab.cli", *self.wl.command(self.config, out)]
        proc = spawn(args, self.deadline, self.log)
        self.results.append(check_command(self.wl, out, proc.code, self.reference))
        return proc

    def loop(self, seconds: float) -> list[Proc]:
        """Closed loop, one client: the next command starts when one ends.

        A command starts only while its expected midpoint lies inside the
        window, so a command longer than the window runs once.
        """
        procs: list[Proc] = []
        t0 = time.monotonic()
        while True:
            procs.append(self.command(self.work / f"out{len(procs)}"))
            typical = statistics.median(p.wall_s for p in procs)
            now = time.monotonic()
            if now - t0 + 0.5 * typical > seconds or now + 1.5 * typical > self.deadline:
                return procs

    def traced(self) -> tuple[Proc, Path]:
        out = self.work / "traced"
        trace_file = WORK / f"trace-{self.wl.name}-s{self.seed}.json"
        run_id = f"{self.wl.name}-s{self.seed}-{os.getpid()}"
        args = [str(HERE / "traced_child.py"), run_id, str(trace_file), "--"]
        proc = spawn(args + self.wl.command(self.config, out), self.deadline, self.log)
        res = check_command(self.wl, out, proc.code, self.reference)
        self.results.append(res)
        if not res.ok:
            raise RunFailed(f"traced command failed its check: {res.problems[0]}")
        for name in ("report.csv", "choquet.csv"):
            untraced = self.work / "out0" / name
            if untraced.exists() and untraced.read_bytes() != (out / name).read_bytes():
                res.problems.append(f"traced {name} differs from the untraced one")
        return proc, trace_file


def run(args) -> dict:
    wl = workloads.generate(args.workload, args.seed)
    work = WORK / f"{wl.name}-s{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    runner = Runner(wl, args.seed, work)
    runner.setup_once()  # warm-up: byte-compiles the package and fills file caches

    metrics: dict[str, dict] = {}
    summary: list[str] = []
    if not args.trace:
        setups = [runner.setup_once() for _ in range(SETUP_SAMPLES)]
        procs = runner.loop(args.seconds)
        samples = {
            "wall_s": [p.wall_s for p in procs],
            "setup_s": setups,
            "peak_rss_mb": [p.peak_rss_mb for p in procs],
        }
        for name, values in samples.items():
            q1, med, q3 = quartiles(values)
            metrics[name] = {"value": med, "unit": END_TO_END_UNITS[name]}
            summary.append(
                f"{name:<12} {med:12.6g} {END_TO_END_UNITS[name]:<3}"
                f" (median of {len(values)}; quartiles {q1:.6g} .. {q3:.6g})"
            )
    else:
        procs = runner.loop(args.seconds)
        traced, trace_file = runner.traced()
        trace = json.loads(trace_file.read_text())
        overhead = traced.wall_s - statistics.median(p.wall_s for p in procs)
        values = spans.layer_metrics(trace, overhead)
        unresolved = spans.unresolved_percentiles(trace)
        for name, (unit, _) in spans.PER_LAYER.items():
            metrics[name] = {"value": values[name], "unit": unit}
            flag = "  (fewer than 10 calls above it)" if name in unresolved else ""
            summary.append(f"{name:<26} {values[name]:14.6g} {unit}{flag}")
        summary.append(f"spans written to {trace_file}")

    attempted = sum(r.attempted for r in runner.results)
    failed = sum(r.attempted if not r.ok else r.indeterminate for r in runner.results)
    problems = [p for r in runner.results for p in r.problems]
    summary.append(f"failed_share {failed / attempted:.6g} ({failed} of {attempted} classifications)")
    summary.extend(f"CHECK FAILED: {p}" for p in problems)
    if problems:
        summary.append(f"outputs kept in {work}")
    else:
        shutil.rmtree(work)
    print(f"workload {wl.name} seed {args.seed}: {len(runner.results)} commands", file=sys.stderr)
    print("\n".join("  " + line for line in summary), file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "korovkinlab" / "cli.py").is_file():
        print(f"error: no korovkinlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result = run(args)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
