"""Seeded workload generator for the korovkinlab benchmark.

Each workload is one `korovkinlab` CLI command on one generated JSON
configuration. The program sees only the configuration file; the seed never
reaches it except as `experiment.seed` where a workload says so.

Run `python3 perfbench/workloads.py SEED DIR` to write every workload's
configuration to DIR.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

# Scan threshold the benchmark holds certificates to. The generated configs
# carry no `choquet` block, so the program uses its documented default.
DELTA_MIN = 1e-6

CLOUD_INNER = 64
CLOUD_CIRCLE = 32
CLOUD_INNER_RADIUS_SQ = 0.97

# Per workload: why it was chosen (one line, also in BENCHMARK.json).
WHY = {
    "disc_preset": (
        "LP layer: example43_disc, 257 points; ~99% of the time is HiGHS (524 linprog calls"
        " of ~4100 rows) and every point is accepted on a symmetric grid (9 orbits)"
    ),
    "tensor_convergence": (
        "operator and function layers: 81-point box grid, tensor Bernstein at n=8..256; time"
        " goes to KernelOperator.apply and ~1.1M rule calls, which the disc barely touches"
    ),
    "cloud_reject": (
        "LP rejection branch: span {1, z} on a seeded 96-point cloud (64 inside, 32 on the"
        " circle) with no symmetry; interior points are certified NotDetected"
    ),
    "cloud_accept": (
        "acceptance without symmetry: span {1, z, zbar, |z|^2} on the same 96-point cloud;"
        " carries the known Indeterminate defect (peak search does not settle)"
    ),
}


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    argv: tuple[str, ...]  # CLI arguments before --config/--out
    n_points: int  # grid points the command classifies
    expected: str  # "report" for `korovkin run`, else the scanned span's name

    def command(self, config_path: Path, out_dir: Path) -> list[str]:
        return [*self.argv, "--config", str(config_path), "--out", str(out_dir)]


def cloud_points(
    seed: int, n_inner: int = CLOUD_INNER, n_circle: int = CLOUD_CIRCLE
) -> list[list[float]]:
    """`n_inner` points uniform in the disc of radius sqrt(0.97), then
    `n_circle` points at seeded angles on the unit circle, as [re, im]."""
    rng = random.Random(seed)
    pts = []
    for _ in range(n_inner):
        rad = math.sqrt(CLOUD_INNER_RADIUS_SQ * rng.random())
        ang = 2.0 * math.pi * rng.random()
        pts.append([rad * math.cos(ang), rad * math.sin(ang)])
    for _ in range(n_circle):
        ang = 2.0 * math.pi * rng.random()
        pts.append([math.cos(ang), math.sin(ang)])
    return pts


def cloud_config(points: list[list[float]]) -> dict:
    return {
        "version": 1,
        "name": "cloud",
        "spaces": {"C": {"kind": "custom", "field": "complex", "points": points}},
        "spans": {
            "analytic": {"space": "C", "basis": ["const1", "z"]},
            "hermitian": {"space": "C", "basis": ["const1", "z", "zbar", "|z|^2"]},
        },
    }


def _disc_config(seed: int) -> dict:
    # the example43_disc preset, written out so that a later change to the
    # presets does not change the workload
    return {
        "version": 1,
        "name": "example43_disc",
        "spaces": {"D": {"kind": "disc", "rings": 8, "per_ring": 32}},
        "spans": {"hermitian": {"space": "D", "basis": ["const1", "z", "zbar", "|z|^2"]}},
        "family": {"name": "mollifier_disc", "space": "D"},
        "experiment": {
            "test_span": "hermitian",
            "probes": "default",
            "indices": [2, 4, 8, 32],
            "seed": seed,
        },
    }


def _tensor_config(seed: int) -> dict:
    # example42_tensor's grid and span with a longer index list
    return {
        "version": 1,
        "name": "tensor_convergence",
        "spaces": {"K": {"kind": "box", "p": 2, "m": 8}},
        "spans": {
            "quadratic2d": {
                "space": "K",
                "basis": ["const1", "coord 1", "coord 2", "coord 1^2", "coord 2^2"],
            }
        },
        "family": {"name": "tensor_bernstein", "space": "K"},
        "experiment": {
            "test_span": "quadratic2d",
            "probes": "default",
            "indices": [8, 32, 128, 256],
            "seed": seed,
        },
    }


def generate(name: str, seed: int) -> Workload:
    """The workload `name` for benchmark seed `seed`."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if name == "disc_preset":
        return Workload(name, _disc_config(seed), ("korovkin", "run"), 257, "report")
    if name == "tensor_convergence":
        return Workload(name, _tensor_config(seed), ("korovkin", "run"), 81, "report")
    if name in ("cloud_reject", "cloud_accept"):
        span = "analytic" if name == "cloud_reject" else "hermitian"
        pts = cloud_points(seed)
        return Workload(name, cloud_config(pts), ("choquet", "--span", span), len(pts), span)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WHY)}")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: workloads.py SEED DIR", file=sys.stderr)
        return 2
    seed, out = int(argv[0]), Path(argv[1])
    out.mkdir(parents=True, exist_ok=True)
    for name in WHY:
        wl = generate(name, seed)
        (out / f"{name}.json").write_text(json.dumps(wl.config, indent=1) + "\n")
        print(f"{name}: korovkinlab {' '.join(wl.argv)} on {wl.n_points} points")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
