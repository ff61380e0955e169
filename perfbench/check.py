"""Output checker for one benchmark command.

Checks, per command:
- the exit code is 0;
- `korovkin run`: `report.csv` matches the recorded SHA-256 in
  `reference.json`, and the boundary counts in `hypotheses.json` show no
  point moved between Boundary and NotDetected;
- `choquet`: every certificate re-verifies with `verify_peak_certificate`
  against the span rebuilt from the config and has margin >= DELTA_MIN,
  every Boundary row has exactly one certificate, and no label contradicts
  the reference labels.

Cloud inputs change with the seed, so their reference labels come from the
exact geometry instead of a recording. For the span {1, z} the peak points
of a finite set are the vertices of its convex hull: a point inside the
hull of the others is a convex combination of them, so no affine h can
peak there. Points within HULL_BAND of the others' hull accept either
label, because a vertex with a nearly flat angle can have a best margin
below DELTA_MIN (on seeds 1-30 every hull vertex was certified, the
closest one 1.2e-6 outside the others' hull). For {1, z, zbar, |z|^2} every point is a peak point
(h = 1 - |z - x0|^2 / 4).

Indeterminate is counted, not treated as a mismatch, so that a later fix
can turn it into Boundary. Margins are not compared with a reference.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import DELTA_MIN, Workload

REFERENCE_FILE = Path(__file__).with_name("reference.json")
HULL_BAND = 1e-3


@dataclass
class CheckResult:
    attempted: int
    indeterminate: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def check_command(
    wl: Workload, out_dir: Path, exit_code: int, reference: dict
) -> CheckResult:
    """Check one command's exit code and output files."""
    res = CheckResult(attempted=wl.n_points)
    if exit_code != 0:
        res.problems.append(f"exit code {exit_code}, expected 0")
        return res
    try:
        if wl.expected == "report":
            _check_report(wl, out_dir, reference[wl.name], res)
        else:
            _check_scan(wl, out_dir, res)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        res.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return res


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_report(wl: Workload, out_dir: Path, ref: dict, res: CheckResult) -> None:
    digest = sha256(out_dir / "report.csv")
    if digest != ref["report_sha256"]:
        res.problems.append(f"report.csv digest {digest} differs from the reference")
    hyp = json.loads((out_dir / "hypotheses.json").read_text())
    counts = hyp["choquet_inclusion"]["target_boundary_counts"]
    res.indeterminate = counts["Indeterminate"]
    if sum(counts.values()) != wl.n_points:
        res.problems.append(f"boundary counts {counts} do not cover {wl.n_points} points")
    for label in ("Boundary", "NotDetected"):
        if counts[label] > ref["labels"][label]:
            res.problems.append(
                f"{counts[label]} points labelled {label}, reference has {ref['labels'][label]}"
            )


def _coeff(c) -> complex:
    return complex(c[0], c[1]) if isinstance(c, list) else complex(c)


def _check_scan(wl: Workload, out_dir: Path, res: CheckResult) -> None:
    # imported here: run.py puts src/ on sys.path only once it has seen it exists
    from korovkinlab.choquet import PeakCertificate, verify_peak_certificate
    from korovkinlab.config import build_spaces, build_spans

    with (out_dir / "choquet.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    if [int(r["point_index"]) for r in rows] != list(range(wl.n_points)):
        res.problems.append(f"choquet.csv does not list points 0..{wl.n_points - 1} in order")
        return
    labels = [r["classification"] for r in rows]
    res.indeterminate = labels.count("Indeterminate")

    points = wl.config["spaces"]["C"]["points"]
    for i, (got, want) in enumerate(zip(labels, reference_labels(wl.expected, points))):
        if got in ("Boundary", "NotDetected") and want is not None and got != want:
            res.problems.append(f"point {i} labelled {got}, reference says {want}")

    payload = json.loads((out_dir / "certificates.json").read_text())
    if payload["delta_min"] != DELTA_MIN:
        res.problems.append(f"certificates use delta_min {payload['delta_min']}, expected {DELTA_MIN}")
    span = build_spans(wl.config, build_spaces(wl.config))[wl.expected]
    certified = []
    for entry in payload["certificates"]:
        i = int(entry["point_index"])
        certified.append(i)
        cert = PeakCertificate(
            x0=i,
            coeffs=tuple(_coeff(c) for c in entry["coeffs"]),
            margin=float(entry["margin"]),
            radius=float(entry["radius"]),
        )
        ok, why = verify_peak_certificate(span, cert)
        if not ok:
            res.problems.append(f"certificate at point {i} fails re-verification: {why}")
        if cert.margin < DELTA_MIN:
            res.problems.append(f"certificate at point {i} has margin {cert.margin} < {DELTA_MIN}")
    boundary = [i for i, lab in enumerate(labels) if lab == "Boundary"]
    if sorted(certified) != boundary:
        res.problems.append("certificates do not match the Boundary rows one to one")


def reference_labels(span: str, points: list[list[float]]) -> list[str | None]:
    """Label each point must carry; None where either label is accepted."""
    if span == "hermitian":
        return ["Boundary"] * len(points)
    out: list[str | None] = []
    for i, p in enumerate(points):
        depth = _depth_outside(p, convex_hull(points[:i] + points[i + 1 :]))
        if depth > HULL_BAND:
            out.append("Boundary")
        elif depth < -HULL_BAND:
            out.append("NotDetected")
        else:
            out.append(None)
    return out


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points: list[list[float]]) -> list[tuple[float, float]]:
    """Vertices of the convex hull in counter-clockwise order (monotone chain)."""
    pts = sorted({(float(x), float(y)) for x, y in points})
    if len(pts) < 3:
        return pts
    lower: list[tuple[float, float]] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _depth_outside(p, hull: list[tuple[float, float]]) -> float:
    """Distance from p to a convex polygon: positive outside, negative inside."""
    dists = []
    outside = False
    for a, b in zip(hull, hull[1:] + hull[:1]):
        ex, ey = b[0] - a[0], b[1] - a[1]
        length = math.hypot(ex, ey)
        signed = _cross(a, b, p) / length  # > 0 on the inner side of a CCW edge
        if signed < 0:
            outside = True
        t = max(0.0, min(1.0, ((p[0] - a[0]) * ex + (p[1] - a[1]) * ey) / length**2))
        dists.append((math.hypot(p[0] - a[0] - t * ex, p[1] - a[1] - t * ey), signed))
    if outside:
        return min(d for d, _ in dists)
    return -min(s for _, s in dists)
