import csv
import json

import pytest

from check import check_command, convex_hull, reference_labels, sha256
from korovkinlab.cli import main as cli_main
from workloads import Workload, cloud_config, cloud_points


@pytest.fixture(scope="module")
def scan(tmp_path_factory):
    """A small analytic-span scan written by the real CLI."""
    tmp = tmp_path_factory.mktemp("scan")
    cfg = cloud_config(cloud_points(5, n_inner=10, n_circle=6))
    wl = Workload("cloud_reject", cfg, ("choquet", "--span", "analytic"), 16, "analytic")
    path = tmp / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp / "out"
    assert cli_main(list(wl.command(path, out))) == 0
    return wl, out


def _copy(src, dst):
    dst.mkdir()
    for name in ("choquet.csv", "certificates.json"):
        (dst / name).write_bytes((src / name).read_bytes())
    return dst


def test_clean_scan_passes(scan):
    wl, out = scan
    res = check_command(wl, out, 0, {})
    assert res.ok, res.problems
    assert res.attempted == 16


def test_unexpected_exit_code_fails(scan):
    wl, out = scan
    assert not check_command(wl, out, 1, {}).ok


def test_tampered_coefficient_fails(scan, tmp_path):
    wl, out = scan
    out = _copy(out, tmp_path / "o")
    payload = json.loads((out / "certificates.json").read_text())
    coeffs = payload["certificates"][0]["coeffs"]
    coeffs[1] = [c + 0.25 for c in coeffs[1]] if isinstance(coeffs[1], list) else coeffs[1] + 0.25
    (out / "certificates.json").write_text(json.dumps(payload))
    res = check_command(wl, out, 0, {})
    assert any("re-verification" in p for p in res.problems), res.problems


def test_flipped_label_fails(scan, tmp_path):
    wl, out = scan
    out = _copy(out, tmp_path / "o")
    with (out / "choquet.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    want = reference_labels("analytic", wl.config["spaces"]["C"]["points"])
    i = want.index("NotDetected")
    assert rows[i + 1][2] == "NotDetected"
    rows[i + 1][2] = "Boundary"
    with (out / "choquet.csv").open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    res = check_command(wl, out, 0, {})
    assert any(f"point {i} labelled Boundary" in p for p in res.problems), res.problems


def test_indeterminate_is_counted_not_a_mismatch(scan, tmp_path):
    wl, out = scan
    out = _copy(out, tmp_path / "o")
    with (out / "choquet.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    i = next(k for k, r in enumerate(rows) if r[2] == "NotDetected")
    rows[i][2] = "Indeterminate"
    with (out / "choquet.csv").open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    res = check_command(wl, out, 0, {})
    assert res.ok, res.problems
    assert res.indeterminate == 1


def _report_outputs(tmp_path, counts):
    (tmp_path / "report.csv").write_text("n,function\n8,const1\n")
    hyp = {"choquet_inclusion": {"target_boundary_counts": counts}}
    (tmp_path / "hypotheses.json").write_text(json.dumps(hyp))
    return Workload("tensor_convergence", {}, ("korovkin", "run"), 4, "report")


def test_report_digest_and_counts(tmp_path):
    wl = _report_outputs(tmp_path, {"Boundary": 3, "NotDetected": 0, "Indeterminate": 1})
    ref = {"tensor_convergence": {"report_sha256": sha256(tmp_path / "report.csv"),
                                  "labels": {"Boundary": 4, "NotDetected": 0}}}
    res = check_command(wl, tmp_path, 0, ref)
    assert res.ok and res.indeterminate == 1
    ref["tensor_convergence"]["report_sha256"] = "0" * 64
    assert not check_command(wl, tmp_path, 0, ref).ok


def test_report_flipped_label_fails(tmp_path):
    wl = _report_outputs(tmp_path, {"Boundary": 3, "NotDetected": 1, "Indeterminate": 0})
    ref = {"tensor_convergence": {"report_sha256": sha256(tmp_path / "report.csv"),
                                  "labels": {"Boundary": 4, "NotDetected": 0}}}
    res = check_command(wl, tmp_path, 0, ref)
    assert any("NotDetected" in p for p in res.problems), res.problems


def test_hull_and_reference_labels():
    square = [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]
    assert sorted(convex_hull(square + [[0.0, 0.0]])) == sorted(map(tuple, square))
    labels = reference_labels("analytic", square + [[0.0, 0.0], [0.9995, 0.0]])
    assert labels == ["Boundary"] * 4 + ["NotDetected", None]
    assert reference_labels("hermitian", square) == ["Boundary"] * 4
