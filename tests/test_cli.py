import argparse
import ast
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import re
import runpy
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import korovkinlab.choquet as choquet
import korovkinlab.engine as engine
import korovkinlab.operators as operators
from korovkinlab import CompactSpace, CompositionIsometry, ConfigError, KernelOperator, OperatorFamily
from korovkinlab.cli import build_parser, main
from korovkinlab.config import build_experiment, validate_config
from korovkinlab.operators import FAMILIES
from korovkinlab.presets import get_preset, preset_names

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def run_cli(*argv):
    return main(list(argv))


def write_config(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


_PERTURBED_PARAMETERS = (
    "space: any grid; params.phi: {type: identity|rotation}, {type: rotation, steps}"
    " or {map: [...]}; params.mix: 'mean'; params.eps: '1/n' | '1/n^2' | [values]"
)
_FAMILY_PARAMETERS = [
    ("bernstein", "space: interval grid"),
    ("fejer", "space: circle grid with m > 2n+2 points"),
    ("tensor_bernstein", "space: box grid"),
    ("mollifier_disc", "space: disc grid"),
    ("perturbed_composition", _PERTURBED_PARAMETERS),
]


class TestOperatorsList:
    def test_lists_five_families(self, capsys):
        assert run_cli("operators", "list") == 0
        assert capsys.readouterr().out == (
            "family                 parameters\n"
            "---------------------  ----------------------------------------\n"
            "bernstein              space: interval grid\n"
            "fejer                  space: circle grid with m > 2n+2 points\n"
            "tensor_bernstein       space: box grid\n"
            "mollifier_disc         space: disc grid\n"
            f"perturbed_composition  {_PERTURBED_PARAMETERS}\n"
        )

    def test_json_output(self, capsys):
        assert run_cli("operators", "list", "--json") == 0
        payload = [{"name": n, "parameters": p} for n, p in _FAMILY_PARAMETERS]
        assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"

    def test_unknown_flag(self, capsys):
        assert run_cli("operators", "list", "--bogus") == 1


class TestChoquetCommand:
    def test_quadratic_preset_scan(self, tmp_path, capsys):
        code = run_cli(
            "choquet", "--preset", "example41_bernstein", "--out", str(tmp_path)
        )
        assert code == 0
        with open(tmp_path / "choquet.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 101
        assert all(r["classification"] == "Boundary" for r in rows)
        assert all(float(r["margin"]) >= 1e-6 for r in rows)
        certs = json.loads((tmp_path / "certificates.json").read_text())
        assert len(certs["certificates"]) == 101

    def test_certificates_are_written_as_their_whole_string_would_be(self, tmp_path, monkeypatch):
        payloads = []
        dump = json.dump

        def recorded(obj, fh, **kwargs):
            payloads.append(obj)
            return dump(obj, fh, **kwargs)

        monkeypatch.setattr(json, "dump", recorded)
        assert run_cli("choquet", "--preset", "example43_disc", "--out", str(tmp_path)) == 0
        monkeypatch.undo()
        (payload,) = payloads
        want = (json.dumps(payload, indent=2) + "\n").encode()
        assert (tmp_path / "certificates.json").read_bytes() == want

    def test_disc_certificates_move_along_rings(self, tmp_path):
        from korovkinlab.choquet import PeakCertificate, verify_peak_certificate
        from korovkinlab.config import build_spaces, build_spans

        assert run_cli("choquet", "--preset", "example43_disc", "--out", str(tmp_path)) == 0
        cfg = get_preset("example43_disc")
        span = build_spans(cfg, build_spaces(cfg))["hermitian"]
        entries = json.loads((tmp_path / "certificates.json").read_text())["certificates"]
        assert len(entries) == 257
        rings: dict[int, list[float]] = {}
        for e in entries:
            i = e["point_index"]
            coeffs = tuple(complex(*c) if isinstance(c, list) else c for c in e["coeffs"])
            ok, why = verify_peak_certificate(
                span, PeakCertificate(i, coeffs, e["margin"], e["radius"])
            )
            assert ok, why
            ring = (i - 1) // 32  # -1 for the center, point 0
            assert (e["source"] - 1) // 32 == ring
            rings.setdefault(ring, []).append(e["margin"])
        assert len(rings) == 9
        for margins in rings.values():
            assert max(margins) - min(margins) <= 1e-9
        assert len({e["source"] for e in entries}) == 9

    def test_exit_zero_even_with_undetected_points(self, tmp_path):
        cfg = {
            "version": 1,
            "spaces": {"D": {"kind": "disc", "rings": 2, "per_ring": 8}},
            "spans": {"affine": {"space": "D", "basis": ["const1", "z"]}},
        }
        path = write_config(tmp_path, cfg)
        assert run_cli("choquet", "--config", path, "--out", str(tmp_path / "o")) == 0
        with open(tmp_path / "o" / "choquet.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        labels = {r["classification"] for r in rows}
        assert "NotDetected" in labels  # scan completes regardless

    def test_choquet_csv_deterministic(self, tmp_path):
        cfg = {
            "version": 1,
            "spaces": {"D": {"kind": "disc", "rings": 2, "per_ring": 8}},
            "spans": {"affine": {"space": "D", "basis": ["const1", "z"]}},
        }
        path = write_config(tmp_path, cfg)
        for sub in ("a", "b"):
            assert run_cli("choquet", "--config", path, "--out", str(tmp_path / sub)) == 0
        assert (tmp_path / "a" / "choquet.csv").read_bytes() == (
            tmp_path / "b" / "choquet.csv"
        ).read_bytes()

    def test_unknown_span(self, tmp_path):
        code = run_cli(
            "choquet",
            "--preset",
            "example41_bernstein",
            "--span",
            "missing",
            "--out",
            str(tmp_path),
        )
        assert code == 1

    def test_missing_config_file(self, tmp_path):
        assert run_cli("choquet", "--config", str(tmp_path / "nope.json")) == 1

    def test_config_and_preset_both_rejected(self, tmp_path):
        code = run_cli(
            "choquet", "--config", "x.json", "--preset", "example41_bernstein"
        )
        assert code == 1


class TestKorovkinRun:
    def test_wins_on_quadratic_preset(self, tmp_path, capsys):
        code = run_cli(
            "korovkin", "run", "--preset", "example41_bernstein", "--out", str(tmp_path)
        )
        assert code == 0
        with open(tmp_path / "report.csv", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header == [
            "n",
            "function",
            "sup_error_global",
            "sup_error_choquet",
            "test_max_error",
            "bound_constant",
        ]
        assert len(rows) == 3 * 8  # indices x probes
        hyp = json.loads((tmp_path / "hypotheses.json").read_text())
        assert hyp["passed"] is True

    def test_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("korovkin", "run", "--preset", "example41_bernstein", "--out", str(out1)) == 0
        assert run_cli("korovkin", "run", "--preset", "example41_bernstein", "--out", str(out2)) == 0
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()

    def test_tampered_weights_exit_2(self, tmp_path):
        cfg = get_preset("example41_bernstein")
        cfg["family"]["tamper"] = {"target_index": 3, "node_index": 1, "value": -0.25}
        path = write_config(tmp_path, cfg)
        code = run_cli("korovkin", "run", "--config", path, "--out", str(tmp_path / "o"))
        assert code == 2
        hyp = json.loads((tmp_path / "o" / "hypotheses.json").read_text())
        assert hyp["passed"] is False
        failing = [v for v in hyp["positivity"].values() if not v["passed"]]
        assert failing and failing[0]["min_weight"] == -0.25

    def test_unscannable_pushed_span_leaves_the_boundary_error_empty(self, tmp_path, capsys):
        # cos takes one value at k and at -k, so {1, cos} separates no such pair
        cfg = {
            "version": 1,
            "spaces": {"T": {"kind": "circle", "m": 16}},
            "spans": {"S": {"space": "T", "basis": ["const1", "cos"]}},
            "family": {"name": "fejer", "space": "T"},
            "experiment": {"test_span": "S", "indices": [1, 2]},
        }
        path = write_config(tmp_path, cfg)
        assert run_cli("korovkin", "run", "--config", path, "--out", str(tmp_path)) == 2
        out = capsys.readouterr().out
        assert " boundary=assumed\nsup_error_choquet left empty: pushed span not scannable:" in out
        hyp = json.loads((tmp_path / "hypotheses.json").read_text())
        assert hyp["choquet_inclusion"] == {
            "status": "assumed",
            "included": None,
            "target_boundary_counts": None,
            "note": "pushed span not scannable: peak search needs a separating span",
        }
        with open(tmp_path / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 8
        assert all(r["sup_error_choquet"] == "" and float(r["sup_error_global"]) >= 0 for r in rows)

    def test_a_scan_without_boundary_points_leaves_the_boundary_error_empty(
        self, tmp_path, capsys, monkeypatch
    ):
        def nothing_certified(span, radius):
            est = choquet.estimate_choquet_boundary(span, radius)
            not_detected = choquet.Classification.NOT_DETECTED
            points = [dataclasses.replace(p, label=not_detected) for p in est.points]
            return dataclasses.replace(est, points=tuple(points))

        monkeypatch.setattr(engine, "estimate_choquet_boundary", nothing_certified)
        assert run_cli("korovkin", "run", "--preset", "example41_bernstein", "--out", str(tmp_path)) == 0
        note = "pushed span scan certified no Boundary point"
        assert f" boundary=assumed\nsup_error_choquet left empty: {note}\n" in capsys.readouterr().out
        assert json.loads((tmp_path / "hypotheses.json").read_text())["choquet_inclusion"]["note"] == note
        with open(tmp_path / "report.csv", newline="") as fh:
            assert {r["sup_error_choquet"] for r in csv.DictReader(fh)} == {""}

    def test_schema_violation_exit_1(self, tmp_path, capsys):
        cfg = get_preset("example41_bernstein")
        cfg["experiment"]["indices"] = "not-a-list"
        path = write_config(tmp_path, cfg)
        assert run_cli("korovkin", "run", "--config", path) == 1
        err = capsys.readouterr().err
        assert "experiment.indices" in err

    @pytest.mark.parametrize(
        "preset, space, key, value",
        [("example43_disc", "D", "rings", 2.0), ("example41_bernstein", "I", "m", 16.0)],
    )
    def test_integral_float_for_integer_exit_1(self, tmp_path, capsys, preset, space, key, value):
        # `integer` means an integer literal: the grid builders need an int
        cfg = get_preset(preset)
        cfg["spaces"][space][key] = value
        path = write_config(tmp_path, cfg)
        assert run_cli("korovkin", "run", "--config", path) == 1
        assert capsys.readouterr().err == (
            f"error: config field spaces.{space}.{key}: {value} is not of type 'integer'\n"
        )

    @pytest.mark.parametrize(
        "content",
        [
            b'{"version": 1, "name": "caf\xe9"}',
            b"[" * 100_000 + b"]" * 100_000,
            # parses, but the schema check of the params recurses past the limit
            b'{"version": 1, "spaces": {"I": {"kind": "interval", "m": 4}}, "family": {"name":'
            b' "perturbed_composition", "space": "I", "params": {"phi": {"map": '
            + b"[" * 980 + b"1" + b"]" * 980 + b"}}}}",
        ],
        ids=["latin1_bytes", "deep_nesting", "deep_under_the_parser_limit"],
    )
    def test_unreadable_config_file_exit_1(self, tmp_path, capsys, content):
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        assert run_cli("korovkin", "run", "--config", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {path} ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "key, value, literal",
        [
            ("abs_threshold", float("nan"), "NaN"),
            ("abs_threshold", float("inf"), "Infinity"),
            ("improvement_factor", float("nan"), "NaN"),
            ("improvement_factor", float("-inf"), "-Infinity"),
        ],
    )
    def test_non_json_number_exit_1(self, tmp_path, capsys, key, value, literal):
        # json.dumps writes these, and json.loads reads them, but JSON has no
        # such values: a NaN threshold failed every probe, an infinite one
        # passed every probe
        cfg = get_preset("example41_bernstein")
        cfg["experiment"]["tolerances"] = {key: value}
        path = write_config(tmp_path, cfg)
        assert literal in Path(path).read_text()
        assert run_cli("korovkin", "run", "--config", path, "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err == (
            f"error: config file {path} is not valid JSON: {literal} is not a JSON value\n"
        )
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize(
        "where, literal, command",
        [
            ("family.tamper.value", "1e309", "korovkin"),
            ("family.tamper.value", "-1" + "0" * 400, "korovkin"),
            ("experiment.choquet.radius", "1" + "0" * 400, "korovkin"),
            ("experiment.choquet.radius", "1" + "0" * 400, "choquet"),
            ("spaces.I.points.2.0", "1" + "0" * 400, "korovkin"),
            ("spaces.I.points.2.0", "1" + "0" * 400, "choquet"),
            ("family.params.eps.1", "1" + "0" * 400, "korovkin"),
            ("spaces.I.m", "1" * 5000, "korovkin"),
            ("spaces.I.m", "1" * 5000, "choquet"),
            ("experiment.seed", "1" + "0" * 400, "korovkin"),
            ("experiment.tolerances.abs_threshold", "1" + "0" * 400, "korovkin"),
        ],
        ids=lambda v: v if len(v) < 40 else f"{len(v)}_characters",
    )
    def test_number_beyond_a_double_exit_1(self, tmp_path, capsys, where, literal, command):
        # json.loads reads 1e309 as inf and an integer of any size, and
        # Python refuses to read an integer of more than 4300 digits
        cfg = get_preset("example41_bernstein")
        cfg["family"]["tamper"] = {"target_index": 0, "node_index": 0, "value": 0.5}
        cfg["experiment"].update(choquet={"radius": 0.5}, seed=1, tolerances={"abs_threshold": 0.05})
        if ".points." in where or ".eps." in where:
            cfg["spaces"]["I"] = {"kind": "custom", "field": "real", "points": [[0.0], [0.5], [1.0]]}
            cfg["family"] = {"name": "perturbed_composition", "space": "I", "params": {"eps": [0.5, 0.5]}}
            cfg["experiment"]["indices"] = [1, 2]
        *keys, last = where.split(".")
        holder = cfg
        for key in keys:
            holder = holder[int(key) if isinstance(holder, list) else key]
        holder[int(last) if isinstance(holder, list) else last] = "@"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg).replace('"@"', literal))
        argv = ("korovkin", "run") if command == "korovkin" else ("choquet",)
        assert run_cli(*argv, "--config", str(path), "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {path}: number {literal[:16]}")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "exc, message",
        [
            (
                MemoryError("Unable to allocate 2.00 GiB for an array with shape (16384, 16384)"),
                "Unable to allocate 2.00 GiB for an array with shape (16384, 16384)",
            ),
            (MemoryError(), "an allocation failed"),
        ],
        ids=["numpy", "bare"],
    )
    def test_out_of_memory_exit_1(self, tmp_path, capsys, monkeypatch, exc, message):
        def exhausted(config):
            raise exc

        monkeypatch.setattr("korovkinlab.cli.verify_hypotheses", exhausted)
        args = ("korovkin", "run", "--preset", "example41_bernstein", "--out", str(tmp_path))
        assert run_cli(*args) == 1
        assert capsys.readouterr().err == f"error: out of memory: {message}\n"

    def test_version_mismatch_exit_1(self, tmp_path):
        cfg = get_preset("example41_bernstein")
        cfg["version"] = 99
        path = write_config(tmp_path, cfg)
        assert run_cli("korovkin", "run", "--config", path) == 1

    def test_unknown_span_reference_exit_1(self, tmp_path):
        cfg = get_preset("example41_bernstein")
        cfg["experiment"]["test_span"] = "phantom"
        path = write_config(tmp_path, cfg)
        assert run_cli("korovkin", "run", "--config", path) == 1

    def test_over_cap_box_grid_exit_1(self, tmp_path, capsys):
        cfg = get_preset("example42_tensor")
        cfg["spaces"]["K"].update({"p": 7, "m": 9})
        path = write_config(tmp_path, cfg)
        assert run_cli("korovkin", "run", "--config", path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: spaces.K:") and err.count("\n") == 1

    def test_coarse_fejer_index_exit_1(self, tmp_path, capsys):
        cfg = get_preset("example43_fejer")
        cfg["experiment"]["indices"] = [4, 16, 71]  # 144 points need n < 71
        path = write_config(tmp_path, cfg)
        assert run_cli("korovkin", "run", "--config", path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: experiment.indices:") and err.count("\n") == 1

    def test_over_cap_interval_grid_exit_1(self, tmp_path, capsys, monkeypatch):
        def no_pairwise(space):
            raise AssertionError("pairwise distances computed")

        monkeypatch.setattr(CompactSpace, "pairwise", property(no_pairwise))
        cfg = get_preset("example41_bernstein")
        # 2**14 + 1 points; 10**12 + 1 points, whose coordinates alone take 8 TB
        for m in (2**14, 10**12):
            cfg["spaces"]["I"]["m"] = m
            path = write_config(tmp_path, cfg)
            tracemalloc.start()
            try:
                code = run_cli("korovkin", "run", "--config", path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error: spaces.I:") and err.count("\n") == 1
            assert peak < 2**24  # the 2**14 x 2**14 distance matrix would take 2 GiB

    def test_seed_flag_exit_1(self, capsys):
        assert run_cli("korovkin", "run", "--preset", "example41_bernstein", "--seed", "7") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_positivity_trials_key_exit_1(self, tmp_path, capsys):
        cfg = get_preset("example41_bernstein")
        cfg["experiment"]["positivity_trials"] = 100
        path = write_config(tmp_path, cfg)
        assert run_cli("korovkin", "run", "--config", path) == 1
        assert "positivity_trials" in capsys.readouterr().err

    def test_seed_key_changes_no_output(self, tmp_path):
        cfg = get_preset("example41_bernstein")
        plain = write_config(tmp_path, cfg, "plain.json")
        cfg["experiment"]["seed"] = 20240811
        seeded = write_config(tmp_path, cfg, "seeded.json")
        for name, path in (("a", plain), ("b", seeded)):
            assert run_cli("korovkin", "run", "--config", path, "--out", str(tmp_path / name)) == 0
        for output in ("report.csv", "hypotheses.json"):
            assert (tmp_path / "a" / output).read_bytes() == (tmp_path / "b" / output).read_bytes()

    @pytest.mark.parametrize(
        "block, field",
        [
            ("tolerances", "transient_slack"),
            ("choquet", "directions"),
            ("choquet", "r_list"),
            ("choquet", "r_factors"),
            ("choquet", "delta_min"),
        ],
    )
    def test_removed_knob_exit_1(self, tmp_path, capsys, block, field):
        cfg = get_preset("example41_bernstein")
        cfg["experiment"][block] = {field: 2}
        path = write_config(tmp_path, cfg)
        assert run_cli("korovkin", "run", "--config", path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and field in err

    def test_non_finite_image_exit_1(self, tmp_path, capsys):
        # the tampered weight times sum_sq = 2 at node (1, 1) overflows: the
        # image is refused in one line, with no numpy warning on the way
        cfg = {
            "version": 1,
            "spaces": {"B": {"kind": "box", "p": 2, "m": 4}},
            "spans": {"S": {"space": "B", "basis": ["const1", "coord 1", "coord 2"]}},
            "family": {
                "name": "tensor_bernstein",
                "space": "B",
                "tamper": {"target_index": 0, "node_index": 24, "value": 1e308},
            },
            "experiment": {"test_span": "S", "indices": [4, 8]},
        }
        path = write_config(tmp_path, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("korovkin", "run", "--config", path, "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err == (
            "error: function 'T[sum_sq]' takes a non-finite value on the grid\n"
        )

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"basis": ["x", "x"]}, "test span names must be unique"),
            ({"space": "J"}, "test span must live on the family source grid"),
        ],
        ids=["duplicate_names", "other_grid"],
    )
    def test_test_span_refused_exit_1(self, tmp_path, capsys, edit, message):
        cfg = get_preset("example41_bernstein")
        cfg["spaces"]["J"] = {"kind": "interval", "m": 20}
        cfg["spans"]["quadratic"].update(edit)
        path = write_config(tmp_path, cfg)
        assert run_cli("korovkin", "run", "--config", path, "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err == f"error: experiment: {message}\n"

    def test_out_of_range_tamper_exit_1(self, tmp_path, capsys):
        cfg = get_preset("example41_bernstein")
        cfg["spaces"]["I"]["m"] = 20
        cfg["family"]["tamper"] = {"target_index": 3, "node_index": 500, "value": -0.5}
        path = write_config(tmp_path, cfg)
        assert run_cli("korovkin", "run", "--config", path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: family:") and err.count("\n") == 1

    def test_epsilon_outside_unit_interval_exit_1(self, tmp_path, capsys):
        cfg = {
            "version": 1,
            "spaces": {"T": {"kind": "circle", "m": 16}},
            "spans": {"analytic": {"space": "T", "basis": ["const1", "z"]}},
            "family": {"name": "perturbed_composition", "space": "T", "params": {"eps": [2.0]}},
            "experiment": {"test_span": "analytic", "indices": [1, 2]},
        }
        path = write_config(tmp_path, cfg)
        assert run_cli("korovkin", "run", "--config", path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: family:") and err.count("\n") == 1
        assert "epsilon at index 1 is 2.0" in err

    def test_oversized_bernstein_kernel_exit_1(self, tmp_path, capsys):
        cfg = get_preset("example41_bernstein")
        cfg["experiment"]["indices"] = [4, 100000000]  # 101 x 10^8 weights
        path = write_config(tmp_path, cfg)
        tracemalloc.start()
        try:
            code = run_cli("korovkin", "run", "--config", path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: experiment.indices:") and err.count("\n") == 1
        assert peak < 2**24

    def test_oversized_tensor_kernel_exit_1(self, tmp_path, capsys):
        cfg = get_preset("example42_tensor")
        cfg["experiment"]["indices"] = [8, 2000]  # 81 x 2001^2 weights
        path = write_config(tmp_path, cfg)
        assert run_cli("korovkin", "run", "--config", path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: experiment.indices:") and err.count("\n") == 1

    def test_point_cap_key_exit_1(self, tmp_path, capsys):
        cfg = get_preset("example42_tensor")
        cfg["spaces"]["K"]["point_cap"] = 100
        path = write_config(tmp_path, cfg)
        assert run_cli("korovkin", "run", "--config", path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config field spaces.K:") and err.count("\n") == 1
        assert "point_cap" in err

    @pytest.mark.parametrize(
        "params, named",
        [
            ({"phi": 3}, None),
            ({"phi": {"map": 5}}, None),
            ({"eps": 5}, None),
            ({"eps": [0.5, None]}, None),
            ({"phi": {"type": "rotation", "steps": 1.5}}, None),
            ({"phi": {"steps": 3}}, None),
            ({"phi": {"type": "identity", "steps": 3}}, "'steps'"),
        ],
        ids=[f"params{i}" for i in range(7)],
    )
    def test_malformed_params_exit_1(self, tmp_path, capsys, params, named):
        cfg = {
            "version": 1,
            "spaces": {"T": {"kind": "circle", "m": 16}},
            "spans": {"analytic": {"space": "T", "basis": ["const1", "z"]}},
            "family": {"name": "perturbed_composition", "space": "T", "params": params},
            "experiment": {"test_span": "analytic", "indices": [1, 2]},
        }
        path = write_config(tmp_path, cfg)
        assert run_cli("korovkin", "run", "--config", path) == 1
        err = capsys.readouterr().err
        [key] = params
        assert err.startswith(f"error: config field family.params.{key}") and err.count("\n") == 1
        assert named is None or named in err

    @pytest.mark.parametrize(
        "phi", [{}, {"type": "identity"}, {"type": "rotation"}, {"type": "rotation", "steps": 3}]
    )
    def test_phi_forms_without_a_map_validate(self, phi):
        cfg = get_preset("example43_fejer")
        cfg["family"] = {"name": "perturbed_composition", "space": "T", "params": {"phi": phi}}
        validate_config(cfg)

    def test_params_on_a_family_without_params_exit_1(self, tmp_path, capsys):
        cfg = get_preset("example41_bernstein")
        cfg["family"]["params"] = {"eps": "1/n^2", "phi": {"type": "rotation"}}
        path = write_config(tmp_path, cfg)
        assert run_cli("korovkin", "run", "--config", path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config field family.params") and err.count("\n") == 1
        assert "eps" in err


def _no_kernel(self):
    raise AssertionError("a kernel was built")


_GRIDS = {
    "interval": {"kind": "interval", "m": 8},
    "circle": {"kind": "circle", "m": 8},
    "disc": {"kind": "disc", "rings": 1, "per_ring": 4},
    "box": {"kind": "box", "p": 2, "m": 2},
    "custom": {"kind": "custom", "points": [0.0, 1.0]},
}


@pytest.mark.parametrize(
    "family, kind",
    [(f.name, k) for f in FAMILIES.values() if f.kind for k in _GRIDS if k != f.kind.value],
)
def test_wrong_grid_kind_exit_1(tmp_path, capsys, monkeypatch, family, kind):
    monkeypatch.setattr(KernelOperator, "__post_init__", _no_kernel)
    cfg = {
        "version": 1,
        "spaces": {"S": _GRIDS[kind]},
        "spans": {"A": {"space": "S", "basis": ["const1"]}},
        "family": {"name": family, "space": "S"},
        "experiment": {"test_span": "A", "indices": [1, 2]},
    }
    path = write_config(tmp_path, cfg)
    assert run_cli("korovkin", "run", "--config", path) == 1
    err = capsys.readouterr().err
    need = FAMILIES[family].kind.value
    assert err == f"error: family: {family} runs on {need} grids, not on {kind} grids\n"


# the keys each grid kind takes besides `kind`, and a well-formed value of each key
_OWN_KEYS = {
    "interval": {"m"},
    "circle": {"m"},
    "disc": {"rings", "per_ring"},
    "box": {"p", "m"},
    "custom": {"points", "field"},
}
_KEY_VALUES = {"m": 8, "p": 2, "rings": 1, "per_ring": 4, "points": [0.0, 1.0], "field": "real"}


def _foreign_keys(kind: str) -> list[str]:
    return sorted(_KEY_VALUES.keys() - _OWN_KEYS[kind])


@pytest.mark.parametrize("kind, key", [(k, key) for k in _OWN_KEYS for key in _foreign_keys(k)])
def test_grid_key_of_another_kind_exit_1(tmp_path, capsys, kind, key):
    cfg = get_preset("example41_bernstein")
    cfg["spaces"]["I"] = {**_GRIDS[kind], key: _KEY_VALUES[key]}
    path = write_config(tmp_path, cfg)
    assert run_cli("korovkin", "run", "--config", path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config field spaces.I:") and err.count("\n") == 1
    assert f"'{key}'" in err


def test_missing_grid_key_exit_1(tmp_path, capsys):
    cfg = get_preset("example43_disc")
    del cfg["spaces"]["D"]["per_ring"]
    path = write_config(tmp_path, cfg)
    assert run_cli("korovkin", "run", "--config", path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert err.count("spaces.D") == 1 and "'per_ring'" in err


@pytest.mark.parametrize("points", [[{}, 1], [True, False]], ids=["object", "booleans"])
def test_custom_point_of_another_type_exit_1(tmp_path, capsys, points):
    # a point is a number or a non-empty array of numbers; true is neither
    cfg = {
        "version": 1,
        "spaces": {"C": {"kind": "custom", "points": points}},
        "spans": {"A": {"space": "C", "basis": ["const1", "x"]}},
    }
    path = write_config(tmp_path, cfg)
    assert run_cli("choquet", "--config", path, "--out", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config field spaces.C.points.") and err.count("\n") == 1
    assert not (tmp_path / "choquet.csv").exists()


@pytest.mark.parametrize(
    "points, bad",
    [([1, [1, 2]], "point 1, [1, 2], is not of the form of point 0, 1"),
     ([[1, 2], [3, 4], [5]], "point 2, [5], is not of the form of point 0, [1, 2]")],
    ids=["mixed", "ragged"],
)
def test_custom_points_of_mixed_forms_exit_1(tmp_path, capsys, points, bad):
    cfg = {
        "version": 1,
        "spaces": {"C": {"kind": "custom", "points": points}},
        "spans": {"A": {"space": "C", "basis": ["const1", "x"]}},
    }
    path = write_config(tmp_path, cfg)
    assert run_cli("choquet", "--config", path, "--out", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err == (
        f"error: spaces.C: custom grid {bad}: the points must all be numbers"
        " or all be lists of one length\n"
    )
    assert not (tmp_path / "choquet.csv").exists()


@pytest.mark.filterwarnings("error")
def test_custom_grid_with_overflowing_distances_exit_1(tmp_path, capsys):
    # 2e200 squared overflows: the scan read infinite distances, warned, and
    # called the span {1, x} non-unital
    cfg = {
        "version": 1,
        "spaces": {"C": {"kind": "custom", "points": [0, 1e200, -1e200]}},
        "spans": {"A": {"space": "C", "basis": ["const1", "x"]}},
    }
    path = write_config(tmp_path, cfg)
    assert run_cli("choquet", "--config", path, "--out", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: spaces.C: ") and err.count("\n") == 1
    assert "overflow" in err
    assert not (tmp_path / "choquet.csv").exists()



def test_quadratic_span_on_a_tiny_grid_is_all_boundary(tmp_path, capsys):
    # at spacing 0.05 the same span labels all 21 points Boundary
    cfg = {
        "version": 1,
        "spaces": {"C": {"kind": "custom", "points": [k * 5e-11 for k in range(21)]}},
        "spans": {"Q": {"space": "C", "basis": ["const1", "x", "x^2"]}},
    }
    path = write_config(tmp_path, cfg)
    assert run_cli("choquet", "--config", path, "--out", str(tmp_path)) == 0
    with open(tmp_path / "choquet.csv", newline="") as fh:
        labels = [row["classification"] for row in csv.DictReader(fh)]
    assert labels == ["Boundary"] * 21


def test_affine_span_on_a_huge_grid_is_scanned(tmp_path, capsys):
    # the points [0, 1e7, -1e7] give these labels
    cfg = {
        "version": 1,
        "spaces": {"C": {"kind": "custom", "points": [0, 1e20, -1e20]}},
        "spans": {"A": {"space": "C", "basis": ["const1", "x"]}},
    }
    path = write_config(tmp_path, cfg)
    assert run_cli("choquet", "--config", path, "--out", str(tmp_path)) == 0
    with open(tmp_path / "choquet.csv", newline="") as fh:
        labels = [row["classification"] for row in csv.DictReader(fh)]
    assert labels == ["NotDetected", "Boundary", "Boundary"]


def _spaced_grid_labels(tmp_path, spacing, basis):
    cfg = {
        "version": 1,
        "spaces": {"C": {"kind": "custom", "points": [k * spacing for k in range(21)]}},
        "spans": {"S": {"space": "C", "basis": ["const1", "x", basis]}},
    }
    path = write_config(tmp_path, cfg)
    assert run_cli("choquet", "--config", path, "--out", str(tmp_path)) == 0
    with open(tmp_path / "choquet.csv", newline="") as fh:
        return [row["classification"] for row in csv.DictReader(fh)]


@pytest.mark.parametrize("basis", ["x^2", "x^3"])
def test_spans_on_a_widely_spaced_grid_are_all_boundary(tmp_path, basis):
    # spacing 1 gives these labels; x^3 holds no d(., x0)^2, so its points
    # go to the peak LP, whose box follows the scaled basis
    assert _spaced_grid_labels(tmp_path, 1.0, basis) == ["Boundary"] * 21
    assert _spaced_grid_labels(tmp_path, 1e9, basis) == ["Boundary"] * 21


@pytest.mark.xfail(
    strict=True,
    reason="SEPARATION_TOL is absolute: values 1e-12 apart count as equal, so the span "
    "is refused as not separating",
)
def test_quadratic_span_on_a_finely_spaced_grid_is_all_boundary(tmp_path):
    assert _spaced_grid_labels(tmp_path, 1e-12, "x^2") == ["Boundary"] * 21


@pytest.mark.parametrize(
    "command", [("choquet",), ("korovkin", "run")], ids=["choquet", "korovkin_run"]
)
def test_output_dir_that_is_a_file_exit_1(command, tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    assert run_cli(*command, "--preset", "example41_bernstein", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err == f"error: [Errno 17] File exists: '{out}'\n"


def _affine_disc_config(radius):
    return {
        "version": 1,
        "spaces": {"D": {"kind": "disc", "rings": 8, "per_ring": 32}},
        "spans": {"affine": {"space": "D", "basis": ["const1", "z"]}},
        "family": {"name": "mollifier_disc", "space": "D"},
        "experiment": {"test_span": "affine", "indices": [1, 2], "choquet": {"radius": radius}},
    }


@pytest.mark.parametrize("command", [("choquet",), ("korovkin", "run")])
def test_radius_leaving_a_point_without_far_points_exit_1(command, tmp_path, capsys):
    # the centre and ring 1 of the unit disc have no point at distance 1.2
    path = write_config(tmp_path, _affine_disc_config(1.2))
    assert run_cli(*command, "--config", path, "--out", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: experiment.choquet.radius: radius 1.2 is outside (0, 1.0]: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "choquet.csv").exists() and not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize(
    "basis,probes,where",
    [(["const1", "x"], ["x", "x^2"], "experiment.probes"), (["const1", "x^2"], ["x"], "spans.A.basis")],
)
def test_non_finite_function_exit_1(basis, probes, where, tmp_path, capsys):
    # x^2 overflows above 1.35e154; the grid's distances stay finite
    cfg = {
        "version": 1,
        "spaces": {"S": {"kind": "custom", "points": [[1.4e154], [1.5e154], [1.6e154]]}},
        "spans": {"A": {"space": "S", "basis": basis}},
        "family": {"name": "perturbed_composition", "space": "S"},
        "experiment": {"test_span": "A", "indices": [1, 2], "probes": probes},
    }
    path = write_config(tmp_path, cfg)
    assert run_cli("korovkin", "run", "--config", path, "--out", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: {where}:") and "'x^2'" in err


# per grid kind: the function names that fit it, and the family built for it
_FITS = {
    "interval": (("const1", "x", "x^2", "cos", "sin"), "bernstein"),
    "circle": (("const1", "z", "zbar", "cos", "sin"), "fejer"),
    "disc": (("const1", "z", "zbar", "|z|^2"), "mollifier_disc"),
    "box": (("const1", "coord 1", "coord 2", "coord 1^2"), "tensor_bernstein"),
    "custom": (("const1", "z", "zbar", "coord 1", "coord 2"), "perturbed_composition"),
}


# perturbed_composition params the schema accepts, and ones it refuses
_GOOD_PARAMS = [
    {"eps": "1/n"},
    {"eps": "1/n^2"},
    {"eps": [0.5]},
    {"eps": [2.0]},
    {"phi": {"type": "rotation", "steps": 1}, "mix": "mean"},
    {"phi": {"map": [1, 0]}},
]
_BAD_PARAMS = [
    {"phi": 3},
    {"phi": {"map": [0.5]}},
    {"phi": {"type": "reflection"}},
    {"eps": 5},
    {"eps": [0.5, None]},
    {"mix": "max"},
]


@st.composite
def small_configs(draw):
    """Configurations on grids of at most 40 points; most fit their grid and
    are schema-valid, some do not fit and some carry malformed params."""
    kind = draw(st.sampled_from(sorted(_FITS)))
    space = {"kind": kind}
    if kind in ("interval", "circle"):
        space["m"] = draw(st.integers(1, 39))
    elif kind == "disc":
        space.update(rings=draw(st.integers(1, 3)), per_ring=draw(st.integers(3, 12)))
    elif kind == "box":
        space.update(p=draw(st.integers(1, 2)), m=draw(st.integers(1, 5)))
    else:
        coord = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])
        pts = draw(st.lists(st.tuples(coord, coord), min_size=2, max_size=8, unique=True))
        space["points"] = [list(p) for p in pts]  # JSON arrays, as a loaded config holds
        space["field"] = draw(st.sampled_from(["real", "complex"]))
    if draw(st.integers(0, 7)) == 0:
        key = draw(st.sampled_from(_foreign_keys(kind)))
        space[key] = _KEY_VALUES[key]
    names, fitting = _FITS[kind]
    family = {"name": draw(st.sampled_from([fitting] * 3 + list(FAMILIES))), "space": "S"}
    if family["name"] == "perturbed_composition" or draw(st.integers(0, 7)) == 0:
        family["params"] = draw(st.sampled_from(_GOOD_PARAMS * 2 + _BAD_PARAMS))
    if draw(st.integers(0, 3)) == 0:
        family["tamper"] = {
            "target_index": draw(st.integers(0, 50)),
            "node_index": draw(st.integers(0, 50)),
            "value": draw(st.sampled_from([-0.5, 0.0, 0.5])),
        }
    basis = draw(st.lists(st.sampled_from(names * 3 + ("bogus",)), min_size=2, max_size=4, unique=True))
    indices = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True))
    if draw(st.integers(0, 3)):
        indices.sort()
    return {
        "version": 1,
        "spaces": {"S": space},
        "spans": {"A": {"space": "S", "basis": basis}},
        "family": family,
        "experiment": {"test_span": "A", "indices": indices},
    }


@settings(max_examples=40)
@given(cfg=small_configs(), command=st.sampled_from([("korovkin", "run"), ("choquet",)]))
def test_cli_contract_fuzz(cfg, command):
    """Every small run exits 0 or 2, or 1 with one error line; the schema
    refuses exactly the grid keys of another kind, the malformed params and
    any params on a family other than perturbed_composition, and such a run
    exits 1."""
    family = cfg["family"]
    space = cfg["spaces"]["S"]
    foreign = space.keys() - _OWN_KEYS[space["kind"]] - {"kind"}
    bad_params = "params" in family and (
        family["name"] != "perturbed_composition" or family["params"] in _BAD_PARAMS
    )
    if foreign or bad_params:
        where = "|".join(["spaces.S"] * bool(foreign) + ["family.params"] * bad_params)
        with pytest.raises(ConfigError, match=where):
            validate_config(cfg)
    else:
        validate_config(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*command, "--config", str(path), "--out", tmp])
    err = err.getvalue()
    assert code in (0, 2) or (code == 1 and err.count("\n") == 1 and "error: " in err), (code, err)
    assert code == 1 or not (foreign or bad_params)


# per preset, SHA-256 of `korovkin run`'s report.csv and hypotheses.json, and
# of the (point_index, classification) columns of `choquet`'s choquet.csv;
# the margins are left out, since a better peak candidate may change them
_PRESET_DIGESTS = {
    "example41_bernstein": (
        "4b374b5e1cffd3225e9dbda8cab902080d0b72bf9d3c0458527ca8d26c0bd86a",
        "5629923f589060bf8612f64dedbc2e768009039da551d04e30e22ca3e571bac5",
        "6dcadb2d17da9eb96cb12c56b728eef1606439be39d15849b9f4d9bcb3329e7b",
    ),
    "example42_tensor": (
        "cf6fb5e2109331534165e267bffcb4756d03211687941d8681966cd717607d02",
        "73f151682dd0980497cf549379ba5f984396ff5624f26664848013363b86843f",
        "418294204ccf32492db51206f56fa3032894425bd8dc110c5f648d7817317c11",
    ),
    "example43_disc": (
        "32187d9631858a95aefe8d001863bf2c50feab2bc175b9abe07b411200c5dd01",
        "2baf38f39c2ea8a859b2950b170a4fa78e6ca8d8b039ae711cbd4b9c672c82f9",
        "0c54cf82f2de152c3f89dc7947ef63da7ac0d758bfa863edf6559de1a09d3f00",
    ),
    "example43_fejer": (
        "1b4d8fd3a30b4c23aaed14709d037cb515d1acff363cbc906ff803dc40637e14",
        "76875cc36e0304f2539b546f633bffbe63ccfc5a12262fdf66319dc8e2eb5cf3",
        "2327eab8fe2d01c5f8e1852a471a4e8e604ac1131e0fdd50594ea6bb604d8934",
    ),
    "remark44_fejer": (
        "7584192ca74ec4dde22216fcd20c9a43239e734de3da8b70f1ca29cc36d83560",
        "76875cc36e0304f2539b546f633bffbe63ccfc5a12262fdf66319dc8e2eb5cf3",
        "2327eab8fe2d01c5f8e1852a471a4e8e604ac1131e0fdd50594ea6bb604d8934",
    ),
}


# per preset, the `hypotheses:` line of `korovkin run`'s stdout
_PRESET_SUMMARIES = {
    name: f"hypotheses: positivity=pass sup||T_n 1||={t1} isometry_dev=0.0 boundary=assumed"
    for name, t1 in (
        ("example41_bernstein", "1.000000000000001"),
        ("example42_tensor", "1.0000000000000016"),
        ("example43_disc", "1.0000000000000002"),
        ("example43_fejer", "1.000000000000009"),
        ("remark44_fejer", "1.000000000000009"),
    )
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestPresets:
    def test_all_presets_validate(self):
        from korovkinlab.config import validate_config

        for name in preset_names():
            validate_config(get_preset(name))

    @pytest.mark.parametrize("name", sorted(preset_names()))
    def test_every_preset_exits_zero(self, name, tmp_path, capsys):
        assert run_cli("korovkin", "run", "--preset", name, "--out", str(tmp_path)) == 0
        assert capsys.readouterr().out.splitlines()[1] == _PRESET_SUMMARIES[name]
        assert run_cli("choquet", "--preset", name, "--out", str(tmp_path)) == 0
        with open(tmp_path / "choquet.csv", newline="") as fh:
            labels = "".join(f"{r['point_index']},{r['classification']}\n" for r in csv.DictReader(fh))
        assert (
            _sha256((tmp_path / "report.csv").read_bytes()),
            _sha256((tmp_path / "hypotheses.json").read_bytes()),
            _sha256(labels.encode()),
        ) == _PRESET_DIGESTS[name]

    @pytest.mark.parametrize("name", ["disc_preset", "tensor_convergence"])
    def test_gated_workloads_match_the_benchmark_reference(self, name, tmp_path):
        # the benchmark's gated runs at seed 1, held to its recorded report
        # digest and label counts; tensor_convergence's indices reach 256,
        # where a sweep multiplies 4-row blocks
        generate = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))["generate"]
        reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())[name]
        wl = generate(name, 1)
        out = tmp_path / "out"
        assert run_cli(*wl.argv, "--config", write_config(tmp_path, wl.config), "--out", str(out)) == 0
        hypotheses = json.loads((out / "hypotheses.json").read_text())
        counts = hypotheses["choquet_inclusion"]["target_boundary_counts"]
        assert _sha256((out / "report.csv").read_bytes()) == reference["report_sha256"]
        assert counts == {**reference["labels"], "Indeterminate": 0}

    @pytest.mark.parametrize("name", [*sorted(preset_names()), "disc_preset", "tensor_convergence"])
    def test_scans_call_no_lapack_and_factor_each_span_once(self, name, tmp_path, monkeypatch):
        # each preset under both commands, and the benchmark's gated runs
        import korovkinlab.functions as functions

        lapack = Counter()
        for fn in ("svd", "lstsq", "qr", "solve", "pinv", "inv", "eig"):
            real = getattr(np.linalg, fn)

            def counted(*args, _real=real, _fn=fn, **kwargs):
                lapack[_fn] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, fn, counted)
        factored = []
        real_factor = functions.gram_schmidt
        monkeypatch.setattr(functions, "gram_schmidt", lambda b: factored.append(b) or real_factor(b))
        scanned = []
        real_generators = choquet._accepted_generators  # called once per scan

        def recording(span):
            scanned.append(span)
            return real_generators(span)

        monkeypatch.setattr(choquet, "_accepted_generators", recording)
        if name in preset_names():
            runs = [(*command, "--preset", name) for command in (("korovkin", "run"), ("choquet",))]
        else:
            wl = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))["generate"](name, 1)
            runs = [(*wl.argv, "--config", write_config(tmp_path, wl.config))]
        for argv in runs:
            factored.clear()
            scanned.clear()
            assert run_cli(*argv, "--out", str(tmp_path)) == 0
            assert scanned and not lapack
            assert len(factored) == len({id(span) for span in scanned})

    def test_expected_preset_names(self):
        assert set(preset_names()) == {
            "example41_bernstein",
            "example42_tensor",
            "example43_fejer",
            "example43_disc",
            "remark44_fejer",
        }

    def test_unknown_preset(self):
        assert run_cli("korovkin", "run", "--preset", "nope") == 1

    @pytest.mark.parametrize(
        "name, indices", [("example42_tensor", 3), ("example43_disc", 4), ("example43_fejer", 3)]
    )
    def test_each_function_is_applied_once_per_index(self, name, indices, tmp_path, monkeypatch):
        # 8 probes, and the test span's members among them: its 5 (tensor),
        # 4 (disc) or 2 (fejer) members are not applied a second time, and
        # the limit maps each of the 8 once in the whole run
        applied = []
        limited = []
        apply = KernelOperator.apply
        monkeypatch.setattr(KernelOperator, "apply", lambda op, f: applied.append(op) or apply(op, f))
        limit = CompositionIsometry.apply
        monkeypatch.setattr(CompositionIsometry, "apply", lambda m, f: limited.append(f) or limit(m, f))
        assert run_cli("korovkin", "run", "--preset", name, "--out", str(tmp_path)) == 0
        assert list(Counter(applied).values()) == [8] * indices  # kernels hash by identity
        assert len(limited) == len(set(limited)) == 8

    @pytest.mark.parametrize("name", sorted(preset_names()))
    def test_a_run_builds_each_kernel_once(self, name, tmp_path, monkeypatch):
        builds = []
        operator = OperatorFamily.operator

        def counted(family, n):
            if int(n) not in family._cache:
                builds.append(int(n))
            return operator(family, n)

        monkeypatch.setattr(OperatorFamily, "operator", counted)
        assert run_cli("korovkin", "run", "--preset", name, "--out", str(tmp_path)) == 0
        assert builds == get_preset(name)["experiment"]["indices"]

    @pytest.mark.parametrize("name", sorted(preset_names()))
    def test_a_run_in_row_blocks_of_eight_keeps_the_pins(self, name, tmp_path, monkeypatch):
        # most presets' kernels fit one row block; at the smallest blocks every
        # kernel takes several. Each block of each kernel is built once, into
        # the kernel's one buffer, no run reads a kernel's dense weights, and
        # the outputs keep their pins.
        monkeypatch.setattr(operators, "BLOCK_ENTRIES", 1)
        built = Counter()
        buffers = {}
        block = KernelOperator.block

        def counted(op, lo, hi, out=None):
            built[op, lo, hi] += 1
            buffers.setdefault(op, set()).add(id(out.base))
            return block(op, lo, hi, out)

        def dense(op):
            raise AssertionError("a run read a kernel's dense weights")

        monkeypatch.setattr(KernelOperator, "block", counted)
        monkeypatch.setattr(KernelOperator, "weights", property(dense))
        assert run_cli("korovkin", "run", "--preset", name, "--out", str(tmp_path)) == 0
        assert (
            _sha256((tmp_path / "report.csv").read_bytes()),
            _sha256((tmp_path / "hypotheses.json").read_bytes()),
        ) == _PRESET_DIGESTS[name][:2]
        assert set(built.values()) == {1}
        kernels = {op for op, _, _ in built}
        assert len(kernels) == len(get_preset(name)["experiment"]["indices"])
        for op in kernels:
            spans = sorted((lo, hi) for k, lo, hi in built if k is op)
            assert spans == operators.row_blocks(op.target.n_points, len(op.nodes))
            assert len(spans) > 1
            assert len(buffers[op]) == 1

    def test_bernstein_runs_load_no_scipy_stats(self, tmp_path):
        # the kernels need scipy.special alone: no stats, no LP, no k-d tree
        commands = [
            ["korovkin", "run", "--preset", "example41_bernstein"],
            ["korovkin", "run", "--preset", "example42_tensor"],
        ]
        codes, loaded, _ = _fresh_run(commands, tmp_path)
        assert codes == [0, 0]
        assert not {"scipy.stats", "scipy.optimize", "scipy.spatial"} & set(loaded)

    def test_tiny_gap_grid_loads_no_scipy_spatial(self, tmp_path):
        # x differs by 1e-200 between points 0 and 1, too little for the
        # per-axis gap test: their distance rows decide, not a k-d tree
        points = [[0.0, 0.0], [1e-200, 5.0], [1.0, 0.0], [1.0, 5.0]]
        cfg = {
            "version": 1,
            "spaces": {"C": {"kind": "custom", "points": points}},
            "spans": {"A": {"space": "C", "basis": ["const1", "coord 1", "coord 2"]}},
        }
        path = write_config(tmp_path, cfg)
        codes, loaded, _ = _fresh_run([["choquet", "--config", path]], tmp_path)
        assert codes == [0]
        assert "scipy.spatial" not in loaded

    def test_bernstein_runs_skip_scipy_special_init(self, tmp_path):
        # the kernels load the compiled _ufuncs extension alone: not the
        # array-API backends and numpy.f2py of scipy/special/__init__.py, nor
        # the config, version and test helpers of scipy/__init__.py and
        # scipy/_lib/__init__.py; and no stand-in package is left behind
        commands = [
            ["korovkin", "run", "--preset", "example41_bernstein"],
            ["korovkin", "run", "--preset", "example42_tensor"],
        ]
        codes, loaded, _ = _fresh_run(commands, tmp_path)
        assert codes == [0, 0]
        assert "scipy.special._ufuncs" in loaded
        init_only = {
            "scipy.special._support_alternative_backends",
            "scipy._lib._array_api",
            "numpy.f2py",
            "scipy.__config__",
            "scipy.version",
            "scipy._distributor_init",
            "scipy._lib._testutils",
            "scipy._lib._pep440",
        }
        assert not init_only & set(loaded)
        assert not {"scipy", "scipy._lib", "scipy.special"} & set(loaded)

    @pytest.mark.parametrize(
        "prelude, cause, kept",
        [
            ("", "No module named 'scipy.special._ufuncs'", set()),
            ("import scipy\n", "No module named 'scipy.special._ufuncs'", {"scipy", "scipy._lib"}),
            ("import sys\nsys.modules['scipy'] = None\n", "No module named 'scipy'", {"scipy"}),
        ],
        ids=["bare", "scipy_imported", "scipy_blocked"],
    )
    def test_a_changed_scipy_layout_exits_1_with_one_error_line(
        self, tmp_path, prelude, cause, kept
    ):
        # a scipy without the private _ufuncs extension, or none at all (a
        # None entry blocks it and stays), fails the run like a bad config,
        # and the loader's stand-ins are removed
        from importlib import metadata

        refuse = (
            "import sys\n"
            "class Refuse:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'scipy.special._ufuncs':\n"
            "            raise ModuleNotFoundError(f'No module named {name!r}', name=name)\n"
            "sys.meta_path.insert(0, Refuse())\n"
        )
        commands = [["korovkin", "run", "--preset", "example41_bernstein"]]
        codes, loaded, err = _fresh_run(commands, tmp_path, prelude=prelude + refuse)
        assert codes == [1]
        assert err == (
            f"error: cannot load scipy.special._ufuncs from scipy {metadata.version('scipy')}"
            f" (korovkinlab needs scipy>=1.17): {cause}\n"
        )
        assert {"scipy", "scipy._lib", "scipy.special"} & set(loaded) == kept

    def test_each_phase_of_the_disc_run_peaks_below_2_mb(self, tmp_path, monkeypatch):
        # on the 257-point disc every blocked pass, distance blocks and
        # sweep rows, holds about BLOCK_ENTRIES doubles (256 KiB) at a time.
        # run_convergence's oscillations compare only the rows that can hold
        # the largest difference, a few groups of at most 16 rows, where a
        # blocked pass held 512 KiB of complex differences and their moduli
        import korovkinlab.cli as cli_module

        peaks = {}

        def traced(phase):
            def run(*args, **kwargs):
                tracemalloc.start()
                try:
                    out = phase(*args, **kwargs)
                    peaks[phase.__name__] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                return out

            return run

        for name in ("build_experiment", "verify_hypotheses", "run_convergence"):
            monkeypatch.setattr(cli_module, name, traced(getattr(cli_module, name)))
        assert run_cli("korovkin", "run", "--preset", "example43_disc", "--out", str(tmp_path)) == 0
        assert list(peaks) == ["build_experiment", "verify_hypotheses", "run_convergence"]
        assert all(peak < 2_000_000 for peak in peaks.values()), peaks
        assert peaks["run_convergence"] < 600_000, peaks

    def test_disc_runs_load_no_scipy(self, tmp_path):
        # the Korovkin candidate certifies every disc point, so no LP is solved
        commands = [
            ["korovkin", "run", "--preset", "example43_disc"],
            ["choquet", "--preset", "example43_disc"],
        ]
        codes, loaded, _ = _fresh_run(commands, tmp_path)
        assert codes == [0, 0]
        assert [m for m in loaded if m.split(".")[0] == "scipy"] == []

    def test_runs_use_stable_sorts_and_no_unique(self, tmp_path):
        # numpy's default sort kind maps its SIMD quicksort code (about 0.3
        # MB of peak RSS), and np.unique sorts and copies the nodes: no run
        # needs either. Grid points are distinct already, a permutation is
        # inverted by a scatter, and the other sorts are stable. Points in
        # strictly increasing order are distinct without a lexsort: the box
        # grid and its tensor nodes (66049 of them at n = 256) take none,
        # and the disc takes one, for its grid points.
        box = {"kind": "box", "p": 2, "m": 8}
        basis = ["const1", "coord 1", "coord 2", "coord 1^2", "coord 2^2"]
        tensor = write_config(tmp_path, {
            "version": 1,
            "spaces": {"K": box},
            "spans": {"quadratic2d": {"space": "K", "basis": basis}},
            "family": {"name": "tensor_bernstein", "space": "K"},
            "experiment": {"test_span": "quadratic2d", "probes": "default", "indices": [8, 32, 128, 256]},
        })
        commands = [
            ["korovkin", "run", "--preset", "example43_disc"],
            ["choquet", "--preset", "example43_disc"],
            ["korovkin", "run", "--config", tensor],
        ]
        wrap = (
            "import sys, numpy\n"
            "def wrap(name, call):\n"
            "    def wrapped(*args, **kwargs):\n"
            "        print('numpy call', name, kwargs.get('kind'), file=sys.stderr)\n"
            "        return call(*args, **kwargs)\n"
            "    setattr(numpy, name, wrapped)\n"
            "for name in ('sort', 'argsort', 'unique', 'lexsort'):\n"
            "    wrap(name, getattr(numpy, name))\n"
            "import korovkinlab.cli\n"
            "run = korovkinlab.cli.main\n"
            "def main(argv):\n"
            "    print('command', file=sys.stderr)\n"
            "    return run(argv)\n"
            "korovkinlab.cli.main = main\n"
        )
        codes, _, err = _fresh_run(commands, tmp_path, prelude=wrap)
        assert codes == [0, 0, 0]
        calls = []  # per command
        for line in err.splitlines():
            if line == "command":
                calls.append(Counter())
            elif line.startswith("numpy call "):
                calls[-1][line.split(" ", 2)[2]] += 1
        assert [c.pop("lexsort None", 0) for c in calls] == [1, 1, 0], calls
        total = sum(calls, Counter())
        assert total and set(total) <= {"sort stable", "argsort stable"}, calls

    def test_preset_runs_load_no_jsonschema(self, tmp_path):
        # a configuration that conforms is accepted without jsonschema
        commands = [
            [*command, "--preset", name]
            for name in sorted(preset_names())
            for command in (["korovkin", "run"], ["choquet"])
        ]
        codes, loaded, _ = _fresh_run(commands, tmp_path)
        assert codes == [0] * len(commands)
        assert not {"jsonschema", "referencing"} & set(loaded)

    def test_rejection_loads_no_jsonschema(self, tmp_path):
        # the evaluator that accepts a configuration also words its refusal
        commands = []
        for name in sorted(preset_names()):
            cfg = get_preset(name)
            cfg["surprise"] = 1
            path = write_config(tmp_path, cfg, f"{name}.json")
            commands += [["korovkin", "run", "--config", path], ["choquet", "--config", path]]
        codes, loaded, err = _fresh_run(commands, tmp_path)
        assert codes == [1] * len(commands) and not {"jsonschema", "referencing"} & set(loaded)
        assert err == len(commands) * (
            "error: config field <root>: Additional properties are not allowed"
            " ('surprise' was unexpected)\n"
        )


def _fresh_run(
    commands: list[list[str]], out, prelude: str = ""
) -> tuple[list[int], list[str], str]:
    """Run CLI commands through `main` in a fresh interpreter (other tests
    load scipy in this one), after the code `prelude`; returns their exit
    codes, every module the child then holds, and its stderr."""
    child = prelude + (
        "import json, sys\n"
        "from korovkinlab.cli import main\n"
        "commands = json.loads(sys.argv[2])\n"
        "codes = [main([*c, '--out', f'{sys.argv[1]}/{i}']) for i, c in enumerate(commands)]\n"
        "print(json.dumps([codes, sorted(sys.modules)]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", child, str(out), json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    return codes, loaded, proc.stderr


def _long_flags(parser: argparse.ArgumentParser, path: tuple[str, ...]) -> set[str]:
    for name in path:
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[name]
    return {s for a in parser._actions for s in a.option_strings if s.startswith("--")} - {"--help"}


@pytest.mark.parametrize("path", [("operators", "list"), ("choquet",), ("korovkin", "run")])
def test_readme_synopsis_matches_parser(path):
    prefix = " ".join(("korovkinlab",) + path) + " "
    lines = [ln for ln in README.read_text().splitlines() if ln.startswith(prefix)]
    assert len(lines) == 1, f"expected one README synopsis line for {prefix!r}"
    assert set(re.findall(r"--[a-z][a-z-]*", lines[0])) == _long_flags(build_parser(), path)


def test_readme_config_example_builds():
    text = README.read_text()
    block = text.split("### Configuration files", 1)[1].split("```json\n", 1)[1]
    cfg = json.loads(block.split("```", 1)[0])
    built = build_experiment(validate_config(cfg))
    assert built.experiment.radius == 0.2



def _names_read(path: Path) -> set[str]:
    """The names a module reads, bare or as an attribute; a definition alone
    is not a use."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_every_export_is_reached_by_a_module_or_a_criterion():
    """Each public name is used by another module of the package or by an
    acceptance criterion; a name that only its own unit tests call goes."""
    src = ROOT / "src" / "korovkinlab"
    init = ast.parse((src / "__init__.py").read_text())
    imports = [node for node in init.body if isinstance(node, ast.ImportFrom)]
    exports = {a.asname or a.name for node in imports for a in node.names}
    used = _names_read(ROOT / "tests" / "test_acceptance.py")
    for path in src.glob("*.py"):
        if path.name != "__init__.py":
            used |= _names_read(path)
    assert len(exports) > 50
    assert sorted(exports - used) == []


class TestOutputDirEnvVar:
    def test_env_var_is_honored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KOROVKINLAB_OUT", str(tmp_path / "envout"))
        assert run_cli("korovkin", "run", "--preset", "example41_bernstein") == 0
        assert (tmp_path / "envout" / "report.csv").exists()
