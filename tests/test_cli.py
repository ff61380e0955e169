import argparse
import csv
import json
import re
import tracemalloc
from pathlib import Path

import pytest

from korovkinlab.cli import build_parser, main
from korovkinlab.presets import get_preset, preset_names

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(*argv):
    return main(list(argv))


def write_config(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


class TestOperatorsList:
    def test_lists_five_families(self, capsys):
        assert run_cli("operators", "list") == 0
        out = capsys.readouterr().out
        for name in (
            "bernstein",
            "fejer",
            "tensor_bernstein",
            "mollifier_disc",
            "perturbed_composition",
        ):
            assert name in out

    def test_json_output(self, capsys):
        assert run_cli("operators", "list", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 5
        assert {entry["name"] for entry in payload} == set(
            ("bernstein", "fejer", "tensor_bernstein", "mollifier_disc", "perturbed_composition")
        )

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

    def test_schema_violation_exit_1(self, tmp_path, capsys):
        cfg = get_preset("example41_bernstein")
        cfg["experiment"]["indices"] = "not-a-list"
        path = write_config(tmp_path, cfg)
        assert run_cli("korovkin", "run", "--config", path) == 1
        err = capsys.readouterr().err
        assert "experiment.indices" in err

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
        import scipy.spatial.distance

        def no_matrix(*args):
            raise AssertionError("pairwise distances computed")

        monkeypatch.setattr(scipy.spatial.distance, "cdist", no_matrix)
        cfg = get_preset("example41_bernstein")
        cfg["spaces"]["I"]["m"] = 2**14  # 2**14 + 1 points
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


class TestPresets:
    def test_all_presets_validate(self):
        from korovkinlab.config import validate_config

        for name in preset_names():
            validate_config(get_preset(name))

    @pytest.mark.parametrize("name", sorted(preset_names()))
    def test_every_preset_exits_zero(self, name, tmp_path):
        assert run_cli("korovkin", "run", "--preset", name, "--out", str(tmp_path)) == 0

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


class TestOutputDirEnvVar:
    def test_env_var_is_honored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KOROVKINLAB_OUT", str(tmp_path / "envout"))
        assert run_cli("korovkin", "run", "--preset", "example41_bernstein") == 0
        assert (tmp_path / "envout" / "report.csv").exists()
