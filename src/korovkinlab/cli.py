"""Command-line front end.

Commands:
    operators list [--json]
    choquet (--config FILE | --preset NAME) [--span NAME] [--out DIR]
    korovkin run (--config FILE | --preset NAME) [--out DIR]

Exit codes: 0 on success, 1 on configuration or solver failure, 2 when a
convergence run completed but its hypothesis or convergence checks failed.
CSV output uses shortest round-trip float formatting, so identical
configurations produce byte-identical files: nothing in a run is sampled.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from . import __version__
from .choquet import DELTA_MIN, BoundaryEstimate, estimate_choquet_boundary
from .config import (
    build_choquet_params,
    build_experiment,
    build_spans,
    build_spaces,
    load_config,
    validate_config,
)
from .engine import ConvergenceReport, run_convergence, verify_hypotheses
from .errors import ConfigError, InvalidFunctionError, SolverError
from .operators import FAMILIES
from .presets import get_preset, preset_names

OUTPUT_ENV_VAR = "KOROVKINLAB_OUT"


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through ConfigError
    # so the documented exit code 1 applies.
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="korovkinlab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"korovkinlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ops = sub.add_parser("operators", help="inspect built-in operator families")
    ops_sub = p_ops.add_subparsers(dest="subcommand", required=True)
    p_list = ops_sub.add_parser("list", help="list built-in families")
    p_list.add_argument("--json", action="store_true", help="machine-readable output")

    p_cho = sub.add_parser("choquet", help="scan a span's boundary on its grid")
    _add_config_args(p_cho)
    p_cho.add_argument("--span", help="span name (defaults to the only span)")

    p_kor = sub.add_parser("korovkin", help="convergence experiments")
    kor_sub = p_kor.add_subparsers(dest="subcommand", required=True)
    p_run = kor_sub.add_parser("run", help="run a convergence experiment")
    _add_config_args(p_run)
    return parser


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="path to a JSON run configuration")
    p.add_argument("--preset", help=f"built-in preset name ({', '.join(preset_names())})")
    p.add_argument("--out", help="output directory (overrides config and environment)")


def _load(args) -> dict:
    if bool(args.config) == bool(args.preset):
        raise ConfigError("exactly one of --config or --preset is required")
    if args.preset:
        return validate_config(get_preset(args.preset))
    return load_config(args.config)


def _resolve_out(args, cfg: dict) -> Path:
    out = args.out or os.environ.get(OUTPUT_ENV_VAR) or cfg.get("output", {}).get("dir") or "out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _fmt(x) -> str:
    # shortest decimal that round-trips
    return repr(float(x))


def cmd_operators_list(args) -> int:
    if args.json:
        payload = [{"name": f.name, "parameters": f.parameters} for f in FAMILIES.values()]
        print(json.dumps(payload, indent=2))
        return 0
    width = max(len(n) for n in FAMILIES)
    print(f"{'family':<{width}}  parameters")
    print(f"{'-' * width}  {'-' * 40}")
    for f in FAMILIES.values():
        print(f"{f.name:<{width}}  {f.parameters}")
    return 0


def _write_choquet_csv(path: Path, estimate: BoundaryEstimate) -> None:
    space = estimate.span.space
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["point_index", "coordinates", "classification", "margin", "radius"])
        for pc in estimate.points:
            coords = " ".join(_fmt(c) for c in space.coords[pc.index])
            margin = _fmt(pc.certificate.margin) if pc.certificate else ""
            radius = _fmt(pc.certificate.radius) if pc.certificate else ""
            writer.writerow([pc.index, coords, pc.label.value, margin, radius])


def _coeff_json(c):
    z = complex(c)
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


def _write_certificates_json(path: Path, estimate: BoundaryEstimate) -> None:
    payload = {
        "basis": [f.name for f in estimate.span.basis],
        "radius": estimate.radius,
        "delta_min": DELTA_MIN,
        "certificates": [
            {
                "point_index": pc.index,
                "source": pc.source,
                "margin": pc.certificate.margin,
                "radius": pc.certificate.radius,
                "coeffs": [_coeff_json(c) for c in pc.certificate.coeffs],
            }
            for pc in estimate.points
            if pc.certificate is not None
        ],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")


def cmd_choquet(args) -> int:
    cfg = _load(args)
    spaces = build_spaces(cfg)
    spans = build_spans(cfg, spaces)
    if not spans:
        raise ConfigError("spans: at least one span is required for the choquet command")
    if args.span:
        if args.span not in spans:
            raise ConfigError(f"unknown span {args.span!r}; available: {', '.join(spans)}")
        name = args.span
    elif len(spans) == 1:
        name = next(iter(spans))
    else:
        raise ConfigError(f"--span is required; available: {', '.join(spans)}")
    radius = build_choquet_params(cfg.get("experiment", {}).get("choquet"), spans[name].space)
    try:
        estimate = estimate_choquet_boundary(spans[name], radius)
    except ValueError as exc:
        raise ConfigError(f"span {name!r}: {exc}") from None
    out = _resolve_out(args, cfg)
    _write_choquet_csv(out / "choquet.csv", estimate)
    _write_certificates_json(out / "certificates.json", estimate)
    counts = estimate.counts()
    print(f"span {name!r} on {spans[name].space.id}: {counts}")
    print(f"wrote {out / 'choquet.csv'} and {out / 'certificates.json'}")
    return 0


def _write_report_csv(path: Path, report: ConvergenceReport) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["n", "function", "sup_error_global", "sup_error_choquet", "test_max_error", "bound_constant"]
        )
        for row in report.rows:
            writer.writerow(
                [
                    row.n,
                    row.function,
                    _fmt(row.sup_error_global),
                    _fmt(row.sup_error_choquet),
                    _fmt(report.test_max_error(row.n)),
                    _fmt(row.bound_constant),
                ]
            )


def _hypotheses_payload(report: ConvergenceReport) -> dict:
    hyp = report.hypotheses
    inclusion = hyp.choquet_inclusion
    boundary = None
    if inclusion.target_boundary is not None:
        boundary = inclusion.target_boundary.counts()
    return {
        "positivity": {
            str(n): {
                "passed": rep.passed,
                "worst_violation": rep.worst_violation,
                "witness": list(rep.witness) if rep.witness else None,
                "weight_certificate": rep.weight_certificate,
                "min_weight": rep.min_weight,
            }
            for n, rep in hyp.positivity.items()
        },
        "t_n_one_bound": hyp.t_n_one_bound,
        "isometry_deviation": hyp.isometry_deviation,
        "choquet_inclusion": {
            "status": inclusion.status,
            "included": inclusion.included,
            "target_boundary_counts": boundary,
            "note": inclusion.note,
        },
        "passed": hyp.passed,
    }


def cmd_korovkin_run(args) -> int:
    cfg = _load(args)
    built = build_experiment(cfg)
    hyp = verify_hypotheses(built.experiment)
    report = run_convergence(built.experiment, hypotheses=hyp)
    out = _resolve_out(args, cfg)
    _write_report_csv(out / "report.csv", report)
    (out / "hypotheses.json").write_text(
        json.dumps(_hypotheses_payload(report), indent=2) + "\n"
    )

    print(f"experiment {built.name!r}: indices {list(built.experiment.indices)}")
    print(
        f"hypotheses: positivity={'pass' if hyp.positivity_passed else 'FAIL'}"
        f" sup||T_n 1||={_fmt(hyp.t_n_one_bound)}"
        f" isometry_dev={_fmt(hyp.isometry_deviation)}"
        f" boundary={hyp.choquet_inclusion.status}"
    )
    name_w = max(len(t.function) for t in report.trends)
    print(f"{'probe':<{name_w}}  {'first':>12}  {'final':>12}  converged")
    for t in report.trends:
        print(
            f"{t.function:<{name_w}}  {t.errors[0]:>12.3e}  {t.errors[-1]:>12.3e}  "
            f"{'yes' if t.converged else 'NO'}"
        )
    print(f"wrote {out / 'report.csv'} and {out / 'hypotheses.json'}")
    ok = hyp.passed and report.converged_all
    return 0 if ok else 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "operators":
            return cmd_operators_list(args)
        if args.command == "choquet":
            return cmd_choquet(args)
        return cmd_korovkin_run(args)
    # a non-finite image (say, of a tampered kernel) fails the run like a bad config
    except (ConfigError, InvalidFunctionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's "Unable to allocate ..." is one line
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 1


def entrypoint() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
