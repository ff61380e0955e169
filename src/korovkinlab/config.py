"""JSON run configurations: schema, validation, and object construction.

A configuration names its grids, spans, operator family, and experiment
parameters; cross-references are by name. ``load_config`` validates against
the published schema and ``build_*`` functions turn validated blocks into
package objects, raising ConfigError with the offending field path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import jsonschema

from .choquet import ChoquetParams
from .engine import ExperimentConfig
from .errors import ConfigError, ResourceLimitError
from .functions import FunctionSpan, ScalarFunction, default_probes, named_function
from .operators import (
    OperatorFamily,
    averaging_operator,
    bernstein_family,
    check_fejer_grid,
    fejer_family,
    identity_isometry,
    inject_weight,
    mollifier_disc_family,
    perturbed_composition,
    rotation_isometry,
    tensor_bernstein_family,
)
from .space import (
    CompactSpace,
    Field,
    make_box_grid,
    make_circle_grid,
    make_custom_space,
    make_disc_grid,
    make_interval_grid,
)

SCHEMA_VERSION = 1

FAMILY_NAMES = (
    "bernstein",
    "fejer",
    "tensor_bernstein",
    "mollifier_disc",
    "perturbed_composition",
)

FAMILY_PARAMETERS = {
    "bernstein": "space: interval grid",
    "fejer": "space: circle grid with m > 2n+2 points",
    "tensor_bernstein": "space: box grid",
    "mollifier_disc": "space: disc grid",
    "perturbed_composition": (
        "space: any grid; params.phi: {type: identity|rotation, steps} or {map: [...]};"
        " params.mix: 'mean'; params.eps: '1/n' | '1/n^2' | [values]"
    ),
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["version", "spaces"],
    "additionalProperties": False,
    "properties": {
        "version": {"type": "integer"},
        "name": {"type": "string"},
        "spaces": {
            "type": "object",
            "minProperties": 1,
            "additionalProperties": {
                "type": "object",
                "required": ["kind"],
                "additionalProperties": False,
                "properties": {
                    "kind": {"enum": ["interval", "circle", "disc", "box", "custom"]},
                    "m": {"type": "integer", "minimum": 1},
                    "p": {"type": "integer", "minimum": 1},
                    "rings": {"type": "integer", "minimum": 1},
                    "per_ring": {"type": "integer", "minimum": 3},
                    "points": {"type": "array", "minItems": 2},
                    "field": {"enum": ["real", "complex"]},
                    "point_cap": {"type": "integer", "minimum": 2},
                },
            },
        },
        "spans": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["space", "basis"],
                "additionalProperties": False,
                "properties": {
                    "space": {"type": "string"},
                    "basis": {"type": "array", "items": {"type": "string"}, "minItems": 1},
                    "conjugate_close": {"type": "boolean"},
                },
            },
        },
        "family": {
            "type": "object",
            "required": ["name", "space"],
            "additionalProperties": False,
            "properties": {
                "name": {"enum": list(FAMILY_NAMES)},
                "space": {"type": "string"},
                "params": {"type": "object"},
                "tamper": {
                    "type": "object",
                    "required": ["target_index", "node_index", "value"],
                    "additionalProperties": False,
                    "properties": {
                        "target_index": {"type": "integer", "minimum": 0},
                        "node_index": {"type": "integer", "minimum": 0},
                        "value": {"type": "number"},
                    },
                },
            },
        },
        "experiment": {
            "type": "object",
            "required": ["test_span", "indices"],
            "additionalProperties": False,
            "properties": {
                "test_span": {"type": "string"},
                "probes": {
                    "anyOf": [
                        {"const": "default"},
                        {"type": "array", "items": {"type": "string"}, "minItems": 1},
                    ]
                },
                "indices": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 1},
                    "minItems": 1,
                },
                # `seed` is accepted and ignored: nothing in a run is sampled,
                # but configurations written for earlier versions (and the
                # benchmark's generated ones) still carry the key
                "seed": {"type": "integer", "minimum": 0},
                "tolerances": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "abs_threshold": {"type": "number", "exclusiveMinimum": 0},
                        "improvement_factor": {"type": "number", "minimum": 1},
                        "transient_slack": {"type": "number", "minimum": 1},
                    },
                },
                "choquet": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "r_list": {
                            "type": "array",
                            "items": {"type": "number", "exclusiveMinimum": 0},
                            "minItems": 1,
                        },
                        "r_factors": {
                            "type": "array",
                            "items": {"type": "number", "exclusiveMinimum": 0},
                            "minItems": 1,
                        },
                        "delta_min": {"type": "number", "exclusiveMinimum": 0},
                        "directions": {"type": "integer", "minimum": 4},
                    },
                },
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"dir": {"type": "string"}},
        },
    },
}


def validate_config(cfg: dict) -> dict:
    """Schema-validate a configuration dict; returns it on success."""
    try:
        jsonschema.validate(cfg, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        path = ".".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"config field {path}: {exc.message}") from None
    version = cfg["version"]
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"config field version: expected {SCHEMA_VERSION}, got {version}"
        )
    return cfg


def load_config(path) -> dict:
    """Read and validate a JSON configuration file."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {p} is not valid JSON: {exc}") from None
    return validate_config(cfg)


def build_space(name: str, block: dict) -> CompactSpace:
    kind = block["kind"]
    where = f"spaces.{name}"
    try:
        if kind == "interval":
            return make_interval_grid(_require(block, "m", where))
        if kind == "circle":
            return make_circle_grid(_require(block, "m", where))
        if kind == "disc":
            return make_disc_grid(
                _require(block, "rings", where), _require(block, "per_ring", where)
            )
        if kind == "box":
            cap = block.get("point_cap")
            if cap is None:
                return make_box_grid(_require(block, "p", where), _require(block, "m", where))
            return make_box_grid(
                _require(block, "p", where), _require(block, "m", where), point_cap=cap
            )
        field = Field.COMPLEX if block.get("field") == "complex" else Field.REAL
        return make_custom_space(
            _require(block, "points", where), field=field, space_id=name
        )
    except (ValueError, ResourceLimitError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _require(block: dict, key: str, where: str):
    if key not in block:
        raise ConfigError(f"{where}: missing required parameter {key!r}")
    return block[key]


def build_spaces(cfg: dict) -> dict[str, CompactSpace]:
    return {name: build_space(name, block) for name, block in cfg["spaces"].items()}


def build_span(name: str, block: dict, spaces: dict[str, CompactSpace]) -> FunctionSpan:
    where = f"spans.{name}"
    space_name = block["space"]
    if space_name not in spaces:
        raise ConfigError(f"{where}.space: unknown space {space_name!r}")
    space = spaces[space_name]
    try:
        basis = tuple(named_function(fn, space) for fn in block["basis"])
    except ValueError as exc:
        raise ConfigError(f"{where}.basis: {exc}") from None
    span = FunctionSpan(basis)
    if block.get("conjugate_close"):
        from .functions import conjugate_closure

        span = conjugate_closure(span)
    return span


def build_spans(cfg: dict, spaces: dict[str, CompactSpace]) -> dict[str, FunctionSpan]:
    return {
        name: build_span(name, block, spaces)
        for name, block in cfg.get("spans", {}).items()
    }


def build_family(cfg: dict, spaces: dict[str, CompactSpace]) -> OperatorFamily:
    if "family" not in cfg:
        raise ConfigError("family: block is required for this command")
    block = cfg["family"]
    name = block["name"]
    space_name = block["space"]
    if space_name not in spaces:
        raise ConfigError(f"family.space: unknown space {space_name!r}")
    space = spaces[space_name]
    params = block.get("params", {})
    try:
        if name == "bernstein":
            fam = bernstein_family(space)
        elif name == "fejer":
            fam = fejer_family(space)
        elif name == "tensor_bernstein":
            fam = tensor_bernstein_family(space)
        elif name == "mollifier_disc":
            fam = mollifier_disc_family(space)
        else:
            fam = _build_perturbed(space, params)
    except ValueError as exc:
        raise ConfigError(f"family: {exc}") from None
    tamper = block.get("tamper")
    if tamper:
        fam = _tampered(fam, tamper)
    return fam


def _build_perturbed(space: CompactSpace, params: dict) -> OperatorFamily:
    phi_block = params.get("phi", {"type": "identity"})
    if "map" in phi_block:
        from .operators import CompositionIsometry

        phi = CompositionIsometry(space, space, tuple(int(i) for i in phi_block["map"]))
    else:
        phi_type = phi_block.get("type", "identity")
        if phi_type == "identity":
            phi = identity_isometry(space)
        elif phi_type == "rotation":
            phi = rotation_isometry(space, int(phi_block.get("steps", 1)))
        else:
            raise ValueError(f"unknown phi type {phi_type!r}")
    mix_name = params.get("mix", "mean")
    if mix_name != "mean":
        raise ValueError(f"unknown mix operator {mix_name!r}")
    mix = averaging_operator(space)
    eps = params.get("eps", "1/n")
    return perturbed_composition(phi, mix, eps)


def _tampered(fam: OperatorFamily, tamper: dict) -> OperatorFamily:
    yi, ni, val = tamper["target_index"], tamper["node_index"], tamper["value"]

    def build(n: int):
        return inject_weight(fam.kernel_builder(n), yi, ni, val)

    return OperatorFamily(f"{fam.name}(tampered)", fam.source, fam.target, build, fam.limit)


def build_choquet_params(block: dict | None) -> ChoquetParams:
    if not block:
        return ChoquetParams()
    kwargs = {}
    if "r_list" in block:
        kwargs["r_list"] = tuple(block["r_list"])
    if "r_factors" in block:
        kwargs["r_factors"] = tuple(block["r_factors"])
    if "delta_min" in block:
        kwargs["delta_min"] = block["delta_min"]
    if "directions" in block:
        kwargs["directions"] = block["directions"]
    return ChoquetParams(**kwargs)


@dataclass(frozen=True, eq=False)
class BuiltExperiment:
    name: str
    spaces: dict[str, CompactSpace]
    spans: dict[str, FunctionSpan]
    experiment: ExperimentConfig
    output_dir: str | None


def build_experiment(cfg: dict) -> BuiltExperiment:
    """Turn a validated config dict into a ready-to-run experiment."""
    spaces = build_spaces(cfg)
    spans = build_spans(cfg, spaces)
    family = build_family(cfg, spaces)
    if "experiment" not in cfg:
        raise ConfigError("experiment: block is required for this command")
    exp = cfg["experiment"]
    span_name = exp["test_span"]
    if span_name not in spans:
        raise ConfigError(f"experiment.test_span: unknown span {span_name!r}")
    test_span = spans[span_name]
    if test_span.space is not family.source:
        raise ConfigError(
            "experiment.test_span: span and family live on different spaces"
        )
    probes_spec = exp.get("probes", "default")
    if probes_spec == "default":
        probes: tuple[ScalarFunction, ...] = default_probes(family.source)
    else:
        try:
            probes = tuple(named_function(n, family.source) for n in probes_spec)
        except ValueError as exc:
            raise ConfigError(f"experiment.probes: {exc}") from None
    indices = tuple(exp["indices"])
    if cfg["family"]["name"] == "fejer":
        try:
            for n in indices:
                check_fejer_grid(n, family.source.n_points)
        except ValueError as exc:
            raise ConfigError(f"experiment.indices: {exc}") from None
    tol = exp.get("tolerances", {})
    try:
        experiment = ExperimentConfig(
            family=family,
            test_span=test_span,
            probes=probes,
            indices=indices,
            abs_threshold=tol.get("abs_threshold", 0.05),
            improvement_factor=tol.get("improvement_factor", 2.0),
            transient_slack=tol.get("transient_slack", 1.2),
            choquet=build_choquet_params(exp.get("choquet")),
        )
    except ValueError as exc:
        raise ConfigError(f"experiment: {exc}") from None
    return BuiltExperiment(
        name=cfg.get("name", "experiment"),
        spaces=spaces,
        spans=spans,
        experiment=experiment,
        output_dir=cfg.get("output", {}).get("dir"),
    )
