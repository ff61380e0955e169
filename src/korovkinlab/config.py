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
from .operators import FAMILIES, OperatorFamily, inject_weight
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


def _keys(required: dict, optional: dict | None = None) -> dict:
    """Schema of a grid block that holds ``kind`` and exactly these keys."""
    return {
        "required": list(required),
        "properties": {"kind": True, **required, **(optional or {})},
        "additionalProperties": False,
    }


def _count(least: int) -> dict:
    return {"type": "integer", "minimum": least}


# grid kind -> (schema of its config keys, builder from (space name, block));
# the builders call the factories through this module's names, which the
# benchmark's tracer wraps to time each grid build
GRIDS = {
    "interval": (_keys({"m": _count(1)}), lambda name, b: make_interval_grid(b["m"])),
    "circle": (_keys({"m": _count(1)}), lambda name, b: make_circle_grid(b["m"])),
    "disc": (
        _keys({"rings": _count(1), "per_ring": _count(3)}),
        lambda name, b: make_disc_grid(b["rings"], b["per_ring"]),
    ),
    "box": (_keys({"p": _count(1), "m": _count(1)}), lambda name, b: make_box_grid(b["p"], b["m"])),
    "custom": (
        _keys(
            {"points": {"type": "array", "minItems": 2}},
            {"field": {"enum": [f.value for f in Field]}},
        ),
        lambda name, b: make_custom_space(
            b["points"], field=Field(b.get("field", "real")), space_id=name
        ),
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
                "properties": {"kind": {"enum": list(GRIDS)}},
                # each kind takes exactly its own row's keys
                "allOf": [
                    {
                        "if": {"required": ["kind"], "properties": {"kind": {"const": kind}}},
                        "then": keys,
                    }
                    for kind, (keys, _) in GRIDS.items()
                ],
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
                "name": {"enum": list(FAMILIES)},
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
            # each family's params against its own row's schema
            "allOf": [
                {
                    "if": {"required": ["name"], "properties": {"name": {"const": f.name}}},
                    "then": {"properties": {"params": f.params}},
                }
                for f in FAMILIES.values()
            ],
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
                    },
                },
                "choquet": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "radius": {"type": "number", "exclusiveMinimum": 0},
                        "delta_min": {"type": "number", "exclusiveMinimum": 0},
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

# built once: jsonschema.validate re-checks the schema itself on every call
_VALIDATOR = jsonschema.Draft202012Validator(CONFIG_SCHEMA)


def validate_config(cfg: dict) -> dict:
    """Schema-validate a configuration dict; returns it on success."""
    exc = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(cfg))
    if exc is not None:
        path = ".".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"config field {path}: {exc.message}")
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
    """The grid of a validated ``spaces`` block, from its kind's table row."""
    try:
        return GRIDS[block["kind"]][1](name, block)
    except (ValueError, ResourceLimitError) as exc:
        raise ConfigError(f"spaces.{name}: {exc}") from None


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
    """The configured family, checked against its table row before it
    allocates anything: the grid kind, then the kernel of every index in
    ``experiment.indices`` against the weight budget."""
    if "family" not in cfg:
        raise ConfigError("family: block is required for this command")
    block = cfg["family"]
    spec = FAMILIES[block["name"]]
    space_name = block["space"]
    if space_name not in spaces:
        raise ConfigError(f"family.space: unknown space {space_name!r}")
    space = spaces[space_name]
    try:
        spec.check_kind(space)
    except ValueError as exc:
        raise ConfigError(f"family: {exc}") from None
    for n in cfg.get("experiment", {}).get("indices", ()):
        try:
            spec.check_index(space, n)
        except ValueError as exc:
            raise ConfigError(f"experiment.indices: {exc}") from None
    try:
        fam = spec.build(space, block.get("params", {}))
    except ValueError as exc:
        raise ConfigError(f"family: {exc}") from None
    tamper = block.get("tamper")

    def build(n: int):
        # kernels are built lazily, inside the run; report a bad index or
        # parameter as the configuration error it is
        try:
            op = fam.kernel_builder(n)
            if tamper:
                op = inject_weight(op, **tamper)
            return op
        except ValueError as exc:
            raise ConfigError(f"family: index {n}: {exc}") from None

    name = f"{fam.name}(tampered)" if tamper else fam.name
    return OperatorFamily(name, fam.source, fam.target, build, fam.limit)


def build_choquet_params(block: dict | None) -> ChoquetParams:
    # the schema admits exactly the field names of ChoquetParams
    return ChoquetParams(**(block or {}))


@dataclass(frozen=True, eq=False)
class BuiltExperiment:
    name: str
    experiment: ExperimentConfig


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
    tol = exp.get("tolerances", {})
    try:
        experiment = ExperimentConfig(
            family=family,
            test_span=test_span,
            probes=probes,
            indices=tuple(exp["indices"]),
            abs_threshold=tol.get("abs_threshold", 0.05),
            improvement_factor=tol.get("improvement_factor", 2.0),
            choquet=build_choquet_params(exp.get("choquet")),
        )
    except ValueError as exc:
        raise ConfigError(f"experiment: {exc}") from None
    return BuiltExperiment(name=cfg.get("name", "experiment"), experiment=experiment)
