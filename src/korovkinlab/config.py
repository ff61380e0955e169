"""JSON run configurations: schema, validation, and object construction.

A configuration names its grids, spans, operator family, and experiment
parameters; cross-references are by name. ``load_config`` validates against
the published schema and ``build_*`` functions turn validated blocks into
package objects, raising ConfigError with the offending field path.

A configuration that conforms is accepted by a small evaluator of the
schema's own keywords; jsonschema is imported only to word a rejection.
"""

from __future__ import annotations

import functools
import json
import numbers
from dataclasses import dataclass
from pathlib import Path

from .choquet import scan_radius
from .engine import ExperimentConfig
from .errors import ConfigError, ResourceLimitError
from .functions import FunctionSpan, conjugate_closure, default_probe_names, named_function
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


# a custom grid point: a number, or a non-empty list of coordinates
_POINT = {
    "anyOf": [{"type": "number"}, {"type": "array", "items": {"type": "number"}, "minItems": 1}]
}


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
            {"points": {"type": "array", "minItems": 2, "items": _POINT}},
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
                    "properties": {"radius": {"type": "number", "exclusiveMinimum": 0}},
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


def _is_number(x) -> bool:
    return isinstance(x, numbers.Number) and not isinstance(x, bool)


def _is_integer(x) -> bool:
    """JSON Schema's ``integer``, read as an integer literal: 2.0 is not one,
    since the grid and kernel builders need a Python int."""
    return isinstance(x, int) and not isinstance(x, bool)


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "number": _is_number,
    "integer": _is_integer,
}


def _equal(a, b) -> bool:
    """JSON equality: true is not 1, and containers compare item by item."""
    if a is b:
        return True
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return len(a) == len(b) and all(k in b and _equal(v, b[k]) for k, v in a.items())
    if isinstance(a, bool) or isinstance(b, bool):
        return False
    return a == b


# keyword -> whether (instance, keyword value, enclosing schema) passes it; a
# keyword that constrains one JSON type passes every instance of another
_KEYWORDS = {
    "$schema": lambda x, v, s: True,
    "type": lambda x, v, s: _TYPES[v](x),
    "const": lambda x, v, s: _equal(x, v),
    "enum": lambda x, v, s: any(_equal(e, x) for e in v),
    "anyOf": lambda x, v, s: any(_conforms(x, t) for t in v),
    "allOf": lambda x, v, s: all(_conforms(x, t) for t in v),
    "if": lambda x, v, s: not _conforms(x, v) or _conforms(x, s.get("then", True)),
    "then": lambda x, v, s: True,  # read by "if"
    "required": lambda x, v, s: not isinstance(x, dict) or all(k in x for k in v),
    "properties": lambda x, v, s: not isinstance(x, dict)
    or all(_conforms(x[k], t) for k, t in v.items() if k in x),
    "additionalProperties": lambda x, v, s: not isinstance(x, dict)
    or all(_conforms(x[k], v) for k in x if k not in s.get("properties", {})),
    "minProperties": lambda x, v, s: not isinstance(x, dict) or len(x) >= v,
    "items": lambda x, v, s: not isinstance(x, list) or all(_conforms(y, v) for y in x),
    "minItems": lambda x, v, s: not isinstance(x, list) or len(x) >= v,
    "minimum": lambda x, v, s: not _is_number(x) or not x < v,
    "exclusiveMinimum": lambda x, v, s: not _is_number(x) or not x <= v,
}


def _conforms(instance, schema) -> bool:
    """Whether ``instance`` is valid under ``schema``, a JSON Schema that
    uses only the keywords in ``_KEYWORDS``; any other keyword raises
    ValueError, so that a schema edit cannot be skipped silently."""
    if isinstance(schema, bool):
        return schema
    for key, value in schema.items():
        if key not in _KEYWORDS:
            raise ValueError(f"schema keyword {key!r} has no evaluator")
        if not _KEYWORDS[key](instance, value, schema):
            return False
    return True


@functools.cache
def _validators():
    """jsonschema's validators of ``CONFIG_SCHEMA``: its own reading, then
    the strict one, which reads ``integer`` as ``_is_integer`` does."""
    import jsonschema

    base = jsonschema.Draft202012Validator
    checker = base.TYPE_CHECKER.redefine("integer", lambda _, x: _is_integer(x))
    strict = jsonschema.validators.extend(base, type_checker=checker)
    return base(CONFIG_SCHEMA), strict(CONFIG_SCHEMA)


def validate_config(cfg: dict) -> dict:
    """Schema-validate a configuration dict; returns it on success."""
    if not _conforms(cfg, CONFIG_SCHEMA):
        from jsonschema.exceptions import best_match

        # jsonschema's own reading first, so that a configuration it refuses
        # is worded as it always was; the strict one words the integral
        # floats that only it refuses
        for validator in _validators():
            exc = best_match(validator.iter_errors(cfg))
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
        return validate_config(json.loads(p.read_text(encoding="utf-8")))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {p} is not valid JSON: {exc}") from None
    except RecursionError:  # parsing, or checking a value nested just under the parser's limit
        raise ConfigError(f"config file {p} nests too deeply to read") from None


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
        for f in basis:
            f.values  # a non-finite value is a configuration error
    except ValueError as exc:
        raise ConfigError(f"{where}.basis: {exc}") from None
    span = FunctionSpan(basis)
    if block.get("conjugate_close"):
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


def build_choquet_params(block: dict | None, space: CompactSpace | None = None) -> float | None:
    """The scan radius of an ``experiment.choquet`` block, resolved on the
    grid the scan runs on; without a grid (the benchmark's set-up probe
    calls it so), the configured value, None for the default."""
    radius = (block or {}).get("radius")
    if space is None:
        return radius
    try:
        return scan_radius(space, radius)
    except ValueError as exc:
        raise ConfigError(f"experiment.choquet.radius: {exc}") from None


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
    names = exp.get("probes", "default")
    if names == "default":
        names = default_probe_names(family.source)
    # a probe the test span already holds is the same function object, so the
    # run applies it once per index
    basis = {f.name: f for f in test_span.basis}
    try:
        probes = tuple(basis[n] if n in basis else named_function(n, family.source) for n in names)
        for f in probes:
            f.values  # a non-finite value is a configuration error
    except ValueError as exc:
        raise ConfigError(f"experiment.probes: {exc}") from None
    tol = exp.get("tolerances", {})
    radius = build_choquet_params(exp.get("choquet"), family.target)
    try:
        experiment = ExperimentConfig(
            family=family,
            test_span=test_span,
            probes=probes,
            indices=tuple(exp["indices"]),
            abs_threshold=tol.get("abs_threshold", 0.05),
            improvement_factor=tol.get("improvement_factor", 2.0),
            radius=radius,
        )
    except ValueError as exc:
        raise ConfigError(f"experiment: {exc}") from None
    return BuiltExperiment(name=cfg.get("name", "experiment"), experiment=experiment)
