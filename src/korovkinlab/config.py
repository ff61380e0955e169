"""JSON run configurations: schema, validation, and object construction.

A configuration names its grids, spans, operator family, and experiment
parameters; cross-references are by name. ``load_config`` validates against
the published schema and ``build_*`` functions turn validated blocks into
package objects, raising ConfigError with the offending field path.

One small evaluator of the schema's own keywords both accepts a
configuration and words its first failure as jsonschema does.
"""

from __future__ import annotations

import json
import math
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
        "version": {"type": "integer", "const": SCHEMA_VERSION},
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


# JSON Schema's types: a bool is no number, and an integer is an integer
# literal (2.0 is not one, since the grid and kernel builders need an int)
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "number": lambda x: isinstance(x, numbers.Number) and not isinstance(x, bool),
    "integer": lambda x: isinstance(x, int) and not isinstance(x, bool),
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


def _first(failures):
    return next(filter(None, failures), None)


def _additional(x, v, s, p):
    extras = [k for k in x if k not in s.get("properties", {})] if isinstance(x, dict) else []
    if v is not False:
        return _first(_failure(x[k], v, (*p, k)) for k in extras)
    names = ", ".join(map(repr, sorted(extras, key=str))) + (" was", " were")[len(extras) > 1]
    return extras and f"Additional properties are not allowed ({names} unexpected)"


def _any_of(x, branches, s, p):
    """None if a branch holds; else jsonschema's refusal, then each branch's
    first failure, so that no ranking rule picks one branch to blame. A
    branch whose type refuses x is passed over unworded until all fail."""
    if any(("type" not in b or _TYPES[b["type"]](x)) and not _failure(x, b, p) for b in branches):
        return None
    why = []
    for i, branch in enumerate(branches, 1):
        failure = _failure(x, branch, p)
        below = ".".join(map(str, failure[0][len(p) :]))
        why.append(f"branch {i}{below and ', field ' + below}: {failure[1]}")
    return f"{x!r} is not valid under any of the given schemas ({'; '.join(why)})"


# keyword -> the first failure of an instance x at path p under it, given the
# keyword's value v and the enclosing schema s: a message about x, a (path,
# message) pair below it, or a false value; a keyword that constrains one
# JSON type passes every instance of another
_KEYWORDS = {
    "$schema": lambda x, v, s, p: None,
    "type": lambda x, v, s, p: not _TYPES[v](x) and f"{x!r} is not of type {v!r}",
    "const": lambda x, v, s, p: not _equal(x, v) and f"{v!r} was expected",
    "enum": lambda x, v, s, p: all(not _equal(e, x) for e in v) and f"{x!r} is not one of {v!r}",
    "anyOf": _any_of,
    "allOf": lambda x, v, s, p: _first(_failure(x, t, p) for t in v),
    "if": lambda x, v, s, p: not _failure(x, v, p) and _failure(x, s.get("then", True), p),
    "then": lambda x, v, s, p: None,  # read by "if"
    "required": lambda x, v, s, p: isinstance(x, dict)
    and next((f"{k!r} is a required property" for k in v if k not in x), None),
    "properties": lambda x, v, s, p: isinstance(x, dict)
    and _first(_failure(x[k], t, (*p, k)) for k, t in v.items() if k in x),
    "additionalProperties": _additional,
    "minProperties": lambda x, v, s, p: isinstance(x, dict) and len(x) < v
    and f"{x!r} {'should be non-empty' if v == 1 else 'does not have enough properties'}",
    "items": lambda x, v, s, p: isinstance(x, list)
    and _first(_failure(y, v, (*p, i)) for i, y in enumerate(x)),
    "minItems": lambda x, v, s, p: isinstance(x, list) and len(x) < v
    and f"{x!r} {'should be non-empty' if v == 1 else 'is too short'}",
    "minimum": lambda x, v, s, p: _TYPES["number"](x) and x < v
    and f"{x!r} is less than the minimum of {v!r}",
    "exclusiveMinimum": lambda x, v, s, p: _TYPES["number"](x) and x <= v
    and f"{x!r} is less than or equal to the minimum of {v!r}",
}


def _failure(instance, schema, path=()) -> tuple[tuple, str] | None:
    """None if ``instance`` at ``path`` is valid under ``schema``; else its
    first failure, in jsonschema's order and words, as (path, message). A
    keyword not in ``_KEYWORDS`` raises ValueError, so none is skipped."""
    if isinstance(schema, bool):
        return None if schema else (path, f"False schema does not allow {instance!r}")
    for key, value in schema.items():
        if key not in _KEYWORDS:
            raise ValueError(f"schema keyword {key!r} has no evaluator")
        failure = _KEYWORDS[key](instance, value, schema, path)
        if failure:
            return (path, failure) if isinstance(failure, str) else failure
    return None


def validate_config(cfg: dict) -> dict:
    """Schema-validate a configuration dict; returns it on success."""
    failure = _failure(cfg, CONFIG_SCHEMA)
    if failure:
        path = ".".join(map(str, failure[0])) or "<root>"
        raise ConfigError(f"config field {path}: {failure[1]}")
    return cfg


def load_config(path) -> dict:
    """Read and validate a JSON configuration file."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")

    def refuse(name):  # JSON has no NaN or Infinity, although json.loads reads them
        raise ConfigError(f"config file {p} is not valid JSON: {name} is not a JSON value")

    def fits(text, kind=float):  # every number must fit a double; float() has no digit limit
        if math.isinf(float(text)):
            shown = text if len(text) <= 24 else f"{text[:16]}... ({len(text)} characters)"
            raise ConfigError(f"config file {p}: number {shown} does not fit a double")
        return kind(text)

    hooks = {"parse_constant": refuse, "parse_float": fits, "parse_int": lambda t: fits(t, int)}
    try:
        return validate_config(json.loads(p.read_text(encoding="utf-8"), **hooks))
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
    radius = build_choquet_params(exp.get("choquet"), family.target)
    try:
        experiment = ExperimentConfig(
            family=family,
            test_span=test_span,
            probes=probes,
            indices=tuple(exp["indices"]),
            radius=radius,
            **exp.get("tolerances", {}),
        )
    except ValueError as exc:
        raise ConfigError(f"experiment: {exc}") from None
    return BuiltExperiment(name=cfg.get("name", "experiment"), experiment=experiment)
