import copy
import math
import runpy
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from korovkinlab import ConfigError, Field
from korovkinlab.config import (
    _KEYWORDS,
    CONFIG_SCHEMA,
    _failure,
    build_experiment,
    build_space,
    build_spans,
    build_spaces,
    validate_config,
)
from korovkinlab.operators import FAMILIES
from korovkinlab.presets import get_preset, preset_names

ROOT = Path(__file__).resolve().parent.parent

PERTURBED_CONFIG = {
    "version": 1,
    "spaces": {"T": {"kind": "circle", "m": 16}},
    "spans": {"analytic": {"space": "T", "basis": ["const1", "z"]}},
    "family": {
        "name": "perturbed_composition",
        "space": "T",
        "params": {"phi": {"type": "rotation", "steps": 2}, "eps": "1/n^2"},
    },
    "experiment": {"test_span": "analytic", "indices": [1, 2, 4]},
}


class TestSchemaValidation:
    def test_missing_required_block(self):
        with pytest.raises(ConfigError):
            validate_config({"version": 1})

    def test_unknown_top_level_key(self):
        cfg = get_preset("example41_bernstein")
        cfg["surprise"] = 1
        with pytest.raises(ConfigError, match="surprise"):
            validate_config(cfg)

    def test_bad_kind(self):
        cfg = get_preset("example41_bernstein")
        cfg["spaces"]["I"]["kind"] = "sphere"
        with pytest.raises(ConfigError, match="spaces.I.kind"):
            validate_config(cfg)

    def test_schema_is_valid(self):
        jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda c: c.update(surprise=1),
            lambda c: c["spaces"]["I"].update(kind="sphere"),
            lambda c: c["experiment"].update(indices=[]),
            lambda c: c["experiment"].update(tolerances={"abs_threshold": -1, "x": 2}),
            lambda c: c.pop("spaces"),
        ],
    )
    def test_messages_match_jsonschema_validate(self, edit):
        cfg = get_preset("example41_bernstein")
        edit(cfg)
        with pytest.raises(jsonschema.ValidationError) as ref:
            jsonschema.validate(cfg, CONFIG_SCHEMA)
        path = ".".join(str(p) for p in ref.value.absolute_path) or "<root>"
        with pytest.raises(ConfigError) as got:
            validate_config(cfg)
        assert str(got.value) == f"config field {path}: {ref.value.message}"

    def test_any_of_refusal_lists_every_branch(self):
        cfg = copy.deepcopy(PERTURBED_CONFIG)
        cfg["family"]["params"]["phi"] = {"type": "identity", "steps": 3}
        with pytest.raises(ConfigError) as got:
            validate_config(cfg)
        assert str(got.value) == (
            "config field family.params.phi: {'type': 'identity', 'steps': 3} is not valid"
            " under any of the given schemas (branch 1: 'map' is a required property;"
            " branch 2: Additional properties are not allowed ('steps' was unexpected);"
            " branch 3, field type: 'rotation' was expected)"
        )

    def test_version_pinned(self):
        cfg = get_preset("example41_bernstein")
        cfg["version"] = 2
        with pytest.raises(ConfigError, match="version"):
            validate_config(cfg)


class TestBuilders:
    def test_custom_complex_space_from_pairs(self):
        space = build_space(
            "C",
            {"kind": "custom", "field": "complex", "points": [[1, 0], [0, 1], [-1, 0]]},
        )
        assert space.field is Field.COMPLEX
        assert space.n_points == 3

    def test_missing_kind_parameter(self):
        # build_space takes validated blocks; the schema names the missing key
        with pytest.raises(ConfigError, match="^config field spaces.I: 'm' is a required property$"):
            validate_config({"version": 1, "spaces": {"I": {"kind": "interval"}}})

    def test_span_with_unknown_function(self):
        cfg = get_preset("example41_bernstein")
        cfg["spans"]["quadratic"]["basis"] = ["const1", "tan"]
        spaces = build_spaces(cfg)
        with pytest.raises(ConfigError, match="spans.quadratic.basis"):
            build_spans(cfg, spaces)

    def test_span_space_reference(self):
        cfg = get_preset("example41_bernstein")
        cfg["spans"]["quadratic"]["space"] = "missing"
        spaces = build_spaces(cfg)
        with pytest.raises(ConfigError, match="unknown space"):
            build_spans(cfg, spaces)

    def test_family_space_mismatch(self):
        cfg = get_preset("example41_bernstein")
        cfg["spaces"]["T"] = {"kind": "circle", "m": 16}
        cfg["family"]["space"] = "T"  # bernstein on a circle grid
        with pytest.raises(ConfigError, match="family"):
            build_experiment(validate_config(cfg))

    def test_conjugate_close_flag(self):
        cfg = {
            "version": 1,
            "spaces": {"T": {"kind": "circle", "m": 8}},
            "spans": {
                "analytic": {"space": "T", "basis": ["const1", "z"], "conjugate_close": True}
            },
        }
        spans = build_spans(validate_config(cfg), build_spaces(cfg))
        assert spans["analytic"].dim == 3
        assert spans["analytic"].self_conjugate

    def test_perturbed_family_from_config(self):
        built = build_experiment(validate_config(copy.deepcopy(PERTURBED_CONFIG)))
        op = built.experiment.family.operator(2)
        assert op.t_one_values == pytest.approx(1.0)

    def test_explicit_probe_list(self):
        cfg = get_preset("example41_bernstein")
        cfg["experiment"]["probes"] = ["x", "runge"]
        built = build_experiment(validate_config(cfg))
        assert [p.name for p in built.experiment.probes] == ["x", "runge"]


# the keywords whose values are subschemas, and how to reach them
_SUBSCHEMAS = {
    "properties": lambda v: v.values(),
    "anyOf": list,
    "allOf": list,
    "items": lambda v: [v],
    "additionalProperties": lambda v: [v],
    "if": lambda v: [v],
    "then": lambda v: [v],
}


def _schema_walk(schema):
    """Every (keyword, value) pair of a schema and of its subschemas."""
    if isinstance(schema, bool):
        return
    for key, value in schema.items():
        yield key, value
        for sub in _SUBSCHEMAS.get(key, lambda v: [])(value):
            yield from _schema_walk(sub)


def _workload_configs():
    generate = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))["generate"]
    names = ("disc_preset", "tensor_convergence", "cloud_reject", "cloud_accept")
    return [generate(name, 1).config for name in names]


# jsonschema's validator with `integer` read as an integer literal, built
# here rather than taken from config, so that the guard does not share it
_STRICT = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, x: type(x) is int
    ),
)(CONFIG_SCHEMA)

# every optional field the other seeds leave out, so that each keyword is reached
_FULL_CONFIG = {
    "version": 1,
    "name": "full",
    "spaces": {
        "C": {"kind": "custom", "points": [[1, 0], [0, 1], [-1, 0], [0, -1]], "field": "complex"}
    },
    "spans": {"a": {"space": "C", "basis": ["const1", "z"], "conjugate_close": True}},
    "family": {
        "name": "perturbed_composition",
        "space": "C",
        "params": {"phi": {"map": [1, 2, 3, 0]}, "mix": "mean", "eps": [0.5, 0.25]},
        "tamper": {"target_index": 1, "node_index": 0, "value": 0.5},
    },
    "experiment": {
        "test_span": "a",
        "probes": ["z"],
        "indices": [1, 2],
        "seed": 3,
        "tolerances": {"abs_threshold": 0.05, "improvement_factor": 2.0},
        "choquet": {"radius": 0.5},
    },
    "output": {"dir": "out"},
}

_SEED_CONFIGS = [
    *(get_preset(name) for name in sorted(preset_names())),
    *_workload_configs(),
    PERTURBED_CONFIG,
    _FULL_CONFIG,
]
_WALK = list(_schema_walk(CONFIG_SCHEMA))
# the values the schema names (kinds, families, ...), and edge values of each JSON type
_NAMES = sorted(
    {e for k, v in _WALK if k == "enum" for e in v} | {v for k, v in _WALK if k == "const"}, key=repr
)
_EDGES = [None, True, False, 0, 1, -1, 2.0, 0.5, math.nan, "", "x", [], {}, [1]]
_KEYS = sorted({name for k, v in _WALK if k == "properties" for name in v}) + ["surprise"]


def _paths(x, path=()):
    """The path to every node, reading only the first two items of a list."""
    yield path
    children = x.items() if isinstance(x, dict) else enumerate(x[:2]) if isinstance(x, list) else ()
    for key, child in children:
        yield from _paths(child, (*path, key))


_DROP = object()


def _at(cfg, path):
    for key in path:
        cfg = cfg[key]
    return cfg


def _edit(cfg, path, value):
    """``cfg`` with its node at ``path`` replaced by ``value``, or removed
    if ``value`` is _DROP (the root is never removed)."""
    if not path:
        return cfg if value is _DROP else value
    parent = _at(cfg, path[:-1])
    if value is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return cfg


@st.composite
def _mutants(draw):
    """A seed configuration after one or two edits: a node replaced by an
    edge value, a schema name or a copy of another node; a node removed;
    a key added; or an item appended."""
    cfg = copy.deepcopy(draw(st.sampled_from(_SEED_CONFIGS)))
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(cfg))
        path = draw(st.sampled_from(paths))
        node = _at(cfg, path)
        edit = draw(st.sampled_from(["edge", "name", "copy", "drop", "add", "append"]))
        if edit == "copy":
            value = _at(cfg, draw(st.sampled_from(paths)))
        else:
            value = draw(st.sampled_from(_NAMES if edit == "name" else _EDGES))
        value = copy.deepcopy(value)
        if edit == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(_KEYS))] = value
        elif edit == "append" and isinstance(node, list):
            node.append(value)
        elif edit in ("edge", "name", "copy", "drop"):
            cfg = _edit(cfg, path, _DROP if edit == "drop" else value)
    return cfg


def _assert_agrees(cfg, where=None):
    """The evaluator accepts ``cfg`` exactly when _STRICT does, and words a
    refusal as one of _STRICT's errors at the same path; an anyOf error's
    message is jsonschema's followed by the list of its branches."""
    failure = _failure(cfg, CONFIG_SCHEMA)
    assert (failure is None) == _STRICT.is_valid(cfg), where
    if failure:
        path, message = failure
        assert any(
            tuple(e.absolute_path) == path
            and (
                message == e.message
                or e.validator == "anyOf"
                and message.startswith(f"{e.message} (branch 1")
                and message.endswith(")")
            )
            for e in _STRICT.iter_errors(cfg)
        ), (where, failure)


class TestKeywordEvaluator:
    """The evaluator that accepts and words configurations agrees with jsonschema."""

    def test_schemas_use_only_evaluated_keywords(self):
        for schema in [CONFIG_SCHEMA, *(f.params for f in FAMILIES.values())]:
            assert {k for k, _ in _schema_walk(schema)} <= set(_KEYWORDS)

    @pytest.mark.parametrize(
        "schema, instance",
        [
            ({"pattern": "x"}, "x"),
            ({"type": "string", "maxLength": 3}, "x"),
            ({"properties": {"a": {"format": "uri"}}}, {"a": "b"}),
        ],
    )
    def test_unknown_keyword_raises(self, schema, instance):
        with pytest.raises(ValueError, match="has no evaluator"):
            _failure(instance, schema)

    def test_seed_configs_conform(self):
        for cfg in _SEED_CONFIGS:
            assert _failure(cfg, CONFIG_SCHEMA) is None

    @settings(max_examples=500)
    @given(_mutants())
    def test_agrees_with_jsonschema(self, cfg):
        _assert_agrees(cfg)

    @pytest.mark.parametrize("seed", [_FULL_CONFIG, PERTURBED_CONFIG], ids=["full", "perturbed"])
    def test_agrees_on_every_single_edit(self, seed):
        # each node replaced by each edge value and schema name, or removed
        for path in list(_paths(seed)):
            for value in [*_EDGES, *_NAMES, _DROP]:
                _assert_agrees(_edit(copy.deepcopy(seed), path, value), (path, value))

    @pytest.mark.parametrize(
        "a, b, equal",
        [(True, 1, False), (0, False, False), (1, 1.0, True), ([True], [1], False),
         ({"a": [1, "x"]}, {"a": [1, "x"]}, True), ({"a": 1}, {"b": 1}, False)],
    )
    def test_const_follows_json_equality(self, a, b, equal):
        assert (_failure(a, {"const": b}) is None) is equal
        assert _STRICT.evolve(schema={"const": b}).is_valid(a) is equal
