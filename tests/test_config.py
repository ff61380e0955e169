import jsonschema
import pytest

from korovkinlab import ConfigError, Field
from korovkinlab.config import (
    CONFIG_SCHEMA,
    build_experiment,
    build_space,
    build_spans,
    build_spaces,
    validate_config,
)
from korovkinlab.presets import get_preset


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
        with pytest.raises(ConfigError, match="missing required parameter 'm'"):
            build_space("I", {"kind": "interval"})

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
        cfg = {
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
        built = build_experiment(validate_config(cfg))
        op = built.experiment.family.operator(2)
        assert op.t_one_values == pytest.approx(1.0)

    def test_explicit_probe_list(self):
        cfg = get_preset("example41_bernstein")
        cfg["experiment"]["probes"] = ["x", "runge"]
        built = build_experiment(validate_config(cfg))
        assert [p.name for p in built.experiment.probes] == ["x", "runge"]
