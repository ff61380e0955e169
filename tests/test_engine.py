import numpy as np
import pytest

from korovkinlab import (
    FAMILIES,
    ExperimentConfig,
    FunctionSpan,
    OperatorFamily,
    PointSet,
    ScalarFunction,
    averaging_operator,
    default_probes,
    equicontinuity_probe,
    error_bound_constant,
    function_from_values,
    identity_isometry,
    inject_weight,
    make_circle_grid,
    make_interval_grid,
    named_function,
    perturbed_composition,
    rotation_isometry,
    run_convergence,
    sup_norm,
    uniform_vs_pointwise,
    verify_hypotheses,
)

INTERVAL = make_interval_grid(40)
QUAD = FunctionSpan(tuple(named_function(n, INTERVAL) for n in ("const1", "x", "x^2")))


def bernstein_config(indices=(4, 16, 64), probes=None):
    return ExperimentConfig(
        family=FAMILIES["bernstein"].build(INTERVAL, {}),
        test_span=QUAD,
        probes=probes or default_probes(INTERVAL),
        indices=indices,
    )


def tampered_family(space):
    base = FAMILIES["bernstein"].build(space, {})

    def build(n):
        return inject_weight(base.kernel_builder(n), 2, 1, -0.2)

    return OperatorFamily(
        "bernstein(tampered)", space, space, build, identity_isometry(space)
    )


class TestVerifyHypotheses:
    def test_bernstein_hypotheses_pass(self):
        hyp = verify_hypotheses(bernstein_config())
        assert hyp.passed
        assert all(rep.passed for rep in hyp.positivity.values())
        assert hyp.t_n_one_bound == pytest.approx(1.0, abs=1e-12)
        assert hyp.isometry_deviation == 0.0
        est = hyp.choquet_inclusion.target_boundary
        assert est is not None
        assert est.counts()["Boundary"] == INTERVAL.n_points
        assert hyp.choquet_inclusion.status == "assumed"

    def test_negative_weight_carries_witness(self):
        cfg = ExperimentConfig(
            family=tampered_family(INTERVAL),
            test_span=QUAD,
            probes=default_probes(INTERVAL),
            indices=(4, 8),
        )
        hyp = verify_hypotheses(cfg)
        assert not hyp.passed
        failing = [rep for rep in hyp.positivity.values() if not rep.passed]
        assert failing
        assert failing[0].weight_witness == (2, 1, -0.2)

    def test_inclusion_checked_with_generators(self):
        cfg = ExperimentConfig(
            family=FAMILIES["bernstein"].build(INTERVAL, {}),
            test_span=QUAD,
            probes=default_probes(INTERVAL),
            indices=(4, 8),
            n_generators=(
                named_function("const1", INTERVAL),
                named_function("x", INTERVAL),
                named_function("x^2", INTERVAL),
            ),
        )
        hyp = verify_hypotheses(cfg)
        assert hyp.choquet_inclusion.status == "checked"
        assert hyp.choquet_inclusion.included is True


class TestRunConvergence:
    def test_requires_passing_hypotheses(self):
        cfg = ExperimentConfig(
            family=tampered_family(INTERVAL),
            test_span=QUAD,
            probes=default_probes(INTERVAL),
            indices=(4, 8),
        )
        # the table is filled all the same, and carries the failed checks
        report = run_convergence(cfg)
        assert not report.hypotheses.passed
        assert not report.hypotheses.positivity_passed
        assert [n for n, rep in report.hypotheses.positivity.items() if not rep.passed] == [4, 8]
        assert report.trends

    def test_bernstein_errors_shrink(self):
        report = run_convergence(bernstein_config(indices=(16, 64, 256)))
        for trend in report.trends:
            errs = trend.errors
            assert all(e1 <= 1.2 * e0 + 1e-12 for e0, e1 in zip(errs, errs[1:])), trend
        sq = next(t for t in report.trends if t.function == "x^2")
        assert sq.errors[-1] < sq.errors[0] / 2
        assert report.converged_all

    def test_test_span_names_must_be_unique(self):
        # the test errors are keyed by name: a second "x" would hide the
        # first, and report 0.0625 at n = 4 where |x - 1/2| reaches 0.1875
        kink = ScalarFunction(INTERVAL, lambda x: np.abs(x - 0.5), name="x")
        span = FunctionSpan((QUAD.basis[0], kink, QUAD.basis[2], QUAD.basis[1]))
        with pytest.raises(ValueError, match="test span names must be unique"):
            ExperimentConfig(
                family=FAMILIES["bernstein"].build(INTERVAL, {}),
                test_span=span,
                probes=default_probes(INTERVAL),
                indices=(4,),
            )

    def test_probe_sharing_a_name_with_a_span_member_is_applied_as_itself(self):
        # functions are told apart by identity, not by name
        other_x = ScalarFunction(INTERVAL, lambda x: 1.0 - x, name="x")
        report = run_convergence(bernstein_config(indices=(4, 16), probes=(other_x,)))
        fam = report.config.family
        for n in (4, 16):
            want = np.abs(fam.apply(n, other_x).values - other_x.values)
            assert np.array_equal(report.error_fields[(n, "x")], want)
            assert report.test_errors[n]["x"] < 1e-14  # the span's own x

    def test_restriction_never_exceeds_global(self):
        report = run_convergence(bernstein_config())
        for row in report.rows:
            assert row.sup_error_choquet <= row.sup_error_global + 1e-15

    def test_zero_limit_identity(self):
        space = make_circle_grid(16)
        fam = perturbed_composition(
            rotation_isometry(space, 2), averaging_operator(space), lambda n: 0.0
        )
        span = FunctionSpan((named_function("const1", space), named_function("z", space)))
        cfg = ExperimentConfig(
            family=fam, test_span=span, probes=default_probes(space), indices=(1, 2, 4)
        )
        report = run_convergence(cfg)
        for row in report.rows:
            assert row.sup_error_global <= 1e-12

    def test_perturbed_mix_bound(self):
        space = make_circle_grid(16)
        fam = perturbed_composition(
            rotation_isometry(space, 2), averaging_operator(space), "1/n"
        )
        span = FunctionSpan((named_function("const1", space), named_function("z", space)))
        probes = default_probes(space)
        cfg = ExperimentConfig(
            family=fam, test_span=span, probes=probes, indices=(1, 2, 4, 8)
        )
        report = run_convergence(cfg)
        norms = {f.name: sup_norm(f) for f in probes}
        for row in report.rows:
            assert row.sup_error_global <= 2.0 / row.n * norms[row.function] + 1e-12

    def test_positive_probes_stay_positive(self):
        cfg = bernstein_config()
        fam = cfg.family
        for n in cfg.indices:
            for f in cfg.probes:
                if np.min(f.values) >= 0.0:
                    assert np.min(fam.apply(n, f).values) >= -1e-12

    def test_bound_constant_column(self):
        report = run_convergence(bernstein_config())
        for row in report.rows:
            f = next(p for p in report.config.probes if p.name == row.function)
            # recompute 2 + 4*osc + sup straight from the sampled values
            v = f.values
            expected = 2.0 + 4.0 * (v.max() - v.min()) + np.max(np.abs(v))
            assert row.bound_constant == pytest.approx(expected)

    def test_test_errors_recorded_per_basis(self):
        report = run_convergence(bernstein_config())
        for n in report.config.indices:
            assert set(report.test_errors[n]) == {"const1", "x", "x^2"}
            assert report.test_errors[n]["const1"] <= 1e-12


class TestErrorBoundConstant:
    def test_constant_function(self):
        assert error_bound_constant(named_function("const1", INTERVAL)) == pytest.approx(3.0)

    def test_coordinate(self):
        assert error_bound_constant(named_function("x", INTERVAL)) == pytest.approx(7.0)

    def test_zero(self):
        zero = function_from_values(INTERVAL, np.zeros(INTERVAL.n_points), name="0")
        assert error_bound_constant(zero) == pytest.approx(2.0)


class TestEquicontinuityProbe:
    def test_constant_probe_is_flat(self):
        fam = FAMILIES["bernstein"].build(INTERVAL, {})
        table = equicontinuity_probe(
            fam, named_function("const1", INTERVAL), 20, (0.05, 0.1), (1, 4, 16)
        )
        assert max(table.values) <= 1e-14  # flat up to summation rounding
        assert table.monotone_ok and table.small_at_first

    def test_square_probe_grows_with_radius(self):
        fam = FAMILIES["bernstein"].build(INTERVAL, {})
        table = equicontinuity_probe(
            fam, named_function("x^2", INTERVAL), 20, (0.03, 0.1, 0.2), tuple(range(1, 17))
        )
        assert table.monotone_ok
        assert table.values[-1] > table.values[0]

    def test_single_index_is_plain_modulus(self):
        fam = FAMILIES["bernstein"].build(INTERVAL, {})
        f = named_function("x^2", INTERVAL)
        table = equicontinuity_probe(fam, f, 20, (0.1,), (8,))
        g = fam.apply(8, f).values
        d = INTERVAL.pairwise[20]
        expected = float(np.max(np.abs(g[d < 0.1] - g[20])))
        assert table.values[0] == pytest.approx(expected)

    def test_radii_validation(self):
        fam = FAMILIES["bernstein"].build(INTERVAL, {})
        f = named_function("x", INTERVAL)
        with pytest.raises(ValueError):
            equicontinuity_probe(fam, f, 0, (0.2, 0.1), (1,))
        with pytest.raises(ValueError):
            equicontinuity_probe(fam, f, 0, (), (1,))


class TestUniformVsPointwise:
    def test_full_subset_matches_global(self):
        report = run_convergence(bernstein_config())
        rows = uniform_vs_pointwise(
            report, PointSet(INTERVAL, tuple(range(INTERVAL.n_points)))
        )
        for r in rows:
            assert r.subset_sup == pytest.approx(r.global_sup)

    def test_restricted_subset(self):
        report = run_convergence(bernstein_config())
        rows = uniform_vs_pointwise(report, PointSet(INTERVAL, (0, 20, 40)))
        for r in rows:
            assert r.subset_sup <= r.global_sup + 1e-15

    def test_empty_subset_rejected(self):
        report = run_convergence(bernstein_config())
        with pytest.raises(ValueError):
            uniform_vs_pointwise(report, PointSet(INTERVAL, ()))


class TestExperimentConfigValidation:
    def test_indices_must_increase(self):
        with pytest.raises(ValueError):
            bernstein_config(indices=(8, 4))

    def test_indices_must_be_positive(self):
        with pytest.raises(ValueError):
            bernstein_config(indices=(0, 4))

    def test_probe_names_unique(self):
        with pytest.raises(ValueError):
            bernstein_config(probes=(named_function("x", INTERVAL),) * 2)

    def test_probes_share_grid(self):
        other = make_interval_grid(7)
        with pytest.raises(ValueError):
            bernstein_config(probes=(named_function("x", other),))
