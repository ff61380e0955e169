import dataclasses
import weakref

import numpy as np
import pytest

from korovkinlab import (
    FAMILIES,
    CompositionIsometry,
    ExperimentConfig,
    FunctionSpan,
    KernelOperator,
    OperatorFamily,
    ScalarFunction,
    averaging_operator,
    default_probes,
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


def watched(config):
    """``config`` with its family's builder wrapped so that each build first
    checks that no kernel built before it is still alive, and the list of
    (index, weak reference) of every kernel built."""
    base = config.family
    built = []

    def build(n):
        alive = [m for m, ref in built if ref() is not None]
        assert not alive, f"the kernels of {alive} are alive at the build of {n}"
        op = base.kernel_builder(n)
        built.append((n, weakref.ref(op)))
        return op

    family = OperatorFamily(base.name, base.source, base.target, build, base.limit)
    return dataclasses.replace(config, family=family), built


class TestVerifyHypotheses:
    def test_bernstein_hypotheses_pass(self):
        config = bernstein_config()
        hyp = verify_hypotheses(config)
        assert hyp.passed
        assert all(rep.passed for rep in hyp.positivity.values())
        assert hyp.t_n_one_bound == pytest.approx(1.0, abs=1e-12)
        assert all(sup_norm(hyp.limit_images[f]) == sup_norm(f) for f in config.probes)
        est = hyp.target_boundary
        assert est is not None
        assert est.counts()["Boundary"] == INTERVAL.n_points
        assert hyp.boundary_note == ""

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
        assert failing[0].witness == (1, 2, -0.2)

    @pytest.mark.parametrize("span", [QUAD], ids=["plain"])
    def test_each_kernel_is_built_once_and_released_before_the_next(self, span):
        config, built = watched(dataclasses.replace(bernstein_config(), test_span=span))
        report = run_convergence(config, verify_hypotheses(config))
        assert [n for n, _ in built] == [4, 16, 64]
        assert report.hypotheses.target_boundary is not None


class TestRunConvergence:
    def test_uses_no_kernel_and_no_limit(self, monkeypatch):
        config = bernstein_config()
        hyp = verify_hypotheses(config)

        def refuse(*args):
            raise AssertionError("run_convergence built or applied a map")

        for cls, name in (
            (OperatorFamily, "operator"),
            (OperatorFamily, "apply"),
            (KernelOperator, "apply"),
            (CompositionIsometry, "apply"),
        ):
            monkeypatch.setattr(cls, name, refuse)
        report = run_convergence(config, hyp)
        assert report.hypotheses is hyp
        assert len(report.rows) == len(config.indices) * len(config.probes)

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
            [row] = [r for r in report.rows if r.n == n]
            assert row.function == "x" and row.sup_error_global == want.max()
            assert report.test_errors[n]["x"] < 1e-14  # the span's own x

    def test_restriction_never_exceeds_global(self):
        report = run_convergence(bernstein_config())
        for row in report.rows:
            assert row.sup_error_choquet <= row.sup_error_global + 1e-15

    def test_zero_limit_identity(self):
        space = make_circle_grid(16)
        fam = perturbed_composition(
            rotation_isometry(space, 2), averaging_operator(space), [0.0]
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


class TestUniformVsPointwise:
    """The boundary column restricts each probe's error to the scan's
    Boundary points; the global column takes the whole grid."""

    def test_full_subset_matches_global(self):
        # every point of {1, x, x^2} is Boundary
        report = run_convergence(bernstein_config())
        est = report.hypotheses.target_boundary
        assert len(est.boundary_point_set()) == INTERVAL.n_points
        for r in report.rows:
            assert r.sup_error_choquet == r.sup_error_global

    def test_restricted_subset(self):
        # {1, x} peaks only at the two ends
        affine = FunctionSpan(QUAD.basis[:2])
        report = run_convergence(dataclasses.replace(bernstein_config(), test_span=affine))
        est = report.hypotheses.target_boundary
        assert est.boundary_point_set().indices == (0, INTERVAL.n_points - 1)
        hyp = report.hypotheses
        probes = {f.name: f for f in report.config.probes}
        for r in report.rows:
            f = probes[r.function]
            err = np.abs(hyp.images[r.n][f].values - hyp.limit_images[f].values)
            assert r.sup_error_choquet == max(err[0], err[-1])
            assert r.sup_error_choquet <= r.sup_error_global


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
        # refused when the config is made, not after the kernels are built
        other = make_interval_grid(7)
        with pytest.raises(ValueError, match="probe 'x' lives on a different grid"):
            bernstein_config(probes=(named_function("x", other),))
