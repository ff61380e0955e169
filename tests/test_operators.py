from fractions import Fraction

import numpy as np
import pytest

from korovkinlab import (
    CompositionIsometry,
    KernelOperator,
    ScalarFunction,
    averaging_operator,
    bernstein,
    bernstein_family,
    check_positivity,
    classify_operator,
    conjugate,
    estimate_operator_norm,
    fejer,
    fejer_family,
    function_from_values,
    identity_isometry,
    inject_weight,
    make_box_grid,
    make_circle_grid,
    make_disc_grid,
    make_interval_grid,
    mollifier_disc,
    named_function,
    perturbed_composition,
    rotation_isometry,
    sup_norm,
    tensor_bernstein,
)
from korovkinlab.operators import eps_schedule

from oracles import bernstein_exact, fejer_fourier

INTERVAL = make_interval_grid(100)
CIRCLE32 = make_circle_grid(32)


def poly(space, coeffs, name="poly"):
    return ScalarFunction(
        space, lambda x: sum(c * x**k for k, c in enumerate(coeffs)), name=name
    )


class TestBernstein:
    def test_reproduces_constants(self):
        op = bernstein(10, INTERVAL)
        out = op.apply(named_function("const1", INTERVAL)).values
        assert np.max(np.abs(out - 1.0)) <= 1e-12

    def test_reproduces_coordinate_against_exact_oracle(self):
        op = bernstein(10, INTERVAL)
        out = op.apply(named_function("x", INTERVAL)).values
        for x in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
            expected = bernstein_exact(lambda t: t, 10, x)
            assert expected == x  # the oracle itself reproduces degree-1 monomials
            idx = int(x * 100)
            assert out[idx] == pytest.approx(float(expected), abs=1e-13)

    def test_square_moment_against_exact_oracle(self):
        op = bernstein(10, INTERVAL)
        out = op.apply(named_function("x^2", INTERVAL)).values
        half = Fraction(1, 2)
        expected = bernstein_exact(lambda t: t * t, 10, half)
        assert expected == Fraction(11, 40)  # 0.275
        assert out[50] == pytest.approx(0.275, abs=1e-13)
        # closed form x^2 + x(1-x)/n over the whole grid
        xs = INTERVAL.coords[:, 0]
        assert np.max(np.abs(out - (xs**2 + xs * (1 - xs) / 10))) <= 1e-12

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            bernstein(0, INTERVAL)
        with pytest.raises(ValueError):
            bernstein(3, CIRCLE32)

    def test_weights_nonnegative(self):
        assert bernstein(25, INTERVAL).min_weight >= 0.0


class TestFejer:
    def test_normalization(self):
        op = fejer(4, CIRCLE32)
        assert np.max(np.abs(op.t_one_values - 1.0)) <= 1e-12

    def test_frequency_one_attenuation(self):
        op = fejer(4, CIRCLE32)
        out = op.apply(named_function("z", CIRCLE32)).values
        assert np.max(np.abs(out - 0.8 * CIRCLE32.complex_points)) <= 1e-12

    def test_matches_fourier_multiplier_oracle(self):
        op = fejer(5, CIRCLE32)
        rng = np.random.default_rng(11)
        vals = rng.normal(size=32) + 1j * rng.normal(size=32)
        f = function_from_values(CIRCLE32, vals, name="noise")
        out = op.apply(f).values
        expected = fejer_fourier(vals, 5)
        assert np.max(np.abs(out - expected)) <= 1e-10

    def test_weights_nonnegative(self):
        assert fejer(4, CIRCLE32).min_weight >= -1e-14

    def test_grid_too_coarse(self):
        with pytest.raises(ValueError):
            fejer(15, CIRCLE32)  # needs m > 32


class TestTensorBernstein:
    BOX = make_box_grid(2, 8)

    def test_reproduces_constants(self):
        op = tensor_bernstein(8, self.BOX)
        out = op.apply(named_function("const1", self.BOX)).values
        assert np.max(np.abs(out - 1.0)) <= 1e-12

    def test_reproduces_projections(self):
        op = tensor_bernstein(8, self.BOX)
        for k in (1, 2):
            pk = named_function(f"coord {k}", self.BOX)
            out = op.apply(pk).values
            assert np.max(np.abs(out - pk.values)) <= 1e-12

    def test_square_moment_per_factor(self):
        op = tensor_bernstein(8, self.BOX)
        p1sq = named_function("coord 1^2", self.BOX)
        out = op.apply(p1sq).values
        x1 = self.BOX.coords[:, 0]
        # 1-d second-moment identity applies factorwise
        half = Fraction(1, 2)
        assert bernstein_exact(lambda t: t * t, 8, half) == half**2 + half * (1 - half) / 8
        assert np.max(np.abs(out - (x1**2 + x1 * (1 - x1) / 8))) <= 1e-12

    def test_requires_box(self):
        with pytest.raises(ValueError):
            tensor_bernstein(4, INTERVAL)


class TestMollifierDisc:
    DISC = make_disc_grid(4, 12)

    def test_unital(self):
        op = mollifier_disc(3, self.DISC)
        assert np.max(np.abs(op.t_one_values - 1.0)) <= 1e-14

    def test_identity_when_balls_are_singletons(self):
        op = mollifier_disc(100, self.DISC)
        f = named_function("|z|^2", self.DISC)
        assert np.max(np.abs(op.apply(f).values - f.values)) == 0.0

    def test_conjugation_commutes(self):
        op = mollifier_disc(3, self.DISC)
        f = named_function("z", self.DISC)
        lhs = op.apply(conjugate(f)).values
        rhs = np.conj(op.apply(f).values)
        assert np.max(np.abs(lhs - rhs)) <= 1e-15

    def test_requires_disc(self):
        with pytest.raises(ValueError):
            mollifier_disc(2, CIRCLE32)


class TestPerturbedComposition:
    def test_degenerate_mix_is_pure_composition(self):
        space = make_circle_grid(16)
        phi = rotation_isometry(space, 3)
        fam = perturbed_composition(phi, averaging_operator(space), lambda n: 0.0)
        f = named_function("z", space)
        out = fam.apply(5, f).values
        assert np.max(np.abs(out - phi.apply(f).values)) == 0.0

    def test_unital_for_every_index(self):
        space = make_circle_grid(16)
        fam = perturbed_composition(
            rotation_isometry(space, 2), averaging_operator(space), "1/n"
        )
        for n in (1, 3, 10):
            assert np.max(np.abs(fam.operator(n).t_one_values - 1.0)) <= 1e-12

    def test_distance_to_limit_bound(self):
        space = make_circle_grid(16)
        phi = rotation_isometry(space, 2)
        fam = perturbed_composition(phi, averaging_operator(space), "1/n")
        rng = np.random.default_rng(3)
        for n in (1, 2, 8):
            vals = rng.normal(size=16) + 1j * rng.normal(size=16)
            f = function_from_values(space, vals, name="g")
            diff = fam.apply(n, f).values - phi.apply(f).values
            assert np.max(np.abs(diff)) <= 2.0 / n * sup_norm(f) + 1e-12

    def test_epsilon_out_of_range(self):
        space = make_circle_grid(16)
        fam = perturbed_composition(
            rotation_isometry(space, 1), averaging_operator(space), lambda n: 1.5
        )
        with pytest.raises(ValueError):
            fam.operator(2)

    def test_mix_must_be_unital(self):
        space = make_circle_grid(16)
        bad = KernelOperator(
            space, space, space.eval_points, 0.5 * averaging_operator(space).weights
        )
        with pytest.raises(ValueError):
            perturbed_composition(rotation_isometry(space, 1), bad, "1/n")

    def test_eps_schedules(self):
        assert eps_schedule("1/n")(4) == 0.25
        assert eps_schedule("1/n^2")(4) == pytest.approx(1 / 16)
        assert eps_schedule([0.5, 0.25])(1) == 0.5
        assert eps_schedule([0.5, 0.25])(9) == 0.25  # clamps at the end
        assert eps_schedule({1: 0.9})(1) == 0.9
        with pytest.raises(ValueError):
            eps_schedule("bogus")


class TestApply:
    def test_identity_on_constants(self):
        fam = bernstein_family(INTERVAL)
        out = fam.apply(10, named_function("const1", INTERVAL)).values
        assert np.max(np.abs(out - 1.0)) <= 1e-12

    def test_fejer_z(self):
        fam = fejer_family(CIRCLE32)
        out = fam.apply(4, named_function("z", CIRCLE32)).values
        expected = fejer_fourier(CIRCLE32.complex_points, 4)
        assert np.max(np.abs(out - expected)) <= 1e-12

    def test_zero_maps_to_zero(self):
        fam = fejer_family(CIRCLE32)
        zero = function_from_values(CIRCLE32, np.zeros(32), name="0")
        assert np.max(np.abs(fam.apply(4, zero).values)) == 0.0

    def test_space_mismatch(self):
        fam = bernstein_family(INTERVAL)
        other = make_interval_grid(7)
        with pytest.raises(ValueError):
            fam.apply(4, named_function("x", other))


class TestLinearity:
    def test_bernstein_on_random_polynomials(self):
        op = bernstein(12, INTERVAL)
        rng = np.random.default_rng(5)
        for _ in range(100):
            a, b = rng.normal(size=2)
            f = poly(INTERVAL, rng.normal(size=4), "f")
            g = poly(INTERVAL, rng.normal(size=4), "g")
            comb = ScalarFunction(INTERVAL, lambda x: a * f.rule(x) + b * g.rule(x), "af+bg")
            lhs = op.apply(comb).values
            rhs = a * op.apply(f).values + b * op.apply(g).values
            assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_fejer_on_random_samples(self):
        op = fejer(4, CIRCLE32)
        rng = np.random.default_rng(6)
        for _ in range(100):
            a = rng.normal() + 1j * rng.normal()
            b = rng.normal() + 1j * rng.normal()
            vf = rng.normal(size=32) + 1j * rng.normal(size=32)
            vg = rng.normal(size=32) + 1j * rng.normal(size=32)
            f = function_from_values(CIRCLE32, vf, "f")
            g = function_from_values(CIRCLE32, vg, "g")
            comb = function_from_values(CIRCLE32, a * vf + b * vg, "af+bg")
            lhs = op.apply(comb).values
            rhs = a * op.apply(f).values + b * op.apply(g).values
            assert np.max(np.abs(lhs - rhs)) <= 1e-10


class TestMonotonicity:
    def test_ordered_polynomials_stay_ordered(self):
        op = bernstein(9, INTERVAL)
        rng = np.random.default_rng(7)
        for _ in range(25):
            f = poly(INTERVAL, rng.normal(size=3), "f")
            bump = rng.normal(size=2)
            g = ScalarFunction(
                INTERVAL,
                lambda x: f.rule(x) + (bump[0] + bump[1] * x) ** 2,
                "f+sq",
            )
            assert np.min(op.apply(g).values - op.apply(f).values) >= -1e-12


class TestCheckPositivity:
    def test_bernstein_passes(self):
        rep = check_positivity(bernstein(10, INTERVAL))
        assert rep.passed
        assert rep.worst_violation <= 1e-14
        assert rep.weight_certificate

    def test_fejer_passes(self):
        rep = check_positivity(fejer(4, CIRCLE32))
        assert rep.passed

    def test_injected_negative_weight_fails(self):
        bad = inject_weight(bernstein(10, INTERVAL), 5, 3, -0.1)
        rep = check_positivity(bad)
        assert not rep.passed
        assert rep.weight_certificate is False
        assert rep.weight_witness == (5, 3, -0.1)
        assert rep.witness is not None
        trial, y, value = rep.witness
        assert value < -1e-12

    def test_isometry_passes(self):
        rep = check_positivity(identity_isometry(INTERVAL))
        assert rep.passed

    def test_witness_is_a_node_indicator(self):
        bad = inject_weight(bernstein(10, INTERVAL), 5, 3, -0.1)
        rep = check_positivity(bad)
        assert rep.witness == (3, 5, -0.1)
        assert rep.worst_violation == 0.1
        indicator = ScalarFunction(
            INTERVAL, lambda x: (x == bad.nodes[3]).astype(float), name="e_3"
        )
        assert bad.apply(indicator).values[5] == -0.1


class TestRepeatedNodes:
    """perturbed_composition lists every grid point twice (composition
    columns, then mix columns), so a function takes one value on each pair."""

    SPACE = make_circle_grid(16)

    def tampered(self, value):
        fam = perturbed_composition(
            identity_isometry(self.SPACE), averaging_operator(self.SPACE), [0.25]
        )
        return inject_weight(fam.operator(1), 0, 16, value)  # node 16 is grid point 0

    def test_positive_after_merging_equal_nodes(self):
        op = self.tampered(-0.1)  # grid point 0 gets 0.75 - 0.1 at y = 0
        rep = check_positivity(op)
        assert rep.passed and rep.witness is None
        assert rep.min_weight == 0.25 / 16
        assert estimate_operator_norm(op).estimate == pytest.approx(1.0, abs=1e-15)

    def test_witness_names_the_first_node_index(self):
        op = self.tampered(-0.9)
        rep = check_positivity(op)
        assert not rep.passed
        assert rep.witness == (0, 0, pytest.approx(-0.15))
        assert rep.weight_witness == (0, 0, pytest.approx(-0.15))
        indicator = ScalarFunction(
            self.SPACE, lambda z: (z == self.SPACE.points[0]).astype(float), name="e_0"
        )
        assert op.apply(indicator).values[0] == pytest.approx(-0.15)
        assert estimate_operator_norm(op).estimate == pytest.approx(1.0, abs=1e-15)

    def test_nonnegative_kernels_skip_the_merge(self, monkeypatch):
        import korovkinlab.operators as operators

        def refuse(op):
            raise AssertionError("merged equal nodes of a nonnegative kernel")

        monkeypatch.setattr(operators, "_distinct_node_weights", refuse)
        for op in (bernstein(10, INTERVAL), self.tampered(0.5)):
            assert check_positivity(op).passed
            assert estimate_operator_norm(op).estimate >= 1.0


class TestOperatorNorm:
    def test_unital_positive_kernel_attains_norm_at_one(self):
        est = estimate_operator_norm(bernstein(10, INTERVAL))
        assert est.estimate == pytest.approx(1.0, abs=1e-12)
        assert est.t_one_sup == pytest.approx(1.0, abs=1e-12)

    def test_scaling(self):
        op = bernstein(10, INTERVAL)
        doubled = KernelOperator(INTERVAL, INTERVAL, op.nodes, 2.0 * op.weights)
        assert estimate_operator_norm(doubled).estimate == pytest.approx(2.0, abs=1e-12)

    def test_exact_for_mixed_signs(self):
        op = inject_weight(bernstein(10, INTERVAL), 5, 3, -0.5)
        est = estimate_operator_norm(op)
        assert est.estimate == float(np.abs(op.weights).sum(axis=1).max())
        # the sign pattern of row 5 at the 11 nodes attains it
        pattern = ScalarFunction(
            INTERVAL, lambda x: np.where(op.weights[5] >= 0.0, 1.0, -1.0), name="signs"
        )
        assert np.max(np.abs(op.apply(pattern).values)) == pytest.approx(est.estimate, abs=1e-12)
        assert est.t_one_sup < est.estimate
        assert estimate_operator_norm(identity_isometry(INTERVAL)).estimate == 1.0

    @pytest.mark.parametrize(
        "op",
        [
            bernstein(8, INTERVAL),
            fejer(8, CIRCLE32),
            tensor_bernstein(4, make_box_grid(2, 4)),
            mollifier_disc(4, make_disc_grid(4, 12)),
        ],
        ids=["bernstein", "fejer", "tensor", "mollifier"],
    )
    def test_sqrt2_bound(self, op):
        est = estimate_operator_norm(op)
        assert est.estimate <= np.sqrt(2.0) * est.t_one_sup + 1e-9
        if op.source.field.value == "real":
            assert est.estimate <= est.t_one_sup + 1e-9


class TestClassifyOperator:
    def test_bernstein_flags(self):
        flags = classify_operator(bernstein(10, INTERVAL))
        assert flags.unital and flags.contraction and flags.positive
        assert flags.corollary_consistent

    def test_halved_operator(self):
        op = bernstein(10, INTERVAL)
        halved = KernelOperator(INTERVAL, INTERVAL, op.nodes, 0.5 * op.weights)
        flags = classify_operator(halved)
        assert not flags.unital
        assert flags.contraction
        assert flags.positive

    def test_constructed_non_positive(self):
        # evaluation at 0 with a small negative tweak on the second node
        n = INTERVAL.n_points
        w = np.zeros((n, n))
        w[:, 0] = 1.0
        w[:, 1] = -0.05
        op = KernelOperator(INTERVAL, INTERVAL, INTERVAL.eval_points, w)
        flags = classify_operator(op)
        assert not flags.positive
        assert flags.corollary_consistent  # not a unital contraction, no conflict


class TestConjugationIdentity:
    @pytest.mark.parametrize("make_op", [lambda: fejer(8, make_circle_grid(32)),
                                         lambda: mollifier_disc(8, make_disc_grid(4, 12))],
                             ids=["fejer", "mollifier"])
    def test_real_weights_commute_with_conjugation(self, make_op):
        op = make_op()
        rng = np.random.default_rng(9)
        n = op.source.n_points
        for _ in range(20):
            vals = rng.normal(size=n) + 1j * rng.normal(size=n)
            f = function_from_values(op.source, vals, name="g")
            lhs = op.apply(conjugate(f)).values
            rhs = np.conj(op.apply(f).values)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestCompositionIsometry:
    def test_preserves_sup_norm(self):
        space = make_circle_grid(16)
        phi = rotation_isometry(space, 5)
        rng = np.random.default_rng(13)
        for _ in range(20):
            vals = rng.normal(size=16) + 1j * rng.normal(size=16)
            f = function_from_values(space, vals, name="f")
            assert sup_norm(phi.apply(f)) == sup_norm(f)

    def test_surjectivity_enforced(self):
        space = make_interval_grid(4)
        with pytest.raises(ValueError):
            CompositionIsometry(space, space, (0, 0, 1, 2, 3))

    def test_image_covers_source(self):
        space = make_circle_grid(8)
        phi = rotation_isometry(space, 3)
        assert len(phi.image) == space.n_points


class TestKernelOperatorValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            KernelOperator(INTERVAL, INTERVAL, (0.0, 1.0), np.ones((3, 2)))

    def test_t_one_is_row_sums(self):
        op = bernstein(6, INTERVAL)
        np.testing.assert_allclose(op.t_one_values, op.weights.sum(axis=1))
