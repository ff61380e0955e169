import dataclasses
import os
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from korovkinlab import (
    FAMILIES,
    CompositionIsometry,
    InvalidFunctionError,
    KernelOperator,
    PositivityReport,
    ScalarFunction,
    averaging_operator,
    bernstein,
    check_positivity,
    classify_operator,
    conjugate,
    estimate_operator_norm,
    fejer,
    function_from_values,
    identity_isometry,
    inject_weight,
    make_box_grid,
    make_circle_grid,
    make_custom_space,
    make_disc_grid,
    make_interval_grid,
    mollifier_disc,
    named_function,
    perturbed_composition,
    rotation_isometry,
    sup_norm,
    tensor_bernstein,
)
from korovkinlab.operators import KERNEL_BUDGET, _binom_pmf, _load_ufuncs, eps_schedule
from korovkinlab.space import DEFAULT_POINT_CAP

from oracles import bernstein_exact, fejer_fourier, mollifier_loop

ROOT = Path(__file__).resolve().parent.parent
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

    def test_weights_are_binom_pmf_bit_for_bit(self):
        # the kernels call the private Boost ufunc behind binom.pmf; a scipy
        # that changes or drops it fails here. The ufunc is elementwise, so
        # each distinct coordinate of the grids is checked once; the m = 1000
        # grid joins the coarse ones at a sparse set of n.
        from scipy.stats import binom

        grids = [make_interval_grid(m) for m in (1, 2, 3, 10, 64, 101)]
        coarse = np.unique(np.concatenate([g.coords.ravel() for g in (*grids, make_box_grid(2, 8))]))
        every = np.union1d(coarse, make_interval_grid(1000).coords.ravel())
        sparse = {*range(1, 17), 31, 32, 33, 64, 100, 127, 128, 255, 256, 257, 299, 300, 1024, 4096}
        for n in [*range(1, 301), 1024, 4096]:
            x = every if n in sparse else coarse
            got = _binom_pmf(n, x)
            want = binom.pmf(np.arange(n + 1)[None, :], n, x[:, None])
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), f"n={n}"


class TestUfuncLoader:
    # Both run in a fresh interpreter: this one has usually imported the
    # full scipy.special already, and then the loader only reuses it.

    def test_full_scipy_coexists_after_a_kernel_build(self):
        _fresh_python("""
            import sys
            import numpy as np
            from korovkinlab import make_box_grid, tensor_bernstein

            box = make_box_grid(2, 8)
            op = tensor_bernstein(256, box)
            used = sys.modules["scipy.special._ufuncs"]
            import scipy
            assert "scipy.special" not in sys.modules  # the stand-in package is gone
            assert "special" not in vars(scipy)

            import scipy.optimize, scipy.special, scipy.stats

            assert scipy.special._ufuncs is used
            assert scipy.special._ufuncs._binom_pmf is used._binom_pmf
            assert scipy.special.gamma(5.0) == 24.0
            lp = scipy.optimize.linprog([1, 1], A_ub=[[-1, -2]], b_ub=[-2])
            assert lp.status == 0
            k = np.arange(257)
            pmf = [scipy.stats.binom.pmf(k[None, :], 256, box.coords[:, d, None]) for d in (0, 1)]
            want = np.einsum("ia,ib->iab", *pmf).reshape(81, -1)
            assert np.array_equal(op.weights.view(np.uint64), want.view(np.uint64))
        """)

    def test_a_loaded_scipy_special_is_reused(self):
        _fresh_python("""
            import sys
            import scipy.special
            from korovkinlab import make_interval_grid, bernstein
            from korovkinlab.operators import _load_ufuncs

            full = scipy.special._ufuncs
            assert _load_ufuncs() is full
            bernstein(8, make_interval_grid(10))
            assert sys.modules["scipy.special"] is scipy.special
            assert sys.modules["scipy.special._ufuncs"] is full
        """)


def _fresh_python(code: str) -> None:
    """Run a script in a fresh interpreter with korovkinlab importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


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

    @pytest.mark.parametrize("p, m, n", [(2, 8, 256), (3, 4, 9)])
    def test_weights_are_the_einsum_product_bit_for_bit(self, p, m, n):
        box = make_box_grid(p, m)
        want = _binom_pmf(n, box.coords[:, 0])
        for d in range(1, p):
            wd = _binom_pmf(n, box.coords[:, d])
            want = np.einsum("ia,ib->iab", want, wd).reshape(box.n_points, -1)
        got = tensor_bernstein(n, box).weights
        assert got.shape == want.shape == (box.n_points, (n + 1) ** p)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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

    @pytest.mark.parametrize("rings,per_ring", [(8, 32), (3, 5), (20, 64)])
    def test_weights_match_a_row_by_row_build_bit_for_bit(self, rings, per_ring):
        disc = make_disc_grid(rings, per_ring)
        for n in (1, 2, 4, 8, 32, 100):
            assert np.array_equal(mollifier_disc(n, disc).weights, mollifier_loop(disc.pairwise, n))


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

    def test_kernel_is_the_merged_two_block_kernel_bit_for_bit(self):
        space = make_circle_grid(16)
        phi = rotation_isometry(space, 3)
        mix = averaging_operator(space)
        op = perturbed_composition(phi, mix, "1/n").operator(3)
        # the composition columns, then the mix's, merged on construction
        comp = np.zeros((16, 16))
        comp[np.arange(16), list(phi.phi)] = 1.0 - 1.0 / 3
        nodes = np.concatenate([space.points, space.points])
        two_block = KernelOperator(space, space, nodes, np.hstack([comp, mix.weights / 3]))
        assert op.weights.shape == (16, 16)
        assert np.array_equal(op.nodes, space.points)
        assert np.array_equal(op.weights, two_block.weights)

    def test_mix_nodes_must_be_the_grid_points(self):
        space = make_circle_grid(16)
        shuffled = KernelOperator(
            space, space, space.points[::-1], averaging_operator(space).weights.copy()
        )
        with pytest.raises(ValueError, match="grid's points"):
            perturbed_composition(rotation_isometry(space, 1), shuffled, "1/n")

    def test_mix_must_be_unital(self):
        space = make_circle_grid(16)
        bad = KernelOperator(
            space, space, space.points, 0.5 * averaging_operator(space).weights
        )
        with pytest.raises(ValueError):
            perturbed_composition(rotation_isometry(space, 1), bad, "1/n")

    def test_eps_schedules(self):
        assert eps_schedule("1/n")(4) == 0.25
        assert eps_schedule("1/n^2")(4) == pytest.approx(1 / 16)
        assert eps_schedule([0.5, 0.25])(1) == 0.5
        assert eps_schedule([0.5, 0.25])(9) == 0.25  # clamps at the end
        with pytest.raises(ValueError):
            eps_schedule("bogus")
        with pytest.raises(TypeError, match="mapping"):
            eps_schedule({1: 0.9})


class TestApply:
    def test_identity_on_constants(self):
        fam = FAMILIES["bernstein"].build(INTERVAL, {})
        out = fam.apply(10, named_function("const1", INTERVAL)).values
        assert np.max(np.abs(out - 1.0)) <= 1e-12

    def test_fejer_z(self):
        fam = FAMILIES["fejer"].build(CIRCLE32, {})
        out = fam.apply(4, named_function("z", CIRCLE32)).values
        expected = fejer_fourier(CIRCLE32.complex_points, 4)
        assert np.max(np.abs(out - expected)) <= 1e-12

    def test_zero_maps_to_zero(self):
        fam = FAMILIES["fejer"].build(CIRCLE32, {})
        zero = function_from_values(CIRCLE32, np.zeros(32), name="0")
        assert np.max(np.abs(fam.apply(4, zero).values)) == 0.0

    def test_space_mismatch(self):
        fam = FAMILIES["bernstein"].build(INTERVAL, {})
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
        assert rep.worst_violation == 0.0
        assert rep.weight_certificate is None and rep.weight_witness is None
        assert rep.min_weight is None and rep.witness is None

    def test_report_stores_only_min_weight_and_witness(self):
        assert [f.name for f in dataclasses.fields(PositivityReport)] == ["min_weight", "witness"]
        rep = PositivityReport(-0.25, (3, 5, -0.25))
        assert not rep.passed and rep.weight_certificate is False
        assert rep.worst_violation == 0.25
        assert rep.weight_witness == (5, 3, -0.25)
        assert PositivityReport(0.0, None).passed

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
    """A kernel sums the weight columns of equal nodes on construction, since
    a function takes one value at a point however often it is listed."""

    SPACE = make_circle_grid(16)

    def doubled(self, value):
        # every grid point listed twice: 0.75 f(y) plus the grid mean of f,
        # with one weight on the second copy of point 0 overridden
        nodes = np.concatenate([self.SPACE.points, self.SPACE.points])
        w = np.hstack([0.75 * np.eye(16), np.full((16, 16), 0.25 / 16)])
        w[0, 16] = value
        return KernelOperator(self.SPACE, self.SPACE, nodes, w)

    def test_positive_after_merging_equal_nodes(self):
        op = self.doubled(-0.1)  # grid point 0 gets 0.75 - 0.1 at y = 0
        assert len(op.nodes) == 16
        assert np.array_equal(op.nodes, self.SPACE.points)
        assert op.weights[0, 0] == 0.75 - 0.1
        rep = check_positivity(op)
        assert rep.passed and rep.witness is None
        assert rep.min_weight == 0.25 / 16
        assert estimate_operator_norm(op).estimate == pytest.approx(1.0, abs=1e-15)

    def test_witness_names_the_first_node_index(self):
        op = self.doubled(-0.9)
        assert len(op.nodes) == 16
        rep = check_positivity(op)
        assert not rep.passed
        assert rep.witness == (0, 0, pytest.approx(-0.15))
        assert rep.weight_witness == (0, 0, pytest.approx(-0.15))
        indicator = ScalarFunction(
            self.SPACE, lambda z: (z == op.nodes[0]).astype(float), name="e_0"
        )
        assert op.apply(indicator).values[0] == pytest.approx(-0.15)
        assert estimate_operator_norm(op).estimate == pytest.approx(1.0, abs=1e-15)

    def test_order_of_first_occurrence(self):
        g = make_interval_grid(2)
        w = np.array([[1.0, 2.0, 3.0, 4.0]] * 3)
        op = KernelOperator(g, g, [0.5, 0.0, 0.5, 1.0], w)
        assert op.nodes.tolist() == [0.5, 0.0, 1.0]
        assert op.weights.tolist() == [[4.0, 2.0, 4.0]] * 3

    def test_distinct_nodes_are_kept_as_given(self):
        op = bernstein(10, INTERVAL)
        assert np.array_equal(op.nodes, np.arange(11) / 10)
        fam = perturbed_composition(
            identity_isometry(self.SPACE), averaging_operator(self.SPACE), [0.25]
        )
        merged = fam.operator(1)
        assert np.array_equal(merged.nodes, self.SPACE.points)
        np.testing.assert_allclose(merged.weights, self.doubled(0.25 / 16).weights)

    def test_out_of_range_injection_refused(self):
        with pytest.raises(ValueError, match="outside the kernel"):
            inject_weight(self.doubled(0.0), 0, 16, -0.1)

    @pytest.mark.parametrize("value", [-0.9, -0.1, 0.0, 2.0])
    def test_min_weight_is_taken_after_the_merge(self, value):
        op = self.doubled(value)
        assert len(op.nodes) == 16
        assert op.min_weight == op.weights.min()


class TestNodeOrder:
    """Nodes already in the order np.unique sorts them into are not sorted
    again; every order gives the same kernel."""

    @pytest.fixture
    def unique_calls(self, monkeypatch):
        calls = []
        unique = np.unique
        monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(1) or unique(*a, **k))
        return calls

    SORTED = [
        lambda: bernstein(9, INTERVAL),
        lambda: tensor_bernstein(5, make_box_grid(2, 3)),
        lambda: tensor_bernstein(2, make_box_grid(3, 2)),
        lambda: averaging_operator(make_custom_space([-1.0, -1j, 1j, 1.0], space_id="c4")),
    ]

    @pytest.mark.parametrize("make", SORTED, ids=["interval", "box2", "box3", "complex"])
    def test_shuffled_nodes_give_the_same_kernel(self, make, unique_calls):
        op = make()
        assert unique_calls == []
        again = KernelOperator(op.source, op.target, op.nodes.copy(), op.weights.copy())
        assert unique_calls == []
        perm = np.random.default_rng(3).permutation(len(op.nodes))
        shuffled = KernelOperator(op.source, op.target, op.nodes[perm], op.weights[:, perm])
        assert unique_calls == [1]
        for k, back in ((again, slice(None)), (shuffled, np.argsort(perm))):
            assert np.array_equal(k.nodes[back], op.nodes)
            assert np.array_equal(k.weights[:, back], op.weights)
            assert k.min_weight == op.min_weight

    @pytest.mark.parametrize("make", SORTED, ids=["interval", "box2", "box3", "complex"])
    def test_sorted_repeated_nodes_are_merged(self, make):
        op = make()
        nodes = np.repeat(op.nodes, 2, axis=0)  # each node twice, still in order
        merged = KernelOperator(op.source, op.target, nodes, np.repeat(op.weights / 2, 2, axis=1))
        assert np.array_equal(merged.nodes, op.nodes)
        assert np.array_equal(merged.weights, op.weights)

    def test_unsorted_grid_points_are_sorted_once(self, unique_calls):
        op = averaging_operator(CIRCLE32)
        assert unique_calls == [1]
        assert np.array_equal(op.nodes, CIRCLE32.points)

    def test_signed_zeros_are_one_node(self):
        g = make_interval_grid(2)
        op = KernelOperator(g, g, [-0.0, 0.0, 1.0], np.ones((3, 3)))
        assert op.nodes.tolist() == [0.0, 1.0]
        assert op.weights.tolist() == [[2.0, 1.0]] * 3


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
        op = KernelOperator(INTERVAL, INTERVAL, INTERVAL.points, w)
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
        with pytest.raises(ValueError, match="surjectivity"):
            CompositionIsometry(space, space, (0, 0, 1, 2, 3))


class TestKernelOperatorValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            KernelOperator(INTERVAL, INTERVAL, (0.0, 1.0), np.ones((3, 2)))

    def test_t_one_is_row_sums(self):
        op = bernstein(6, INTERVAL)
        np.testing.assert_allclose(op.t_one_values, op.weights.sum(axis=1))

    def test_weights_are_taken_and_frozen(self):
        w = np.full((32, 32), 1.0 / 32)
        op = KernelOperator(CIRCLE32, CIRCLE32, CIRCLE32.points, w)
        assert op.weights is w
        assert not w.flags.writeable

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_refused(self, bad):
        w = bernstein(6, INTERVAL).weights.copy()
        w[50, 3] = bad
        with pytest.raises(ValueError, match="kernel weights must be finite"):
            KernelOperator(INTERVAL, INTERVAL, np.arange(7) / 6, w)

    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul")
    def test_non_finite_image_refused(self):
        # 1e308 times a value above 1 overflows: the image is not a function
        op = inject_weight(bernstein(4, INTERVAL), 0, 0, 1e308)
        f = ScalarFunction(INTERVAL, lambda x: 2.0 + x, name="2+x")  # 2 at node 0
        with pytest.raises(
            InvalidFunctionError, match=r"^function 'T\[2\+x\]' takes a non-finite value on the grid$"
        ):
            op.apply(f).values

    def test_build_holds_the_weights_once(self):
        _load_ufuncs()  # the first build loads the ufunc extension; keep that out of the peak

        box = make_box_grid(2, 8)
        tracemalloc.start()
        try:
            op = tensor_bernstein(256, box)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op.weights.nbytes == 81 * 257**2 * 8  # 40.8 MiB
        assert peak < 1.15 * op.weights.nbytes

    def test_perturbed_build_holds_the_kernel_once(self):
        fam = FAMILIES["perturbed_composition"].build(make_circle_grid(2048), {})
        tracemalloc.start()
        try:
            op = fam.operator(3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op.weights.nbytes == 2048**2 * 8  # 32 MiB
        assert peak < 1.25 * op.weights.nbytes


class TestFamilyTable:
    def test_kernel_builders_refuse_the_wrong_grid_kind(self):
        for name, grid in (
            ("bernstein", CIRCLE32),
            ("fejer", INTERVAL),
            ("tensor_bernstein", CIRCLE32),
            ("mollifier_disc", INTERVAL),
        ):
            with pytest.raises(ValueError, match=f"{name} runs on "):
                FAMILIES[name].build(grid, {}).operator(4)

    def test_perturbed_kernel_is_n_squared_and_fits_at_the_cap(self):
        spec = FAMILIES["perturbed_composition"]
        grid = make_interval_grid(DEFAULT_POINT_CAP - 1)
        assert grid.n_points == DEFAULT_POINT_CAP
        assert spec.weights(grid, 1) == DEFAULT_POINT_CAP**2 == KERNEL_BUDGET
        spec.check_index(grid, 1)

    @pytest.mark.parametrize(
        "name, grid",
        [
            ("bernstein", INTERVAL),
            ("fejer", CIRCLE32),
            ("tensor_bernstein", make_box_grid(2, 3)),
            ("mollifier_disc", make_disc_grid(2, 8)),
            ("perturbed_composition", CIRCLE32),
        ],
    )
    def test_weight_count_is_the_unmerged_kernel_size(self, name, grid, monkeypatch):
        spec = FAMILIES[name]
        sizes = []
        init = KernelOperator.__post_init__

        def record(self):
            sizes.append(np.shape(self.weights))
            init(self)

        monkeypatch.setattr(KernelOperator, "__post_init__", record)
        spec.build(grid, {}).operator(3)
        assert sizes[-1][0] * sizes[-1][1] == spec.weights(grid, 3)
