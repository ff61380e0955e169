import dataclasses
import json
import os
import runpy
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    conjugate,
    default_probes,
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
from korovkinlab import operators
from korovkinlab.cli import main
from korovkinlab.functions import evaluate
from korovkinlab.operators import KERNEL_BUDGET, ROW_ALIGN, _binom_pmf, eps_schedule, row_blocks
from korovkinlab.space import BLOCK_ENTRIES, DEFAULT_POINT_CAP

from oracles import bernstein_exact, fejer_fourier, mollifier_loop

ROOT = Path(__file__).resolve().parent.parent
INTERVAL = make_interval_grid(100)
CIRCLE32 = make_circle_grid(32)
EQUAL_NODES = "^kernel nodes must be distinct: a function takes one value at a point$"


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

    @pytest.mark.parametrize("m, n", [(100, 8), (100, 1024), (4095, 7), (4095, 8)])
    def test_weights_match_one_pmf_call_bit_for_bit(self, m, n):
        # each row block's rows are computed into the sweep's buffer, whatever its size
        x = make_interval_grid(m).coords[:, 0]
        want = _binom_pmf(n, x)
        assert np.array_equal(bernstein(n, make_interval_grid(m)).weights.view(np.uint64), want.view(np.uint64))

    def test_a_sweep_holds_one_row_block_on_a_large_interval(self):
        # 4096 points at n = 1024: the weights would take 33.6 MB. A sweep
        # holds one buffer of its largest row block (about BLOCK_ENTRIES
        # weights, 8 bytes each) and computes each block's rows into it.
        # The Boost extension is loaded before the trace starts
        interval = make_interval_grid(4095)
        f = named_function("x^2", interval)
        f.values
        _binom_pmf(1, interval.coords[:1, 0])
        tracemalloc.start()
        try:
            op = bernstein(1024, interval)
            op.sweep([f])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * BLOCK_ENTRIES
        x = interval.coords[:, 0]
        assert np.max(np.abs(op.apply(f).values - (x**2 + x * (1 - x) / 1024))) <= 1e-12


class TestUfuncLoader:
    # Each runs in a fresh interpreter: this one has usually imported the
    # full scipy.special already, and then the loader only reuses it.

    def test_full_scipy_coexists_after_a_kernel_build(self):
        _fresh_python("""
            import sys
            from importlib import metadata
            import numpy as np
            from korovkinlab import make_box_grid, tensor_bernstein

            box = make_box_grid(2, 8)
            op = tensor_bernstein(256, box)
            used = sys.modules["scipy.special._ufuncs"]
            # every stand-in package is gone; the extensions stay loaded
            assert not {"scipy", "scipy._lib", "scipy.special"} & set(sys.modules)
            ccallback = sys.modules["scipy._lib._ccallback"]
            import scipy
            assert "scipy.special" not in sys.modules
            assert "special" not in vars(scipy)
            assert scipy.__version__ == metadata.version("scipy")
            assert scipy.LowLevelCallable is ccallback.LowLevelCallable
            # loaded under the stand-in scipy._lib, so the real package does
            # not bind it as an attribute; imports of it still find it
            assert not hasattr(scipy._lib, "_ccallback")
            from scipy._lib import _ccallback
            import scipy._lib._ccallback as aliased
            assert _ccallback is aliased is ccallback

            import scipy.optimize, scipy.special, scipy.stats

            assert scipy.special._ufuncs is used
            assert scipy.special._ufuncs._binom_pmf is used._binom_pmf
            assert scipy.special.gamma(5.0) == 24.0
            # its _ellip_harm_2 extension, and the LowLevelCallable its
            # integrand is, were loaded under the stand-ins
            assert abs(scipy.special.ellip_harm_2(5, 8, 2, 1, 10) - 0.00108056853382) < 1.5e-7
            lp = scipy.optimize.linprog([1, 1], A_ub=[[-1, -2]], b_ub=[-2])
            assert lp.status == 0
            k = np.arange(257)
            pmf = [scipy.stats.binom.pmf(k[None, :], 256, box.coords[:, d, None]) for d in (0, 1)]
            want = np.einsum("ia,ib->iab", *pmf).reshape(81, -1)
            assert np.array_equal(op.weights.view(np.uint64), want.view(np.uint64))
        """)

    def test_a_loaded_scipy_is_kept_and_only_special_stands_in(self):
        _fresh_python("""
            import sys
            import numpy as np
            import scipy
            from korovkinlab import make_interval_grid, bernstein

            real = {name: sys.modules[name] for name in ("scipy", "scipy._lib")}
            op = bernstein(64, make_interval_grid(10))
            weights = op.weights  # the first build loads the extension
            assert {name: sys.modules[name] for name in real} == real
            assert "scipy.special" not in sys.modules
            assert "special" not in vars(scipy)
            used = sys.modules["scipy.special._ufuncs"]

            import scipy.special, scipy.stats

            assert scipy.special._ufuncs is used
            assert abs(scipy.special.ellip_harm_2(5, 8, 2, 1, 10) - 0.00108056853382) < 1.5e-7
            x = op.source.coords[:, 0, None]
            want = scipy.stats.binom.pmf(np.arange(65)[None, :], 64, x)
            assert np.array_equal(weights.view(np.uint64), want.view(np.uint64))
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


def _fresh_python(code: str, **variables: str) -> None:
    """Run a script in a fresh interpreter with korovkinlab importable and
    the given environment variables set."""
    env = dict(os.environ, **variables)
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

    def test_boost_rows_once_per_distinct_coordinate(self, tmp_path, monkeypatch):
        # the benchmark's tensor_convergence run: 81 points, 9 distinct
        # coordinates per axis, n = 8, 32, 128 and 256, so 9 * 2 * 428 pmf
        # values where one row per point and axis would take 81 * 2 * 428
        generate = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))["generate"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(generate("tensor_convergence", 1).config))
        calls = []
        real = operators._binom_pmf

        def counted(n, x, out=None):
            calls.append((n, x.size))
            return real(n, x, out=out)

        monkeypatch.setattr(operators, "_binom_pmf", counted)
        assert main(["korovkin", "run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        assert sorted(calls) == [(n, 9) for n in (8, 8, 32, 32, 128, 128, 256, 256)]
        assert sum(size * (n + 1) for n, size in calls) == 7704

    @pytest.mark.parametrize(
        "coords",
        [[0.0, 0.5, -0.0, 0.5, 1.0, 0.0], [0.25, 0.25, 0.25]],
        ids=["signed-zeros", "one-value"],
    )
    def test_distinct_coordinates_are_told_apart_by_their_bits(self, coords, monkeypatch):
        x = np.array(coords)
        sizes = []

        def counted(n, v, out=None):
            sizes.append(v.size)
            return _binom_pmf(n, v, out=out)

        monkeypatch.setattr(operators, "_binom_pmf", counted)
        got = operators._axis_rows(5, x)(0, len(x))
        assert sizes == [len({v.tobytes() for v in x})]
        assert np.array_equal(got.view(np.uint64), _binom_pmf(5, x).view(np.uint64))

    @pytest.mark.parametrize("p, m, n", [(2, 127, 256), (2, 100, 400)])
    def test_axes_past_one_block_are_built_per_block_bit_for_bit(self, p, m, n):
        # (m + 1) * (n + 1) > BLOCK_ENTRIES: tensor_bernstein refuses these
        # kernels (below), but the product builder behind it still gathers
        # each row block from per-axis tables past one block; the first and
        # last row blocks are checked
        box = make_box_grid(p, m)
        assert (m + 1) * (n + 1) > BLOCK_ENTRIES
        op = operators._bernstein_product(n, box)
        for lo, hi in (row_blocks(box.n_points, (n + 1) ** p)[i] for i in (0, -1)):
            want = _binom_pmf(n, box.coords[lo:hi, 0])
            for d in range(1, p):
                wd = _binom_pmf(n, box.coords[lo:hi, d])
                want = np.einsum("ia,ib->iab", want, wd).reshape(hi - lo, -1)
            assert np.array_equal(op.block(lo, hi).view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("p, m, n", [(2, 127, 256), (2, 100, 400)])
    def test_axes_past_one_block_are_refused(self, p, m, n):
        # an axis's rows of (m + 1) * (n + 1) > BLOCK_ENTRIES values come
        # only with a kernel of ((m + 1) * (n + 1))**p > KERNEL_BUDGET weights
        box = make_box_grid(p, m)
        assert (m + 1) * (n + 1) > BLOCK_ENTRIES
        with pytest.raises(ValueError, match="above the budget"):
            tensor_bernstein(n, box)

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_axis_rows_within_the_budget_fit_half_a_block(self, p):
        spec = FAMILIES["tensor_bernstein"]
        top = next(m for m in range(1, 200) if (m + 2) ** p > DEFAULT_POINT_CAP)
        for m in sorted({1, 2, 3, top}):
            box = make_box_grid(p, m)
            n = round((KERNEL_BUDGET / box.n_points) ** (1 / p))
            while spec.weights(box, n) > KERNEL_BUDGET:
                n -= 1
            while spec.weights(box, n + 1) <= KERNEL_BUDGET:
                n += 1
            spec.check_index(box, n)
            with pytest.raises(ValueError, match="above the budget"):
                spec.check_index(box, n + 1)
            assert (m + 1) * (n + 1) <= 2**14 == BLOCK_ENTRIES // 2, (m, n)


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

    def test_a_sweep_holds_no_distance_matrix(self):
        # 2049 points: the distance matrix alone would take 33.6 MB. A sweep
        # holds one buffer of its largest row block (8 bytes per weight, about
        # BLOCK_ENTRIES weights), its complex copy for z (16), the squared
        # gaps of one axis (8) and the mask of the ball (1)
        disc = make_disc_grid(32, 64)
        f = named_function("z", disc)
        f.values
        tracemalloc.start()
        try:
            op = mollifier_disc(4, disc)
            op.sweep([f])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * BLOCK_ENTRIES
        assert np.max(np.abs(op.t_one_values - 1.0)) <= 1e-14

    @pytest.mark.parametrize("rings,per_ring", [(8, 32), (3, 5), (20, 64)])
    def test_weights_match_a_row_by_row_build_bit_for_bit(self, rings, per_ring):
        from scipy.spatial.distance import cdist

        disc = make_disc_grid(rings, per_ring)
        d = cdist(disc.coords, disc.coords)
        for n in (1, 2, 4, 8, 32, 100):
            assert np.array_equal(mollifier_disc(n, disc).weights, mollifier_loop(d, n))


class TestPerturbedComposition:
    def test_degenerate_mix_is_pure_composition(self):
        space = make_circle_grid(16)
        phi = rotation_isometry(space, 3)
        fam = perturbed_composition(phi, averaging_operator(space), [0.0])
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
        with pytest.raises(ValueError):
            fam = perturbed_composition(
                rotation_isometry(space, 1), averaging_operator(space), [1.5]
            )
            fam.operator(2)

    def test_kernel_is_the_merged_two_block_kernel_bit_for_bit(self):
        space = make_circle_grid(16)
        phi = rotation_isometry(space, 3)
        mix = averaging_operator(space)
        op = perturbed_composition(phi, mix, "1/n").operator(3)
        # the composition block and the scaled mix, merged into one N x N
        # kernel on the grid's points by adding them
        comp = np.zeros((16, 16))
        comp[np.arange(16), list(phi.phi)] = 1.0 - 1.0 / 3
        assert op.weights.shape == (16, 16)
        assert op.nodes is space.points
        assert np.array_equal(op.weights, comp + mix.weights / 3)

    def test_mix_is_one_broadcast_double(self):
        # the mix fills one double, 1/N, into every weight, and each kernel
        # is e * (1/N), plus 1 - e at (y, phi(y)), bit for bit
        space = make_circle_grid(16)
        phi = rotation_isometry(space, 3)
        mix = averaging_operator(space)
        assert np.array_equal(mix.weights, np.full((16, 16), 1.0 / 16))
        fam = perturbed_composition(phi, mix, "1/n")
        for n in (1, 2, 7):
            e = 1.0 / n
            want = np.full((16, 16), e * (1.0 / 16))
            want[np.arange(16), list(phi.phi)] += 1.0 - e
            assert np.array_equal(fam.operator(n).weights, want)

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
        with pytest.raises(TypeError):  # no config can hold a callable
            eps_schedule(lambda n: 0.5)


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
        assert rep.witness == (3, 5, -0.1)
        trial, y, value = rep.witness
        assert value < -1e-12

    def test_isometry_passes(self):
        rep = check_positivity(identity_isometry(INTERVAL))
        assert rep.passed
        assert rep.worst_violation == 0.0
        assert rep.weight_certificate is None
        assert rep.min_weight is None and rep.witness is None

    def test_report_stores_only_min_weight_and_witness(self):
        assert [f.name for f in dataclasses.fields(PositivityReport)] == ["min_weight", "witness"]
        rep = PositivityReport(-0.25, (3, 5, -0.25))
        assert not rep.passed and rep.weight_certificate is False
        assert rep.worst_violation == 0.25
        assert rep.witness == (3, 5, -0.25)
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
    """A function takes one value at a point, so a kernel refuses equal
    nodes: each row is then a measure on distinct atoms, and the indicator
    of a node is an exact positivity witness."""

    SPACE = make_circle_grid(16)

    def single(self, value):
        # 0.75 f(y) plus the grid mean of f, with the weight at (0, 0) overridden
        w = 0.75 * np.eye(16) + np.full((16, 16), 0.25 / 16)
        w[0, 0] = value
        return KernelOperator(self.SPACE, self.SPACE, self.SPACE.points.copy(), w)

    def test_doubled_grid_is_refused(self):
        nodes = np.concatenate([self.SPACE.points, self.SPACE.points])
        w = np.hstack([0.75 * np.eye(16), np.full((16, 16), 0.25 / 16)])
        with pytest.raises(ValueError, match=EQUAL_NODES):
            KernelOperator(self.SPACE, self.SPACE, nodes, w)

    def test_unsorted_repeated_nodes_are_refused(self):
        g = make_interval_grid(2)
        with pytest.raises(ValueError, match=EQUAL_NODES):
            KernelOperator(g, g, [0.5, 0.0, 0.5, 1.0], np.ones((3, 4)))

    def test_witness_names_the_first_node_index(self):
        # two equal most negative weights in row 0: the witness is the first
        w = self.single(-0.9).weights.copy()
        w[0, 5] = -0.9
        op = KernelOperator(self.SPACE, self.SPACE, self.SPACE.points.copy(), w)
        rep = check_positivity(op)
        assert not rep.passed
        assert rep.witness == (0, 0, -0.9)
        indicator = ScalarFunction(
            self.SPACE, lambda z: (z == op.nodes[0]).astype(float), name="e_0"
        )
        assert op.apply(indicator).values[0] == -0.9

    def test_distinct_nodes_are_kept_as_given(self):
        op = bernstein(10, INTERVAL)
        assert np.array_equal(op.nodes, np.arange(11) / 10)
        fam = perturbed_composition(
            identity_isometry(self.SPACE), averaging_operator(self.SPACE), [0.25]
        )
        mixed = fam.operator(1)
        assert mixed.nodes is self.SPACE.points
        np.testing.assert_allclose(mixed.weights, self.single(0.75 + 0.25 / 16).weights)

    def test_out_of_range_injection_refused(self):
        with pytest.raises(ValueError, match="outside the kernel's 16 target points x 16 nodes"):
            inject_weight(self.single(0.0), 0, 16, -0.1)

    @pytest.mark.parametrize("value", [-0.9, -0.1, 0.0, 2.0])
    def test_min_weight_is_the_smallest_weight(self, value):
        op = self.single(value)
        assert op.min_weight == op.weights.min() == min(value, 0.25 / 16)


class TestNodeOrder:
    """Nodes are kept in the order given. Nodes in strictly increasing
    lexicographic order are distinct without a sort; others are sorted once
    to find equal neighbours, and equal nodes are refused."""

    @pytest.fixture
    def sort_calls(self, monkeypatch):
        calls = []
        for name in ("unique", "lexsort"):
            call = getattr(np, name)
            monkeypatch.setattr(np, name, lambda *a, _n=name, _c=call, **k: calls.append(_n) or _c(*a, **k))
        return calls

    SORTED = [
        lambda: bernstein(9, INTERVAL),
        lambda: tensor_bernstein(5, make_box_grid(2, 3)),
        lambda: tensor_bernstein(2, make_box_grid(3, 2)),
        lambda: averaging_operator(make_custom_space([-1.0, -1j, 1j, 1.0], space_id="c4")),
    ]

    @pytest.mark.parametrize("make", SORTED, ids=["interval", "box2", "box3", "complex"])
    def test_shuffled_nodes_give_the_same_kernel(self, make, sort_calls):
        op = make()
        sort_calls.clear()  # the custom grid sorts its own points once
        again = KernelOperator(op.source, op.target, op.nodes.copy(), op.weights.copy())
        assert sort_calls == []
        perm = np.random.default_rng(3).permutation(len(op.nodes))
        shuffled = KernelOperator(op.source, op.target, op.nodes[perm], op.weights[:, perm])
        assert sort_calls == ["lexsort"]
        assert np.array_equal(shuffled.nodes, op.nodes[perm])  # kept as given
        for k, back in ((again, slice(None)), (shuffled, np.argsort(perm))):
            assert np.array_equal(k.nodes[back], op.nodes)
            assert np.array_equal(k.weights[:, back], op.weights)
            assert k.min_weight == op.min_weight

    @pytest.mark.parametrize("make", SORTED, ids=["interval", "box2", "box3", "complex"])
    def test_sorted_repeated_nodes_are_refused(self, make):
        op = make()
        nodes = np.repeat(op.nodes, 2, axis=0)  # each node twice, still in order
        with pytest.raises(ValueError, match=EQUAL_NODES):
            KernelOperator(op.source, op.target, nodes, np.repeat(op.weights / 2, 2, axis=1))

    def test_grid_points_are_taken_as_they_are(self, sort_calls):
        # the circle's points are not in sorted order, but the grid refused
        # equal points and froze its own: no copy and no distinctness pass
        op = averaging_operator(CIRCLE32)
        assert sort_calls == []
        assert op.nodes is CIRCLE32.points

    def test_signed_zeros_are_one_node(self):
        g = make_interval_grid(2)
        with pytest.raises(ValueError, match=EQUAL_NODES):
            KernelOperator(g, g, [-0.0, 0.0, 1.0], np.ones((3, 3)))


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
    """Unital, contraction and positive, read from the exact norm, T 1 and
    the weight signs."""

    def test_bernstein_flags(self):
        op = bernstein(10, INTERVAL)
        est = estimate_operator_norm(op)
        assert np.max(np.abs(op.t_one_values - 1.0)) <= 1e-12
        assert est.estimate <= 1.0 + 1e-12
        assert check_positivity(op).passed

    def test_halved_operator(self):
        op = bernstein(10, INTERVAL)
        halved = KernelOperator(INTERVAL, INTERVAL, op.nodes, 0.5 * op.weights)
        assert np.max(np.abs(halved.t_one_values - 1.0)) == pytest.approx(0.5)
        assert estimate_operator_norm(halved).estimate == pytest.approx(0.5)
        assert check_positivity(halved).passed

    def test_constructed_non_positive(self):
        # evaluation at 0 with a small negative tweak on the second node
        n = INTERVAL.n_points
        w = np.zeros((n, n))
        w[:, 0] = 1.0
        w[:, 1] = -0.05
        op = KernelOperator(INTERVAL, INTERVAL, INTERVAL.points, w)
        rep = check_positivity(op)
        assert not rep.passed and rep.witness == (1, 0, -0.05)
        # not a unital contraction, so a real space's corollary does not apply
        assert estimate_operator_norm(op).estimate == pytest.approx(1.05)


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


REAL = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def surjective_maps(draw):
    """A grid-surjective map from a circle or interval grid onto a grid of
    the same kind with as many points or more, and a function on its source
    with some values -0.0."""
    circle = draw(st.booleans())
    m = draw(st.integers(3, 12))
    k = m + draw(st.integers(0, 8))
    make = make_circle_grid if circle else lambda n: make_interval_grid(n - 1)
    extra = draw(st.lists(st.integers(0, m - 1), min_size=k - m, max_size=k - m))
    phi = draw(st.permutations(list(range(m)) + extra))
    value = st.builds(complex, REAL, REAL) if circle else REAL
    values = draw(st.lists(value, min_size=m, max_size=m))
    for i in draw(st.sets(st.integers(0, m - 1))):
        values[i] = complex(-0.0, -0.0) if circle else -0.0
    source = make(m)
    return CompositionIsometry(source, make(k), phi), function_from_values(source, values, "f")


class TestCompositionIsometry:
    @given(surjective_maps())
    def test_a_grid_surjective_map_keeps_every_sup_norm_bit_for_bit(self, case):
        limit, f = case
        assert sup_norm(limit.apply(f)).hex() == sup_norm(f).hex()

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
        # the caller's matrix is frozen, not copied, and its rows are the kernel's
        w = np.full((32, 32), 1.0 / 32)
        w[3, 5] = 0.5
        op = KernelOperator(CIRCLE32, CIRCLE32, CIRCLE32.points, w)
        assert not w.flags.writeable
        assert np.array_equal(op.weights, w)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_refused(self, bad):
        # a weight matrix is taken as it is; its first sweep refuses it
        w = bernstein(6, INTERVAL).weights.copy()
        w[50, 3] = bad
        op = KernelOperator(INTERVAL, INTERVAL, np.arange(7) / 6, w)
        with pytest.raises(ValueError, match="kernel weights must be finite"):
            op.min_weight
        with pytest.raises(ValueError, match="kernel weights must be finite"):
            op.apply(named_function("x", INTERVAL))

    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul")
    def test_non_finite_image_refused(self):
        # 1e308 times a value above 1 overflows: the image is not a function
        op = inject_weight(bernstein(4, INTERVAL), 0, 0, 1e308)
        f = ScalarFunction(INTERVAL, lambda x: 2.0 + x, name="2+x")  # 2 at node 0
        with pytest.raises(
            InvalidFunctionError, match=r"^function 'T\[2\+x\]' takes a non-finite value on the grid$"
        ):
            op.apply(f).values

    def test_a_tensor_run_holds_a_few_row_blocks(self, tmp_path):
        # tensor Bernstein up to n = 256 on the 81-point box: the kernel at
        # n = 256 has 81 x 66 049 weights (40.8 MiB), and a sweep holds one
        # buffer of its largest row block, 5 rows (2.64 MB), next to the 8
        # functions' node values
        cfg = {
            "version": 1,
            "spaces": {"K": {"kind": "box", "p": 2, "m": 8}},
            "spans": {
                "quadratic2d": {
                    "space": "K",
                    "basis": ["const1", "coord 1", "coord 2", "coord 1^2", "coord 2^2"],
                }
            },
            "family": {"name": "tensor_bernstein", "space": "K"},
            "experiment": {"test_span": "quadratic2d", "probes": "default", "indices": [8, 32, 128, 256]},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        # a first run at one small index loads every module the run needs
        # (it exits 2: one index shows no convergence)
        warm = tmp_path / "warm.json"
        warm.write_text(json.dumps({**cfg, "experiment": {**cfg["experiment"], "indices": [8]}}))
        assert main(["korovkin", "run", "--config", str(warm), "--out", str(tmp_path / "warm")]) == 2
        tracemalloc.start()
        try:
            code = main(["korovkin", "run", "--config", str(path), "--out", str(tmp_path / "run")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 16 * 2**20

    def test_a_perturbed_sweep_holds_a_few_row_blocks(self):
        fam = FAMILIES["perturbed_composition"].build(make_circle_grid(2048), {})
        f = named_function("z", fam.source)
        tracemalloc.start()
        try:
            op = fam.operator(3)
            op.sweep([f])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a dense kernel would take 2048^2 doubles, 32 MiB; a sweep holds one
        # buffer of its largest row block, 16 rows (256 KiB), and that
        # buffer's complex copy (512 KiB) for the products with z
        assert len(op.nodes) == 2048
        assert peak < 8 * 2**20
        assert np.max(np.abs(op.t_one_values - 1.0)) <= 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_sweep_refuses_a_non_finite_weight_before_any_image(self, bad, monkeypatch):
        monkeypatch.setattr(operators, "BLOCK_ENTRIES", 1)  # 4-row blocks
        made = []
        monkeypatch.setattr(
            operators, "function_from_values", lambda *a, **k: made.append(a) or function_from_values(*a, **k)
        )
        op = inject_weight(bernstein(6, INTERVAL), 90, 3, bad)  # in the last block
        with pytest.raises(ValueError, match="kernel weights must be finite"):
            op.apply(named_function("x", INTERVAL))
        with pytest.raises(ValueError, match="kernel weights must be finite"):
            check_positivity(op)
        assert made == []

    def test_the_witness_is_the_first_most_negative_weight_across_blocks(self, monkeypatch):
        monkeypatch.setattr(operators, "BLOCK_ENTRIES", 1)  # 4-row blocks
        op = bernstein(6, INTERVAL)
        for y, i in ((70, 2), (20, 5), (21, 0)):  # equal minima in blocks 5 and 17
            op = inject_weight(op, y, i, -0.5)
        assert len(row_blocks(INTERVAL.n_points, 7)) == 25
        rep = check_positivity(op)
        assert rep.witness == (5, 20, -0.5) and rep.min_weight == -0.5
        w = op.weights
        assert np.unravel_index(np.argmin(w), w.shape) == (20, 5)


def blocks_of_eight(n_rows: int, n_cols: int) -> list[tuple[int, int]]:
    """The row blocks of an earlier rule: as many multiples of 8 rows as fit
    in BLOCK_ENTRIES weights, and never fewer than 8, with the remainder
    merged into the last block."""
    step = max(8, operators.BLOCK_ENTRIES // n_cols // 8 * 8)
    starts = list(range(0, n_rows, step))
    if len(starts) > 1 and n_rows - starts[-1] < step:
        starts.pop()
    return list(zip(starts, [*starts[1:], n_rows]))


class TestRowBlocks:
    @pytest.mark.parametrize("n_cols", [1, 257, 4096, 4097, 4225, 66049, 2**20])
    @pytest.mark.parametrize("n_rows", [1, 7, 8, 9, 17, 81, 257, 4097])
    def test_blocks_tile_the_rows_from_multiples_of_eight(self, n_rows, n_cols):
        blocks = row_blocks(n_rows, n_cols)
        starts = [lo for lo, _ in blocks]
        assert starts == [0, *(hi for _, hi in blocks[:-1])] and blocks[-1][1] == n_rows
        assert all(lo % ROW_ALIGN == 0 for lo in starts)
        lo, hi = blocks[-1]
        assert hi - lo >= ROW_ALIGN or blocks == [(0, n_rows)]
        # every block but the last has one size: the largest multiple of 8
        # rows within BLOCK_ENTRIES weights, else ROW_ALIGN rows when not
        # even 8 rows fit
        step = blocks[0][1]
        assert all(hi - lo == step for lo, hi in blocks[:-1])
        if len(blocks) > 1:
            if 8 * n_cols <= BLOCK_ENTRIES:
                assert step % 8 == 0 and step * n_cols <= BLOCK_ENTRIES < (step + 8) * n_cols
            else:
                assert step == ROW_ALIGN
            assert step <= hi - lo < 2 * step
        # no block is larger than under the rule of 8-row multiples, so no
        # sweep's buffer grows
        assert max(hi - lo for lo, hi in blocks) <= max(hi - lo for lo, hi in blocks_of_eight(n_rows, n_cols))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: mollifier_disc(2, make_disc_grid(8, 32)),
            lambda: mollifier_disc(4, make_disc_grid(8, 32)),
            lambda: fejer(4, make_circle_grid(37)),
            lambda: tensor_bernstein(16, make_box_grid(2, 8)),
            lambda: bernstein(16, make_interval_grid(100)),
        ],
        ids=["disc2", "disc4", "fejer", "tensor", "bernstein"],
    )
    def test_images_in_blocks_of_eight_are_one_product_bit_for_bit(self, make, monkeypatch):
        # blocks of 8 rows, then of ROW_ALIGN rows; a lone trailing row would
        # take another BLAS path: on the 257-point disc at n = 2 and 4, row
        # 256 then moves by one ulp
        op = make()
        w = op.weights
        fs = [named_function("const1", op.source), *default_probes(op.source)]
        for entries, rows in ((8 * w.shape[1], 8), (1, ROW_ALIGN)):
            monkeypatch.setattr(operators, "BLOCK_ENTRIES", entries)
            assert row_blocks(*w.shape)[0] == (0, rows)
            op.sweep(fs)
            assert np.array_equal(op.t_one_values, w.sum(axis=1))
            for f in fs:
                got = op.apply(f).values  # in the grid's field
                want = np.asarray(w @ evaluate(f, op.nodes), dtype=got.dtype)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), f.name

    @pytest.mark.parametrize(
        "make,names",
        [
            (lambda: mollifier_disc(4, make_disc_grid(8, 32)), ("z", "|z|^2")),
            (lambda: tensor_bernstein(32, make_box_grid(2, 8)), ("coord 1^2", "prod_coords")),
        ],
        ids=["disc", "tensor"],
    )
    def test_old_and_new_block_sizes_give_the_same_bits(self, make, names, monkeypatch):
        # 2**18 entries fit each kernel below in one block; 2**15 splits the
        # sweep in two or three row blocks
        import korovkinlab.space as space_module

        runs = []
        for entries in (2**18, 2**15):
            for module in (space_module, operators):
                monkeypatch.setattr(module, "BLOCK_ENTRIES", entries)
            op = make()  # a new grid: the distance pass is cached on it
            fs = [named_function(name, op.source) for name in names]
            op.sweep(fs)
            runs.append(
                (
                    len(row_blocks(op.target.n_points, len(op.nodes))),
                    [op.apply(f).values.tobytes() for f in fs],
                    op.t_one_values.tobytes(),
                    np.float64(op.min_weight).tobytes(),
                    np.float64(op.source.diameter).tobytes(),
                    np.float64(op.source.least_eccentricity).tobytes(),
                )
            )
        (old_blocks, *old), (new_blocks, *new) = runs
        assert old_blocks == 1 < new_blocks
        assert old == new

    def test_blocks_of_four_and_of_eight_give_the_same_bits(self):
        # under one BLAS thread, as the benchmark runs: OpenBLAS's gemv then
        # takes rows in groups of 4 wherever a block starts at a multiple of
        # 4. ROW_ALIGN = 8 gives the rule of 8-row blocks. The random kernels
        # have 84-87 rows, every remainder mod 4, and 4100 complex nodes.
        _fresh_python(
            """
            import numpy as np
            from korovkinlab import (KernelOperator, check_positivity, default_probes, make_box_grid,
                                     make_circle_grid, named_function, tensor_bernstein)
            from korovkinlab import operators

            row_align = operators.ROW_ALIGN
            assert row_align < 8
            box = make_box_grid(2, 8)
            cases = [(tensor_bernstein(128, box), default_probes(box))]
            circle = make_circle_grid(4100)
            rng = np.random.default_rng(5)
            for n_rows in (84, 85, 86, 87):
                w = rng.standard_normal((n_rows, circle.n_points))
                op = KernelOperator(circle, make_circle_grid(n_rows), circle.points, w)
                names = ("const1", "z", "zbar", "re_z2")
                cases.append((op, [named_function(name, circle) for name in names]))
            for op, fs in cases:
                runs = []
                for align in (8, row_align):
                    operators.ROW_ALIGN = align
                    op.sweep(fs)
                    runs.append((
                        [op.apply(f).values.tobytes() for f in fs],
                        op.t_one_values.tobytes(),
                        np.float64(op.min_weight).tobytes(),
                        check_positivity(op).witness,
                    ))
                    first = operators.row_blocks(op.target.n_points, len(op.nodes))[0]
                    assert first == (0, align), first
                assert runs[0] == runs[1], (op.target.n_points, len(op.nodes))
            """,
            OPENBLAS_NUM_THREADS="1",
        )

    def test_the_widest_tensor_sweep_holds_five_rows(self):
        # n = 256 on the 81-point box: 66049 columns, so not even 8 rows fit
        # in BLOCK_ENTRIES weights: 19 blocks of 4 rows and the last of 5
        box = make_box_grid(2, 8)
        fs = default_probes(box)
        tensor_bernstein(2, box).sweep(fs)  # loads what a first build loads
        tracemalloc.start()
        try:
            op = tensor_bernstein(256, box)
            op.sweep(fs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(fs) == 8 and op._buffer_shape() == (5, 66049)
        # the buffer (2.64 MB), the 8 probes' node values (4.23 MB) and the
        # nodes (1.06 MB), plus 1 MiB for the per-axis rows and the probes'
        # temporaries: 8.97 MB. 9-row blocks peak at 10.5 MB.
        buffer, values, nodes = 5 * 66049 * 8, 8 * 66049 * 8, 66049 * 2 * 8
        assert peak < buffer + values + nodes + 2**20


    @pytest.mark.parametrize(
        "make",
        [
            lambda: bernstein(16, make_interval_grid(100)),
            lambda: tensor_bernstein(16, make_box_grid(2, 8)),
            lambda: fejer(4, make_circle_grid(37)),
            lambda: mollifier_disc(2, make_disc_grid(8, 32)),
            lambda: FAMILIES["perturbed_composition"].build(make_circle_grid(37), {}).operator(3),
            lambda: inject_weight(bernstein(16, make_interval_grid(100)), 90, 3, -0.5),
            lambda: KernelOperator(  # nodes not the grid's points, in no sorted order
                CIRCLE32,
                CIRCLE32,
                CIRCLE32.points[::-1].copy(),
                lambda lo, hi, out: out.fill(1.0 / 32),
            ),
        ],
        ids=["bernstein", "tensor", "fejer", "disc", "perturbed", "inject", "hand-built"],
    )
    def test_every_block_of_a_sweep_is_built_into_one_buffer(self, make, monkeypatch):
        monkeypatch.setattr(operators, "BLOCK_ENTRIES", 1)  # 4-row blocks, the last one larger
        op = make()
        built = []
        block = KernelOperator.block

        def recorded(k, lo, hi, out=None):
            w = block(k, lo, hi, out)
            if k is op:
                built.append((hi - lo, out, w))
            return w

        monkeypatch.setattr(KernelOperator, "block", recorded)
        op.sweep([named_function("const1", op.source)])
        spans = row_blocks(op.target.n_points, len(op.nodes))
        assert len(spans) > 1
        assert [rows for rows, _, _ in built] == [hi - lo for lo, hi in spans]
        buffer = built[0][1].base
        assert buffer.shape == (max(hi - lo for lo, hi in spans), len(op.nodes))
        assert buffer.dtype == float
        for rows, out, w in built:
            assert w is out and out.base is buffer
            assert out.shape == (rows, len(op.nodes)) and out.flags.c_contiguous
        assert np.array_equal(op.t_one_values, op.weights.sum(axis=1))

    def test_complex_products_share_one_complex_copy_per_block(self, monkeypatch):
        monkeypatch.setattr(operators, "BLOCK_ENTRIES", 1)  # 4-row blocks
        op = mollifier_disc(2, make_disc_grid(8, 32))
        fs = [named_function(name, op.source) for name in ("const1", "z", "zbar", "|z|^2", "re_z2")]
        n_blocks = len(row_blocks(op.target.n_points, len(op.nodes)))
        calls = []
        matmul = np.matmul

        def recorded(a, v, **kwargs):
            calls.append((a, v))
            return matmul(a, v, **kwargs)

        monkeypatch.setattr(np, "matmul", recorded)
        op.sweep(fs)
        monkeypatch.undo()
        assert len(calls) == n_blocks * len(fs)
        copies = []
        for at in range(0, len(calls), len(fs)):
            products = calls[at : at + len(fs)]
            real = {id(a) for a, v in products if not np.iscomplexobj(v)}
            cplx = {id(a) for a, v in products if np.iscomplexobj(v)}
            assert len(real) == 1 and len(cplx) == 1  # the block, and its one complex copy
            copy = next(a for a, v in products if np.iscomplexobj(v))
            block = next(a for a, v in products if not np.iscomplexobj(v))
            assert copy.dtype == complex and np.array_equal(copy, block)
            copies.append(copy)
        assert all(c.base is copies[0].base for c in copies)  # one complex buffer for the sweep
        w = op.weights
        for f in fs:
            want = np.asarray(w @ evaluate(f, op.nodes), dtype=op.apply(f).values.dtype)
            assert np.array_equal(op.apply(f).values, want), f.name


class TestFamilyTable:
    GRIDS = {
        "bernstein": INTERVAL,
        "fejer": CIRCLE32,
        "tensor_bernstein": make_box_grid(2, 3),
        "mollifier_disc": make_disc_grid(2, 8),
        "perturbed_composition": CIRCLE32,
    }

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_every_family_refuses_index_zero(self, name):
        with pytest.raises(ValueError, match=f"^{name} index must be >= 1$"):
            FAMILIES[name].build(self.GRIDS[name], {}).operator(0)

    @pytest.mark.parametrize("n", [0, -3])
    def test_perturbed_list_schedule_refuses_indices_below_one(self, n):
        # a list is read 1-based: index 0 would take its last value, -3 none
        fam = FAMILIES["perturbed_composition"].build(CIRCLE32, {"eps": [0.5, 0.25]})
        with pytest.raises(ValueError, match="^perturbed_composition index must be >= 1$"):
            fam.operator(n)

    def test_builders_refuse_a_kernel_over_the_budget(self):
        # 9261 points at n = 40: 68 921 nodes and 6.4e8 weights, refused
        # before the nodes are listed
        box = make_box_grid(3, 20)
        family = FAMILIES["tensor_bernstein"].build(box, {})
        for build in (lambda n: tensor_bernstein(n, box), family.operator):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="^the kernel at index 40 would hold 638277381 weights, above"):
                    build(40)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < BLOCK_ENTRIES

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
    def test_weight_count_is_the_kernel_size(self, name, grid, monkeypatch):
        spec = FAMILIES[name]
        sizes = []
        init = KernelOperator.__post_init__

        def record(self):
            sizes.append(np.shape(self.weights))
            init(self)

        monkeypatch.setattr(KernelOperator, "__post_init__", record)
        spec.build(grid, {}).operator(3)
        assert sizes[-1][0] * sizes[-1][1] == spec.weights(grid, 3)
