from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import oscillation_blocked, separates_points_loop

from korovkinlab import (
    FunctionSpan,
    InvalidFunctionError,
    ScalarFunction,
    conjugate,
    conjugate_closure,
    default_probes,
    function_from_values,
    make_circle_grid,
    make_custom_space,
    make_disc_grid,
    make_interval_grid,
    make_box_grid,
    named_function,
    oscillation,
    separates_points,
    span_union,
    sup_norm,
)
from korovkinlab.functions import SEPARATION_TOL, default_probe_names
from korovkinlab.space import rows_by_bound

GRID5 = make_interval_grid(4)

finite_vals = st.lists(
    st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
    min_size=5,
    max_size=5,
)


@st.composite
def value_matrices(draw):
    """A real or complex N x k value matrix with repeated entries (ties in
    every coordinate) and planted pairs: row j set to row i, one entry then
    moved by 0.5e-12 (indistinguishable) or 2e-12 (separated)."""
    n, k, cplx = draw(st.integers(1, 30)), draw(st.integers(1, 3)), draw(st.booleans())
    entry = st.one_of(st.sampled_from([-1.0, 0.0, 0.25, 1.0]), st.floats(-2.0, 2.0))
    parts = draw(st.lists(entry, min_size=n * k * (1 + cplx), max_size=n * k * (1 + cplx)))
    b = np.array(parts).reshape(n, k, 1 + cplx)
    b = b[..., 0] + 1j * b[..., 1] if cplx else b[..., 0]
    plant = st.tuples(
        st.integers(0, n - 1),
        st.integers(0, n - 1),
        st.integers(0, k - 1),
        st.sampled_from([0.5e-12, -0.5e-12, 2e-12, -2e-12]),
        st.sampled_from([1.0, 1j, 0.6 + 0.8j]),
    )
    for i, j, c, delta, phase in draw(st.lists(plant, max_size=3)):
        b[j] = b[i]
        b[j, c] += delta * (phase if cplx else 1.0)
    return b


class TestSupNorm:
    def test_constant(self):
        assert sup_norm(named_function("const1", GRID5)) == 1.0

    def test_shifted_coordinate(self):
        f = ScalarFunction(GRID5, lambda x: x - 0.5, name="x-1/2")
        assert sup_norm(f) == pytest.approx(0.5)

    def test_unimodular_on_circle(self):
        g = make_circle_grid(8)
        assert sup_norm(named_function("z", g)) == pytest.approx(1.0)

    def test_nonfinite_rejected(self):
        f = ScalarFunction(
            GRID5,
            lambda x: np.divide(1.0, x, out=np.full_like(x, np.inf), where=x != 0.0),
            name="pole",
        )
        with pytest.raises(InvalidFunctionError):
            sup_norm(f)

    def test_complex_on_real_grid_rejected(self):
        f = ScalarFunction(GRID5, lambda x: 1j * x, name="imag")
        with pytest.raises(InvalidFunctionError):
            sup_norm(f)


@st.composite
def complex_values(draw):
    """Values at 3 to 60 points: one constant (every bound is then 0), a few
    tied values, points on a circle (every row can hold the maximum), on a
    line or spread, scaled by 10**k for -320 <= k <= 300, or parts that are
    a few least subnormals."""
    n = draw(st.integers(3, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["constant", "ties", "circle", "line", "spread", "subnormal"]))
    if kind == "subnormal":  # every part a few least subnormals
        return (rng.integers(0, 6, n) + 1j * rng.integers(0, 6, n)) * 5e-324
    if kind == "constant":
        values = np.full(n, complex(*rng.normal(size=2)))
    elif kind == "ties":
        values = rng.choice(rng.normal(size=3) + 1j * rng.normal(size=3), size=n)
    elif kind == "circle":
        values = np.exp(2j * np.pi * np.arange(n) / n) + complex(*rng.normal(size=2))
    elif kind == "line":  # the triangle inequality through the centre is an equality
        values = rng.normal(size=n) * np.exp(2j * np.pi * rng.random()) + complex(*rng.normal(size=2))
    else:
        values = rng.normal(size=n) + 1j * rng.normal(size=n)
    return values * 10.0 ** draw(st.integers(-320, 300))


class TestOscillation:
    def test_constant_is_flat(self):
        assert oscillation(named_function("const1", GRID5)) == 0.0

    def test_coordinate(self):
        assert oscillation(named_function("x", GRID5)) == pytest.approx(1.0)

    def test_square(self):
        assert oscillation(named_function("x^2", GRID5)) == pytest.approx(1.0)

    def test_complex_pairwise(self):
        g = make_circle_grid(4)
        assert oscillation(named_function("z", g)) == pytest.approx(2.0)

    @given(complex_values())
    @settings(max_examples=200)
    def test_complex_values_give_the_blocked_pass_bit_for_bit(self, values):
        f = function_from_values(make_circle_grid(values.size), values, name="v")
        assert oscillation(f).hex() == oscillation_blocked(values, 2**15).hex()

    @given(complex_values())
    @settings(max_examples=200)
    def test_each_row_bound_reaches_the_row_maximum(self, values):
        centre = complex(*(part.min() / 2 + part.max() / 2 for part in (values.real, values.imag)))
        order, reach = rows_by_bound(np.abs(values - centre), 2, squared=False)
        row_max = np.abs(values[order, None] - values).max(axis=1)
        assert all(reach(m) > at for at, m in enumerate(row_max))

    @given(finite_vals)
    @settings(max_examples=60)
    def test_bounded_by_twice_sup_norm(self, vals):
        f = function_from_values(GRID5, np.array(vals), name="rand")
        assert oscillation(f) <= 2.0 * sup_norm(f) + 1e-12


class TestSupNormProperties:
    @given(finite_vals, st.floats(-10.0, 10.0, allow_nan=False))
    @settings(max_examples=60)
    def test_absolute_homogeneity(self, vals, c):
        v = np.array(vals)
        f = function_from_values(GRID5, v, name="f")
        g = function_from_values(GRID5, c * v, name="cf")
        assert sup_norm(g) == pytest.approx(abs(c) * sup_norm(f), abs=1e-9)

    @given(finite_vals, finite_vals)
    @settings(max_examples=60)
    def test_triangle_inequality(self, a, b):
        va, vb = np.array(a), np.array(b)
        fa = function_from_values(GRID5, va, name="a")
        fb = function_from_values(GRID5, vb, name="b")
        fab = function_from_values(GRID5, va + vb, name="a+b")
        assert sup_norm(fab) <= sup_norm(fa) + sup_norm(fb) + 1e-12


class TestSpanFlags:
    def test_unital_and_separating_quadratic(self):
        span = FunctionSpan(
            tuple(named_function(n, GRID5) for n in ("const1", "x", "x^2"))
        )
        assert span.unital
        assert span.separating
        assert span.self_conjugate  # real field

    def test_not_unital_without_constant(self):
        span = FunctionSpan((named_function("x", GRID5),))
        assert not span.unital

    def test_constant_span_does_not_separate(self):
        span = FunctionSpan((named_function("const1", GRID5),))
        ok, witness = separates_points(span)
        assert not ok
        assert witness is not None

    @given(value_matrices())
    @settings(max_examples=300, deadline=None)
    def test_separation_is_the_all_pairs_loop(self, b):
        span = SimpleNamespace(value_matrix=b)
        assert separates_points(span) == separates_points_loop(b, SEPARATION_TOL)

    @pytest.mark.parametrize("delta, separated", [(0.5e-12, False), (2e-12, True)])
    def test_a_planted_near_duplicate_is_found_at_the_tolerance(self, delta, separated):
        b = np.exp(2j * np.pi * np.arange(64) / 64)[:, None] * [1.0, 2.0]
        b[40] = b[7] + [0.0, delta * 1j]
        ok, witness = separates_points(SimpleNamespace(value_matrix=b))
        assert (ok, witness) == ((True, None) if separated else (False, (7, 40)))

    def test_even_span_on_symmetric_grid(self):
        g = make_custom_space([-1.0, -0.5, 0.0, 0.5, 1.0], space_id="sym")
        one = ScalarFunction(g, lambda x: 1.0, name="1")
        sq = ScalarFunction(g, lambda x: x * x, name="x^2")
        ok, witness = separates_points(FunctionSpan((one, sq)))
        assert not ok
        i, j = witness
        assert g.coords[i, 0] == pytest.approx(-g.coords[j, 0])


class TestConjugateClosure:
    def test_adds_missing_conjugate(self):
        g = make_circle_grid(8)
        span = FunctionSpan((named_function("const1", g), named_function("z", g)))
        closed = conjugate_closure(span)
        assert [f.name for f in closed.basis] == ["const1", "z", "conj(z)"]
        assert closed.self_conjugate

    def test_idempotent(self):
        g = make_circle_grid(8)
        span = FunctionSpan((named_function("const1", g), named_function("z", g)))
        once = conjugate_closure(span)
        twice = conjugate_closure(once)
        assert twice.dim == once.dim

    def test_already_closed_unchanged(self):
        g = make_circle_grid(8)
        span = FunctionSpan(
            tuple(named_function(n, g) for n in ("const1", "z", "zbar"))
        )
        assert conjugate_closure(span).dim == 3

    def test_constant_span_unchanged(self):
        g = make_circle_grid(8)
        span = FunctionSpan((named_function("const1", g),))
        assert conjugate_closure(span).dim == 1

    def test_real_field_noop(self):
        span = FunctionSpan((named_function("x", GRID5),))
        assert conjugate_closure(span) is span


class TestFromValues:
    def test_off_grid_point_rejected(self):
        f = function_from_values(GRID5, np.zeros(5), name="zero")
        with pytest.raises(InvalidFunctionError):
            f(0.123)

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            function_from_values(GRID5, np.zeros(7))

    def test_conjugate_roundtrip(self):
        g = make_circle_grid(6)
        f = named_function("z", g)
        fb = conjugate(f)
        np.testing.assert_allclose(fb.values, np.conj(f.values))


class TestNamedFunctions:
    def test_unknown_name(self):
        with pytest.raises(ValueError):
            named_function("nope", GRID5)

    def test_coordinate_projection(self):
        g = make_box_grid(2, 2)
        p2 = named_function("coord 2", g)
        np.testing.assert_allclose(p2.values, g.coords[:, 1])

    def test_coordinate_out_of_range(self):
        g = make_box_grid(2, 2)
        with pytest.raises(ValueError):
            named_function("coord 3", g)

    def test_runge(self):
        f = named_function("runge", GRID5)
        assert f(0.0) == pytest.approx(1.0)
        assert f(1.0) == pytest.approx(1.0 / 26.0)

    @pytest.mark.parametrize(
        "grid",
        [
            make_interval_grid(4),
            make_circle_grid(8),
            make_disc_grid(2, 8),
            make_box_grid(2, 2),
        ],
        ids=["interval", "circle", "disc", "box"],
    )
    def test_default_battery_has_eight_members(self, grid):
        names = default_probe_names(grid)
        assert len(names) == 8
        probes = default_probes(grid)
        for p in probes:
            assert np.all(np.isfinite(p.values))


class TestSpanUnion:
    def test_skips_redundant_members(self):
        a = FunctionSpan((named_function("const1", GRID5), named_function("x", GRID5)))
        b = FunctionSpan((named_function("x", GRID5), named_function("x^2", GRID5)))
        u = span_union(a, b)
        assert u.dim == 3

    def test_space_mismatch(self):
        other = make_interval_grid(5)
        a = FunctionSpan((named_function("const1", GRID5),))
        b = FunctionSpan((named_function("const1", other),))
        with pytest.raises(ValueError):
            span_union(a, b)
