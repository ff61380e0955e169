import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    span_eval,
    span_union,
    sup_norm,
)
from korovkinlab.functions import default_probe_names

GRID5 = make_interval_grid(4)

finite_vals = st.lists(
    st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
    min_size=5,
    max_size=5,
)


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


class TestSpanEval:
    def test_zero_coefficients(self):
        span = FunctionSpan((named_function("const1", GRID5), named_function("x", GRID5)))
        assert span_eval(span, [0.0, 0.0], 0.25) == 0.0

    def test_single_constant(self):
        span = FunctionSpan((named_function("const1", GRID5),))
        assert span_eval(span, [3.5], 0.75) == pytest.approx(3.5)

    def test_quadratic_combination(self):
        span = FunctionSpan(
            tuple(named_function(n, GRID5) for n in ("const1", "x", "x^2"))
        )
        assert span_eval(span, (1.0, -1.0, 0.0), 0.25) == pytest.approx(0.75)

    def test_length_mismatch(self):
        span = FunctionSpan((named_function("const1", GRID5),))
        with pytest.raises(ValueError):
            span_eval(span, [1.0, 2.0], 0.5)


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
    def test_lookup_matches(self):
        vals = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        f = function_from_values(GRID5, vals, name="seq")
        assert f(0.5) == 4.0
        np.testing.assert_array_equal(f.values, vals)

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
