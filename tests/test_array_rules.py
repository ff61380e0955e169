"""Array evaluation rules: the catalog against its per-point formulas, one
rule call per operator application, and grid lookup of sampled functions."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from korovkinlab import (
    InvalidFunctionError,
    ScalarFunction,
    bernstein,
    function_from_values,
    make_box_grid,
    make_circle_grid,
    make_disc_grid,
    make_interval_grid,
    named_function,
    oscillation,
    tensor_bernstein,
)

from oracles import scalar_catalog

GRIDS = st.one_of(
    st.integers(1, 60).map(make_interval_grid),
    st.integers(3, 64).map(make_circle_grid),
    st.tuples(st.integers(1, 8), st.integers(3, 32)).map(lambda a: make_disc_grid(*a)),
    st.tuples(st.integers(1, 3), st.integers(1, 8)).map(lambda a: make_box_grid(*a)),
)
COORD = st.floats(-4.0, 4.0, allow_nan=False)


def catalog(space) -> dict:
    return scalar_catalog(space.field.value, space.dim)


def assert_bitwise(got, expected_scalars) -> None:
    expected = np.array(expected_scalars)
    got = np.array(np.broadcast_to(got, expected.shape))
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


def assert_catalog_matches(space, points) -> None:
    """Every entry's one array call equals its per-point formula bit for bit."""
    per_point = list(points) if np.ndim(points) == 2 else np.asarray(points).tolist()
    for name, scalar in catalog(space).items():
        rule = named_function(name, space).rule
        assert_bitwise(rule(points), [scalar(p) for p in per_point])
        for p in per_point[:3]:
            assert_bitwise(rule(p), scalar(p))


class TestCatalogMatchesScalarFormulas:
    @given(GRIDS)
    @settings(max_examples=60)
    def test_grid_points(self, space):
        assert_catalog_matches(space, space.points)

    @given(st.lists(st.tuples(COORD, COORD), min_size=1, max_size=40))
    @settings(max_examples=60)
    def test_off_grid_complex_points(self, pairs):
        z = np.array([complex(a, b) for a, b in pairs])
        assert_catalog_matches(make_circle_grid(3), z)

    @given(st.integers(1, 3).flatmap(
        lambda p: st.lists(st.tuples(*[COORD] * p), min_size=1, max_size=40)
    ))
    @settings(max_examples=60)
    def test_off_grid_real_points(self, rows):
        pts = np.array(rows, dtype=float)
        p = pts.shape[1]
        space = make_interval_grid(1) if p == 1 else make_box_grid(p, 1)
        assert_catalog_matches(space, pts[:, 0] if p == 1 else pts)

    @given(st.integers(1, 300))
    @settings(max_examples=40)
    def test_bernstein_nodes(self, n):
        space = make_interval_grid(4)
        nodes = bernstein(n, space).nodes
        assert nodes.tolist() == [k / n for k in range(n + 1)]
        assert_catalog_matches(space, nodes)

    @given(st.integers(1, 3).flatmap(lambda p: st.tuples(st.just(p), st.integers(1, 12))))
    @settings(max_examples=30)
    def test_tensor_nodes(self, p_n):
        p, n = p_n
        space = make_box_grid(p, 2)
        nodes = tensor_bernstein(n, space).nodes
        expected = [np.array(t, dtype=float) / n for t in itertools.product(range(n + 1), repeat=p)]
        assert nodes.tobytes() == np.array(expected).tobytes()  # (N,) when p == 1
        assert_catalog_matches(space, nodes)


class TestOneRuleCallPerApply:
    @pytest.mark.parametrize(
        "space, make_op",
        [
            (make_interval_grid(20), lambda s: bernstein(16, s)),
            (make_box_grid(2, 4), lambda s: tensor_bernstein(16, s)),
        ],
        ids=["bernstein", "tensor"],
    )
    def test_apply_calls_the_rule_once(self, space, make_op):
        op = make_op(space)
        inner = named_function("const1", space).rule
        calls = []

        def counting(x):
            calls.append(np.shape(x))
            return inner(x)

        out = op.apply(ScalarFunction(space, counting, name="counted"))
        assert calls == [op.nodes.shape]
        np.testing.assert_allclose(out.values, 1.0, atol=1e-12)

    def test_values_call_the_rule_once(self):
        space = make_disc_grid(3, 8)
        calls = []
        f = ScalarFunction(space, lambda z: calls.append(1) or np.abs(z), name="counted")
        assert f.values.shape == (space.n_points,)
        assert f.values is f.values
        assert calls == [1]

    def test_rule_of_the_wrong_shape_is_rejected(self):
        space = make_interval_grid(4)
        f = ScalarFunction(space, lambda x: np.ones((len(x), 2)), name="wide")
        with pytest.raises(InvalidFunctionError):
            f.values


class TestGridLookup:
    @pytest.mark.parametrize(
        "space",
        [make_box_grid(2, 3), make_interval_grid(4), make_circle_grid(8)],
        ids=["box", "interval", "circle"],
    )
    def test_values_only_on_the_grid_points(self, space):
        vals = np.arange(space.n_points, dtype=float)
        f = function_from_values(space, vals, name="idx")
        np.testing.assert_array_equal(f(space.points), vals)
        np.testing.assert_array_equal(f(space.points.copy()), vals)
        order = np.random.default_rng(0).permutation(space.n_points)
        off = space.points.copy()
        off[1] = off[1] + 0.1
        for wrong in (off, space.points[2], space.points[order]):
            with pytest.raises(InvalidFunctionError, match="grid-sampled"):
                f(wrong)

    @pytest.mark.parametrize(
        "space, off",
        [
            (make_box_grid(2, 3), np.array([[0.0, 0.0], [0.3, 0.1]])),
            (make_box_grid(2, 3), np.array([[0.0, 0.0, 0.0]])),
            (make_interval_grid(4), np.array([0.25, 0.3])),
            (make_interval_grid(4), np.array([0.25 + 0.0j, 0.5 + 1.0j])),
            (make_circle_grid(8), np.array([1.0 + 0.0j, 0.5 + 0.5j])),
        ],
        ids=["box", "box-width", "interval", "interval-complex", "circle"],
    )
    def test_off_grid_array_raises(self, space, off):
        f = function_from_values(space, np.zeros(space.n_points), name="zero")
        with pytest.raises(InvalidFunctionError):
            f(off)

    def test_off_grid_kernel_nodes_raise(self):
        space = make_interval_grid(4)
        f = function_from_values(space, np.zeros(space.n_points), name="zero")
        with pytest.raises(InvalidFunctionError):
            bernstein(7, space).apply(f)  # nodes k/7 are not grid points
        assert np.all(bernstein(4, space).apply(f).values == 0.0)


def test_complex_oscillation_in_blocks_matches_all_pairs():
    space = make_disc_grid(16, 64)  # 1025 points: several row blocks
    rng = np.random.default_rng(4)
    vals = rng.normal(size=space.n_points) + 1j * rng.normal(size=space.n_points)
    f = function_from_values(space, vals, name="noise")
    assert oscillation(f) == float(np.max(np.abs(vals[:, None] - vals[None, :])))
