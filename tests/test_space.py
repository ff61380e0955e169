import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import distinct_rows_loop, farthest_blocked

from korovkinlab import (
    CompactSpace,
    Field,
    PointSet,
    ResourceLimitError,
    SpaceKind,
    make_box_grid,
    make_circle_grid,
    make_custom_space,
    make_disc_grid,
    make_interval_grid,
    open_ball,
)
import korovkinlab.space as space_module
from korovkinlab.space import DEFAULT_POINT_CAP, distinct_rows


def _count_products(monkeypatch) -> list:
    """(rows, columns) of each later `_squared_distances` call."""
    calls = []
    real = space_module._squared_distances

    def counted(points, columns, out=None):
        calls.append((len(points), columns.shape[1]))
        return real(points, columns, out)

    monkeypatch.setattr(space_module, "_squared_distances", counted)
    return calls


class TestIntervalGrid:
    def test_endpoints_only(self):
        g = make_interval_grid(1)
        np.testing.assert_allclose(g.coords[:, 0], [0.0, 1.0])

    def test_equispacing(self):
        g = make_interval_grid(4)
        np.testing.assert_allclose(g.coords[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0])
        assert g.kind is SpaceKind.INTERVAL
        assert g.field is Field.REAL

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            make_interval_grid(0)


class TestCircleGrid:
    def test_quarter_roots(self):
        g = make_circle_grid(4)
        np.testing.assert_allclose(g.complex_points, [1, 1j, -1, -1j], atol=1e-15)
        assert g.field is Field.COMPLEX

    def test_cube_roots(self):
        g = make_circle_grid(3)
        np.testing.assert_allclose(g.complex_points**3, [1, 1, 1], atol=1e-14)

    def test_chordal_diameter(self):
        g = make_circle_grid(4)
        assert g.pairwise[0][2] == pytest.approx(2.0, abs=1e-15)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            make_circle_grid(2)


class TestDiscGrid:
    def test_single_ring(self):
        g = make_disc_grid(1, 4)
        np.testing.assert_allclose(g.complex_points, [0, 1, 1j, -1, -1j], atol=1e-15)

    def test_boundary_flags(self):
        g = make_disc_grid(3, 8)
        radii = np.abs(g.complex_points)
        np.testing.assert_array_equal(g.boundary_mask, np.isclose(radii, 1.0, atol=1e-12))

    def test_point_count(self):
        g = make_disc_grid(5, 12)
        assert g.n_points == 1 + 5 * 12

    @pytest.mark.parametrize("m", [3, 4, 9, 144])
    def test_outer_ring_is_the_circle(self, m):
        # the circle grid is the disc's one ring without its centre
        circle, disc = make_circle_grid(m), make_disc_grid(1, m)
        assert disc.coords[1:].tobytes() == circle.coords.tobytes()
        assert disc.boundary_mask[1:].all() and not disc.boundary_mask[0]
        assert circle.boundary_mask.all()
        assert [g[0] for g in disc.generators] == [0, 0]
        assert [(g[1:] - 1).tobytes() for g in disc.generators] == [
            g.tobytes() for g in circle.generators
        ]

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            make_disc_grid(0, 8)
        with pytest.raises(ValueError):
            make_disc_grid(2, 2)


class TestBoxGrid:
    def test_unit_square_corners(self):
        g = make_box_grid(2, 1)
        expected = {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert {tuple(row) for row in g.coords} == expected

    def test_matches_interval_points(self):
        # the interval grid is the one-axis box: same coordinates and generators
        for m in (1, 2, 4, 7, 100):
            box = make_box_grid(1, m)
            interval = make_interval_grid(m)
            assert box.coords.tobytes() == interval.coords.tobytes(), m
            assert [g.tobytes() for g in box.generators] == [g.tobytes() for g in interval.generators], m

    def test_size_cap(self):
        with pytest.raises(ResourceLimitError, match="box grid would have 1030301 points"):
            make_box_grid(3, 100)


class TestPointCap:
    def test_grids_over_the_cap_are_refused(self, monkeypatch):
        def no_pairwise(space):
            raise AssertionError("pairwise distances computed")

        monkeypatch.setattr(CompactSpace, "pairwise", property(no_pairwise))
        with pytest.raises(ResourceLimitError, match=str(DEFAULT_POINT_CAP)):
            make_interval_grid(DEFAULT_POINT_CAP)
        with pytest.raises(ResourceLimitError):
            make_custom_space(np.arange(DEFAULT_POINT_CAP + 1.0))
        make_interval_grid(DEFAULT_POINT_CAP - 1)

    def test_box_grid_over_the_cap_is_refused_before_listing_points(self):
        # every factory checks its point count before it lists a point
        cases = [
            (make_box_grid, (2, 200), "box grid would have 40401 points"),
            (make_interval_grid, (10**12,), "interval grid would have 1000000000001 points"),
            (make_circle_grid, (10**12,), "circle grid would have 1000000000000 points"),
            (make_disc_grid, (10**6, 10**6), "disc grid would have 1000000000001 points"),
            (make_disc_grid, (1000, 1000), "disc grid would have 1000001 points"),
        ]
        for factory, args, message in cases:
            tracemalloc.start()
            try:
                with pytest.raises(ResourceLimitError, match=message):
                    factory(*args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20, factory.__name__


class TestMetricInvariants:
    @pytest.mark.parametrize(
        "grid",
        [
            make_interval_grid(7),
            make_circle_grid(9),
            make_disc_grid(3, 8),
            make_box_grid(2, 3),
        ],
        ids=["interval", "circle", "disc", "box"],
    )
    def test_pairwise_positive_and_symmetric(self, grid):
        grid.validate_metric()
        d = grid.pairwise[:]
        assert np.max(np.abs(d - d.T)) == 0.0
        off = d + 10.0 * np.eye(grid.n_points)
        assert off.min() > 0.0

    @pytest.mark.parametrize(
        "grid",
        [
            make_interval_grid(1),
            make_interval_grid(1000),
            make_circle_grid(144),
            make_disc_grid(8, 32),
            make_box_grid(2, 8),
            make_box_grid(4, 3),
            make_custom_space(np.random.default_rng(3).normal(size=(96, 2)) * 1e3),
            make_custom_space(np.random.default_rng(4).normal(size=(40, 5))),
        ],
        ids=lambda g: g.id,
    )
    def test_pairwise_is_cdist_bit_for_bit(self, grid):
        from scipy.spatial.distance import cdist

        want = cdist(grid.coords, grid.coords).view(np.uint64)
        n = grid.n_points
        rows = np.stack([grid.pairwise[i] for i in range(n)])
        assert np.array_equal(rows.view(np.uint64), want)
        for lo, hi in [(0, n), (0, 1), (n // 3, n // 3 + 2), (n - 1, n)]:
            assert np.array_equal(grid.pairwise[lo:hi].view(np.uint64), want[lo:hi])
        farthest = cdist(grid.coords, grid.coords).max(axis=1)
        assert grid.diameter == farthest.max()
        assert grid.least_eccentricity == farthest.min()

    @pytest.mark.parametrize("grid", [make_disc_grid(8, 32), make_box_grid(3, 4)], ids=lambda g: g.id)
    def test_ball_mask_is_the_rows_mask(self, grid):
        # at every distance of the grid and the doubles either side of it
        d = grid.pairwise[:]
        radii = np.unique(d[d > 0])[::7]
        out = np.empty_like(d)
        for r in np.r_[radii, np.nextafter(radii, 0.0), np.nextafter(radii, np.inf), 1e-160]:
            assert np.array_equal(grid.pairwise.within(0, grid.n_points, r, out), d < r)

    def test_rows_count_back_from_the_end(self):
        grid = make_disc_grid(2, 5)
        n = grid.n_points
        assert np.array_equal(grid.pairwise[-1], grid.pairwise[n - 1])
        assert np.array_equal(grid.pairwise[-n], grid.pairwise[0])
        assert np.array_equal(grid.pairwise[-2:], grid.pairwise[n - 2 : n])
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                grid.pairwise[i]
        with pytest.raises(TypeError):
            grid.pairwise[0, 1]

    @pytest.mark.parametrize("entries", [4000, 2**18, 1])
    @pytest.mark.parametrize(
        "make",
        [
            lambda: make_disc_grid(20, 50),
            lambda: make_custom_space(np.random.default_rng(5).normal(size=(300, 3))),
            lambda: make_circle_grid(301),
        ],
        ids=["disc", "custom3d", "circle"],
    )
    def test_extremes_in_blocks_are_cdist_bit_for_bit(self, monkeypatch, entries, make):
        # row groups double while they hold at most BLOCK_ENTRIES entries, so
        # here they stop at 4000 entries, take every row left, or take one
        # row at a time; every row of the 301 circle points has to be
        # visited. A row meets only the rows after it, so its maximum left of
        # the diagonal comes from earlier groups' column maxima
        from scipy.spatial.distance import cdist

        monkeypatch.setattr(space_module, "BLOCK_ENTRIES", entries)
        grid = make()  # a new grid: the pass is cached on it
        farthest = cdist(grid.coords, grid.coords).max(axis=1)
        assert grid.diameter == farthest.max()
        assert grid.least_eccentricity == farthest.min()

    @pytest.mark.parametrize(
        "make", [lambda: make_interval_grid(99), lambda: make_disc_grid(8, 32)], ids=["interval", "disc"]
    )
    def test_a_pass_over_fewer_rows_than_a_block_holds_their_triangle(self, monkeypatch, make):
        # at 2**18 entries one group may take every row of both grids: the
        # pass holds a buffer for n x n entries, the squared gaps of the group
        # it computes (8 bytes per entry each), vectors of the grid's length
        # and numpy's ufunc buffers, not a block of 2**18 entries
        monkeypatch.setattr(space_module, "BLOCK_ENTRIES", 2**18)
        grid = make()
        grid.pairwise
        groups = _count_products(monkeypatch)
        tracemalloc.start()
        try:
            grid.diameter
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = grid.n_points
        assert peak < 8 * n * n + 8 * max(r * c for r, c in groups) + 2**17

    @pytest.mark.parametrize("m", [2048, 2049])
    def test_a_circle_visits_every_row_once_in_groups_of_a_block(self, monkeypatch, m):
        # the worst case: each point's bound reaches the diameter, so every
        # row is visited, once, against the rows after it (each group also
        # meets its own rows below its diagonal). Groups of 1, 1, 2, 4, ...
        # rows hold at most BLOCK_ENTRIES entries, as the blocked pass's
        # blocks of BLOCK_ENTRIES // m rows did, and make no more calls than
        # those blocks, the doubling groups and the row to the centre
        grid = make_circle_grid(m)
        grid.pairwise
        calls = _count_products(monkeypatch)
        grid.diameter, grid.least_eccentricity
        step = space_module.BLOCK_ENTRIES // m
        assert len(calls) <= math.ceil(m / step) + math.ceil(math.log2(step)) + 1
        assert calls[0] == (1, m) and sum(r for r, _ in calls[1:]) == m
        triangle = m * (m + 1) // 2 + sum(r * (r - 1) // 2 for r, _ in calls[1:])
        assert sum(r * c for r, c in calls[1:]) == triangle
        assert max(r * c for r, c in calls) <= space_module.BLOCK_ENTRIES

    def test_a_disc_visits_its_rim_and_centre(self, monkeypatch):
        # 257 points: the 32 rim rows can hold the diameter; the centre then
        # has eccentricity 1, which every other point's distance to a rim
        # point already exceeds
        grid = make_disc_grid(8, 32)
        grid.pairwise
        calls = _count_products(monkeypatch)
        assert (grid.diameter, grid.least_eccentricity) == (2.0, 1.0)
        assert sum(r for r, _ in calls) == 1 + 32 + 1  # the distances to the box centre first

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            make_custom_space([[0.0], [0.5], [0.5]])

    @pytest.mark.parametrize(
        "pts",
        [
            [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5], [0.0, 1.0]],
            [[1.0, 2.0], [1.0, 3.0], [1.0, 2.0]],
            [[0.0, 1.0], [-0.0, 1.0]],
        ],
    )
    def test_duplicate_rows_rejected(self, pts):
        with pytest.raises(ValueError, match="pairwise distinct"):
            make_custom_space(pts)

    def test_underflowing_distance_rejected(self):
        # distinct points whose squared difference underflows to distance 0
        with pytest.raises(ValueError, match="positive distance"):
            make_custom_space([[0.0], [1e-200]])

    def test_tiny_gap_on_one_axis_is_accepted(self):
        # x differs by an underflowing amount, y by 5: the two points' distance rows decide
        grid = make_custom_space([[0.0, 0.0], [1e-200, 5.0]])
        assert grid.pairwise[0][1] == 5.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "pts",
        [[0.0, 1e200, -1e200], [[0.0, 0.0], [1e154, 1e154]], [0.0, 1.7e308, -1.7e308]],
        ids=["square", "sum", "range"],
    )
    def test_overflowing_distance_rejected(self, pts):
        # no n x n work: the box diagonal bounds every distance
        with pytest.raises(ValueError, match="distances overflow"):
            make_custom_space(pts)

    @pytest.mark.filterwarnings("error")
    def test_large_finite_distances_are_accepted(self):
        grid = make_custom_space([0.0, 1e150, -1e150])
        assert np.isfinite(grid.pairwise[:]).all() and grid.diameter > 1e150

    def test_underflowing_pair_apart_in_every_axis_order_is_refused(self):
        # points 0 and 1 are at distance 0.0, and on each axis another
        # point sorts between them
        pts = [[0.0, 0.0], [1e-200, 1e-200], [5e-201, 5.0], [5.0, 5e-201]]
        with pytest.raises(ValueError, match="positive distance"):
            make_custom_space(pts)

    def test_zero_axis_coordinates_are_refused(self):
        with pytest.raises(ValueError, match=r"^coords must have shape \(n_points, dim\)$"):
            make_custom_space([[], []])

    def test_underflowing_distance_rejected_above_pairwise_limit(self):
        # 4097 points: the nearest-neighbour check still sees the pair
        with pytest.raises(ValueError, match="positive distance"):
            make_custom_space(np.r_[0.0, 1e-200, np.arange(1, 4096.0)])

    def test_large_grid_builds_no_distance_matrix(self):
        tracemalloc.start()
        try:
            grid = make_custom_space(np.arange(4096.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.n_points == 4096
        assert peak < 2**25  # the 4096 x 4096 distance matrix alone takes 128 MiB


@st.composite
def grids(draw):
    """Factory grids (box grids of 1 to 4 axes, with their many tied
    distances; circles; discs) and custom grids: clouds and lines (where the
    triangle inequality through the centre is an equality) of 1 to 4 axes
    scaled by 10**k for |k| <= 150, points apart by a normal gap on one axis
    and by subnormal gaps, or gaps with subnormal squares, on another, and
    points whose squared gaps are all a few subnormals."""
    kind = draw(st.sampled_from(["box", "circle", "disc", "cloud", "line", "tiny gaps", "tiny"]))
    if kind == "box":
        p = draw(st.integers(1, 4))
        return make_box_grid(p, draw(st.integers(1, {1: 80, 2: 12, 3: 5, 4: 3}[p])))
    if kind == "circle":
        return make_circle_grid(draw(st.integers(3, 120)))
    if kind == "disc":
        return make_disc_grid(draw(st.integers(1, 5)), draw(st.integers(3, 24)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 60))
    if kind in ("cloud", "line"):
        scale = 10.0 ** draw(st.integers(-150, 150))
        dim = draw(st.integers(1, 4))
        if kind == "cloud":
            return make_custom_space(rng.normal(size=(n, dim)) * scale)
        return make_custom_space((rng.normal(size=(n, 1)) * rng.normal(size=dim) + rng.normal(size=dim)) * scale)
    if kind == "tiny":  # every square is a few subnormals
        steps = rng.choice(200, size=(n, draw(st.integers(1, 2))), replace=False)
        return make_custom_space(steps * draw(st.sampled_from([3e-162, 1e-161])))
    unit = draw(st.sampled_from([5e-324, 1e-310, 1e-162]))
    return make_custom_space(np.column_stack([rng.integers(0, 8, n) * unit, rng.permutation(n) / 4.0]))


@settings(max_examples=200)
@given(grid=grids())
def test_extremes_are_the_blocked_pass_bit_for_bit(grid):
    farthest = farthest_blocked(grid.coords, 2**15)
    assert grid.diameter.hex() == farthest.max().hex()
    assert grid.least_eccentricity.hex() == farthest.min().hex()


@settings(max_examples=200)
@given(grid=grids())
def test_each_row_bound_reaches_the_row_maximum(grid):
    columns = np.ascontiguousarray(grid.coords.T)
    centre = columns.min(axis=1) / 2 + columns.max(axis=1) / 2
    e = np.sqrt(space_module._squared_distances(centre[None], columns)[0])
    order, reach = space_module.rows_by_bound(e, grid.dim, squared=True)
    row_max = space_module._squared_distances(grid.coords[order], columns).max(axis=1)
    assert all(reach(m) > at for at, m in enumerate(row_max))


# entries that tie (-1 twice, the two zeros), order nowhere (NaN) or lie at the ends
_ENTRIES = st.sampled_from([-1.0, -1.0, -0.0, 0.0, 0.5, math.inf, math.nan]) | st.floats()


@st.composite
def point_arrays(draw):
    """Points in every form `distinct_rows` takes: 1-d real or complex
    arrays and rows of 1 to 3 columns, sorted with the first column first,
    shuffled, or with some rows listed again, entries drawn from a pool
    with signed zeros, infinities and NaN."""
    form = draw(st.sampled_from(["real", "complex", 1, 2, 3]))
    width = {"real": 1, "complex": 2}.get(form, form)
    n = draw(st.integers(1, 12))
    rows = np.array(draw(st.lists(st.lists(_ENTRIES, min_size=width, max_size=width), min_size=n, max_size=n)))
    order = draw(st.sampled_from(["sorted", "shuffled", "repeated"]))
    if order == "repeated":
        rows = np.concatenate([rows, rows[draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))]])
    if order == "sorted" or draw(st.booleans()):
        rows = rows[np.lexsort(rows.T[::-1])]
    else:
        rows = rows[draw(st.permutations(range(len(rows))))]
    if form == "real":
        return rows[:, 0]
    if form == "complex":
        return np.ascontiguousarray(rows).view(np.complex128)[:, 0]
    return rows


@settings(max_examples=400, derandomize=True)
@given(points=point_arrays())
def test_distinct_rows_is_the_all_pairs_test(points):
    rows = points.reshape(len(points), -1)
    if np.iscomplexobj(rows):
        rows = np.stack([rows.real, rows.imag], axis=-1).reshape(len(rows), -1)
    # Python compares tuples entry by entry, so NaN breaks the order
    rows = [tuple(row) for row in rows.tolist()]
    increasing = all(a < b for a, b in zip(rows, rows[1:]))
    with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
        assert distinct_rows(points) is distinct_rows_loop(points)
    assert lexsort.call_count == (0 if increasing else 1)


class TestGenerators:
    @pytest.mark.parametrize(
        "grid, count",
        [
            (make_interval_grid(7), 1),
            (make_circle_grid(9), 2),
            (make_disc_grid(3, 8), 2),
            (make_box_grid(3, 2), 5),
        ],
        ids=["interval", "circle", "disc", "box"],
    )
    def test_factory_generators_are_isometries(self, grid, count):
        assert len(grid.generators) == count
        d = grid.pairwise[:]
        for g in grid.generators:
            assert sorted(g) == list(range(grid.n_points))
            assert np.max(np.abs(d[g][:, g] - d)) <= 1e-12

    def test_box_generators_move_digits(self):
        grid = make_box_grid(2, 2)  # point 3*a + b is (a/2, b/2)
        reflect_first, reflect_second, swap = (g.tolist() for g in grid.generators)
        assert reflect_first == [6, 7, 8, 3, 4, 5, 0, 1, 2]
        assert reflect_second == [2, 1, 0, 5, 4, 3, 8, 7, 6]
        assert swap == [0, 3, 6, 1, 4, 7, 2, 5, 8]

    def test_custom_grids_carry_none(self):
        assert make_custom_space([0.0, 0.5, 1.0]).generators == ()

    @pytest.mark.parametrize(
        "g",
        [[0, 0, 1], [0, 1], [0, 1, 3], [2, 1, -1], [0.0, 2.0, 1.0]],
        ids=["repeat", "short", "range", "negative", "float"],
    )
    def test_non_permutation_rejected(self, g):
        with pytest.raises(ValueError, match="permutation"):
            CompactSpace(
                id="t", field=Field.REAL, kind=SpaceKind.CUSTOM, coords=[0.0, 0.5, 1.0], generators=(g,)
            )


class TestRefinement:
    def test_interval_refinement_superset(self):
        coarse = set(make_interval_grid(5).coords[:, 0])
        fine = set(make_interval_grid(10).coords[:, 0])
        assert coarse <= fine

    def test_box_refinement_superset(self):
        coarse = {tuple(r) for r in make_box_grid(2, 2).coords}
        fine = {tuple(r) for r in make_box_grid(2, 4).coords}
        assert coarse <= fine


class TestOpenBall:
    def test_interval_ball(self):
        g = make_interval_grid(4)
        ball = open_ball(g, 2, 0.3)
        assert [g.coords[i, 0] for i in ball] == [0.25, 0.5, 0.75]

    def test_ball_contains_center(self):
        g = make_circle_grid(8)
        assert 3 in open_ball(g, 3, 1e-6)

    def test_huge_radius_gives_everything(self):
        g = make_interval_grid(6)
        assert len(open_ball(g, 0, 10.0)) == g.n_points

    def test_partition_with_complement(self):
        g = make_disc_grid(2, 6)
        ball = open_ball(g, 0, 0.7)
        inside = np.isin(np.arange(g.n_points), ball.indices)
        d = g.pairwise[0]
        assert inside.any() and not inside.all()
        assert np.all(d[inside] < 0.7) and np.all(d[~inside] >= 0.7)

    def test_bad_arguments(self):
        g = make_interval_grid(4)
        with pytest.raises(ValueError):
            open_ball(g, 99, 0.1)
        with pytest.raises(ValueError):
            open_ball(g, 0, 0.0)


class TestPointSet:
    def test_duplicates_rejected(self):
        g = make_interval_grid(4)
        with pytest.raises(ValueError):
            PointSet(g, (1, 1, 2))

    def test_out_of_range_rejected(self):
        g = make_interval_grid(4)
        with pytest.raises(ValueError):
            PointSet(g, (0, 17))


class TestCustomSpace:
    def test_complex_points(self):
        g = make_custom_space([1 + 0j, -1 + 0j, 1j], field=Field.COMPLEX)
        assert g.field is Field.COMPLEX
        assert g.kind is SpaceKind.CUSTOM
        assert g.pairwise[0][1] == pytest.approx(2.0)

    def test_complex_from_coordinate_pairs(self):
        g = make_custom_space([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]], field=Field.COMPLEX)
        np.testing.assert_allclose(g.complex_points, [1, 1j, -1])

    def test_complex_grid_needs_2d_coordinates(self):
        with pytest.raises(ValueError, match="2-d coordinates"):
            CompactSpace(id="t", field=Field.COMPLEX, kind=SpaceKind.CUSTOM, coords=[0.0, 1.0])

    def test_bad_complex_shape(self):
        with pytest.raises(ValueError):
            make_custom_space([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], field=Field.COMPLEX)


class TestComplexPoints:
    """A complex grid's points are a view of its coordinates, bit for bit."""

    @staticmethod
    def same_bits(grid, expected):
        cp = grid.complex_points
        assert not cp.flags.writeable
        assert np.shares_memory(cp, grid.coords)
        assert np.array_equal(cp.view(np.uint64), np.asarray(expected, dtype=complex).view(np.uint64))

    @pytest.mark.parametrize(
        "grid",
        [make_circle_grid(m) for m in (3, 7, 64, 1000)] + [make_disc_grid(r, k) for r, k in ((1, 3), (8, 32), (16, 64))],
        ids=lambda g: g.id,
    )
    def test_factory_grids(self, grid):
        self.same_bits(grid, grid.coords[:, 0] + 1j * grid.coords[:, 1])

    def test_signed_zeros_from_scalars(self):
        pts = np.array([complex(-0.0, -0.0), complex(1.0, -0.0), complex(-0.0, 1.0), complex(-1.0, 0.0)])
        self.same_bits(make_custom_space(pts), pts)

    def test_signed_zeros_from_pairs(self):
        pairs = np.array([[-0.0, -0.0], [1.0, -0.0], [-0.0, 1.0]])
        grid = make_custom_space(pairs, field=Field.COMPLEX)
        # the coordinates are the parts of x + 1j*y, which drops signed zeros
        self.same_bits(grid, pairs[:, 0] + 1j * pairs[:, 1])
        assert np.array_equal(grid.coords, np.column_stack([grid.complex_points.real, grid.complex_points.imag]))

    def test_real_grids_have_none(self):
        with pytest.raises(AttributeError):
            make_interval_grid(3).complex_points
