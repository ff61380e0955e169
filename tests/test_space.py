import tracemalloc

import numpy as np
import pytest

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
from korovkinlab.space import DEFAULT_POINT_CAP


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
        assert g.distance(0, 2) == pytest.approx(2.0, abs=1e-15)

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
        box = make_box_grid(1, 4)
        interval = make_interval_grid(4)
        np.testing.assert_allclose(np.sort(box.coords[:, 0]), interval.coords[:, 0])

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
        d = grid.pairwise
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

        want = cdist(grid.coords, grid.coords)
        assert np.array_equal(grid.pairwise.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("entries, columns", [(4000, 64), (2**18, 7), (1, 1)])
    def test_pairwise_in_strips_is_cdist_bit_for_bit(self, monkeypatch, entries, columns):
        # the grids above fit one block; here blocks of 3, 261 and 1 rows
        # fill strips of 64, 261 and 1 columns of the 1001 points, the first
        # two with a narrower last strip
        from scipy.spatial.distance import cdist

        monkeypatch.setattr(space_module, "BLOCK_ENTRIES", entries)
        monkeypatch.setattr(space_module, "MIRROR_COLUMNS", columns)
        grid = make_disc_grid(20, 50)
        want = cdist(grid.coords, grid.coords)
        assert np.array_equal(grid.pairwise.view(np.uint64), want.view(np.uint64))

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
        # x differs by an underflowing amount, y by 5: the k-d tree decides
        grid = make_custom_space([[0.0, 0.0], [1e-200, 5.0]])
        assert grid.pairwise[0, 1] == 5.0

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
        assert np.isfinite(grid.pairwise).all() and grid.diameter > 1e150

    def test_underflowing_pair_apart_in_every_axis_order_is_refused(self):
        # points 0 and 1 are at distance 0.0, and on each axis another
        # point sorts between them
        pts = [[0.0, 0.0], [1e-200, 1e-200], [5e-201, 5.0], [5.0, 5e-201]]
        with pytest.raises(ValueError, match="positive distance"):
            make_custom_space(pts)

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
        d = grid.pairwise
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
        "g", [[0, 0, 1], [0, 1], [0, 1, 3], [0.0, 2.0, 1.0]], ids=["repeat", "short", "range", "float"]
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
        comp = ball.complement()
        assert set(ball) | set(comp) == set(range(g.n_points))
        assert set(ball) & set(comp) == set()

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

    def test_mask_roundtrip(self):
        g = make_interval_grid(4)
        s = PointSet(g, (0, 3))
        assert list(np.nonzero(s.mask())[0]) == [0, 3]


class TestCustomSpace:
    def test_complex_points(self):
        g = make_custom_space([1 + 0j, -1 + 0j, 1j], field=Field.COMPLEX)
        assert g.field is Field.COMPLEX
        assert g.kind is SpaceKind.CUSTOM
        assert g.distance(0, 1) == pytest.approx(2.0)

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
