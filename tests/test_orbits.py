"""Orbit scans: one peak search per orbit of the grid symmetries that keep
the span, with Boundary verdicts moved along each orbit and re-verified."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import korovkinlab.choquet as choquet
from korovkinlab import (
    Classification,
    CompactSpace,
    Field,
    FunctionSpan,
    ScalarFunction,
    SpaceKind,
    estimate_choquet_boundary,
    make_box_grid,
    make_circle_grid,
    make_custom_space,
    make_disc_grid,
    make_interval_grid,
    named_function,
    verify_peak_certificate,
)
from korovkinlab.functions import MEMBERSHIP_TOL

# catalog spans per grid type; some are invariant under every candidate
# symmetry, some under a part of them, and some under none
SPANS = {
    "interval": (
        ("const1", "x"),
        ("const1", "x", "x^2"),
        ("const1", "x", "x^3"),
        ("const1", "x", "abs(x-1/2)"),
    ),
    "circle": (("const1", "z"), ("const1", "z", "zbar"), ("const1", "cos", "sin")),
    "disc": (("const1", "z"), ("const1", "z", "zbar", "|z|^2"), ("const1", "z", "|z|^2")),
    "box": (
        ("const1", "coord 1", "coord 2"),
        ("const1", "coord 1", "coord 2", "coord 1^2", "coord 2^2"),
        ("const1", "coord 1", "coord 2", "prod_coords"),
        ("const1", "coord 1", "coord 2", "coord 1^2"),
    ),
}
GRIDS = st.one_of(
    st.tuples(st.just("interval"), st.integers(2, 12).map(make_interval_grid)),
    st.tuples(st.just("circle"), st.integers(3, 12).map(make_circle_grid)),
    st.tuples(
        st.just("disc"),
        st.tuples(st.integers(1, 2), st.integers(3, 8)).map(lambda a: make_disc_grid(*a)),
    ),
    st.tuples(st.just("box"), st.integers(1, 3).map(lambda m: make_box_grid(2, m))),
)


@st.composite
def grid_spans(draw):
    kind, grid = draw(GRIDS)
    basis = draw(st.sampled_from(SPANS[kind]))
    return FunctionSpan(tuple(named_function(n, grid) for n in basis))


def same_points_without_symmetry(span: FunctionSpan) -> FunctionSpan:
    grid = span.space
    pts = grid.complex_points if grid.field is Field.COMPLEX else grid.coords
    bare = make_custom_space(pts, field=grid.field)
    return FunctionSpan(tuple(ScalarFunction(bare, f.rule, name=f.name) for f in span.basis))


@settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow])
@given(grid_spans())
def test_orbit_scan_matches_full_scan(span):
    est = estimate_choquet_boundary(span)
    full = estimate_choquet_boundary(same_points_without_symmetry(span))
    assert [p.label for p in est.points] == [p.label for p in full.points]
    assert all(p.source == p.index for p in full.points)

    moves = choquet._accepted_generators(span)
    boundary = set(est.boundary_point_set().indices)
    b_mat = span.value_matrix
    for g, m in moves:
        assert {int(g[i]) for i in boundary} == boundary
        # m moves coefficients: the basis composed with g^-1 is B m
        assert np.max(np.abs(b_mat[np.argsort(g)] - b_mat @ m)) <= MEMBERSHIP_TOL
    for p in est.points:
        if p.label is Classification.BOUNDARY:
            ok, why = verify_peak_certificate(span, p.certificate)
            assert ok, why
            assert p.certificate.x0 == p.index
        else:
            assert p.source == p.index  # a rejection is never moved
    if not moves:
        assert all(p.source == p.index for p in est.points)


class TestAcceptedGenerators:
    def test_invariant_span_keeps_the_reflection(self):
        grid = make_interval_grid(10)
        span = FunctionSpan(tuple(named_function(n, grid) for n in ("const1", "x", "x^2")))
        assert len(choquet._accepted_generators(span)) == 1

    def test_span_not_invariant_under_reflection(self):
        # x^3 composed with x -> 1 - x is not in {1, x, x^3}
        grid = make_interval_grid(10)
        span = FunctionSpan(tuple(named_function(n, grid) for n in ("const1", "x", "x^3")))
        assert choquet._accepted_generators(span) == []
        est = estimate_choquet_boundary(span)
        assert all(p.source == p.index for p in est.points)

    def test_analytic_span_keeps_rotation_not_conjugation(self):
        grid = make_disc_grid(2, 8)
        span = FunctionSpan((named_function("const1", grid), named_function("z", grid)))
        rotate, _ = grid.generators
        moves = choquet._accepted_generators(span)
        assert len(moves) == 1 and np.array_equal(moves[0][0], rotate)

    def test_a_shift_that_is_not_an_isometry_is_kept(self):
        # every function on 7 points lies in the span of x^0..x^6, so the
        # cyclic shift k -> k + 1 is kept; it breaks distances, so a moved
        # certificate has its own margin, but it is re-verified where it
        # lands and the labels are those of a scan without symmetries
        shift = (np.arange(7) + 1) % 7
        grid = CompactSpace(
            id="interval7",
            field=Field.REAL,
            kind=SpaceKind.CUSTOM,
            coords=np.arange(7.0) / 6,
            generators=(shift,),
        )
        span = FunctionSpan(
            tuple(
                ScalarFunction(grid, lambda x, k=k: np.asarray(x, dtype=float) ** k, name=f"x^{k}")
                for k in range(7)
            )
        )
        assert all(span.contains_values(col) for col in span.value_matrix[shift].T)
        moves = choquet._accepted_generators(span)
        assert len(moves) == 1 and np.array_equal(moves[0][0], shift)
        est = estimate_choquet_boundary(span)
        full = estimate_choquet_boundary(same_points_without_symmetry(span))
        assert [p.label for p in est.points] == [p.label for p in full.points]
        assert any(p.source != p.index for p in est.points)
        for p in est.points:
            if p.label is Classification.BOUNDARY:
                ok, why = verify_peak_certificate(span, p.certificate)
                assert ok, why

    @pytest.mark.parametrize(
        "grid",
        [
            make_interval_grid(10),
            make_circle_grid(12),
            make_disc_grid(3, 8),
            make_box_grid(2, 4),
            make_box_grid(3, 2),
        ],
        ids=["interval10", "circle12", "disc3x8", "box2x4", "box3x2"],
    )
    def test_factory_symmetries_are_isometries(self, grid):
        # a scan keeps a symmetry for its span alone; margins stay constant
        # on an orbit because every factory symmetry preserves distances
        d = grid.pairwise[:]
        assert grid.generators
        for g in grid.generators:
            assert np.max(np.abs(d[np.ix_(g, g)] - d)) <= 1e-12


class TestMovedVerdicts:
    def test_failed_move_falls_back_to_a_direct_scan(self, monkeypatch):
        grid = make_interval_grid(10)
        span = FunctionSpan(tuple(named_function(n, grid) for n in ("const1", "x", "x^2")))
        real_verify = choquet.verify_peak_certificate
        refused = set()

        def refuse_moves(span_, cert, *args, **kwargs):
            # the first certificate each point of the reflected half sees is
            # the one moved to it; refuse that one only
            if cert.x0 > 5 and cert.x0 not in refused:
                refused.add(cert.x0)
                return False, "refused"
            return real_verify(span_, cert, *args, **kwargs)

        monkeypatch.setattr(choquet, "verify_peak_certificate", refuse_moves)
        real_move = choquet._move_verdict
        moved = []

        def counting_move(*args, **kwargs):
            out = real_move(*args, **kwargs)
            moved.append(out)
            return out

        monkeypatch.setattr(choquet, "_move_verdict", counting_move)
        searches = []
        real_search = choquet._peak_search

        def counting_search(span_, x0, *args, **kwargs):
            searches.append(x0)
            return real_search(span_, x0, *args, **kwargs)

        monkeypatch.setattr(choquet, "_peak_search", counting_search)
        est = estimate_choquet_boundary(span)
        assert len(moved) == 5 and all(m is None for m in moved)
        assert set(range(11)) <= set(searches)
        assert [p.source for p in est.points] == list(range(11))
        assert est.counts()["Boundary"] == 11

    def test_rejected_representative_is_not_moved(self):
        # {1, z} on the disc: inner rings are rejected, and every rejected
        # point carries its own relaxation optimum
        grid = make_disc_grid(3, 8)
        span = FunctionSpan((named_function("const1", grid), named_function("z", grid)))
        est = estimate_choquet_boundary(span)
        for p in est.points:
            if p.label is Classification.NOT_DETECTED:
                assert p.source == p.index and p.best_delta < choquet.DELTA_MIN
            else:
                assert grid.boundary_mask[p.index]
        assert {p.source for p in est.points if p.label is Classification.BOUNDARY} == {17}
