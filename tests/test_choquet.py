import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from korovkinlab import (
    ChoquetParams,
    Classification,
    FunctionSpan,
    PointSet,
    estimate_choquet_boundary,
    find_peak_function,
    is_boundary_for,
    lemma_b_feasible,
    lemma_b_scan,
    make_circle_grid,
    make_custom_space,
    make_disc_grid,
    make_interval_grid,
    named_function,
    open_ball,
    verify_lemma_b_certificate,
    verify_peak_certificate,
)
from korovkinlab.functions import ScalarFunction
from korovkinlab.space import Field

from oracles import affine_lemma_scan, affine_peak_scan

INTERVAL = make_interval_grid(100)
QUAD_SPAN = FunctionSpan(tuple(named_function(n, INTERVAL) for n in ("const1", "x", "x^2")))


class TestFindPeakFunction:
    def test_quadratic_span_peaks_at_midpoint(self):
        cert = find_peak_function(QUAD_SPAN, 50, 0.1)
        assert cert is not None
        assert cert.margin >= 1e-6
        ok, why = verify_peak_certificate(QUAD_SPAN, cert)
        assert ok, why

    def test_reference_quadratic_is_feasible(self):
        # h(x) = 1 - (x - 1/2)^2 pins the midpoint and loses (distance)^2 elsewhere
        xs = INTERVAL.coords[:, 0]
        h = 1.0 - (xs - 0.5) ** 2
        assert h[50] == 1.0
        far = np.abs(xs - 0.5) >= 0.05
        assert np.max(np.abs(h[far])) <= 1.0 - 0.0025
        assert np.max(np.abs(h)) <= 1.0

    def test_circle_affine_peak(self):
        g = make_circle_grid(64)
        span = FunctionSpan((named_function("const1", g), named_function("z", g)))
        cert = find_peak_function(span, 0, 0.2)
        assert cert is not None
        ok, why = verify_peak_certificate(span, cert)
        assert ok, why

    def test_reference_circle_function_is_feasible(self):
        # h(z) = (z + z0)/2 at z0 = 1
        g = make_circle_grid(64)
        z = g.complex_points
        h = (z + 1.0) / 2.0
        assert abs(h[0] - 1.0) <= 1e-15
        d = g.pairwise[0]
        far = d >= 0.2
        assert np.max(np.abs(h[far])) < 1.0
        assert np.max(np.abs(h)) <= 1.0 + 1e-15

    def test_disc_center_has_no_affine_peak(self):
        g = make_disc_grid(4, 16)
        span = FunctionSpan((named_function("const1", g), named_function("z", g)))
        assert find_peak_function(span, 0, 0.2) is None
        assert not affine_peak_scan(g, 0, 0.2, 1e-6)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            find_peak_function(QUAD_SPAN, 50, 0.0)
        not_unital = FunctionSpan((named_function("x", INTERVAL),))
        with pytest.raises(ValueError):
            find_peak_function(not_unital, 50, 0.1)


class TestLemmaBFeasible:
    def test_left_endpoint_separated(self):
        span = FunctionSpan((named_function("const1", INTERVAL), named_function("x", INTERVAL)))
        u = open_ball(INTERVAL, 0, 0.25)
        cert = lemma_b_feasible(span, 0, 0.1, 1.0, u)
        assert cert is not None
        ok, why = verify_lemma_b_certificate(span, cert)
        assert ok, why

    def test_reference_function_for_left_endpoint(self):
        # f(x) = -4x: nonpositive, 0 at x0=0, and <= -1 for x >= 1/4
        xs = INTERVAL.coords[:, 0]
        f = -4.0 * xs
        assert f.max() <= 0.0
        assert f[0] > -0.1
        assert np.max(f[xs >= 0.25]) <= -1.0

    def test_interior_point_infeasible_for_affine_span(self):
        span = FunctionSpan((named_function("const1", INTERVAL), named_function("x", INTERVAL)))
        u = open_ball(INTERVAL, 50, 0.1)
        cert = lemma_b_feasible(span, 50, 0.01, 1.0, u)
        assert cert is None
        assert not affine_lemma_scan(
            INTERVAL.coords[:, 0], 50, 0.01, 1.0, u.mask()
        )

    def test_full_neighborhood_is_vacuous(self):
        span = FunctionSpan((named_function("const1", INTERVAL), named_function("x", INTERVAL)))
        u = PointSet(INTERVAL, tuple(range(INTERVAL.n_points)))
        cert = lemma_b_feasible(span, 17, 0.05, 2.0, u)
        assert cert is not None

    def test_complex_span(self):
        g = make_circle_grid(32)
        span = FunctionSpan((named_function("const1", g), named_function("z", g)))
        u = open_ball(g, 0, 0.5)
        cert = lemma_b_feasible(span, 0, 0.1, 1.0, u)
        assert cert is not None
        ok, why = verify_lemma_b_certificate(span, cert)
        assert ok, why

    def test_argument_validation(self):
        span = FunctionSpan((named_function("const1", INTERVAL), named_function("x", INTERVAL)))
        u = open_ball(INTERVAL, 0, 0.25)
        with pytest.raises(ValueError):
            lemma_b_feasible(span, 0, 1.0, 0.5, u)  # alpha >= beta
        with pytest.raises(ValueError):
            lemma_b_feasible(span, 90, 0.1, 1.0, u)  # x0 not in U

    def test_sampled_scan_detects_endpoint_not_interior(self):
        span = FunctionSpan((named_function("const1", INTERVAL), named_function("x", INTERVAL)))
        cert = lemma_b_scan(span, 0)
        assert cert is not None
        assert verify_lemma_b_certificate(span, cert)[0]
        assert lemma_b_scan(span, 50) is None  # affine span has no interior witnesses


SMALL_INTERVAL = make_interval_grid(30)
SMALL_QUAD = FunctionSpan(
    tuple(named_function(n, SMALL_INTERVAL) for n in ("const1", "x", "x^2"))
)


class TestEstimateChoquetBoundary:
    def test_quadratic_span_detects_everything(self):
        est = estimate_choquet_boundary(SMALL_QUAD)
        assert est.counts() == {"Boundary": 31, "NotDetected": 0, "Indeterminate": 0}
        assert all(p.certificate.margin >= 1e-6 for p in est.points)

    def test_classifications_cover_grid_once(self):
        est = estimate_choquet_boundary(SMALL_QUAD)
        assert [p.index for p in est.points] == list(range(31))

    def test_scaling_invariance(self):
        scaled = FunctionSpan(
            tuple(
                ScalarFunction(SMALL_INTERVAL, lambda x, _f=f: 3.7 * _f.rule(x), name=f.name)
                for f in SMALL_QUAD.basis
            )
        )
        est = estimate_choquet_boundary(SMALL_QUAD)
        est_scaled = estimate_choquet_boundary(scaled)
        labels = [p.label for p in est.points]
        labels_scaled = [p.label for p in est_scaled.points]
        assert labels == labels_scaled

    def test_peak_implies_separation_certificate(self):
        est = estimate_choquet_boundary(SMALL_QUAD)
        for p in est.points[::6]:
            assert p.label is Classification.BOUNDARY
            u = open_ball(SMALL_INTERVAL, p.index, p.certificate.radius)
            cert = lemma_b_feasible(SMALL_QUAD, p.index, 0.1, 1.0, u)
            assert cert is not None

    def test_disc_affine_span_detects_only_rim(self):
        g = make_disc_grid(3, 8)
        span = FunctionSpan((named_function("const1", g), named_function("z", g)))
        est = estimate_choquet_boundary(span)
        rim = {i for i in range(g.n_points) if g.boundary_mask[i]}
        detected = set(est.boundary_point_set().indices)
        assert detected == rim
        for p in est.points:
            if p.label is Classification.NOT_DETECTED:
                assert p.best_delta < 1e-6  # solver-certified rejection evidence

    def test_rejects_unsuitable_spans(self):
        with pytest.raises(ValueError):
            estimate_choquet_boundary(FunctionSpan((named_function("x", SMALL_INTERVAL),)))
        with pytest.raises(ValueError):
            estimate_choquet_boundary(FunctionSpan((named_function("const1", SMALL_INTERVAL),)))

    def test_solver_failures_mark_points_indeterminate(self, monkeypatch):
        import korovkinlab.choquet as choquet_mod
        from korovkinlab.errors import SolverError

        real_search = choquet_mod._peak_search

        def flaky(span, x0, r, *args, **kwargs):
            if x0 == 3:
                raise SolverError("synthetic backend failure")
            return real_search(span, x0, r, *args, **kwargs)

        monkeypatch.setattr(choquet_mod, "_peak_search", flaky)
        est = estimate_choquet_boundary(SMALL_QUAD)
        assert est.points[3].label is Classification.INDETERMINATE
        assert "synthetic backend failure" in est.points[3].note
        others = [p.label for p in est.points if p.index != 3]
        assert all(lbl is Classification.BOUNDARY for lbl in others)


# eight points of a seeded cloud in the unit disc, without symmetry; point 1
# at radius 0.4 needs more than 16 exact-phase cutting-plane rounds
STALL_CLOUD = make_custom_space(
    [
        0.2696 - 0.8911j,
        0.2126 - 0.8335j,
        -0.132 - 0.6267j,
        -0.1046 + 0.1557j,
        -0.1726 + 0.2827j,
        0.7061 - 0.7082j,
        0.6957 + 0.7183j,
        -0.8609 - 0.5088j,
    ],
    space_id="cloud8",
)


class TestWorkingSetLoop:
    def test_cloud_point_is_certified_not_indeterminate(self):
        basis = ("const1", "z", "zbar", "|z|^2")
        span = FunctionSpan(tuple(named_function(n, STALL_CLOUD) for n in basis))
        est = estimate_choquet_boundary(span, ChoquetParams(radius=0.4))
        assert est.counts() == {"Boundary": 8, "NotDetected": 0, "Indeterminate": 0}
        for p in est.points:
            ok, why = verify_peak_certificate(span, p.certificate)
            assert ok, why

    @pytest.mark.parametrize("basis", [("const1", "z"), ("const1", "z", "zbar", "|z|^2")])
    def test_labels_do_not_depend_on_directions(self, basis, monkeypatch):
        import korovkinlab.choquet as choquet_mod

        g = make_disc_grid(3, 8)
        span = FunctionSpan(tuple(named_function(n, g) for n in basis))
        labels = []
        for k in (4, 16, 32):
            monkeypatch.setattr(choquet_mod, "_START_PHASES", k)
            est = estimate_choquet_boundary(span)
            labels.append([p.label for p in est.points])
        assert labels[0] == labels[1] == labels[2]

    def test_small_real_grid_solves_one_lp_per_search(self, monkeypatch):
        import korovkinlab.choquet as choquet_mod

        counts = {"lp": 0, "search": 0}
        real_solve, real_search = choquet_mod._solve, choquet_mod._peak_search

        def solve(*args, **kwargs):
            counts["lp"] += 1
            return real_solve(*args, **kwargs)

        def search(*args, **kwargs):
            counts["search"] += 1
            return real_search(*args, **kwargs)

        monkeypatch.setattr(choquet_mod, "_solve", solve)
        monkeypatch.setattr(choquet_mod, "_peak_search", search)
        est = estimate_choquet_boundary(QUAD_SPAN)  # 101 points
        assert est.counts()["Boundary"] == 101
        assert counts["search"] > 0 and counts["lp"] == counts["search"]


class TestOrbitScan:
    def test_disc_preset_solves_one_point_per_orbit(self, monkeypatch):
        import korovkinlab.choquet as choquet_mod
        from korovkinlab.config import build_spaces, build_spans
        from korovkinlab.presets import get_preset

        cfg = get_preset("example43_disc")
        span = build_spans(cfg, build_spaces(cfg))["hermitian"]
        calls = []
        real_linprog = choquet_mod.linprog

        def counting_linprog(*args, **kwargs):
            calls.append(1)
            return real_linprog(*args, **kwargs)

        monkeypatch.setattr(choquet_mod, "linprog", counting_linprog)
        est = estimate_choquet_boundary(span)
        assert est.counts() == {"Boundary": 257, "NotDetected": 0, "Indeterminate": 0}
        assert len(calls) <= 40
        assert len({p.source for p in est.points}) == 9  # the center and 8 rings


class TestIsBoundaryFor:
    def test_whole_grid_is_a_boundary(self):
        ok, ratio = is_boundary_for(
            SMALL_QUAD, PointSet(SMALL_INTERVAL, tuple(range(31))), SMALL_QUAD.basis
        )
        assert ok
        assert ratio == pytest.approx(1.0)

    def test_endpoints_suffice_for_affine_span(self):
        span = FunctionSpan(
            (named_function("const1", SMALL_INTERVAL), named_function("x", SMALL_INTERVAL))
        )
        ok, ratio = is_boundary_for(span, PointSet(SMALL_INTERVAL, (0, 30)), span.basis)
        assert ok

    def test_interior_fails_for_even_span(self):
        g = make_custom_space([-1.0, -0.5, 0.0, 0.5, 1.0], space_id="sym5")
        one = ScalarFunction(g, lambda x: 1.0, name="1")
        sq = ScalarFunction(g, lambda x: x**2, name="x^2")
        span = FunctionSpan((one, sq))
        ok, ratio = is_boundary_for(span, PointSet(g, (1, 2, 3)), [sq])
        assert not ok
        assert ratio == pytest.approx(0.25)

    def test_probe_must_be_in_span(self):
        outside = named_function("x^3", SMALL_INTERVAL)
        with pytest.raises(ValueError):
            is_boundary_for(SMALL_QUAD, PointSet(SMALL_INTERVAL, (0,)), [outside])

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            is_boundary_for(SMALL_QUAD, PointSet(SMALL_INTERVAL, ()), SMALL_QUAD.basis)


class TestBoundaryFromEstimate:
    def test_disc_affine_boundary_carries_span_maxima(self):
        g = make_disc_grid(3, 8)
        span = FunctionSpan((named_function("const1", g), named_function("z", g)))
        est = estimate_choquet_boundary(span)
        ok, ratio = is_boundary_for(span, est.boundary_point_set(), span.basis)
        assert ok, f"worst ratio {ratio}"

    def test_interval_quadratic_boundary_carries_span_maxima(self):
        est = estimate_choquet_boundary(SMALL_QUAD)
        ok, _ = is_boundary_for(SMALL_QUAD, est.boundary_point_set(), SMALL_QUAD.basis)
        assert ok

    def test_disc_full_span_boundary_carries_span_maxima(self):
        g = make_disc_grid(3, 8)
        span = FunctionSpan(
            tuple(named_function(n, g) for n in ("const1", "z", "zbar", "|z|^2"))
        )
        est = estimate_choquet_boundary(span)
        ok, _ = is_boundary_for(span, est.boundary_point_set(), span.basis)
        assert ok


class TestChoquetParams:
    def test_default_radius_is_a_fifth_of_the_diameter(self):
        params = ChoquetParams()
        assert params.scan_radius(INTERVAL) == pytest.approx(0.2)
        disc = make_disc_grid(2, 8)
        assert params.scan_radius(disc) == pytest.approx(0.4)

    def test_explicit_radius_wins(self):
        params = ChoquetParams(radius=0.3)
        assert params.scan_radius(INTERVAL) == 0.3
        assert estimate_choquet_boundary(SMALL_QUAD, params).radius == 0.3


# coordinates of random custom grids: a coarse lattice keeps every hull
# vertex's margin well above the threshold
_LATTICE = [k / 4 for k in range(-4, 5)]
_BASE = {
    "real1": ("const1", "x"),
    "real2": ("const1", "coord 1", "coord 2"),
    "complex": ("const1", "z"),
}
_MORE = {
    "real1": [(), ("x^2",), ("x^3",), ("x^2", "x^3")],
    "real2": [(), ("sum_sq",), ("coord 1^2", "coord 2^2")],
    "complex": [(), ("zbar",), ("zbar", "|z|^2")],
}


@st.composite
def custom_scans(draw):
    """Points of a custom grid of at most 24 lattice points (real 1-d, real
    2-d or complex), a unital separating catalog span on it, and a
    permutation of the points."""
    kind = draw(st.sampled_from(sorted(_BASE)))
    coord = st.sampled_from(_LATTICE)
    if kind == "real1":
        pts = draw(st.lists(coord, min_size=3, max_size=len(_LATTICE), unique=True))
    else:
        pts = draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=24, unique=True))
    field = Field.COMPLEX if kind == "complex" else Field.REAL
    basis = _BASE[kind] + draw(st.sampled_from(_MORE[kind]))
    return pts, field, basis, draw(st.permutations(range(len(pts))))


def _scan(pts, field, basis):
    grid = make_custom_space(pts, field=field)
    span = FunctionSpan(tuple(named_function(n, grid) for n in basis))
    assert span.unital and span.separating
    return span, estimate_choquet_boundary(span)


@settings(max_examples=20)
@given(case=custom_scans())
def test_random_custom_grid_scans(case):
    """Certificates re-verify at the scan radius, a NotDetected point has no
    peak at smaller radii either, and the labels follow a permutation of
    the grid."""
    pts, field, basis, perm = case
    span, est = _scan(pts, field, basis)
    assert est.counts()["Indeterminate"] == 0
    for p in est.points:
        if p.label is Classification.BOUNDARY:
            assert p.certificate.radius == est.radius
            ok, why = verify_peak_certificate(span, p.certificate)
            assert ok, why
        else:
            for r in (est.radius / 2, est.radius / 4):
                assert find_peak_function(span, p.index, r) is None
    _, est_perm = _scan([pts[j] for j in perm], field, basis)
    assert [p.label for p in est_perm.points] == [est.points[j].label for j in perm]
