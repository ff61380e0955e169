import dataclasses
import inspect
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from korovkinlab import (
    Classification,
    FunctionSpan,
    KernelOperator,
    PeakCertificate,
    PointSet,
    estimate_choquet_boundary,
    lemma_b_feasible,
    make_box_grid,
    make_circle_grid,
    make_custom_space,
    make_disc_grid,
    make_interval_grid,
    named_function,
    open_ball,
    scan_radius,
    verify_lemma_b_certificate,
    verify_peak_certificate,
)
from korovkinlab.choquet import PEAK_TOL, _lp_coeffs, _lp_rows, _peak_search
from korovkinlab.functions import ScalarFunction
from korovkinlab.space import BLOCK_ENTRIES, Field

from oracles import affine_lemma_scan, affine_peak_scan

INTERVAL = make_interval_grid(100)
QUAD_SPAN = FunctionSpan(tuple(named_function(n, INTERVAL) for n in ("const1", "x", "x^2")))


class TestFindPeakFunction:
    def test_quadratic_span_peaks_at_midpoint(self):
        cert, _ = _peak_search(QUAD_SPAN, 50, 0.1)
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
        cert, _ = _peak_search(span, 0, 0.2)
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
        assert _peak_search(span, 0, 0.2)[0] is None
        assert not affine_peak_scan(g, 0, 0.2, 1e-6)

    def test_preconditions(self):
        # checked once per scan, before any point's peak search
        with pytest.raises(ValueError, match="radius 0.0"):
            estimate_choquet_boundary(QUAD_SPAN, 0.0)
        not_unital = FunctionSpan((named_function("x", INTERVAL),))
        with pytest.raises(ValueError, match="unital"):
            estimate_choquet_boundary(not_unital, 0.1)


class TestVerifyRefusals:
    CERT = _peak_search(QUAD_SPAN, 50, 0.1)[0]

    def test_a_margin_of_zero_is_refused(self):
        ok, why = verify_peak_certificate(QUAD_SPAN, dataclasses.replace(self.CERT, margin=0.0))
        assert not ok and why == "margin 0.0 is not positive"

    def test_an_overstated_margin_is_refused(self):
        # the certificate's margin is exact, so raising it by more than
        # PEAK_TOL leaves the far modulus above 1 - margin
        raised = dataclasses.replace(self.CERT, margin=self.CERT.margin + 1e-6)
        ok, why = verify_peak_certificate(QUAD_SPAN, raised)
        assert not ok and why.startswith("far modulus")


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
            INTERVAL.coords[:, 0], 50, 0.01, 1.0, np.isin(np.arange(INTERVAL.n_points), u.indices)
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

    def test_one_row_per_grid_point(self, monkeypatch):
        # Re f <= 0 inside U and Re f <= -beta outside, plus Re f(x0) >= -alpha
        from korovkinlab import choquet

        shapes = []
        real_linprog = choquet.linprog

        def spy(c, A_ub=None, **kw):
            shapes.append(A_ub.shape)
            return real_linprog(c, A_ub=A_ub, **kw)

        monkeypatch.setattr(choquet, "linprog", spy)
        span = FunctionSpan((named_function("const1", INTERVAL), named_function("x", INTERVAL)))
        assert lemma_b_feasible(span, 0, 0.1, 1.0, open_ball(INTERVAL, 0, 0.25)) is not None
        assert shapes == [(INTERVAL.n_points + 1, 2)]

    def test_sampled_scan_detects_endpoint_not_interior(self):
        # a few (alpha, beta) pairs on the ball of the default scan radius
        span = FunctionSpan((named_function("const1", INTERVAL), named_function("x", INTERVAL)))
        r = scan_radius(INTERVAL)
        pairs = ((0.1, 1.0), (0.01, 1.0), (0.1, 10.0))
        cert = lemma_b_feasible(span, 0, *pairs[0], open_ball(INTERVAL, 0, r))
        assert cert is not None
        assert verify_lemma_b_certificate(span, cert)[0]
        ball = open_ball(INTERVAL, 50, r)
        # affine span has no interior witnesses
        assert all(lemma_b_feasible(span, 50, a, b, ball) is None for a, b in pairs)


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


def _lie(monkeypatch, answer) -> None:
    """Stub `choquet.linprog` to return `answer(highs, lp)`, where `lp` holds
    the call's keyword arguments and `highs()` solves the same LP with
    scipy's HiGHS."""
    import korovkinlab.choquet as choquet_mod

    real_linprog = choquet_mod.linprog
    monkeypatch.setattr(choquet_mod, "linprog", lambda c, **lp: answer(lambda: real_linprog(c, **lp), lp))


def _count_lps(monkeypatch) -> list:
    """Record one entry per `choquet.linprog` call from here on."""
    calls = []

    def counting(highs, lp):
        calls.append(1)
        return highs()

    _lie(monkeypatch, counting)
    return calls


def _stub_scaled_lp(monkeypatch, factor) -> list:
    """Stub `choquet.linprog` to return HiGHS's solution with its span
    coefficients times `factor`, so that the pin h(x0) reads `factor`;
    record each pin the stub hands back."""
    pins = []

    def scaled(highs, lp):
        res = highs()
        if res.status == 0:
            res.x = np.r_[res.x[:-1] * factor, res.x[-1]]
            pins.append(float(lp["A_eq"][0] @ res.x))
        return res

    _lie(monkeypatch, scaled)
    return pins


# {1, x} holds no d(., x0)^2: the candidate is refused and the LP decides,
# at the endpoints (Boundary) and inside (NotDetected)
INTERVAL_11 = make_interval_grid(10)
AFFINE_11 = FunctionSpan(tuple(named_function(n, INTERVAL_11) for n in ("const1", "x")))


def _affine_11_cli_labels(tmp_path, capsys) -> list[str]:
    """Run `korovkinlab choquet` on AFFINE_11 in process; check that it
    exits 0 with no error line, and return its labels."""
    import json

    from korovkinlab.cli import main

    cfg = {
        "version": 1,
        "spaces": {"I": {"kind": "interval", "m": 10}},
        "spans": {"A": {"space": "I", "basis": ["const1", "x"]}},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["choquet", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    with open(tmp_path / "choquet.csv") as fh:
        return [line.split(",")[2] for line in fh.read().splitlines()[1:]]


class TestLyingBackend:
    """The LP backend is untrusted: an answer it cannot back with an
    optimum leaves the point Indeterminate, never NotDetected."""

    def test_an_infeasible_answer_is_indeterminate(self, monkeypatch, tmp_path, capsys):
        infeasible = SimpleNamespace(status=2, x=None, message="The problem is infeasible.")
        _lie(monkeypatch, lambda highs, lp: infeasible)
        est = estimate_choquet_boundary(AFFINE_11, 0.2)
        for p in est.points:
            assert p.label is Classification.INDETERMINATE
            assert p.note == f"peak LP at point {p.index} returned status 2: The problem is infeasible."
        assert _affine_11_cli_labels(tmp_path, capsys) == ["Indeterminate"] * 11

    def test_a_repeated_answer_ends_in_the_round_cap(self, monkeypatch):
        # h = 1 with margin 0.5 every round: the far points violate it, and
        # the cuts they add never change the answer
        x = np.r_[AFFINE_11.fit(np.ones(11))[0] * AFFINE_11.factors[2], 0.5]
        _lie(monkeypatch, lambda highs, lp: SimpleNamespace(status=0, x=x.copy(), message=""))
        est = estimate_choquet_boundary(AFFINE_11, 0.2)
        for p in est.points:
            assert p.label is Classification.INDETERMINATE
            assert p.note == f"peak search at point {p.index} (radius 0.2) did not settle in 64 rounds"

    def test_a_raising_backend_is_indeterminate(self, monkeypatch):
        def raising(highs, lp):
            raise ValueError("synthetic fault")

        _lie(monkeypatch, raising)
        est = estimate_choquet_boundary(AFFINE_11, 0.2)
        assert {p.label for p in est.points} == {Classification.INDETERMINATE}
        assert {p.note for p in est.points} == {"LP backend error: synthetic fault"}

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 2: a rejection trusts the LP optimum, which nothing re-checks, "
        "so an optimum overwritten to 0 turns the endpoints NotDetected",
    )
    def test_a_lowered_optimum_does_not_reject_the_endpoints(self, monkeypatch):
        def lowered(highs, lp):
            res = highs()
            res.x[-1] = 0.0
            return res

        _lie(monkeypatch, lowered)
        est = estimate_choquet_boundary(AFFINE_11, 0.2)
        assert Classification.NOT_DETECTED not in {est.points[0].label, est.points[-1].label}


class TestPeakPinRecovery:
    def test_a_drifted_pin_is_renormalized_and_certifies(self, monkeypatch):
        pins = _stub_scaled_lp(monkeypatch, 0.8)
        cert, delta = _peak_search(AFFINE_11, 0, 0.2)
        assert pins and all(abs(p - 0.8) < 1e-12 for p in pins)  # off by far more than PEAK_TOL
        assert cert is not None and delta == cert.margin >= 1e-6
        ok, why = verify_peak_certificate(AFFINE_11, cert)
        assert ok, why

    def test_a_pin_below_one_half_is_indeterminate(self, monkeypatch, tmp_path, capsys):
        pins = _stub_scaled_lp(monkeypatch, 0.25)
        est = estimate_choquet_boundary(AFFINE_11, 0.2)
        assert pins
        ends = [est.points[0], est.points[-1]]
        assert all(p.label is Classification.INDETERMINATE for p in ends)
        for p in ends:
            assert re.fullmatch(rf"peak pin drifted to 0\.2[0-9]* at point {p.index}", p.note)
        assert {p.label for p in est.points[1:-1]} == {Classification.NOT_DETECTED}
        labels = _affine_11_cli_labels(tmp_path, capsys)
        assert labels == ["Indeterminate"] + ["NotDetected"] * 9 + ["Indeterminate"]


class TestWorkingSetLoop:
    def test_cloud_point_is_certified_not_indeterminate(self, monkeypatch):
        import korovkinlab.choquet as choquet_mod

        basis = ("const1", "z", "zbar", "|z|^2")
        span = FunctionSpan(tuple(named_function(n, STALL_CLOUD) for n in basis))
        real_recheck = choquet_mod._recheck
        offered = set()

        def refuse_candidates(span_, i, d, coeffs, r):
            # each point's first offer is the Korovkin candidate; refusing
            # it sends the point through the cutting-plane loop
            if i not in offered:
                offered.add(i)
                return None
            return real_recheck(span_, i, d, coeffs, r)

        monkeypatch.setattr(choquet_mod, "_recheck", refuse_candidates)
        calls = _count_lps(monkeypatch)
        est = estimate_choquet_boundary(span, radius=0.4)
        assert est.counts() == {"Boundary": 8, "NotDetected": 0, "Indeterminate": 0}
        assert len(calls) > 16  # point 1 alone takes more rounds than that
        for p in est.points:
            ok, why = verify_peak_certificate(span, p.certificate)
            assert ok, why

    def test_a_refused_solution_with_no_violator_cuts_the_worst_far_point(self, monkeypatch):
        import korovkinlab.choquet as choquet_mod

        rows = []
        real_recheck = choquet_mod._recheck

        def counting_rows(highs, lp):
            rows.append(lp["A_ub"].shape[0])
            return highs()

        def refuse_first_solution(span_, i, d, coeffs, r):
            # the Korovkin candidate comes before any LP; refuse the first
            # LP solution only
            if len(rows) == 1 and not refused:
                refused.append(coeffs)
                return None
            return real_recheck(span_, i, d, coeffs, r)

        refused = []
        _lie(monkeypatch, counting_rows)
        monkeypatch.setattr(choquet_mod, "_recheck", refuse_first_solution)
        cert, delta = _peak_search(AFFINE_11, 0, 0.2)
        # all ten other points start in the working set at both phases, so
        # nothing violates the refused solution and one far point is cut
        assert refused and rows == [20, 21]
        assert cert is not None and delta == cert.margin >= 1e-6
        ok, why = verify_peak_certificate(AFFINE_11, cert)
        assert ok, why

    @pytest.mark.parametrize("basis", [("const1", "z"), ("const1", "z", "zbar")])
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
        # {1, x} holds no (x - x0)^2, so every point goes to the LP; its 101
        # points fit the starting working set, so one LP settles each search
        span = FunctionSpan(tuple(named_function(n, INTERVAL) for n in ("const1", "x")))
        est = estimate_choquet_boundary(span)
        assert est.counts() == {"Boundary": 2, "NotDetected": 99, "Indeterminate": 0}
        assert counts["search"] > 0 and counts["lp"] == counts["search"]


# one grid of each factory kind, and clouds, with a span that holds
# d(., x0)^2 for every x0
_QUADRATIC_SPANS = {
    "interval": (make_interval_grid(30), ("const1", "x", "x^2")),
    "circle": (make_circle_grid(24), ("const1", "cos", "sin")),
    "disc": (make_disc_grid(3, 8), ("const1", "z", "zbar", "|z|^2")),
    "box2": (make_box_grid(2, 4), ("const1", "coord 1", "coord 2", "coord 1^2", "coord 2^2")),
    "box3": (make_box_grid(3, 2), ("const1", "coord 1", "coord 2", "coord 3", "sum_sq")),
    "complex_cloud": (STALL_CLOUD, ("const1", "z", "zbar", "|z|^2")),
    "real_cloud": (
        make_custom_space(np.random.default_rng(5).uniform(-1.0, 1.0, size=(20, 2))),
        ("const1", "coord 1", "coord 2", "sum_sq"),
    ),
}


@pytest.mark.parametrize("kind", sorted(_QUADRATIC_SPANS))
def test_quadratic_span_is_certified_without_an_lp(kind, monkeypatch):
    """1 - c d(., x0)^2 peaks at every point, so no LP is solved."""
    grid, basis = _QUADRATIC_SPANS[kind]
    span = FunctionSpan(tuple(named_function(n, grid) for n in basis))
    calls = _count_lps(monkeypatch)
    est = estimate_choquet_boundary(span)
    assert est.counts()["Boundary"] == grid.n_points
    assert calls == []
    for p in est.points:
        ok, why = verify_peak_certificate(span, p.certificate)
        assert ok, why


class TestOrbitScan:
    def test_disc_preset_solves_one_point_per_orbit(self, monkeypatch):
        import korovkinlab.choquet as choquet_mod
        from korovkinlab.config import build_spaces, build_spans
        from korovkinlab.presets import get_preset

        cfg = get_preset("example43_disc")
        span = build_spans(cfg, build_spaces(cfg))["hermitian"]
        searches = []
        real_search = choquet_mod._peak_search

        def counting_search(span_, x0, *args, **kwargs):
            searches.append(x0)
            return real_search(span_, x0, *args, **kwargs)

        monkeypatch.setattr(choquet_mod, "_peak_search", counting_search)
        est = estimate_choquet_boundary(span)
        assert est.counts() == {"Boundary": 257, "NotDetected": 0, "Indeterminate": 0}
        assert len(searches) == 9
        assert len({p.source for p in est.points}) == 9  # the center and 8 rings


def _carries_span_maxima(span, est) -> bool:
    """Whether every basis function attains its maximum modulus on the
    scan's Boundary points."""
    mods = np.abs(span.value_matrix)
    on_boundary = mods[list(est.boundary_point_set().indices)].max(axis=0)
    return bool(np.all(on_boundary >= (1.0 - PEAK_TOL) * mods.max(axis=0)))


class TestBoundaryFromEstimate:
    def test_disc_affine_boundary_carries_span_maxima(self):
        g = make_disc_grid(3, 8)
        span = FunctionSpan((named_function("const1", g), named_function("z", g)))
        est = estimate_choquet_boundary(span)
        assert _carries_span_maxima(span, est)

    def test_interval_quadratic_boundary_carries_span_maxima(self):
        est = estimate_choquet_boundary(SMALL_QUAD)
        assert _carries_span_maxima(SMALL_QUAD, est)

    def test_disc_full_span_boundary_carries_span_maxima(self):
        g = make_disc_grid(3, 8)
        span = FunctionSpan(
            tuple(named_function(n, g) for n in ("const1", "z", "zbar", "|z|^2"))
        )
        est = estimate_choquet_boundary(span)
        assert _carries_span_maxima(span, est)


class TestRadiusCheck:
    """A radius beyond which some grid point has no point would make its
    peak condition vacuous; every entry point refuses it."""

    DISC = make_disc_grid(8, 32)
    AFFINE = FunctionSpan((named_function("const1", DISC), named_function("z", DISC)))

    def test_scan_refuses_it(self):
        with pytest.raises(ValueError, match="radius 1.2"):
            estimate_choquet_boundary(self.AFFINE, radius=1.2)

    def test_largest_allowed_radius_is_the_least_eccentricity(self):
        # the centre's farthest point is on the rim, at distance 1
        assert scan_radius(self.DISC, 1.0) == 1.0
        with pytest.raises(ValueError):
            scan_radius(self.DISC, np.nextafter(1.0, 2.0))

    def test_default_radius_always_passes(self):
        grids = [
            INTERVAL,
            make_circle_grid(3),
            make_disc_grid(1, 3),
            self.DISC,
            make_box_grid(3, 2),
            make_custom_space([[0.0], [0.01], [5.0]]),
        ]
        for g in grids:
            assert scan_radius(g) == 0.2 * g.diameter

    def test_verify_refuses_a_certificate_with_no_far_point(self):
        cert = PeakCertificate(0, (1.0, 0.0), 1.0, 1.2)
        ok, why = verify_peak_certificate(self.AFFINE, cert)
        assert not ok and "1.2" in why


def test_checks_take_no_tolerance():
    """Each check decides at its module constant; none can be loosened."""
    checks = {
        verify_peak_certificate: ["span", "cert"],
        verify_lemma_b_certificate: ["span", "cert"],
        FunctionSpan.contains_values: ["self", "target_values"],
        KernelOperator.weight_certificate: ["self"],
    }
    for fn, names in checks.items():
        assert list(inspect.signature(fn).parameters) == names, fn.__name__


class TestScanRadius:
    def test_default_radius_is_a_fifth_of_the_diameter(self):
        assert scan_radius(INTERVAL) == pytest.approx(0.2)
        assert scan_radius(make_disc_grid(2, 8)) == pytest.approx(0.4)

    def test_explicit_radius_wins(self):
        assert scan_radius(INTERVAL, 0.3) == 0.3
        assert estimate_choquet_boundary(SMALL_QUAD, radius=0.3).radius == 0.3

    def test_second_call_makes_no_distance_pass(self, monkeypatch):
        import korovkinlab.space as space_module

        calls = []
        real = space_module._squared_distances

        def counted(a, b, out=None):
            calls.append(len(a))
            return real(a, b, out)

        monkeypatch.setattr(space_module, "_squared_distances", counted)
        disc = make_disc_grid(2, 8)
        assert scan_radius(disc) == pytest.approx(0.4)
        assert calls  # the first call computes the rows that can set the extremes
        calls.clear()
        assert scan_radius(disc) == pytest.approx(0.4)
        with pytest.raises(ValueError, match=r"^radius 1.2 is outside \(0, 1.0\]: "):
            scan_radius(disc, 1.2)
        assert calls == []


@settings(max_examples=50)
@given(
    field=st.sampled_from(list(Field)),
    n=st.integers(1, 12),
    k=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_real_lp_form_of_a_span(field, n, k, seed):
    """The real LP rows times the real variables give Re(e^{-i phi} h(y))
    for h = b @ c, and the read-back returns c, also with the peak LP's
    margin variable after the coefficients."""
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(n, k))
    c = rng.normal(size=k)
    if field is Field.COMPLEX:
        b = b + 1j * rng.normal(size=(n, k))
        c = c + 1j * rng.normal(size=k)
    x = np.r_[c.real, c.imag] if field is Field.COMPLEX else c
    rot = np.exp(-1j * rng.uniform(0.0, 2.0 * np.pi, size=n))
    rows = _lp_rows(rot[:, None] * b, field)
    assert rows.shape == (n, x.size) and not np.iscomplexobj(rows)
    np.testing.assert_allclose(rows @ x, np.real(rot * (b @ c)), rtol=0, atol=1e-12)
    np.testing.assert_array_equal(_lp_coeffs(x, k, field), c)
    np.testing.assert_array_equal(_lp_coeffs(np.r_[x, 0.5], k, field), c)


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
                assert _peak_search(span, p.index, r)[0] is None
    _, est_perm = _scan([pts[j] for j in perm], field, basis)
    assert [p.label for p in est_perm.points] == [est.points[j].label for j in perm]


def test_a_scan_holds_no_distance_matrix():
    # 2049 points: the distance matrix alone would take 33.6 MB. The scan
    # computes one distance row at a time, and the diameter's pass holds one
    # block of squared distances and one axis's squared gaps, 16 bytes per
    # entry of BLOCK_ENTRIES. The rest grows with the grid, not the block:
    # each point's certificate (about 559 bytes) and a few vectors of the
    # grid's length, under 1 KiB per point
    disc = make_disc_grid(32, 64)
    span = FunctionSpan(tuple(named_function(n, disc) for n in ("const1", "z", "zbar", "|z|^2")))
    tracemalloc.start()
    try:
        est = estimate_choquet_boundary(span)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.counts()["Boundary"] == disc.n_points
    assert peak < 16 * BLOCK_ENTRIES + 1024 * disc.n_points
