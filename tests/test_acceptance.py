"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Expected values are frozen from independent oracles (exact rational
summation, Fourier multipliers, brute-force coefficient scans) before being
asserted against the implementation.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from korovkinlab import (
    FAMILIES,
    ExperimentConfig,
    FunctionSpan,
    averaging_operator,
    bernstein,
    check_positivity,
    conjugate,
    default_probes,
    estimate_choquet_boundary,
    estimate_operator_norm,
    fejer,
    function_from_values,
    inject_weight,
    lemma_b_feasible,
    make_box_grid,
    make_circle_grid,
    make_disc_grid,
    make_interval_grid,
    mollifier_disc,
    named_function,
    open_ball,
    perturbed_composition,
    rotation_isometry,
    run_convergence,
    sup_norm,
    verify_hypotheses,
)
from korovkinlab.choquet import DELTA_MIN
from korovkinlab.cli import main as cli_main
from korovkinlab.config import build_experiment, validate_config
from korovkinlab.presets import get_preset

from oracles import affine_peak_scan, bernstein_exact


def record(num: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}")
    assert ok, f"criterion {num}: {description}"


# shared scans for criteria 3, 4, 5, 11 -------------------------------------


@pytest.fixture(scope="module")
def interval_scan():
    space = make_interval_grid(100)
    span = FunctionSpan(tuple(named_function(n, space) for n in ("const1", "x", "x^2")))
    t0 = time.perf_counter()
    est = estimate_choquet_boundary(span)
    return span, est, time.perf_counter() - t0


@pytest.fixture(scope="module")
def disc_space():
    return make_disc_grid(8, 32)


@pytest.fixture(scope="module")
def disc_affine_scan(disc_space):
    span = FunctionSpan((named_function("const1", disc_space), named_function("z", disc_space)))
    t0 = time.perf_counter()
    est = estimate_choquet_boundary(span)
    return span, est, time.perf_counter() - t0


@pytest.fixture(scope="module")
def disc_full_scan(disc_space):
    span = FunctionSpan(
        tuple(named_function(n, disc_space) for n in ("const1", "z", "zbar", "|z|^2"))
    )
    t0 = time.perf_counter()
    est = estimate_choquet_boundary(span)
    return span, est, time.perf_counter() - t0


# ---------------------------------------------------------------------------


def test_criterion_01_bernstein_moment_identities():
    t0 = time.perf_counter()
    space = make_interval_grid(100)
    op = bernstein(10, space)
    xs = space.coords[:, 0]

    e_one = np.max(np.abs(op.apply(named_function("const1", space)).values - 1.0))
    e_x = np.max(np.abs(op.apply(named_function("x", space)).values - xs))

    # oracle: exact rational summation of the second moment at every grid point
    out_sq = op.apply(named_function("x^2", space)).values
    oracle = np.array(
        [
            float(bernstein_exact(lambda t: t * t, 10, Fraction(k, 100)))
            for k in range(101)
        ]
    )
    assert np.max(np.abs(oracle - (xs**2 + xs * (1 - xs) / 10))) <= 1e-15
    e_sq = np.max(np.abs(out_sq - oracle))
    elapsed = time.perf_counter() - t0
    record(
        1,
        f"Bernstein moments: |B1-1|={e_one:.2e}, |Bx-x|={e_x:.2e}, "
        f"|Bx^2-oracle|={e_sq:.2e} (tol 1e-12), {elapsed:.2f}s < 1s",
        e_one <= 1e-12 and e_x <= 1e-12 and e_sq <= 1e-12 and elapsed < 1.0,
    )


def test_criterion_02_fejer_coefficient_identity():
    t0 = time.perf_counter()
    space = make_circle_grid(32)
    op = fejer(4, space)
    out = op.apply(named_function("z", space)).values
    err = np.max(np.abs(out - 0.8 * space.complex_points))
    min_w = op.min_weight
    elapsed = time.perf_counter() - t0
    record(
        2,
        f"Fejer frequency-1 damping 4/5: err={err:.2e} (tol 1e-8), "
        f"min weight={min_w:.2e} >= -1e-14, {elapsed:.2f}s < 1s",
        err <= 1e-8 and min_w >= -1e-14 and elapsed < 1.0,
    )


def test_criterion_03_interval_quadratic_boundary(interval_scan):
    span, est, elapsed = interval_scan
    counts = est.counts()
    margins_ok = all(
        p.certificate is not None and p.certificate.margin >= 1e-6 for p in est.points
    )
    record(
        3,
        f"span{{1,x,x^2}} on m=100: {counts['Boundary']}/101 Boundary, "
        f"margins >= 1e-6: {margins_ok}, {elapsed:.1f}s < 30s",
        counts["Boundary"] == 101 and margins_ok and elapsed < 30.0,
    )


def test_criterion_04_disc_affine_boundary(disc_space, disc_affine_scan):
    span, est, elapsed = disc_affine_scan
    rim = {i for i in range(disc_space.n_points) if disc_space.boundary_mask[i]}
    detected = set(est.boundary_point_set().indices)
    interior_ok = all(
        p.label.value == "NotDetected" and p.best_delta < DELTA_MIN
        for p in est.points
        if p.index not in rim
    )
    # oracle: dense coefficient scans at five interior points, at the scan
    # radius and two smaller ones
    spots = [0, 1 + 0 * 32, 1 + 2 * 32, 1 + 4 * 32, 1 + 6 * 32]
    oracle_ok = True
    for i in spots:
        for r in (est.radius / 4, est.radius / 2, est.radius):
            oracle_ok &= not affine_peak_scan(disc_space, i, r, DELTA_MIN)
        oracle_ok &= est.points[i].label.value == "NotDetected"
    record(
        4,
        f"span{{1,z}} on disc: rim Boundary={detected == rim}, interior "
        f"NotDetected with certified rejection={interior_ok}, oracle agreement "
        f"at 5 interior spots={oracle_ok}, {elapsed:.1f}s < 60s",
        detected == rim and interior_ok and oracle_ok and elapsed < 60.0,
    )


def test_criterion_05_disc_full_span_boundary(disc_full_scan):
    span, est, elapsed = disc_full_scan
    counts = est.counts()
    record(
        5,
        f"span{{1,z,zbar,|z|^2}} on disc: {counts['Boundary']}/257 Boundary, "
        f"{elapsed:.1f}s < 60s",
        counts["Boundary"] == 257 and elapsed < 60.0,
    )


def test_criterion_06_korovkin_propagation_demo():
    t0 = time.perf_counter()
    built = build_experiment(validate_config(get_preset("example41_bernstein")))
    assert built.experiment.indices == (16, 64, 256)
    report = run_convergence(built.experiment)

    test_max = [report.test_max_error(n) for n in (16, 64, 256)]
    monotone = test_max[0] > test_max[1] > test_max[2]
    trend = next(t for t in report.trends if t.function == "abs(x-1/2)")
    final_small = trend.errors[-1] < 0.05
    improved = trend.errors[-1] * 2.0 <= trend.errors[0]
    elapsed = time.perf_counter() - t0

    # oracle: exact rational Bernstein summation of |x - 1/2| at spot points
    def kink(t: Fraction) -> Fraction:
        return abs(t - Fraction(1, 2))

    fam = built.experiment.family
    probe = named_function("abs(x-1/2)", fam.source)
    oracle_ok = True
    for n_idx, n in ((0, 16), (2, 256)):
        applied = fam.apply(n, probe).values
        for k in (25, 50, 75):
            exact = bernstein_exact(kink, n, Fraction(k, 100))
            oracle_ok &= abs(applied[k] - float(exact)) <= 1e-12
        oracle_ok &= trend.errors[n_idx] == pytest.approx(
            np.max(np.abs(applied - probe.values)), abs=1e-15
        )
    record(
        6,
        f"propagation demo: test-set errors {[f'{e:.1e}' for e in test_max]} decrease={monotone}, "
        f"|x-1/2| final {trend.errors[-1]:.4f} < 0.05 and improved x{trend.errors[0]/trend.errors[-1]:.1f}, "
        f"oracle match={oracle_ok}, {elapsed:.1f}s < 10s",
        monotone and final_small and improved and oracle_ok and elapsed < 10.0,
    )


def test_criterion_07_nontrivial_isometry():
    t0 = time.perf_counter()
    space = make_circle_grid(64)
    phi = rotation_isometry(space, 8)  # rotation by 2*pi/8
    fam = perturbed_composition(phi, averaging_operator(space), "1/n")
    span = FunctionSpan((named_function("const1", space), named_function("z", space)))
    probes = default_probes(space)
    cfg = ExperimentConfig(
        family=fam, test_span=span, probes=probes, indices=(1, 4, 16, 64)
    )
    hyp = verify_hypotheses(cfg)
    report = run_convergence(cfg, hypotheses=hyp)
    norms = {f.name: sup_norm(f) for f in probes}
    bound_ok = all(
        row.sup_error_global <= 2.0 / row.n * norms[row.function] + 1e-12
        for row in report.rows
    )
    # the limit keeps the sup norm of every probe, to the last bit
    iso_ok = all(sup_norm(hyp.limit_images[f]) == norms[f.name] for f in probes)
    elapsed = time.perf_counter() - t0
    record(
        7,
        f"rotation isometry: positivity={hyp.passed}, "
        f"sup||T_n 1||={hyp.t_n_one_bound}, probe sup norms kept={iso_ok}, "
        f"2/n bound={bound_ok}, {elapsed:.1f}s < 5s",
        hyp.passed
        and abs(hyp.t_n_one_bound - 1.0) <= 1e-12
        and iso_ok
        and bound_ok
        and elapsed < 5.0,
    )


def test_criterion_08_operator_norm_invariant():
    families = [
        FAMILIES["bernstein"].build(make_interval_grid(50), {}),
        FAMILIES["fejer"].build(make_circle_grid(131), {}),
        FAMILIES["tensor_bernstein"].build(make_box_grid(2, 4), {}),
        FAMILIES["mollifier_disc"].build(make_disc_grid(4, 16), {}),
    ]
    circle32 = make_circle_grid(32)
    families.append(
        perturbed_composition(
            rotation_isometry(circle32, 4), averaging_operator(circle32), "1/n"
        )
    )
    ok = True
    for fam in families:
        for n in (1, 8, 64):
            est = estimate_operator_norm(fam.operator(n))
            within = est.estimate <= np.sqrt(2.0) * est.t_one_sup + 1e-9
            if fam.source.field.value == "real":
                within &= est.estimate <= est.t_one_sup + 1e-9
            ok &= within
    record(
        8,
        "norm estimate <= sqrt(2)*||T_n 1|| (and <= ||T_n 1|| on real fields) "
        f"for 5 families at n in {{1,8,64}}",
        ok,
    )


def test_criterion_09_positivity_property_suite():
    circle32 = make_circle_grid(32)
    families = [
        FAMILIES["bernstein"].build(make_interval_grid(50), {}),
        FAMILIES["fejer"].build(circle32, {}),
        FAMILIES["tensor_bernstein"].build(make_box_grid(2, 4), {}),
        FAMILIES["mollifier_disc"].build(make_disc_grid(4, 16), {}),
        perturbed_composition(
            rotation_isometry(circle32, 4), averaging_operator(circle32), "1/n"
        ),
    ]
    ok = True
    for fam in families:
        rep = check_positivity(fam.operator(8))
        ok &= rep.passed and rep.worst_violation <= 1e-12
    bad = inject_weight(bernstein(8, make_interval_grid(50)), 7, 2, -0.3)
    rep_bad = check_positivity(bad)
    counterexample_ok = (
        not rep_bad.passed
        and rep_bad.witness == (2, 7, -0.3)
    )
    record(
        9,
        "weight-sign certificate (worst violation <= 1e-12) for 5 families at n=8; "
        f"tampered family flagged with witness={counterexample_ok}",
        ok and counterexample_ok,
    )


def test_criterion_10_conjugation_identity():
    ops = [
        mollifier_disc(8, make_disc_grid(8, 32)),
        fejer(8, make_circle_grid(32)),
    ]
    rng = np.random.default_rng(515)
    worst = 0.0
    for op in ops:
        n = op.source.n_points
        for _ in range(100):
            vals = rng.normal(size=n) + 1j * rng.normal(size=n)
            f = function_from_values(op.source, vals, name="probe")
            diff = np.max(np.abs(op.apply(conjugate(f)).values - np.conj(op.apply(f).values)))
            worst = max(worst, float(diff))
    record(
        10,
        f"T(conj f) == conj(T f) for mollifier and fejer at n=8: worst diff {worst:.2e} <= 1e-12",
        worst <= 1e-12,
    )


def _direct_peak_check(span, cert) -> bool:
    # re-evaluates every inequality from the raw rules; no LP, no cached verifier
    b = np.column_stack([[f.rule(p) for p in span.space.points] for f in span.basis])
    h = b @ np.asarray(cert.coeffs)
    if abs(h[cert.x0] - 1.0) > 1e-9 or cert.margin < 1e-6:
        return False
    d = span.space.pairwise[cert.x0]
    far = d >= cert.radius
    if far.any() and np.max(np.abs(h[far])) > 1.0 - cert.margin + 1e-9:
        return False
    near = d < cert.radius
    near[cert.x0] = False
    if near.any() and np.max(np.abs(h[near])) > 1.0 + 1e-9:
        return False
    return True


def _direct_lemma_check(span, cert) -> bool:
    b = np.column_stack([[f.rule(p) for p in span.space.points] for f in span.basis])
    re_f = (b @ np.asarray(cert.coeffs)).real
    inside = set(cert.u_indices)
    outside = [i for i in range(span.space.n_points) if i not in inside]
    if re_f.max() > 1e-9:
        return False
    if outside and np.max(re_f[outside]) > -cert.beta + 1e-9:
        return False
    return re_f[cert.x0] >= -cert.alpha - 1e-9


def test_criterion_11_certificate_soundness(interval_scan, disc_affine_scan, disc_full_scan):
    violations = 0
    n_peak = 0
    for span, est, _ in (interval_scan, disc_affine_scan, disc_full_scan):
        for p in est.points:
            if p.certificate is not None:
                n_peak += 1
                if not _direct_peak_check(span, p.certificate):
                    violations += 1
    n_lemma = 0
    for span, est, _ in (interval_scan, disc_full_scan):
        boundary = [p for p in est.points if p.certificate is not None]
        for p in boundary[:: max(1, len(boundary) // 8)]:
            u = open_ball(span.space, p.index, p.certificate.radius)
            cert = lemma_b_feasible(span, p.index, 0.1, 1.0, u)
            if cert is None or not _direct_lemma_check(span, cert):
                violations += 1
            else:
                n_lemma += 1
    record(
        11,
        f"direct re-verification of {n_peak} peak and {n_lemma} separation "
        f"certificates: {violations} violations",
        violations == 0 and n_peak >= 101 + 32 + 257 and n_lemma > 0,
    )


def test_criterion_12_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    code1 = cli_main(
        ["korovkin", "run", "--preset", "example41_bernstein", "--out", str(out1)]
    )
    code2 = cli_main(
        ["korovkin", "run", "--preset", "example41_bernstein", "--out", str(out2)]
    )
    identical = (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
    record(
        12,
        f"two runs of example41_bernstein: exit codes ({code1},{code2}) and "
        f"byte-identical report.csv={identical}",
        code1 == 0 and code2 == 0 and identical,
    )
