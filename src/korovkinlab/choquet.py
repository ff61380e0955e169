"""Choquet boundary estimation via LP feasibility.

A grid point is certified as a boundary point of a span when an LP finds a
peaking function: h in the span with h(x0) = 1, |h| <= 1 at every other
grid point, and |h| <= 1 - delta at all points farther than a chosen
radius. The complementary neighborhood-separation criterion (a function
with Re f <= 0 everywhere, Re f <= -beta off a neighborhood U, and
Re f(x0) >= -alpha) is exposed as a second, independent certificate type.

The LP backend is untrusted: every certificate is re-verified by direct
evaluation of its inequalities before it is returned. Modulus constraints
are linearised as Re(e^{-i phi} h(y)) <= cap at finitely many phases phi
(0 and pi suffice for a real span). One working-set loop serves both
fields: it starts from a polygon at a budget of grid points and adds
exact-phase cutting planes at violators (Kelley's method), so acceptances
are verified and rejections are certified by a relaxation's optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.optimize import linprog

from .errors import SolverError
from .functions import FunctionSpan
from .space import CompactSpace, Field, PointSet

PEAK_TOL = 1e-9
DEFAULT_DELTA_MIN = 1e-6
# sampling grid standing in for "every (alpha, beta)" in the separation
# criterion; detection is always relative to these parameters
DEFAULT_ALPHA_BETA_GRID = ((0.1, 1.0), (0.01, 1.0), (0.1, 10.0))
_LP_OPTIONS = {
    "presolve": True,
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}
# box on every LP coefficient variable; certificates are re-verified, but an
# infeasibility verdict is relative to this box
COEFF_BOUND = 1e6
# rows in the peak LP's starting working set, and the cap on its rounds
_ROW_BUDGET = 256
_MAX_ROUNDS = 64


@dataclass(frozen=True)
class ChoquetParams:
    """Scan parameters; radii default to fractions of the grid diameter.

    `directions` is the number of phases in the peak LP's starting polygon
    on a complex grid; cuts at exact phases refine it, so it changes the
    work done, not which constraints a certificate satisfies.
    """

    r_list: tuple[float, ...] | None = None
    r_factors: tuple[float, ...] = (0.05, 0.1, 0.2)
    delta_min: float = DEFAULT_DELTA_MIN
    directions: int = 16

    def radii(self, space: CompactSpace) -> tuple[float, ...]:
        if self.r_list is not None:
            return tuple(float(r) for r in self.r_list)
        diam = space.diameter
        return tuple(f * diam for f in self.r_factors)


@dataclass(frozen=True)
class PeakCertificate:
    """Witness that the span peaks at x0 outside radius `radius`."""

    x0: int
    coeffs: tuple
    margin: float
    radius: float


@dataclass(frozen=True)
class LemmaBCertificate:
    """Witness separating x0 from the complement of a neighborhood U."""

    x0: int
    coeffs: tuple
    alpha: float
    beta: float
    u_indices: tuple[int, ...]


class Classification(Enum):
    BOUNDARY = "Boundary"
    NOT_DETECTED = "NotDetected"
    INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class PointClassification:
    index: int
    label: Classification
    certificate: PeakCertificate | None
    best_delta: float
    note: str = ""


@dataclass(frozen=True, eq=False)
class BoundaryEstimate:
    span: FunctionSpan
    points: tuple[PointClassification, ...]
    r_list: tuple[float, ...]
    delta_min: float

    def boundary_point_set(self) -> PointSet:
        idx = tuple(p.index for p in self.points if p.label is Classification.BOUNDARY)
        return PointSet(self.span.space, idx)

    def counts(self) -> dict[str, int]:
        out = {c.value: 0 for c in Classification}
        for p in self.points:
            out[p.label.value] += 1
        return out


def _solve(c, A_ub, b_ub, A_eq, b_eq, bounds):
    try:
        res = linprog(
            c,
            A_ub=A_ub if A_ub is not None and len(A_ub) else None,
            b_ub=b_ub if b_ub is not None and len(b_ub) else None,
            A_eq=A_eq,
            b_eq=b_eq,
            bounds=bounds,
            method="highs",
            options=_LP_OPTIONS,
        )
    except Exception as exc:  # scipy raises ValueError on malformed input
        raise SolverError(f"LP backend error: {exc}") from exc
    if res.status in (0, 2):
        return res
    raise SolverError(f"LP backend returned status {res.status}: {res.message}")


def _peak_search(
    span: FunctionSpan,
    x0: int,
    r: float,
    delta_min: float,
    directions: int,
) -> tuple[PeakCertificate | None, float]:
    """Run the peak LP at one radius as a working-set (Kelley) loop.

    Returns (certificate-or-None, evidence). For a certificate the evidence
    is its exact margin: a certified lower bound on the best margin, found
    once the loop clears delta_min, not the best margin itself. For a
    rejection it is the LP optimum over the working set; that LP is a
    relaxation, so a value below delta_min certifies infeasibility.

    A constraint at point y and phase phi reads Re(e^{-i phi} h(y)) <= 1,
    minus the margin where y is farther than r from x0; a real span only
    needs the phases {0, pi}. The working set starts as a polygon of
    `directions` phases (or {0, pi}) at grid points spread by distance from
    x0, as many as fit _ROW_BUDGET rows. Each round evaluates |h| exactly on
    the whole grid and adds one cut at the exact phase arg h(y) per
    violating point, until the exact margin clears delta_min with every
    near modulus within the unit cap, or the LP optimum falls below it.
    """
    b_mat = span.value_matrix
    k = b_mat.shape[1]
    is_complex = span.space.field is Field.COMPLEX
    d = span.space.pairwise[x0]
    far = d >= r
    others = np.argsort(d, kind="stable")
    others = others[others != x0]

    if is_complex:
        phases = 2.0 * np.pi * np.arange(directions) / directions
    else:
        phases = np.array([0.0, np.pi])
    n_start = min(others.size, max(1, _ROW_BUDGET // phases.size))
    start = others[np.linspace(0, others.size - 1, n_start).round().astype(int)]
    cut_y = np.repeat(start, phases.size)
    cut_phase = np.tile(phases, start.size)

    def rows(y, phase):
        g = np.exp(-1j * phase)[:, None] * b_mat[y]
        parts = [g.real, -g.imag] if is_complex else [g.real]
        return np.column_stack(parts + [far[y]])

    b0 = b_mat[x0]
    if is_complex:
        a_eq = np.vstack([np.r_[b0.real, -b0.imag, 0.0], np.r_[b0.imag, b0.real, 0.0]])
        b_eq = [1.0, 0.0]
    else:
        a_eq, b_eq = np.r_[b0, 0.0][None, :], [1.0]
    n_var = a_eq.shape[1]
    obj = np.zeros(n_var)
    obj[-1] = -1.0
    bounds = [(-COEFF_BOUND, COEFF_BOUND)] * (n_var - 1) + [(-4.0, 1.0)]

    for _ in range(_MAX_ROUNDS):
        a_ub = rows(cut_y, cut_phase)
        res = _solve(obj, a_ub, np.ones(a_ub.shape[0]), a_eq, b_eq, bounds)
        if res.status != 0:
            return None, -np.inf
        delta_lp = float(res.x[-1])
        if delta_lp < delta_min:
            return None, delta_lp
        coeffs = res.x[:k] + 1j * res.x[k : 2 * k] if is_complex else res.x[:k]
        h = b_mat @ coeffs
        pin = h[x0]
        if abs(pin - 1.0) > PEAK_TOL:
            if abs(pin) < 0.5:
                raise SolverError(f"peak pin drifted to {pin!r} at point {x0}")
            coeffs = coeffs / pin
            h = b_mat @ coeffs
        mods = np.abs(h)
        excess = mods + np.where(far, delta_lp, 0.0) - 1.0
        excess[x0] = -np.inf
        margin = 1.0 - float(np.max(mods[far])) if far.any() else 1.0
        if margin >= delta_min and not np.any(excess[~far] > PEAK_TOL):
            cert = PeakCertificate(
                x0=int(x0), coeffs=tuple(coeffs), margin=margin, radius=float(r)
            )
            ok, why = verify_peak_certificate(span, cert)
            if not ok:
                raise SolverError(f"peak certificate failed re-verification: {why}")
            return cert, margin
        viol = np.flatnonzero(excess > PEAK_TOL)
        if not viol.size:
            # the exact far modulus missed delta_min by less than the
            # tolerance: cut the worst far point so the optimum keeps dropping
            viol = np.flatnonzero(far)[[int(np.argmax(mods[far]))]]
        cut_y = np.r_[cut_y, viol]
        cut_phase = np.r_[cut_phase, np.angle(h[viol])]
    raise SolverError(
        f"peak search at point {x0} (radius {r}) did not settle in {_MAX_ROUNDS} rounds"
    )


def find_peak_function(
    span: FunctionSpan,
    x0: int,
    r: float,
    delta_min: float = DEFAULT_DELTA_MIN,
    directions: int = 16,
) -> PeakCertificate | None:
    """Search the span for a function peaking at x0.

    Maximizes the margin delta subject to h(x0) = 1, |h| <= 1 at every
    other grid point, and |h| <= 1 - delta at points with distance >= r
    from x0. Returns a re-verified certificate when the achievable margin
    is at least delta_min, otherwise None. The certificate's margin is a
    certified lower bound on the best margin, not the best margin itself.
    """
    if r <= 0:
        raise ValueError("peak radius must be positive")
    if not span.unital:
        raise ValueError("peak search needs a unital span")
    if not span.separating:
        raise ValueError("peak search needs a separating span")
    if not 0 <= int(x0) < span.space.n_points:
        raise ValueError("peak point index out of range")
    cert, _ = _peak_search(span, int(x0), float(r), delta_min, directions)
    return cert


def verify_peak_certificate(
    span: FunctionSpan, cert: PeakCertificate, tol: float = PEAK_TOL
) -> tuple[bool, str]:
    """Re-check a peak certificate by direct evaluation (solver-independent)."""
    h = span.value_matrix @ np.asarray(cert.coeffs)
    d = span.space.pairwise[cert.x0]
    if abs(h[cert.x0] - 1.0) > tol:
        return False, f"|h(x0) - 1| = {abs(h[cert.x0] - 1.0):.3e}"
    if cert.margin <= 0:
        return False, f"margin {cert.margin} is not positive"
    far = d >= cert.radius
    if far.any():
        worst = float(np.max(np.abs(h[far])))
        if worst > 1.0 - cert.margin + tol:
            return False, f"far modulus {worst:.12f} exceeds 1 - margin"
    near = d < cert.radius
    near[cert.x0] = False
    if near.any():
        worst = float(np.max(np.abs(h[near])))
        if worst > 1.0 + tol:
            return False, f"near modulus {worst:.12f} exceeds the unit cap"
    return True, "ok"


def lemma_b_feasible(
    span: FunctionSpan,
    x0: int,
    alpha: float,
    beta: float,
    u_set: PointSet,
) -> LemmaBCertificate | None:
    """Feasibility of the neighborhood-separation system at x0.

    Searches the span for f with Re f <= 0 on the grid, Re f <= -beta off
    the neighborhood u_set, and Re f(x0) >= -alpha. Returns a re-verified
    certificate, or None when the LP proves the system infeasible.
    """
    if not 0 < alpha < beta:
        raise ValueError("need 0 < alpha < beta")
    if u_set.space is not span.space:
        raise ValueError("neighborhood lives on a different grid")
    if int(x0) not in u_set:
        raise ValueError("x0 must lie inside the neighborhood U")
    space = span.space
    b_mat = span.value_matrix
    n = space.n_points
    outside = np.array(sorted(set(range(n)) - set(u_set.indices)), dtype=int)

    if space.field is Field.COMPLEX:
        re_rows = np.hstack([b_mat.real, -b_mat.imag])
    else:
        re_rows = b_mat
    nv = re_rows.shape[1]

    rows = [re_rows]
    rhs = [np.zeros(n)]
    if outside.size:
        rows.append(re_rows[outside])
        rhs.append(np.full(outside.size, -float(beta)))
    rows.append(-re_rows[int(x0)][None, :])
    rhs.append(np.array([float(alpha)]))
    a_ub = np.vstack(rows)
    b_ub = np.concatenate(rhs)
    bounds = [(-COEFF_BOUND, COEFF_BOUND)] * nv
    res = _solve(np.zeros(nv), a_ub, b_ub, None, None, bounds)
    if res.status != 0:
        return None
    if space.field is Field.COMPLEX:
        k = b_mat.shape[1]
        coeffs = res.x[:k] + 1j * res.x[k:]
    else:
        coeffs = res.x
    cert = LemmaBCertificate(
        x0=int(x0),
        coeffs=tuple(coeffs),
        alpha=float(alpha),
        beta=float(beta),
        u_indices=tuple(u_set.indices),
    )
    ok, why = verify_lemma_b_certificate(span, cert)
    if not ok:
        raise SolverError(f"separation certificate failed re-verification: {why}")
    return cert


def verify_lemma_b_certificate(
    span: FunctionSpan, cert: LemmaBCertificate, tol: float = PEAK_TOL
) -> tuple[bool, str]:
    """Re-check a separation certificate by direct evaluation."""
    f = span.value_matrix @ np.asarray(cert.coeffs)
    re_f = f.real if np.iscomplexobj(f) else f
    if float(re_f.max()) > tol:
        return False, f"Re f reaches {re_f.max():.3e} > 0"
    inside = set(cert.u_indices)
    outside = [i for i in range(span.space.n_points) if i not in inside]
    if outside and float(np.max(re_f[outside])) > -cert.beta + tol:
        return False, "Re f does not drop below -beta off U"
    if float(re_f[cert.x0]) < -cert.alpha - tol:
        return False, f"Re f(x0) = {re_f[cert.x0]:.3e} below -alpha"
    return True, "ok"


def lemma_b_scan(
    span: FunctionSpan,
    x0: int,
    params: ChoquetParams = ChoquetParams(),
) -> LemmaBCertificate | None:
    """Sampled form of the separation criterion at one point.

    The criterion quantifies over every (alpha, beta) pair and every
    neighborhood; here the pairs come from a small default grid and the
    neighborhoods are the scan balls of the radius list. Returns the first
    certificate found, so a non-None result means "detected at these
    parameters" and None means no more than that.
    """
    from .space import open_ball

    for alpha, beta in DEFAULT_ALPHA_BETA_GRID:
        for r in params.radii(span.space):
            cert = lemma_b_feasible(span, x0, alpha, beta, open_ball(span.space, x0, r))
            if cert is not None:
                return cert
    return None


def estimate_choquet_boundary(
    span: FunctionSpan, params: ChoquetParams = ChoquetParams()
) -> BoundaryEstimate:
    """Classify every grid point by scanning peak radii.

    A point is Boundary once any radius admits a peak certificate (the
    largest-margin certificate is kept), NotDetected when the LP proves
    every radius infeasible at the margin threshold, and Indeterminate when
    the solver failed and no certificate was found.
    """
    if not span.unital:
        raise ValueError("boundary estimation needs a unital span")
    if not span.separating:
        raise ValueError("boundary estimation needs a separating span")
    radii = tuple(sorted(params.radii(span.space)))
    if not radii or radii[0] <= 0:
        raise ValueError("radius list must contain positive radii")
    b_mat = span.value_matrix
    results = []
    for i in range(span.space.n_points):
        best_cert: PeakCertificate | None = None
        best_delta = -np.inf
        solver_trouble = False
        note = ""
        d = span.space.pairwise[i]
        for r in radii:
            if best_cert is not None:
                # a peak inside a smaller radius stays one for larger radii:
                # the far set only shrinks, so re-evaluate instead of re-solving
                h = b_mat @ np.asarray(best_cert.coeffs)
                far = d >= r
                margin = 1.0 - float(np.max(np.abs(h[far]))) if far.any() else 1.0
                cand = PeakCertificate(i, best_cert.coeffs, margin, float(r))
                if margin >= params.delta_min and verify_peak_certificate(span, cand)[0]:
                    best_delta = max(best_delta, margin)
                    if margin > best_cert.margin:
                        best_cert = cand
                    continue
            try:
                cert, delta = _peak_search(span, i, r, params.delta_min, params.directions)
            except SolverError as exc:
                solver_trouble = True
                note = str(exc)
                continue
            best_delta = max(best_delta, delta)
            if cert is not None and (best_cert is None or cert.margin > best_cert.margin):
                best_cert = cert
        if best_cert is not None:
            label = Classification.BOUNDARY
        elif solver_trouble:
            label = Classification.INDETERMINATE
        else:
            label = Classification.NOT_DETECTED
        results.append(
            PointClassification(
                index=i,
                label=label,
                certificate=best_cert,
                best_delta=float(best_delta) if np.isfinite(best_delta) else -np.inf,
                note=note,
            )
        )
    return BoundaryEstimate(
        span=span, points=tuple(results), r_list=radii, delta_min=params.delta_min
    )


def is_boundary_for(
    span: FunctionSpan, pts: PointSet, probes, tol: float = 1e-9
) -> tuple[bool, float]:
    """Whether every probe attains its maximum modulus on the point set.

    Probes must belong to the span. Returns the flag together with the
    worst ratio max-on-subset / sup-norm over all probes.
    """
    if len(pts) == 0:
        raise ValueError("boundary check needs a nonempty point set")
    if pts.space is not span.space:
        raise ValueError("point set lives on a different grid")
    worst = np.inf
    idx = list(pts.indices)
    for f in probes:
        if not span.contains_values(f.values):
            raise ValueError(f"probe {f.name!r} is not in the span")
        full = float(np.max(np.abs(f.values)))
        if full == 0.0:
            continue
        on_set = float(np.max(np.abs(f.values[idx])))
        worst = min(worst, on_set / full)
    if not np.isfinite(worst):
        worst = 1.0
    return worst >= 1.0 - tol, worst
