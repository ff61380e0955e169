"""Choquet boundary estimation via LP feasibility.

A grid point is certified as a boundary point of a span when an LP finds a
peaking function: h in the span with h(x0) = 1, |h| <= 1 at every other
grid point, and |h| <= 1 - delta at all points farther than a chosen
radius. The complementary neighborhood-separation criterion (a function
with Re f <= 0 everywhere, Re f <= -beta off a neighborhood U, and
Re f(x0) >= -alpha) is exposed as a second, independent certificate type.

A peak search first offers Korovkin's own candidate, h = 1 - c d(., x0)^2
fitted onto the span: when d(., x0)^2 lies in the span (as for {1, x, x^2},
{1, z, zbar, |z|^2} or the box quadratics) it peaks at every point, and no
LP is solved. Otherwise, and whenever the candidate fails its check, the
peak LP decides. The LP backend (scipy's HiGHS, imported on the first
solve) is untrusted: every certificate is re-verified by direct evaluation
of its inequalities before it is returned. Modulus constraints are
linearised as Re(e^{-i phi} h(y)) <= cap at finitely many phases phi (0 and
pi suffice for a real span). One working-set loop serves both fields: it
starts from the phases 0 and pi at a fixed number of grid points and adds
exact-phase cutting planes at violators (Kelley's method), so acceptances
are verified and rejections are certified by a relaxation's optimum. The
candidate never rejects.

A boundary scan walks each orbit of the grid symmetries that preserve the
span once, solving its first point and moving each Boundary verdict along
the walk as a certificate re-verified where it lands (Bödi, Herr & Joswig,
Math. Program. 137, 2013). A rejection is never moved. The factory grids'
symmetries are isometries, so there a margin is constant on an orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import SolverError
from .functions import MEMBERSHIP_TOL, FunctionSpan
from .space import CompactSpace, Field, PointSet

# slack of every direct-evaluation check in this module; each check passes
# only when its inequality holds, so a NaN fails it
PEAK_TOL = 1e-9
# the least margin a peak certificate must have; an LP relaxation optimum
# below it certifies that no peak at the scan radius has that margin
DELTA_MIN = 1e-6
# without presolve: with it, HiGHS answered "infeasible" on feasible peak LPs
_LP_OPTIONS = {
    "presolve": False,
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}
# box on the separation LP's coefficient variables (see `lemma_b_feasible`);
# an infeasibility verdict there is relative to it
COEFF_BOUND = 1e6
# grid points in the peak LP's starting working set, and the cap on its rounds
_START_POINTS = 128
_MAX_ROUNDS = 64


def scan_radius(space: CompactSpace, radius: float | None = None) -> float:
    """The scan radius on `space`: `radius`, or a fifth of the diameter when
    None. Raises ValueError unless it is positive and every grid point has a
    point at least that far; beyond that a peak condition holds vacuously. A
    fifth of the diameter passes, as each point is half the diameter from
    some point.

    The peak LP's optimum can only grow with the radius (a larger radius
    drops margin rows), so a scan searches at one radius: a peak there is
    the statement "some radius up to it admits a peak".
    """
    r = 0.2 * space.diameter if radius is None else float(radius)
    reach = space.least_eccentricity
    if not 0 < r <= reach:
        raise ValueError(f"radius {r} is outside (0, {reach}]: some grid point has no point that far")
    return r


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
    # the point whose own peak search produced the certificate: an orbit
    # representative for a moved verdict, otherwise the point itself
    source: int
    note: str = ""


@dataclass(frozen=True, eq=False)
class BoundaryEstimate:
    span: FunctionSpan
    points: tuple[PointClassification, ...]
    radius: float

    def boundary_point_set(self) -> PointSet:
        idx = tuple(p.index for p in self.points if p.label is Classification.BOUNDARY)
        return PointSet(self.span.space, idx)

    def counts(self) -> dict[str, int]:
        out = {c.value: 0 for c in Classification}
        for p in self.points:
            out[p.label.value] += 1
        return out


def linprog(*args, **kwargs):
    """`scipy.optimize.linprog`, imported on the first call: a scan that
    needs no LP never loads scipy."""
    from scipy.optimize import linprog as highs

    return highs(*args, **kwargs)


def _lp_rows(g: np.ndarray, field: Field) -> np.ndarray:
    """Real LP rows of the complex rows g: row i times the LP variables is
    Re(g[i] @ c) for span coefficients c. The variables are (Re c, Im c) on
    a complex grid and c on a real one. A row e^{-i phi} b(y), with b(y) the
    basis values at y, gives Re(e^{-i phi} h(y)) for h = b @ c."""
    return np.hstack([g.real, -g.imag]) if field is Field.COMPLEX else g.real


def _lp_coeffs(x: np.ndarray, k: int, field: Field) -> np.ndarray:
    """The k span coefficients that an LP solution x holds in its leading
    variables, as laid out by `_lp_rows`."""
    return x[:k] + 1j * x[k : 2 * k] if field is Field.COMPLEX else x[:k]


def _solve(c, A_ub, b_ub, A_eq, b_eq, bounds):
    try:
        res = linprog(
            c,
            A_ub=A_ub,
            b_ub=b_ub,
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


def _peak_search(span: FunctionSpan, x0: int, r: float) -> tuple[PeakCertificate | None, float]:
    """Offer the Korovkin candidate, then run the peak LP at one radius as
    a working-set (Kelley) loop.

    The candidate is h = 1 - c q, with q = d(., x0)^2 and
    c = 2 / (r^2 + max q), fitted onto the span by least squares. Where q
    lies in the span, h pins x0, stays in (-1, 1] near it and has modulus
    at most (max q - r^2) / (max q + r^2) at every far point. `_recheck`
    accepts or refuses it like an LP solution, and a refused candidate
    proves nothing.

    Returns (certificate-or-None, evidence). For a certificate the evidence
    is its exact margin: a certified lower bound on the best margin, found
    once the loop clears DELTA_MIN, not the best margin itself. For a
    rejection it is the LP optimum over the working set; that LP is a
    relaxation whose box holds every peak function (`_coefficient_box`),
    so a value below DELTA_MIN certifies infeasibility. The LP itself is
    feasible by construction: on a unital span h = 1 with margin 0 meets
    every row inside the box. So any answer but an optimum is a backend
    fault and raises SolverError, as does a run past _MAX_ROUNDS.

    The LP solves for the coefficients of the basis scaled to unit
    columns, read back into the user's basis before any check. A
    constraint at point y and phase phi reads Re(e^{-i phi} h(y)) <= 1,
    minus the margin where y is farther than r from x0; a real span only
    needs the phases {0, pi}. Every field starts from those two phases at
    _START_POINTS grid points spread by distance from x0. Each round
    evaluates |h| exactly on the whole grid and adds one cut at the exact
    phase arg h(y) per violating point, until _recheck accepts the solution
    (its exact margin clears DELTA_MIN and it re-verifies), or the LP
    optimum falls below DELTA_MIN. These cuts bound |h| on a complex grid
    too, so the start sets the work done, not what a certificate or a
    rejection means.
    """
    b_mat = span.value_matrix
    d = span.space.pairwise[x0]
    q = d * d
    korovkin = 1.0 - 2.0 / (r * r + q.max()) * q
    cert = _recheck(span, x0, d, span.fit(korovkin)[0], r)
    if cert is not None:
        return cert, cert.margin

    k = b_mat.shape[1]
    field = span.space.field
    norms = span.factors[2]
    a_mat = b_mat / norms  # h = a_mat @ x for coefficients c = x / norms
    far = d >= r
    others = np.argsort(d, kind="stable")
    others = others[others != x0]

    n_start = min(others.size, _START_POINTS)
    start = others[np.linspace(0, others.size - 1, n_start).round().astype(int)]
    cut_y = np.repeat(start, 2)
    cut_phase = np.tile([0.0, np.pi], start.size)

    def rows(y, phase):
        g = np.exp(-1j * phase)[:, None] * a_mat[y]
        return np.column_stack([_lp_rows(g, field), far[y]])

    # Re h(x0) = 1, and Im h(x0) = Re(-i h(x0)) = 0 on a complex grid
    a0 = a_mat[x0]
    pins = np.array([a0, -1j * a0] if field is Field.COMPLEX else [a0])
    a_eq = np.column_stack([_lp_rows(pins, field), np.zeros(len(pins))])
    b_eq = [1.0, 0.0][: len(pins)]
    n_var = a_eq.shape[1]
    obj = np.zeros(n_var)
    obj[-1] = -1.0
    box = np.tile(_coefficient_box(span), n_var // k)  # Re x and Im x on a complex grid
    bounds = [*zip(-box, box), (-4.0, 1.0)]

    for _ in range(_MAX_ROUNDS):
        a_ub = rows(cut_y, cut_phase)
        res = _solve(obj, a_ub, np.ones(a_ub.shape[0]), a_eq, b_eq, bounds)
        if res.status != 0:
            raise SolverError(f"peak LP at point {x0} returned status {res.status}: {res.message}")
        delta_lp = float(res.x[-1])
        if delta_lp < DELTA_MIN:
            return None, delta_lp
        coeffs = _lp_coeffs(res.x, k, field) / norms
        h = b_mat @ coeffs
        pin = h[x0]
        if abs(pin - 1.0) > PEAK_TOL:
            if abs(pin) < 0.5:
                raise SolverError(f"peak pin drifted to {pin} at point {x0}")
            coeffs = coeffs / pin
            h = b_mat @ coeffs
        cert = _recheck(span, x0, d, coeffs, r)
        if cert is not None:
            return cert, cert.margin
        mods = np.abs(h)
        excess = mods + np.where(far, delta_lp, 0.0) - 1.0
        excess[x0] = -np.inf
        viol = np.flatnonzero(excess > PEAK_TOL)
        if not viol.size:
            # the exact far modulus missed DELTA_MIN by less than the
            # tolerance: cut the worst far point so the optimum keeps dropping
            viol = np.flatnonzero(far)[[int(np.argmax(mods[far]))]]
        cut_y = np.r_[cut_y, viol]
        cut_phase = np.r_[cut_phase, np.angle(h[viol])]
    raise SolverError(
        f"peak search at point {x0} (radius {r}) did not settle in {_MAX_ROUNDS} rounds"
    )


def _coefficient_box(span: FunctionSpan) -> np.ndarray:
    """Bounds on the peak LP's variables x, h = (B / norms) x, that cut off
    no peak function: with q = (B / norms) t orthonormal (`gram_schmidt`),
    x = t q^H h, and ||q^H h||_2 = ||h||_2 <= sqrt(N) when |h| <= 1 on the
    grid. So |x_i| <= sqrt(N) ||t[i, :]||_2, times 1 + 1e-6 for rounding."""
    return np.sqrt(span.space.n_points * np.sum(np.abs(span.factors[1]) ** 2, axis=1)) * (1.0 + 1e-6)


def _misfit(span: FunctionSpan, x0: int, coeffs: tuple) -> str:
    """Why a certificate's x0 or coefficients do not fit the span ("" when
    they do); a negative x0 would otherwise index from the end of the grid."""
    k = span.value_matrix.shape[1]
    if not 0 <= x0 < span.space.n_points:
        return f"x0 = {x0} is not a grid index"
    return "" if len(coeffs) == k else f"{len(coeffs)} coefficients for a span of dimension {k}"


def verify_peak_certificate(span: FunctionSpan, cert: PeakCertificate) -> tuple[bool, str]:
    """Re-check a peak certificate by direct evaluation (solver-independent)."""
    if why := _misfit(span, cert.x0, cert.coeffs):
        return False, why
    h = span.value_matrix @ np.asarray(cert.coeffs)
    d = span.space.pairwise[cert.x0]
    if not abs(h[cert.x0] - 1.0) <= PEAK_TOL:
        return False, f"|h(x0) - 1| = {abs(h[cert.x0] - 1.0):.3e}"
    if not cert.margin > 0:
        return False, f"margin {cert.margin} is not positive"
    far = d >= cert.radius
    if not far.any():
        return False, f"no grid point lies at distance >= {cert.radius} from x0"
    worst = float(np.max(np.abs(h[far])))
    if not worst <= 1.0 - cert.margin + PEAK_TOL:
        return False, f"far modulus {worst:.12f} exceeds 1 - margin"
    near = d < cert.radius
    near[cert.x0] = False
    if near.any():
        worst = float(np.max(np.abs(h[near])))
        if not worst <= 1.0 + PEAK_TOL:
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
    certificate, or None when the LP proves the system infeasible within
    COEFF_BOUND: unlike a peak function, such an f is not bounded on the
    grid, so no theorem bounds its coefficients.
    """
    if not 0 < alpha < beta:
        raise ValueError("need 0 < alpha < beta")
    if u_set.space is not span.space:
        raise ValueError("neighborhood lives on a different grid")
    if int(x0) not in u_set:
        raise ValueError("x0 must lie inside the neighborhood U")
    field = span.space.field
    b_mat = span.value_matrix
    rhs = np.full(span.space.n_points, -float(beta))
    rhs[list(u_set.indices)] = 0.0

    re_rows = _lp_rows(b_mat, field)
    nv = re_rows.shape[1]
    a_ub = np.vstack([re_rows, -re_rows[int(x0)]])
    b_ub = np.r_[rhs, float(alpha)]
    bounds = [(-COEFF_BOUND, COEFF_BOUND)] * nv
    res = _solve(np.zeros(nv), a_ub, b_ub, None, None, bounds)
    if res.status != 0:
        return None
    cert = LemmaBCertificate(
        x0=int(x0),
        coeffs=tuple(_lp_coeffs(res.x, b_mat.shape[1], field)),
        alpha=float(alpha),
        beta=float(beta),
        u_indices=tuple(u_set.indices),
    )
    ok, why = verify_lemma_b_certificate(span, cert)
    if not ok:
        raise SolverError(f"separation certificate failed re-verification: {why}")
    return cert


def verify_lemma_b_certificate(span: FunctionSpan, cert: LemmaBCertificate) -> tuple[bool, str]:
    """Re-check a separation certificate by direct evaluation."""
    if why := _misfit(span, cert.x0, cert.coeffs):
        return False, why
    re_f = np.real(span.value_matrix @ np.asarray(cert.coeffs))
    if not float(re_f.max()) <= PEAK_TOL:
        return False, f"Re f reaches {re_f.max():.3e} > 0"
    inside = set(cert.u_indices)
    outside = [i for i in range(span.space.n_points) if i not in inside]
    if outside and not float(np.max(re_f[outside])) <= -cert.beta + PEAK_TOL:
        return False, "Re f does not drop below -beta off U"
    if not float(re_f[cert.x0]) >= -cert.alpha - PEAK_TOL:
        return False, f"Re f(x0) = {re_f[cert.x0]:.3e} below -alpha"
    return True, "ok"


def _accepted_generators(span: FunctionSpan) -> list[tuple[np.ndarray, np.ndarray]]:
    """The grid's candidate symmetries g that preserve the span, each with
    the k x k map m that moves coefficients along it: the basis composed
    with g^-1, B[g^-1], fits onto the span as B m to MEMBERSHIP_TOL.
    Distances go unchecked, as every moved certificate is re-verified where
    it lands."""
    out = []
    for g in span.space.generators:
        inverse = np.empty_like(g)
        inverse[g] = np.arange(len(g))  # argsort(g) of a permutation, without a sort
        m, residual = span.fit(span.value_matrix[inverse])
        if residual <= MEMBERSHIP_TOL:
            out.append((g, m))
    return out


def _recheck(span: FunctionSpan, i: int, d: np.ndarray, coeffs, r: float) -> PeakCertificate | None:
    """The certificate of `coeffs` peaking at point i outside radius r, with
    its exact margin on i's distance row d, when that clears DELTA_MIN and re-verifies."""
    h = span.value_matrix @ np.asarray(coeffs)
    margin = 1.0 - float(np.max(np.abs(h[d >= r])))
    cert = PeakCertificate(i, tuple(coeffs), margin, float(r))
    if margin >= DELTA_MIN and verify_peak_certificate(span, cert)[0]:
        return cert
    return None


def _scan_point(span: FunctionSpan, i: int, r: float) -> PointClassification:
    """Classify one point by its own peak search at the scan radius."""
    try:
        cert, delta = _peak_search(span, i, r)
    except SolverError as exc:
        return PointClassification(i, Classification.INDETERMINATE, None, -np.inf, i, str(exc))
    label = Classification.NOT_DETECTED if cert is None else Classification.BOUNDARY
    return PointClassification(i, label, cert, float(delta), i)


def estimate_choquet_boundary(span: FunctionSpan, radius: float | None = None) -> BoundaryEstimate:
    """Classify every grid point by one peak search at the scan radius
    (see `scan_radius`; None means a fifth of the grid diameter).

    Each label has one source. A point is Boundary on a re-verified peak
    certificate, NotDetected on a finite LP relaxation optimum below
    DELTA_MIN (so no smaller radius admits a peak either), and
    Indeterminate on a SolverError, with its message as the note.

    Points are taken in index order. A point with no result yet is solved
    directly, and its orbit under the grid symmetries that preserve the
    span is walked breadth first, each point classified when first
    reached: a Boundary verdict moves from the point that reached it as a
    certificate re-checked on the new point's own distance row at the
    scan radius. A point whose moved certificate fails, or whose reaching
    point is not Boundary, is solved directly, so every rejection rests
    on the point's own relaxation optimum. On the factory grids, whose
    symmetries are isometries, margins are constant on an orbit.
    """
    if not span.unital:
        raise ValueError("peak search needs a unital span")
    if not span.separating:
        raise ValueError("peak search needs a separating span")
    r = scan_radius(span.space, radius)
    moves = [(g.tolist(), m) for g, m in _accepted_generators(span)]
    results: list[PointClassification | None] = [None] * span.space.n_points
    for root in range(len(results)):
        if results[root] is not None:
            continue
        results[root] = _scan_point(span, root, r)
        orbit = [root]
        for u in orbit:  # grows while it is walked
            for image, m in moves:
                i = image[u]
                if results[i] is None:
                    known = results[u]
                    # h'(g[y]) = h(y) has coefficients m c (see `_accepted_generators`)
                    cert = known.label is Classification.BOUNDARY and _recheck(
                        span, i, span.space.pairwise[i], m @ np.asarray(known.certificate.coeffs), r
                    )
                    results[i] = (
                        PointClassification(i, Classification.BOUNDARY, cert, cert.margin, known.source)
                        if cert
                        else _scan_point(span, i, r)
                    )
                    orbit.append(i)
    return BoundaryEstimate(span=span, points=tuple(results), radius=r)
