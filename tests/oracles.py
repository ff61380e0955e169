"""Independent oracles used to freeze expected values in the tests.

Each oracle deliberately takes a different computational route than the
implementation under test: exact rational arithmetic for polynomial
operator moments, a discrete Fourier multiplier route for the circle
convolution operator, brute-force coefficient scans for LP
feasibility questions, the per-point Python formulas of the named
function catalog, all-pairs loops for point separation and point
equality, and blocked all-pairs passes for the largest difference of
values and the extreme distances of a grid.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np


def bernstein_exact(f, n: int, x: Fraction) -> Fraction:
    """Exact rational sum of f(k/n) C(n,k) x^k (1-x)^(n-k)."""
    total = Fraction(0)
    for k in range(n + 1):
        total += f(Fraction(k, n)) * comb(n, k) * x**k * (1 - x) ** (n - k)
    return total


def fejer_fourier(values: np.ndarray, n: int) -> np.ndarray:
    """Cesàro-weighted Fourier resynthesis of grid samples.

    Computes discrete Fourier coefficients directly and damps frequency k
    by (1 - |k|/(n+1)); independent of any convolution-kernel weights.
    """
    values = np.asarray(values, dtype=complex)
    m = len(values)
    theta = 2.0 * np.pi * np.arange(m) / m
    out = np.zeros(m, dtype=complex)
    for k in range(-n, n + 1):
        coeff = np.sum(values * np.exp(-1j * k * theta)) / m
        out += (1.0 - abs(k) / (n + 1)) * coeff * np.exp(1j * k * theta)
    return out


def affine_peak_scan(space, x0: int, r: float, delta_min: float,
                     cmax: float = 2.5, steps: int = 81) -> bool:
    """Brute-force feasibility of a peak for the span {1, z} at x0.

    Pinning h(x0) = 1 leaves h = 1 + c (z - z0) with one free complex
    coefficient; scans a dense grid of c and checks the exact constraint
    system (|h| <= 1 off x0, |h| <= 1 - delta_min at distance >= r).
    """
    z = space.complex_points
    z0 = z[x0]
    d = space.pairwise[x0]
    far = d >= r
    near = d < r
    near[x0] = False
    axis = np.linspace(-cmax, cmax, steps)
    cands = (axis[:, None] + 1j * axis[None, :]).ravel()
    mods = np.abs(1.0 + np.outer(cands, z - z0))
    ok = np.ones(len(cands), dtype=bool)
    if near.any():
        ok &= mods[:, near].max(axis=1) <= 1.0 + 1e-9
    if far.any():
        ok &= mods[:, far].max(axis=1) <= 1.0 - delta_min
    return bool(ok.any())


def affine_lemma_scan(xs: np.ndarray, x0: int, alpha: float, beta: float,
                      u_mask: np.ndarray, coef_max: float = 60.0,
                      steps: int = 241) -> bool:
    """Brute-force feasibility of the separation system for span {1, x}.

    Scans f = a + b x over a dense (a, b) grid and checks f <= 0 on the
    grid, f <= -beta off U, and f(x0) >= -alpha.
    """
    a = np.linspace(-coef_max, coef_max, steps)
    b = np.linspace(-coef_max, coef_max, steps)
    f = a[:, None, None] + b[None, :, None] * xs[None, None, :]
    tol = 1e-9
    ok = (f <= tol).all(axis=2)
    outside = ~u_mask
    if outside.any():
        ok &= (f[:, :, outside] <= -beta + tol).all(axis=2)
    ok &= f[:, :, x0] >= -alpha - tol
    return bool(ok.any())


def _row(x) -> np.ndarray:
    return np.atleast_1d(np.asarray(x, float))


# The catalog as it was written before rules took arrays: one point in, one
# Python scalar out. The array rules must reproduce these bit for bit.
SCALAR_COMPLEX = {
    "const1": lambda z: 1.0,
    "z": lambda z: complex(z),
    "zbar": lambda z: complex(z).conjugate(),
    "|z|^2": lambda z: abs(complex(z)) ** 2,
    "re_z2": lambda z: (complex(z) ** 2).real,
    "im_z2": lambda z: (complex(z) ** 2).imag,
    "abs_im_z": lambda z: abs(complex(z).imag),
    "abs(z-1/2)": lambda z: abs(complex(z) - 0.5),
    "cos": lambda z: complex(z).real,
    "sin": lambda z: complex(z).imag,
}
SCALAR_INTERVAL = {
    "const1": lambda x: 1.0,
    "x": lambda x: float(x),
    "x^2": lambda x: float(x) ** 2,
    "x^3": lambda x: float(x) ** 3,
    "abs(x-1/2)": lambda x: abs(float(x) - 0.5),
    "runge": lambda x: 1.0 / (1.0 + 25.0 * float(x) ** 2),
    "cos": lambda x: float(np.cos(2.0 * np.pi * float(x))),
    "sin": lambda x: float(np.sin(2.0 * np.pi * float(x))),
}
SCALAR_COORDINATES = {
    "const1": lambda x: 1.0,
    "sum_sq": lambda x: float(np.sum(_row(x) ** 2)),
    "prod_coords": lambda x: float(np.prod(_row(x))),
    "abs(x1-1/2)": lambda x: abs(float(_row(x)[0]) - 0.5),
}


def scalar_catalog(field: str, dim: int) -> dict:
    """Name -> per-point formula for every catalog entry on a grid type."""
    if field == "complex":
        return dict(SCALAR_COMPLEX)
    table = dict(SCALAR_COORDINATES)
    for k in range(dim):
        table[f"coord {k + 1}"] = lambda x, _k=k: float(_row(x)[_k])
        table[f"coord {k + 1}^2"] = lambda x, _k=k: float(_row(x)[_k]) ** 2
    if dim == 1:
        table.update(SCALAR_INTERVAL)
    return table


def mollifier_loop(pairwise: np.ndarray, n: int) -> np.ndarray:
    """Equal-weight rows over each point's ball of radius 1/n, built one row
    at a time from a whole distance matrix (scipy's `cdist`)."""
    w = np.zeros(pairwise.shape)
    for i in range(pairwise.shape[0]):
        ball = np.nonzero(pairwise[i] < 1.0 / n)[0]
        w[i, ball] = 1.0 / ball.size
    return w


def separates_points_loop(b: np.ndarray, tol: float) -> tuple[bool, tuple[int, int] | None]:
    """All-pairs point separation: each row of the value matrix b against
    every later row. On failure, the first pair (i, j), i < j, whose values
    all lie within tol, in lexicographic order."""
    n = b.shape[0]
    for i in range(n - 1):
        diff = np.max(np.abs(b[i + 1 :] - b[i]), axis=1)
        bad = np.nonzero(diff <= tol)[0]
        if bad.size:
            return False, (i, i + 1 + int(bad[0]))
    return True, None


def distinct_rows_loop(points: np.ndarray) -> bool:
    """All-pairs point equality with Python's ``==``: each point (a row,
    a complex entry compared as a complex number) against every later one,
    entry by entry."""
    rows = [np.ravel(p).tolist() for p in points]
    for i, row in enumerate(rows):
        for other in rows[i + 1 :]:
            if all(a == b for a, b in zip(row, other)):
                return False
    return True


def oscillation_blocked(values: np.ndarray, entries: int) -> float:
    """Largest |v_i - v_j| of complex values over all pairs: rows compared
    against every value, about `entries` pairs at a time."""
    step = max(1, entries // values.size)
    return float(max(np.max(np.abs(values[i : i + step, None] - values)) for i in range(0, values.size, step)))


def farthest_blocked(coords: np.ndarray, entries: int) -> np.ndarray:
    """Each point's distance to its farthest point, from one pass over the
    upper triangle in blocks of about `entries` squared distances (gaps
    squared and summed axis by axis, as `cdist` does): block [lo, hi) x
    [lo, n) counts for its rows and its columns."""
    n = len(coords)
    farthest = np.zeros(n)
    step = min(max(1, entries // n), n)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        block = np.zeros((hi - lo, n - lo))
        for k in range(coords.shape[1]):
            gap = coords[lo:hi, k, None] - coords[lo:, k]
            block += gap * gap
        np.maximum(farthest[lo:hi], block.max(axis=1), out=farthest[lo:hi])
        np.maximum(farthest[lo:], block.max(axis=0), out=farthest[lo:])
    return np.sqrt(farthest)
