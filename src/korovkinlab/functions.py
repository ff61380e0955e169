"""Scalar functions on a grid, and finite-dimensional spans of them.

A function is an evaluation rule, not a value vector: composing with a
point map or evaluating at off-grid kernel nodes stays exact. A rule takes
an array of points in the form of ``CompactSpace.points`` (shape ``(N,)``,
complex or float, or ``(N, dim)`` coordinate rows) and returns their
values with shape ``(N,)``, or one scalar for a constant function. One
call evaluates every grid point or every kernel node. Built-in rules also
accept a single point. The sampled value vector over the grid is computed
lazily and cached on the function.

Every least-squares question about a span, `FunctionSpan.fit`, is answered
from one cached SVD of its value matrix. Span membership (and the unital /
self-conjugate flags derived from it) is a fit's residual within a fixed
tolerance; point separation uses a tolerance well below any grid spacing
used here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import InvalidFunctionError
from .space import CompactSpace, Field, SpaceKind, rows_by_bound, visit_rows

MEMBERSHIP_TOL = 1e-10
SEPARATION_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ScalarFunction:
    """An array evaluation rule points -> values bound to one grid."""

    space: CompactSpace
    rule: Callable
    name: str = ""

    def __call__(self, x):
        return self.rule(x)

    @cached_property
    def values(self) -> np.ndarray:
        """Sampled value vector over the grid; validated once and cached."""
        with np.errstate(all="ignore"):  # a non-finite value is reported below
            raw = evaluate(self, self.space.points)
        _check_finite(raw, self.name)
        return _field_vector(raw, self.space, f"function {self.name!r}")


def _check_finite(raw: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(raw)):
        raise InvalidFunctionError(f"function {name!r} takes a non-finite value on the grid")


def _field_vector(raw: np.ndarray, space: CompactSpace, what: str) -> np.ndarray:
    """A new read-only copy of raw in the grid's field: complex, or real
    when the imaginary part vanishes on a real-field grid."""
    if space.field is Field.COMPLEX:
        out = np.array(raw, dtype=complex)
    elif np.iscomplexobj(raw) and np.max(np.abs(raw.imag)) > 0.0:
        raise InvalidFunctionError(f"{what} is complex-valued on a real-field grid")
    else:
        out = np.array(raw.real, dtype=float)
    out.setflags(write=False)
    return out


def evaluate(f: ScalarFunction, points: np.ndarray) -> np.ndarray:
    """Values of f at an array of points from one rule call, as a new
    contiguous array of shape ``(len(points),)``."""
    raw = np.asarray(f.rule(points))
    n = len(points)
    if raw.shape not in ((), (n,)):
        raise InvalidFunctionError(
            f"function {f.name!r} returned shape {raw.shape} for {n} points"
        )
    return np.array(np.broadcast_to(raw, (n,)))


def function_from_values(space: CompactSpace, values, name: str = "") -> ScalarFunction:
    """Wrap a grid-sampled value vector as an evaluation rule.

    Its rule returns the vector for ``space.points`` or an array equal to
    it; anything else (another point, one grid point, the points in another
    order) is an error rather than an interpolation. Its cached ``values``
    are the field copy of the vector, checked finite here as ``values``
    checks a rule's, so reading them evaluates nothing.
    """
    vals = np.asarray(values)
    if vals.shape != (space.n_points,):
        raise ValueError("value vector length must match the grid")
    vals = _field_vector(vals, space, f"values for {name!r}")
    _check_finite(vals, name)

    def rule(x):
        if x is not space.points and not np.array_equal(x, space.points):
            raise InvalidFunctionError(
                f"{name!r} is grid-sampled and has values only at the grid's points, in grid order"
            )
        return vals

    f = ScalarFunction(space, rule, name=name)
    f.__dict__["values"] = vals  # the cached_property's slot
    return f


def conjugate(f: ScalarFunction) -> ScalarFunction:
    """Complex conjugate of a function; identity on real-field grids."""
    if f.space.field is Field.REAL:
        return f
    return ScalarFunction(
        f.space, lambda x: np.conj(np.asarray(f.rule(x), dtype=complex)), name=f"conj({f.name})"
    )


def sup_norm(f: ScalarFunction) -> float:
    """Maximum of |f| over the grid."""
    return float(np.max(np.abs(f.values)))


def oscillation(f: ScalarFunction) -> float:
    """Largest |f(x) - f(x')| over all grid pairs.

    Complex values are compared only in the rows that can hold the largest
    difference (`space.rows_by_bound`, around the centre of their bounding
    box), each against the rows not yet visited (`space.visit_rows`); every
    difference is computed as an all-pairs pass computes it, so the maximum
    is the same double.
    """
    v = f.values
    if f.space.field is Field.REAL:
        return float(v.max() - v.min())
    # halves, not (hi - lo) / 2: the parts' range can overflow
    centre = complex(*(part.min() / 2 + part.max() / 2 for part in (v.real, v.imag)))
    e = np.abs(v - centre)
    if not e.any():  # every value is the centre
        return 0.0
    order, reach = rows_by_bound(e, 2, squared=False)
    w = v[order]

    def block(lo: int, hi: int) -> np.ndarray:
        return np.abs(w[lo:hi, None] - w[lo:])

    return float(visit_rows(np.zeros(v.size), block, 0, 0.0, np.maximum, reach)[1])


@dataclass(frozen=True, eq=False)
class FunctionSpan:
    """Finite-dimensional span of functions over one grid."""

    basis: tuple[ScalarFunction, ...]

    def __post_init__(self) -> None:
        basis = tuple(self.basis)
        if not basis:
            raise ValueError("a span needs at least one basis function")
        sp = basis[0].space
        if any(f.space is not sp for f in basis):
            raise ValueError("all basis functions must live on the same grid")
        object.__setattr__(self, "basis", basis)

    @property
    def space(self) -> CompactSpace:
        return self.basis[0].space

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def value_matrix(self) -> np.ndarray:
        m = np.column_stack([f.values for f in self.basis])
        m.setflags(write=False)
        return m

    @cached_property
    def _solver(self) -> np.ndarray:
        """The k x N least-squares solver of value_matrix from one SVD; as in
        numpy's default, singular values up to eps * max(N, k) * s_max count as 0."""
        u, s, vh = np.linalg.svd(self.value_matrix, full_matrices=False)
        keep = s > np.finfo(float).eps * max(self.value_matrix.shape) * s[0]
        return (vh[keep].conj().T / s[keep]) @ u[:, keep].conj().T

    def fit(self, values) -> tuple[np.ndarray, float]:
        """Least-squares coefficients of values, (N,) or (N, m), and the max-abs residual."""
        coeffs = self._solver @ values
        return coeffs, float(np.max(np.abs(self.value_matrix @ coeffs - values)))

    def contains_values(self, target_values) -> bool:
        return self.fit(target_values)[1] <= MEMBERSHIP_TOL

    @cached_property
    def unital(self) -> bool:
        return self.contains_values(np.ones(self.space.n_points))

    @cached_property
    def self_conjugate(self) -> bool:
        return self.space.field is Field.REAL or self.contains_values(np.conj(self.value_matrix))

    @cached_property
    def separating(self) -> bool:
        return separates_points(self)[0]


def separates_points(span: FunctionSpan) -> tuple[bool, tuple[int, int] | None]:
    """Whether basis value vectors distinguish every grid pair.

    On failure, returns the lexicographically smallest pair (i, j), i < j,
    of indistinguishable point indices. Values within SEPARATION_TOL are as
    close in every real coordinate, so only pairs within twice that (a
    margin over rounding) in the coordinate with the widest range are
    compared: the rows sorted by it, one offset along the order at a time.
    """
    b = span.value_matrix
    n = len(b)
    coords = np.hstack([b.real, b.imag]) if np.iscomplexobj(b) else b
    key = coords[:, int(np.argmax(np.ptp(coords, axis=0)))]
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    reach = np.searchsorted(ordered, ordered + 2 * SEPARATION_TOL, side="right") - np.arange(n)
    rows = b[order]
    witness = None
    for d in range(1, int(reach.max(initial=1))):
        at = np.nonzero(reach > d)[0]
        close = at[np.max(np.abs(rows[at + d] - rows[at]), axis=1) <= SEPARATION_TOL]
        if close.size:
            i, j = order[close], order[close + d]
            lo, hi = np.minimum(i, j), np.maximum(i, j)
            first = np.lexsort((hi, lo))[0]
            witness = min(witness or (n, n), (int(lo[first]), int(hi[first])))
    return witness is None, witness


def conjugate_closure(span: FunctionSpan) -> FunctionSpan:
    """Smallest self-conjugate span containing the input; no-op on real grids."""
    if span.space.field is Field.REAL:
        return span
    return span_union(span, FunctionSpan(tuple(conjugate(f) for f in span.basis)))


def span_union(first: FunctionSpan, second: FunctionSpan) -> FunctionSpan:
    """Span generated by two spans, skipping redundant basis members of the second."""
    if second.space is not first.space:
        raise ValueError("span union requires spans over the same grid")
    basis = list(first.basis)
    current = first
    for f in second.basis:
        if not current.contains_values(f.values):
            basis.append(f)
            current = FunctionSpan(tuple(basis))
    return current


# ---------------------------------------------------------------------------
# named function catalog (used by configuration files and default probe sets)


def _square(z) -> tuple:
    """Real and imaginary parts of z**2 as Python's complex power forms
    them: (1+0j) * (z*z), whose 0 * re term fixes the sign of a zero
    imaginary part."""
    re = z.real * z.real - z.imag * z.imag
    return re, z.real * z.imag + z.imag * z.real + 0.0 * re


# Array expressions by grid type. Each agrees bit for bit with the scalar
# Python formula it replaced (tests/oracles.py keeps those): float_power is
# C pow like Python's `**`, and hypot is Python's abs(complex).
_COMPLEX_RULES = {
    "z": lambda z: z,
    "zbar": np.conj,
    "|z|^2": lambda z: np.float_power(np.hypot(z.real, z.imag), 2),
    "re_z2": lambda z: _square(z)[0],
    "im_z2": lambda z: _square(z)[1],
    "abs_im_z": lambda z: np.abs(z.imag),
    "abs(z-1/2)": lambda z: np.hypot(z.real - 0.5, z.imag),
    "cos": lambda z: z.real,
    "sin": lambda z: z.imag,
}
_INTERVAL_RULES = {
    "x": lambda x: x,
    "x^2": lambda x: np.float_power(x, 2),
    "x^3": lambda x: np.float_power(x, 3),
    "abs(x-1/2)": lambda x: np.abs(x - 0.5),
    "runge": lambda x: 1.0 / (1.0 + 25.0 * np.float_power(x, 2)),
    "cos": lambda x: np.cos(2.0 * np.pi * x),
    "sin": lambda x: np.sin(2.0 * np.pi * x),
}
# on (..., dim) coordinate rows
_COORDINATE_RULES = {
    "sum_sq": lambda X: np.sum(X**2, axis=-1),
    "prod_coords": lambda X: np.prod(X, axis=-1),
    "abs(x1-1/2)": lambda X: np.abs(X[..., 0] - 0.5),
}
_COORD_RE = re.compile(r"^coord\s+(\d+)(\^2)?$")


def _build_named(name: str, space: CompactSpace) -> Callable:
    if name == "const1":
        return lambda x: 1.0
    if space.field is Field.COMPLEX:
        rule, dtype = _COMPLEX_RULES.get(name), complex
    elif space.dim == 1 and name in _INTERVAL_RULES:
        rule, dtype = _INTERVAL_RULES[name], float
    else:
        rule, dtype = _coordinate_rule(name, space.dim), float
    if rule is None:
        raise ValueError(
            f"unknown function name {name!r} for a {space.kind.value}/{space.field.value} grid"
        )
    return lambda x: rule(np.asarray(x, dtype=dtype))


def _coordinate_rule(name: str, dim: int) -> Callable | None:
    """Rule of a real grid's coordinates, or None; 1-d grids gain a row axis."""
    m = _COORD_RE.match(name)
    if m:
        k = int(m.group(1)) - 1
        if not 0 <= k < dim:
            raise ValueError(f"coordinate index {k + 1} out of range for a {dim}-d grid")
        rule = (lambda X: np.float_power(X[..., k], 2)) if m.group(2) else (lambda X: X[..., k])
    else:
        rule = _COORDINATE_RULES.get(name)
    if rule is None or dim > 1:
        return rule
    return lambda x: rule(x[..., None])


def named_function(name: str, space: CompactSpace) -> ScalarFunction:
    """Look up a built-in function by its configuration-file name."""
    return ScalarFunction(space, _build_named(name, space), name=name)


def default_probe_names(space: CompactSpace) -> tuple[str, ...]:
    """Default 8-member probe battery for a grid kind.

    Each battery mixes exactly reproduced members, smooth functions, an
    oscillatory pair, and at least one non-smooth function.
    """
    if space.field is Field.REAL and space.dim == 1:
        return ("const1", "x", "x^2", "x^3", "abs(x-1/2)", "runge", "cos", "sin")
    if space.kind is SpaceKind.CIRCLE:
        return ("const1", "z", "zbar", "cos", "sin", "re_z2", "im_z2", "abs_im_z")
    if space.field is Field.COMPLEX:
        return ("const1", "z", "zbar", "|z|^2", "re_z2", "im_z2", "abs(z-1/2)", "cos")
    names = ["const1"]
    for k in range(1, min(space.dim, 2) + 1):
        names.append(f"coord {k}")
    for k in range(1, min(space.dim, 2) + 1):
        names.append(f"coord {k}^2")
    names.extend(["sum_sq", "prod_coords", "abs(x1-1/2)"])
    return tuple(names[:8])


def default_probes(space: CompactSpace) -> tuple[ScalarFunction, ...]:
    return tuple(named_function(n, space) for n in default_probe_names(space))
