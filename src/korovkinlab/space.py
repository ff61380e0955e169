"""Finite point grids standing in for compact spaces.

A grid stores its points as coordinates in R^d under the Euclidean metric.
Complex-valued grids (circle, disc) have 2-d coordinates and read each
point as the complex number x + iy, a view of the same memory; that complex
view is the one functions are evaluated on. Grids and point sets are
immutable after construction, so they are safe to share between concurrent
tasks.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ResourceLimitError

# most points of a grid: its square is a kernel's weight budget
DEFAULT_POINT_CAP = 2**14
# entries of one block of every blocked pass (a sweep's row blocks, the disc
# mollifier's distance blocks, the largest row group of `visit_rows`):
# 256 KiB of float64, about one L2 cache. At 2**14, 2**15 and 2**18 the
# extremes of the 16384-point circle, whose every row is visited, take 0.55,
# 0.41 and 0.47 s, and the 4097-point disc's mollifier sweeps 0.82, 0.81
# and 0.82 s (medians of 5 interleaved rounds): 2**15 is the fastest
BLOCK_ENTRIES = 2**15
# coordinates of distinct points that differ by more than this on an axis
# differ by a gap whose square is a normal double
_GAP_FLOOR = 1e-150


def _check_point_count(kind: str, n_pts: int) -> None:
    """Refuse a grid of more than DEFAULT_POINT_CAP points; factories call
    it before they list a point."""
    if n_pts > DEFAULT_POINT_CAP:
        raise ResourceLimitError(
            f"{kind} grid would have {n_pts} points, above the cap of {DEFAULT_POINT_CAP}: its "
            "square is a kernel's weight budget, and a boundary scan computes a row per point"
        )


def _squared_distances(points: np.ndarray, columns: np.ndarray, out=None) -> np.ndarray:
    """Squared distances from each coordinate row of ``points`` to each
    column of ``columns``, into ``out`` when given: the squared coordinate
    gaps summed axis by axis, in scipy's `cdist` order."""
    out = np.subtract(points[:, 0, None], columns[0], out=out)
    out *= out
    for k in range(1, points.shape[1]):
        gap = points[:, k, None] - columns[k]
        gap *= gap
        out += gap
    return out


class DistanceRows:
    """A grid's distance matrix, never held: ``d[i]`` computes row i
    (``d[-1]`` the last) and ``d[lo:hi]`` a block of rows. Every entry is
    the double `scipy.spatial.distance.cdist` gives: the squared coordinate
    gaps summed axis by axis, then one square root."""

    def __init__(self, coords: np.ndarray) -> None:
        self._coords = coords
        self._columns = np.ascontiguousarray(coords.T)  # strided columns read slower

    def __getitem__(self, key: int | slice) -> np.ndarray:
        one = not isinstance(key, slice)
        points = self._coords[operator.index(key), None] if one else self._coords[key]
        squared = _squared_distances(points, self._columns)
        rows = np.sqrt(squared, out=squared)
        return rows[0] if one else rows

    def within(self, lo: int, hi: int, r: float, out: np.ndarray) -> np.ndarray:
        """Rows [lo, hi) of the mask ``d < r``, from squared distances written
        into ``out``: the square root is correctly rounded, so monotone, and
        sqrt(x) < r exactly when x is below the least double whose root reaches r."""
        limit = r * r
        while math.sqrt(limit) >= r:
            limit = math.nextafter(limit, 0.0)
        while math.sqrt(limit) < r:
            limit = math.nextafter(limit, math.inf)
        return _squared_distances(self._coords[lo:hi], self._columns, out) < limit

    @cached_property
    def extremes(self) -> tuple[float, float]:
        """The diameter and the least eccentricity, from the rows that can set them.

        Rows go in `rows_by_bound` order until no bound reaches the largest
        entry. The rest then go in increasing order of their largest entry
        so far, a lower bound of their own (it includes their distances to
        both ends of the diameter), until none is below the least maximum
        of a visited row. Both are square roots of maxima of squared entries."""
        n, dim = self._coords.shape
        centre = self._columns.min(axis=1) / 2 + self._columns.max(axis=1) / 2
        e = np.sqrt(_squared_distances(centre[None], self._columns)[0])
        order, reach = rows_by_bound(e, dim, squared=True)
        columns = np.take(self._columns, order, axis=1)  # C order: `[:, order]` is not
        buffer = np.empty(min(max(BLOCK_ENTRIES, n), n * n))  # the largest group

        def block(lo: int, hi: int) -> np.ndarray:
            out = buffer[: (hi - lo) * (n - lo)].reshape(hi - lo, n - lo)
            return _squared_distances(columns[:, lo:hi].T, columns[:, lo:], out)

        far = np.zeros(n)
        k, best = visit_rows(far, block, 0, 0.0, np.maximum, reach)
        rest = k + np.argsort(far[k:], kind="stable")
        columns[:, k:], far[k:] = np.take(columns, rest, axis=1), far[rest]
        key = far[k:].copy()
        _, least = visit_rows(
            far, block, k, far[:k].min(), np.minimum, lambda least: k + int(key.searchsorted(least))
        )
        return math.sqrt(best), math.sqrt(least)


# unit roundoff and least subnormal of a double
_U = 2.0**-53
_ETA = math.ulp(0.0)


def rows_by_bound(e: np.ndarray, dim: int, squared: bool) -> tuple:
    """Rows of a symmetric all-pairs maximum in decreasing order of a bound
    on their entries, and ``reach(best)``: how many can hold one above ``best``.

    ``e`` (overwritten) holds each row's computed distance to a centre c, and
    the bound is ub_i = (e_i + R)(1 + 2(dim + 8)u) + 8t, with R = max e,
    u = 2**-53 and η = 2**-1074. Entries and e are exact distances within a
    factor 1 + εu, plus β where results underflow (Higham, §3.1):
    - ``squared``: squared distances of dim coordinates, gaps squared and
      summed, compared through their roots: ε = (dim + 4) / 2,
      β = sqrt(dim * η / 2) and t = sqrt(dim * η);
    - complex values (dim = 2): each part of a difference rounds once, and
      numpy's |z| is within 2 ulps (glibc's hypot within 1, numpy's SIMD
      form within 3u): ε = 5 and β = t = η.
    By |x_i - x_j| <= |x_i - c| + |x_j - c| an entry is then at most
    (1 + εu)²(e_i + e_j) + 3β; the rest of 2(dim + 8)u and of 8t covers the
    rounding of ub_i itself. A bound that overflows is inf and keeps its row."""
    neg = np.add(e, e.max(), out=e)
    neg *= -(1 + 2 * (dim + 8) * _U)
    neg -= 8 * (math.sqrt(dim * _ETA) if squared else _ETA)
    order = np.argsort(neg, kind="stable")  # numpy's SIMD quicksort maps ~0.3 MB of code
    neg = neg[order]
    root = math.sqrt if squared else float
    return order, lambda best: int(neg.searchsorted(-root(best), "right"))


def visit_rows(far: np.ndarray, block, lo: int, ext, better, end) -> tuple:
    """Visit rows lo, lo + 1, ... of a symmetric all-pairs pass, in groups.

    ``block(lo, hi)`` computes rows [lo, hi) against columns [lo, n): the
    upper triangle of the visit order. Its row and column maxima raise
    ``far``, so a visited row's ``far`` is its maximum and a later row's is
    a maximum of some of its entries. Groups start at one row and double
    while they hold at most BLOCK_ENTRIES entries (at least one row), as a
    block of BLOCK_ENTRIES // n full rows did. ``ext`` is the ``better``
    (np.maximum or np.minimum) of the visited rows' maxima, brought up to
    date each time the visited rows have doubled and on reaching
    ``end(ext)``, the first row whose bound cannot improve it, where the
    pass stops. A stale ``ext`` only moves that row later, so the pass
    visits at most about twice the rows it must. Returns the first row not
    visited and ``ext``."""
    n = far.size
    first, done, seen, size, stop = lo, 0, 0, 1, end(ext)
    while (hi := min(lo + size, stop)) > lo:
        rows = block(lo, hi)
        np.maximum(far[lo:hi], rows.max(axis=1), out=far[lo:hi])
        np.maximum(far[lo:], rows.max(axis=0), out=far[lo:])
        done += hi - lo
        lo, size = hi, max(1, min(done, BLOCK_ENTRIES // max(n - hi, 1)))
        if done >= 2 * seen or lo == stop:
            ext = better(ext, better.reduce(far[first + seen : lo]))
            seen, stop = done, end(ext)
    return lo, ext


def distinct_rows(points: np.ndarray) -> bool:
    """Whether no two points are equal (``==``). A point is a row of
    ``points``, shape ``(N,)`` or ``(N, ...)``, and a complex entry counts
    as its real part, then its imaginary part: -0.0 equals 0.0, and a NaN
    equals nothing. Rows already in strictly increasing lexicographic order
    are distinct without a sort, which spares a large tensor node array
    one; any others are sorted, so that equal rows sit next to each other."""
    rows = points.reshape(len(points), -1)
    if np.iscomplexobj(rows):
        rows = np.stack([rows.real, rows.imag], axis=-1).reshape(len(rows), -1)
    increasing = np.zeros(len(rows) - 1, dtype=bool)
    for before, after in zip(rows[:-1].T[::-1], rows[1:].T[::-1]):  # last column first
        increasing = (after > before) | ((after == before) & increasing)
    if increasing.all():
        return True
    ordered = rows[np.lexsort(rows.T)]
    return not (ordered[1:] == ordered[:-1]).all(axis=1).any()


class Field(Enum):
    REAL = "real"
    COMPLEX = "complex"


class SpaceKind(Enum):
    INTERVAL = "interval"
    CIRCLE = "circle"
    DISC = "disc"
    BOX = "box"
    CUSTOM = "custom"


@dataclass(frozen=True, eq=False)
class CompactSpace:
    """An ordered finite point set with the Euclidean metric.

    ``coords`` has shape ``(n_points, dim)`` and defines every point; a
    complex-field grid has ``dim == 2`` and derives ``complex_points`` from
    it. ``boundary_mask`` (when present) flags points placed on the
    topological boundary by the constructing factory. ``generators`` holds candidate
    symmetries as index arrays: ``g`` maps point ``i`` to point ``g[i]``.
    They are candidates only; a boundary scan keeps those that preserve
    its span and re-verifies every certificate it moves along one. The
    factories' symmetries are isometries.
    """

    id: str
    field: Field
    kind: SpaceKind
    coords: np.ndarray
    boundary_mask: np.ndarray | None = None
    generators: tuple[np.ndarray, ...] = ()

    def __post_init__(self) -> None:
        coords = np.ascontiguousarray(self.coords, dtype=float)
        if coords.ndim == 1:
            coords = coords[:, None]
        if coords.ndim != 2 or coords.shape[1] == 0:
            raise ValueError("coords must have shape (n_points, dim)")
        if coords.shape[0] < 2:
            raise ValueError("a grid needs at least 2 points")
        _check_point_count(self.kind.value, coords.shape[0])
        if not np.all(np.isfinite(coords)):
            raise ValueError("grid coordinates must be finite")
        # every distance is at most the box diagonal, summed as `pairwise` sums
        with np.errstate(over="ignore"):
            extent = coords.max(axis=0) - coords.min(axis=0)
            if not np.isfinite(np.sqrt(np.sum(extent * extent))):
                raise ValueError("the grid spreads too far: its distances overflow a double")
        if not distinct_rows(coords):
            raise ValueError("grid points must be pairwise distinct")
        if self.field is Field.COMPLEX and coords.shape[1] != 2:
            raise ValueError("complex-field grids need 2-d coordinates")
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

        if self.boundary_mask is not None:
            bm = np.asarray(self.boundary_mask, dtype=bool)
            if bm.shape != (coords.shape[0],):
                raise ValueError("boundary_mask must have one entry per grid point")
            bm.setflags(write=False)
            object.__setattr__(self, "boundary_mask", bm)

        gens = []
        for g in self.generators:
            g = np.asarray(g)
            if g.dtype.kind not in "iu" or not np.array_equal(
                np.sort(g, kind="stable"), np.arange(coords.shape[0])
            ):
                raise ValueError("a generator must be a permutation of the point indices")
            g = g.astype(np.intp)
            g.setflags(write=False)
            gens.append(g)
        object.__setattr__(self, "generators", tuple(gens))

        self.validate_metric()

    @property
    def n_points(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    @property
    def complex_points(self) -> np.ndarray:
        """Each point of a complex grid as x + iy: a read-only view of ``coords``."""
        if self.field is not Field.COMPLEX:
            raise AttributeError("real-field grids have no complex points")
        return np.ascontiguousarray(self.coords).view(np.complex128)[:, 0]

    @cached_property
    def pairwise(self) -> DistanceRows:
        """The distance matrix, read by rows: each row is computed when read."""
        return DistanceRows(self.coords)

    @cached_property
    def points(self) -> np.ndarray:
        """All grid points in the form evaluation rules take.

        Complex grids give a complex array of shape ``(n,)``, 1-d real grids
        a float array of shape ``(n,)``, higher-dimensional real grids the
        ``(n, dim)`` coordinate rows. One point drops the leading axis.
        """
        if self.field is Field.COMPLEX:
            return self.complex_points
        return self.coords[:, 0] if self.dim == 1 else self.coords

    @property
    def diameter(self) -> float:
        return self.pairwise.extremes[0]

    @property
    def least_eccentricity(self) -> float:
        """The least, over grid points, of the distance to the farthest point:
        every point has a point this far, and some point has none farther."""
        return self.pairwise.extremes[1]

    def validate_metric(self) -> None:
        """Check that every point's nearest neighbour is at positive distance.

        Distinct coordinates can still be at distance 0.0 when the squared
        difference underflows. When the distinct coordinates on every axis
        are more than _GAP_FLOOR apart, each pair of distinct points has a
        gap whose square is a normal double, so every distance is positive.
        Otherwise two points at distance 0.0 differ on some axis by at most
        _GAP_FLOOR, so there they lie in one run of sorted gaps at most
        _GAP_FLOOR that holds a nonzero gap: every point in such a run, on
        any axis, has its distance row checked. No n x n array is built.
        """
        gaps = np.diff(np.sort(self.coords, axis=0, kind="stable"), axis=0)
        if np.all((gaps == 0.0) | (gaps > _GAP_FLOOR)):
            return
        suspect = np.zeros(self.n_points, dtype=bool)
        for g, at in zip(gaps.T, np.argsort(self.coords, axis=0, kind="stable").T):
            run = np.cumsum(g > _GAP_FLOOR)  # consecutive small gaps share a run
            hot = np.zeros(run[-1] + 1, dtype=bool)
            hot[run[(g > 0.0) & (g <= _GAP_FLOOR)]] = True
            live = hot[run] & (g <= _GAP_FLOOR)
            suspect[at[:-1][live]] = suspect[at[1:][live]] = True
        for i in np.flatnonzero(suspect):
            row = self.pairwise[i]
            row[i] = np.inf
            if row.min() <= 0.0:
                raise ValueError("distinct grid points must have positive distance")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompactSpace(id={self.id!r}, kind={self.kind.value}, "
            f"field={self.field.value}, n_points={self.n_points})"
        )


@dataclass(frozen=True, eq=False)
class PointSet:
    """A duplicate-free subset of grid point indices."""

    space: CompactSpace
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        idx = tuple(int(i) for i in self.indices)
        if len(set(idx)) != len(idx):
            raise ValueError("point set indices must be duplicate-free")
        if idx and (min(idx) < 0 or max(idx) >= self.space.n_points):
            raise ValueError("point set index out of range")
        object.__setattr__(self, "indices", tuple(sorted(idx)))

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, i) -> bool:
        return int(i) in set(self.indices)


def product_points(axis: np.ndarray, p: int) -> np.ndarray:
    """The points of axis^p, one per row of a C-contiguous array, in C
    (itertools.product) order: the last coordinate varies fastest."""
    return np.stack(np.meshgrid(*[axis] * p, indexing="ij", copy=False), axis=-1).reshape(-1, p)


def _product_grid(kind: SpaceKind, space_id: str, p: int, m: int) -> CompactSpace:
    """Tensor grid {k/m : k = 0..m}^p in C order. The candidate symmetries
    reflect one axis (k_a -> m - k_a) or swap two adjacent axes."""
    if m < 1:
        raise ValueError(f"{kind.value} grid needs m >= 1")
    _check_point_count(kind.value, (m + 1) ** p)
    index = np.arange((m + 1) ** p).reshape((m + 1,) * p)
    moves = [np.flip(index, a) for a in range(p)] + [np.swapaxes(index, a, a + 1) for a in range(p - 1)]
    return CompactSpace(
        id=space_id,
        field=Field.REAL,
        kind=kind,
        coords=product_points(np.arange(m + 1) / m, p),
        generators=tuple(move.ravel() for move in moves),
    )


def _ring_grid(kind: SpaceKind, space_id: str, center: int, rings: int, per_ring: int) -> CompactSpace:
    """``center`` points at 0 (none or one), then ``rings`` rings of
    ``per_ring`` points at radii j/rings, point k of a ring at angle
    2 pi k / per_ring; the outermost ring, at radius exactly 1, is flagged
    as boundary points. Rotation by one step on every ring and conjugation
    (t -> -t) are the candidate symmetries; the centre stays fixed."""
    n_pts = center + rings * per_ring
    _check_point_count(kind.value, n_pts)
    k = np.arange(per_ring)
    theta = 2.0 * np.pi * k / per_ring
    radii = np.arange(1, rings + 1)[:, None] / rings
    coords = np.zeros((n_pts, 2))
    coords[center:, 0] = (radii * np.cos(theta)).ravel()
    coords[center:, 1] = (radii * np.sin(theta)).ravel()
    base = center + per_ring * np.arange(rings)[:, None]
    return CompactSpace(
        id=space_id,
        field=Field.COMPLEX,
        kind=kind,
        coords=coords,
        boundary_mask=np.arange(n_pts) >= n_pts - per_ring,
        generators=tuple(
            np.r_[np.arange(center), (base + step % per_ring).ravel()] for step in (k + 1, -k)
        ),
    )


def make_interval_grid(m: int) -> CompactSpace:
    """Equispaced grid {k/m : k = 0..m} on the unit interval, with the
    reflection k -> m - k as its candidate symmetry: the one-axis box."""
    return _product_grid(SpaceKind.INTERVAL, f"interval_m{m}", 1, m)


def make_circle_grid(m: int) -> CompactSpace:
    """m-th roots of unity with the chordal (ambient Euclidean) metric: one
    ring at radius 1 and no centre. Rotation by one step and conjugation
    are its candidate symmetries."""
    if m < 3:
        raise ValueError("circle grid needs m >= 3")
    return _ring_grid(SpaceKind.CIRCLE, f"circle_m{m}", 0, 1, m)


def make_disc_grid(rings: int, per_ring: int) -> CompactSpace:
    """Center point plus concentric rings at radii j/rings.

    Points on the outermost ring sit at radius exactly 1 and are flagged as
    boundary points. Rotation by one step on each ring and conjugation are
    the candidate symmetries.
    """
    if rings < 1:
        raise ValueError("disc grid needs rings >= 1")
    if per_ring < 3:
        raise ValueError("disc grid needs per_ring >= 3")
    return _ring_grid(SpaceKind.DISC, f"disc_r{rings}x{per_ring}", 1, rings, per_ring)


def make_box_grid(p: int, m: int) -> CompactSpace:
    """Tensor grid {k/m}^p on the unit box.

    The candidate symmetries reflect one axis (k_a -> m - k_a) or swap two
    adjacent axes.
    """
    if p < 1:
        raise ValueError("box grid needs p >= 1")
    return _product_grid(SpaceKind.BOX, f"box_p{p}_m{m}", p, m)


def make_custom_space(
    points: Sequence, field: Field = Field.REAL, space_id: str = "custom"
) -> CompactSpace:
    """Wrap an explicit point list; complex input becomes a complex-field grid.

    Complex grids accept either complex scalars or [re, im] coordinate pairs
    (the form available to JSON configurations). Every point is a number,
    or every point a list of one length.
    """
    try:
        arr = np.asarray(points)
    except ValueError:  # a ragged list: name its first point of another form
        form = np.shape(points[0])
        bad = next((i for i, p in enumerate(points) if np.shape(p) != form), None)
        if bad is None:
            raise
        raise ValueError(
            f"custom grid point {bad}, {points[bad]!r}, is not of the form of point 0, "
            f"{points[0]!r}: the points must all be numbers or all be lists of one length"
        ) from None
    if field is Field.COMPLEX or np.iscomplexobj(arr):
        if np.iscomplexobj(arr):
            cp = arr.astype(complex).reshape(-1)
        else:
            pairs = np.asarray(arr, dtype=float)
            if pairs.ndim != 2 or pairs.shape[1] != 2:
                raise ValueError(
                    "complex custom grids need complex scalars or [re, im] pairs"
                )
            cp = pairs[:, 0] + 1j * pairs[:, 1]
        # coordinates from the parts of cp: x + 1j*y drops signed zeros, so
        # the pairs can differ from cp, and the complex view must equal cp
        coords = np.column_stack([cp.real, cp.imag])
        return CompactSpace(id=space_id, field=Field.COMPLEX, kind=SpaceKind.CUSTOM, coords=coords)
    coords = np.asarray(arr, dtype=float)
    if coords.ndim == 1:
        coords = coords[:, None]
    return CompactSpace(id=space_id, field=Field.REAL, kind=SpaceKind.CUSTOM, coords=coords)


def open_ball(space: CompactSpace, x0: int, r: float) -> PointSet:
    """Grid points at metric distance < r from the point with index x0."""
    if not 0 <= int(x0) < space.n_points:
        raise ValueError("ball center index out of range")
    if r <= 0:
        raise ValueError("ball radius must be positive")
    idx = np.nonzero(space.pairwise[int(x0)] < r)[0]
    return PointSet(space, tuple(int(i) for i in idx))
