"""Finite point grids standing in for compact spaces.

A grid stores its points as coordinates in R^d under the Euclidean metric.
Complex-valued grids (circle, disc) have 2-d coordinates and read each
point as the complex number x + iy, a view of the same memory; that complex
view is the one functions are evaluated on. Grids and point sets are
immutable after construction, so they are safe to share between concurrent
tasks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ResourceLimitError

# the dense pairwise distance matrix of this many points takes 2 GiB, the
# memory budget of one grid; larger grids are refused before any n x n work
DEFAULT_POINT_CAP = 2**14
# work over the distance matrix goes this many entries at a time
BLOCK_ENTRIES = 2**18
# the distance matrix is mirrored below its diagonal at least this many
# columns at a time: a narrower strip writes a few doubles per page it touches
MIRROR_COLUMNS = 256
# coordinates of distinct points that differ by more than this on an axis
# differ by a gap whose square is a normal double
_GAP_FLOOR = 1e-150


def _check_point_count(kind: str, n_pts: int) -> None:
    """Refuse a grid of more than DEFAULT_POINT_CAP points; factories call
    it before they list a point."""
    if n_pts > DEFAULT_POINT_CAP:
        raise ResourceLimitError(
            f"{kind} grid would have {n_pts} points, above the cap of "
            f"{DEFAULT_POINT_CAP} (a dense distance matrix of 2 GiB)"
        )


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
    every distance and its span.
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
        if coords.ndim != 2:
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
        # equal rows sit next to each other in any lexicographic order
        ordered = coords[np.lexsort(coords.T)]
        if (ordered[1:] == ordered[:-1]).all(axis=1).any():
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
                np.sort(g), np.arange(coords.shape[0])
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
    def pairwise(self) -> np.ndarray:
        """Full Euclidean distance matrix: the squared coordinate gaps summed
        axis by axis, in scipy's `cdist` order, a block of rows at a time.
        The rows go in strips of at least MIRROR_COLUMNS; each block is
        computed from its strip's first column on, and each strip is then
        mirrored below the diagonal: (a - b)² and (b - a)² are the same
        double."""
        c = self.coords
        n = self.n_points
        d = np.empty((n, n))
        rows = max(1, BLOCK_ENTRIES // n)
        width = max(rows, MIRROR_COLUMNS)
        for m in range(0, n, width):
            f = min(m + width, n)
            for s in range(m, f, rows):
                e = min(s + rows, f)
                block = d[s:e, m:]
                np.subtract(c[s:e, 0, None], c[m:, 0], out=block)
                block *= block
                for a in range(1, self.dim):
                    gap = c[s:e, a, None] - c[m:, a]
                    gap *= gap
                    block += gap
                np.sqrt(block, out=block)
            d[f:, m:f] = d[m:f, f:].T
        d.setflags(write=False)
        return d

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

    def _records(self, points) -> np.ndarray:
        # one sortable record per point; complex points on a real grid, or a
        # last axis of the wrong width, become NaN records that match nothing
        pts = np.asarray(points)
        if self.field is Field.COMPLEX:
            rows = np.stack([pts.real, pts.imag], axis=-1)
        else:
            rows = pts[..., None] if self.dim == 1 else pts
        width = self.coords.shape[1]
        if rows.shape[-1:] != (width,) or np.iscomplexobj(rows):
            rows = np.full(rows.shape[:-1] + (width,), np.nan)
        rows = np.ascontiguousarray(rows, dtype=float)
        return rows.view(np.dtype([("", float)] * width))[..., 0]

    @cached_property
    def _sorted_records(self) -> tuple[np.ndarray, np.ndarray]:
        records = self._records(self.points)
        order = np.argsort(records)
        return records[order], order

    def locate(self, points) -> np.ndarray:
        """Grid index of each point in an array shaped like ``points``.

        ``points`` takes the form of ``self.points``, or is one point. The
        result has its leading shape and holds -1 where a point is not on
        the grid. The sorted index behind it is built once per grid.
        """
        records = self._records(points)
        keys, order = self._sorted_records
        pos = np.searchsorted(keys, records).clip(max=self.n_points - 1)
        return np.where(keys[pos] == records, order[pos], -1)

    def distance(self, i: int, j: int) -> float:
        return float(self.pairwise[i, j])

    @cached_property
    def diameter(self) -> float:
        return float(self.pairwise.max())

    @cached_property
    def least_eccentricity(self) -> float:
        """The least, over grid points, of the distance to the farthest point:
        every point has a point this far, and some point has none farther."""
        return float(self.pairwise.max(axis=1).min())

    def validate_metric(self) -> None:
        """Check that every point's nearest neighbour is at positive distance.

        Distinct coordinates can still be at distance 0.0 when the squared
        difference underflows. When the distinct coordinates on every axis
        are more than _GAP_FLOOR apart, each pair of distinct points has a
        gap whose square is a normal double, so every distance is positive;
        only a grid failing that test asks a k-d tree for nearest
        neighbours. The check builds no n x n array.
        """
        gaps = np.diff(np.sort(self.coords, axis=0), axis=0)
        if np.all((gaps == 0.0) | (gaps > _GAP_FLOOR)):
            return
        from scipy.spatial import cKDTree

        nearest, _ = cKDTree(self.coords).query(self.coords, k=2)
        if nearest[:, 1].min() <= 0.0:
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

    def mask(self) -> np.ndarray:
        m = np.zeros(self.space.n_points, dtype=bool)
        m[list(self.indices)] = True
        return m

    def complement(self) -> "PointSet":
        inside = set(self.indices)
        outside = tuple(i for i in range(self.space.n_points) if i not in inside)
        return PointSet(self.space, outside)


def _ring_generators(center: int, rings: int, per_ring: int) -> tuple[np.ndarray, ...]:
    """Rotation by one step on every ring, and conjugation (t -> -t).

    Points ``0..center-1`` stay fixed; ring j holds the next ``per_ring``
    indices, point k at angle 2 pi k / per_ring.
    """
    k = np.arange(per_ring)
    base = center + per_ring * np.arange(rings)[:, None]
    fixed = np.arange(center)
    return tuple(
        np.r_[fixed, (base + step % per_ring).ravel()] for step in (k + 1, -k)
    )


def make_interval_grid(m: int) -> CompactSpace:
    """Equispaced grid {k/m : k = 0..m} on the unit interval, with the
    reflection k -> m - k as its candidate symmetry."""
    if m < 1:
        raise ValueError("interval grid needs m >= 1")
    _check_point_count("interval", m + 1)
    coords = np.arange(m + 1, dtype=float)[:, None] / m
    return CompactSpace(
        id=f"interval_m{m}",
        field=Field.REAL,
        kind=SpaceKind.INTERVAL,
        coords=coords,
        generators=(np.arange(m, -1, -1),),
    )


def make_circle_grid(m: int) -> CompactSpace:
    """m-th roots of unity with the chordal (ambient Euclidean) metric;
    rotation by one step and conjugation are its candidate symmetries."""
    if m < 3:
        raise ValueError("circle grid needs m >= 3")
    _check_point_count("circle", m)
    theta = 2.0 * np.pi * np.arange(m) / m
    coords = np.column_stack([np.cos(theta), np.sin(theta)])
    return CompactSpace(
        id=f"circle_m{m}",
        field=Field.COMPLEX,
        kind=SpaceKind.CIRCLE,
        coords=coords,
        boundary_mask=np.ones(m, dtype=bool),
        generators=_ring_generators(0, 1, m),
    )


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
    _check_point_count("disc", 1 + rings * per_ring)
    xs = [0.0]
    ys = [0.0]
    boundary = [False]
    theta = 2.0 * np.pi * np.arange(per_ring) / per_ring
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    for j in range(1, rings + 1):
        r = j / rings
        xs.extend(r * cos_t)
        ys.extend(r * sin_t)
        boundary.extend([j == rings] * per_ring)
    coords = np.column_stack([xs, ys])
    return CompactSpace(
        id=f"disc_r{rings}x{per_ring}",
        field=Field.COMPLEX,
        kind=SpaceKind.DISC,
        coords=coords,
        boundary_mask=np.array(boundary),
        generators=_ring_generators(1, rings, per_ring),
    )


def make_box_grid(p: int, m: int) -> CompactSpace:
    """Tensor grid {k/m}^p on the unit box.

    The candidate symmetries reflect one axis (k_a -> m - k_a) or swap two
    adjacent axes.
    """
    if p < 1:
        raise ValueError("box grid needs p >= 1")
    if m < 1:
        raise ValueError("box grid needs m >= 1")
    _check_point_count("box", (m + 1) ** p)
    axis = np.arange(m + 1, dtype=float) / m
    coords = np.array(list(itertools.product(axis, repeat=p)))
    # digits of each point in itertools.product (C) order
    shape = (m + 1,) * p
    digits = np.indices(shape).reshape(p, -1)
    moves = []
    for a in range(p):
        reflected = digits.copy()
        reflected[a] = m - digits[a]
        moves.append(reflected)
    for a in range(p - 1):
        swapped = digits.copy()
        swapped[[a, a + 1]] = digits[[a + 1, a]]
        moves.append(swapped)
    return CompactSpace(
        id=f"box_p{p}_m{m}",
        field=Field.REAL,
        kind=SpaceKind.BOX,
        coords=coords,
        generators=tuple(np.ravel_multi_index(d, shape) for d in moves),
    )


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
