"""Finite point grids standing in for compact spaces.

A grid stores its points as coordinates in R^d together with a metric.
Complex-valued grids (circle, disc) additionally carry each point as a
complex number, and that complex view is the one functions are evaluated
on. Grids and point sets are immutable after construction, so they are
safe to share between concurrent tasks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import ResourceLimitError

DEFAULT_POINT_CAP = 10**6

# full pairwise metric validation is O(n^2); skipped above this size
_VALIDATE_PAIRWISE_LIMIT = 4096


class Field(Enum):
    REAL = "real"
    COMPLEX = "complex"


class SpaceKind(Enum):
    INTERVAL = "interval"
    CIRCLE = "circle"
    DISC = "disc"
    BOX = "box"
    CUSTOM = "custom"


def euclidean_metric(p, q) -> float:
    return float(np.linalg.norm(np.asarray(p, dtype=float) - np.asarray(q, dtype=float)))


@dataclass(frozen=True, eq=False)
class CompactSpace:
    """An ordered finite point set with a metric.

    ``coords`` has shape ``(n_points, dim)``. For complex-field grids,
    ``complex_points`` holds the authoritative complex value of each point;
    ``boundary_mask`` (when present) flags points placed on the topological
    boundary by the constructing factory.
    """

    id: str
    field: Field
    kind: SpaceKind
    coords: np.ndarray
    metric: Callable[[np.ndarray, np.ndarray], float] = euclidean_metric
    complex_points: np.ndarray | None = None
    boundary_mask: np.ndarray | None = None

    def __post_init__(self) -> None:
        coords = np.asarray(self.coords, dtype=float)
        if coords.ndim == 1:
            coords = coords[:, None]
        if coords.ndim != 2:
            raise ValueError("coords must have shape (n_points, dim)")
        if coords.shape[0] < 2:
            raise ValueError("a grid needs at least 2 points")
        if not np.all(np.isfinite(coords)):
            raise ValueError("grid coordinates must be finite")
        if len(np.unique(coords, axis=0)) != coords.shape[0]:
            raise ValueError("grid points must be pairwise distinct")
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

        if self.field is Field.COMPLEX:
            if self.complex_points is None:
                raise ValueError("complex-field grids must carry complex point values")
            cp = np.asarray(self.complex_points, dtype=complex)
            if cp.shape != (coords.shape[0],):
                raise ValueError("complex_points must have one entry per grid point")
            cp.setflags(write=False)
            object.__setattr__(self, "complex_points", cp)
        elif self.complex_points is not None:
            raise ValueError("real-field grids must not carry complex point values")

        if self.boundary_mask is not None:
            bm = np.asarray(self.boundary_mask, dtype=bool)
            if bm.shape != (coords.shape[0],):
                raise ValueError("boundary_mask must have one entry per grid point")
            bm.setflags(write=False)
            object.__setattr__(self, "boundary_mask", bm)

        if self.n_points <= _VALIDATE_PAIRWISE_LIMIT:
            self.validate_metric()

    @property
    def n_points(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    @cached_property
    def pairwise(self) -> np.ndarray:
        """Full distance matrix under the grid metric."""
        if self.metric is euclidean_metric:
            from scipy.spatial.distance import cdist

            d = cdist(self.coords, self.coords)
        else:
            n = self.n_points
            d = np.empty((n, n))
            for i in range(n):
                for j in range(n):
                    d[i, j] = self.metric(self.coords[i], self.coords[j])
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

    @cached_property
    def eval_points(self) -> tuple:
        """The points one at a time: complex or float scalars, or read-only rows."""
        pts = self.points
        return tuple(pts) if pts.ndim == 2 else tuple(pts.tolist())

    def point(self, i: int):
        return self.eval_points[i]

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

    def validate_metric(self) -> None:
        """Check symmetry, zero diagonal, and positivity over all grid pairs."""
        d = self.pairwise
        if np.max(np.abs(d - d.T)) > 1e-12:
            raise ValueError("metric is not symmetric on the grid")
        if np.max(np.abs(np.diag(d))) > 0.0:
            raise ValueError("metric must vanish on the diagonal")
        off = d + np.eye(self.n_points)
        if off.min() <= 0.0:
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


def make_interval_grid(m: int) -> CompactSpace:
    """Equispaced grid {k/m : k = 0..m} on the unit interval."""
    if m < 1:
        raise ValueError("interval grid needs m >= 1")
    coords = np.arange(m + 1, dtype=float)[:, None] / m
    return CompactSpace(
        id=f"interval_m{m}", field=Field.REAL, kind=SpaceKind.INTERVAL, coords=coords
    )


def make_circle_grid(m: int) -> CompactSpace:
    """m-th roots of unity with the chordal (ambient Euclidean) metric."""
    if m < 3:
        raise ValueError("circle grid needs m >= 3")
    theta = 2.0 * np.pi * np.arange(m) / m
    coords = np.column_stack([np.cos(theta), np.sin(theta)])
    cp = coords[:, 0] + 1j * coords[:, 1]
    return CompactSpace(
        id=f"circle_m{m}",
        field=Field.COMPLEX,
        kind=SpaceKind.CIRCLE,
        coords=coords,
        complex_points=cp,
        boundary_mask=np.ones(m, dtype=bool),
    )


def make_disc_grid(rings: int, per_ring: int) -> CompactSpace:
    """Center point plus concentric rings at radii j/rings.

    Points on the outermost ring sit at radius exactly 1 and are flagged as
    boundary points.
    """
    if rings < 1:
        raise ValueError("disc grid needs rings >= 1")
    if per_ring < 3:
        raise ValueError("disc grid needs per_ring >= 3")
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
    cp = coords[:, 0] + 1j * coords[:, 1]
    return CompactSpace(
        id=f"disc_r{rings}x{per_ring}",
        field=Field.COMPLEX,
        kind=SpaceKind.DISC,
        coords=coords,
        complex_points=cp,
        boundary_mask=np.array(boundary),
    )


def make_box_grid(p: int, m: int, point_cap: int = DEFAULT_POINT_CAP) -> CompactSpace:
    """Tensor grid {k/m}^p on the unit box, guarded by a point-count cap."""
    if p < 1:
        raise ValueError("box grid needs p >= 1")
    if m < 1:
        raise ValueError("box grid needs m >= 1")
    n_pts = (m + 1) ** p
    if n_pts > point_cap:
        raise ResourceLimitError(
            f"box grid would have {n_pts} points, above the cap of {point_cap}"
        )
    axis = np.arange(m + 1, dtype=float) / m
    coords = np.array(list(itertools.product(axis, repeat=p)))
    return CompactSpace(
        id=f"box_p{p}_m{m}", field=Field.REAL, kind=SpaceKind.BOX, coords=coords
    )


def make_custom_space(
    points: Sequence,
    field: Field = Field.REAL,
    space_id: str = "custom",
    metric: Callable[[np.ndarray, np.ndarray], float] = euclidean_metric,
) -> CompactSpace:
    """Wrap an explicit point list; complex input becomes a complex-field grid.

    Complex grids accept either complex scalars or [re, im] coordinate pairs
    (the form available to JSON configurations).
    """
    arr = np.asarray(points)
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
        coords = np.column_stack([cp.real, cp.imag])
        return CompactSpace(
            id=space_id,
            field=Field.COMPLEX,
            kind=SpaceKind.CUSTOM,
            coords=coords,
            metric=metric,
            complex_points=cp,
        )
    coords = np.asarray(arr, dtype=float)
    if coords.ndim == 1:
        coords = coords[:, None]
    return CompactSpace(
        id=space_id, field=Field.REAL, kind=SpaceKind.CUSTOM, coords=coords, metric=metric
    )


def open_ball(space: CompactSpace, x0: int, r: float) -> PointSet:
    """Grid points at metric distance < r from the point with index x0."""
    if not 0 <= int(x0) < space.n_points:
        raise ValueError("ball center index out of range")
    if r <= 0:
        raise ValueError("ball radius must be positive")
    idx = np.nonzero(space.pairwise[int(x0)] < r)[0]
    return PointSet(space, tuple(int(i) for i in idx))
