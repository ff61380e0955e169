"""Kernel operators, composition isometries, and indexed operator families.

Every built-in family is kernel-backed: the map at index n is its nodes
plus a function that writes any block of target rows of its weights into
a buffer it is given, so no kernel holds its whole weight matrix (a
Bernstein kernel on a box holds one row per distinct coordinate of an
axis). A sweep
allocates one buffer for its largest row block, builds each block into it
once and, in the same step, checks it, certifies positivity from the
weight signs, sums its rows and multiplies it into every image, after one
rule call per function on all nodes. Node points need not lie on the
source grid; functions are evaluation rules, so node evaluation is exact.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import types
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import DependencyError
from .functions import ScalarFunction, evaluate, function_from_values
from .space import (
    BLOCK_ENTRIES, DEFAULT_POINT_CAP, CompactSpace, SpaceKind, distinct_rows, product_points
)

# a kernel operator with all weights above this is certified positive
WEIGHT_SIGN_TOL = -1e-14
UNITAL_TOL = 1e-10
# most weights of a kernel, checked at every kernel build: the point cap
# squared (2 GiB as float64). A sweep holds only its node values and one
# buffer of its largest row block (and its complex copy when a function is
# complex); a Bernstein kernel on a box of p >= 2 axes also holds each
# axis's rows, (m+1)(n+1) <= 2**14 values, as its ((m+1)(n+1))**p weights fit
KERNEL_BUDGET = DEFAULT_POINT_CAP**2
# under one BLAS thread, OpenBLAS's gemv (np.matmul of a block and a vector)
# takes a block's rows in groups of this many. A sweep's row blocks start at
# multiples of it and only the last one ends in a partial group, so each
# image row takes the same BLAS path as in one product over all rows, and the
# images are bit for bit those of that product. Blocks are multiples of 8
# rows wherever 8 rows fit, and this many where they do not
ROW_ALIGN = 4


def row_blocks(n_rows: int, n_cols: int) -> list[tuple[int, int]]:
    """The [lo, hi) row blocks of a sweep over an n_rows x n_cols kernel:
    the largest multiple of 8 rows within BLOCK_ENTRIES weights, else
    ROW_ALIGN rows, with the remainder merged into the last block. The
    remainder is not a block of its own because a lone trailing row takes
    another BLAS path, where its image can move by one ulp: on the
    257-point disc at n = 2 and 4, row 256 does."""
    step = max(ROW_ALIGN, BLOCK_ENTRIES // n_cols // 8 * 8)
    starts = list(range(0, n_rows, step))
    if len(starts) > 1 and n_rows - starts[-1] < step:
        starts.pop()
    return list(zip(starts, [*starts[1:], n_rows]))


class _Sweep(NamedTuple):
    """What a sweep found besides the images."""

    min_weight: float
    # (y, i) of the first smallest weight in C order; None unless it is
    # below WEIGHT_SIGN_TOL, where it is the positivity witness
    argmin: tuple[int, int] | None
    t_one: np.ndarray


@dataclass(frozen=True, eq=False)
class KernelOperator:
    """(Tf)(y_j) = sum_i w[j, i] * f(nodes[i]).

    ``nodes`` is one array in the form of the source grid's ``points``:
    shape ``(N,)``, or ``(N, dim)`` on a box grid. ``rows`` is a function
    ``rows(lo, hi, out)`` that writes target rows ``[lo, hi)`` of the
    weights into ``out``, a C-contiguous float array of shape
    ``(hi - lo, N)``, or the weight matrix itself, which is taken without
    a copy, frozen, and wrapped as the function that copies its rows.
    Nodes are kept in the order given and must be distinct: a function
    takes one value at a point, so each row of weights is the measure
    sum_i w[j, i] delta_{nodes[i]}, and the indicator of node i is the
    witness of a negative weight. Equal nodes are refused. Nodes that are
    the source grid's own ``points`` are taken as they are, without a copy
    or a distinctness pass: the grid refused equal points and froze them.
    """

    source: CompactSpace
    target: CompactSpace
    nodes: np.ndarray
    rows: np.ndarray | Callable[[int, int, np.ndarray], None]
    _last: _Sweep | None = field(default=None, init=False, repr=False)
    _images: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        grid_points = self.nodes is self.source.points
        nodes = self.nodes if grid_points else np.array(self.nodes)
        if nodes.shape[1:] != self.source.points.shape[1:]:
            raise ValueError(f"nodes of shape {nodes.shape} do not match the source grid's points")
        rows = self.rows
        if not callable(rows):
            w = np.asarray(rows, dtype=float)
            if w.shape != (self.target.n_points, len(nodes)):
                raise ValueError(
                    f"weights must have shape (n_target={self.target.n_points}, "
                    f"n_nodes={len(nodes)}), got {w.shape}"
                )
            w.setflags(write=False)
            rows = lambda lo, hi, out: np.copyto(out, w[lo:hi])
        if not grid_points and not distinct_rows(nodes):
            raise ValueError("kernel nodes must be distinct: a function takes one value at a point")
        nodes.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nodes", nodes)

    def block(self, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
        """Target rows [lo, hi) of the weights, built by ``rows``
        into ``out``, which is allocated when None."""
        if out is None:
            out = np.empty((hi - lo, len(self.nodes)))
        self.rows(lo, hi, out)
        return out

    def _buffer_shape(self) -> tuple[int, int]:
        """The shape of a sweep's buffer: its largest row block."""
        spans = row_blocks(self.target.n_points, len(self.nodes))
        return max(hi - lo for lo, hi in spans), len(self.nodes)

    def _blocks(self):
        """(lo, hi, block) for each row block of a sweep, all built into
        one buffer allocated before the first."""
        buffer = np.empty(self._buffer_shape())
        for lo, hi in row_blocks(self.target.n_points, len(self.nodes)):
            yield lo, hi, self.block(lo, hi, buffer[: hi - lo])

    @property
    def weights(self) -> np.ndarray:
        """All weights at once, for small kernels: no sweep reads them."""
        return self.block(0, self.target.n_points)

    def sweep(self, functions=()) -> None:
        """One pass over the row blocks. Each block is built once and, in
        the same step, refused if a weight is not finite, searched for its
        smallest weight, summed by rows (T 1) and multiplied into the image
        of every function. When a function is complex, each block is copied
        once into a complex buffer for its products. ``min_weight``,
        ``t_one_values``, ``check_positivity`` and ``apply`` read what the
        pass found."""
        fs = tuple(functions)
        for f in fs:
            if f.space is not self.source:
                raise ValueError("function lives on a different grid than the operator source")
        values = [evaluate(f, self.nodes) for f in fs]
        n = self.target.n_points
        t_one = np.empty(n)
        images = [np.empty(n, dtype=np.result_type(float, v)) for v in values]
        low, argmin = np.inf, None
        complex_block = None
        if any(np.iscomplexobj(v) for v in values):
            complex_block = np.empty(self._buffer_shape(), dtype=complex)
        for lo, hi, w in self._blocks():
            w_min = w.min()
            # NaN propagates through min and max
            if not (np.isfinite(w_min) and np.isfinite(w.max())):
                raise ValueError("kernel weights must be finite")
            if w_min < low:
                low = w_min
                if w_min < WEIGHT_SIGN_TOL:  # the first most negative weight in C order
                    y, i = np.unravel_index(int(np.argmin(w)), w.shape)
                    argmin = (lo + int(y), int(i))
            w.sum(axis=1, out=t_one[lo:hi])
            if complex_block is not None:
                wc = complex_block[: hi - lo]
                wc[...] = w  # the cast np.matmul would make for every complex v
            with np.errstate(all="ignore"):  # a non-finite image is refused below
                for v, out in zip(values, images):
                    np.matmul(wc if np.iscomplexobj(v) else w, v, out=out[lo:hi])
        t_one.setflags(write=False)
        object.__setattr__(self, "_last", _Sweep(float(low), argmin, t_one))
        for f, out in zip(fs, images):
            self._images[f] = function_from_values(self.target, out, name=f"T[{f.name}]")

    @property
    def _swept(self) -> _Sweep:
        if self._last is None:
            self.sweep()
        return self._last

    @property
    def min_weight(self) -> float:
        """The smallest weight."""
        return self._swept.min_weight

    @property
    def t_one_values(self) -> np.ndarray:
        """Row sums: the image of the constant function 1."""
        return self._swept.t_one

    def weight_certificate(self) -> bool:
        """Nonnegative-weight certificate of positivity."""
        return self.min_weight >= WEIGHT_SIGN_TOL

    def apply(self, f: ScalarFunction) -> ScalarFunction:
        """The image of f: the one a sweep over f made, or a sweep's for f alone."""
        if f not in self._images:
            self.sweep((f,))
        return self._images[f]


@dataclass(frozen=True, eq=False)
class CompositionIsometry:
    """(Tf)(y) = f(phi(y)) for a grid-surjective index map phi: Tf takes
    exactly f's values, so T keeps every sup norm."""

    source: CompactSpace
    target: CompactSpace
    phi: tuple[int, ...]

    def __post_init__(self) -> None:
        phi = tuple(int(i) for i in self.phi)
        if len(phi) != self.target.n_points:
            raise ValueError("phi must assign a source index to every target point")
        if phi and (min(phi) < 0 or max(phi) >= self.source.n_points):
            raise ValueError("phi index out of range")
        if len(set(phi)) != self.source.n_points:
            raise ValueError("phi must cover every source grid point (grid surjectivity)")
        object.__setattr__(self, "phi", phi)

    @cached_property
    def t_one_values(self) -> np.ndarray:
        return np.ones(self.target.n_points)

    def apply(self, f: ScalarFunction) -> ScalarFunction:
        if f.space is not self.source:
            raise ValueError("function lives on a different grid than the map source")
        out = f.values[list(self.phi)]
        return function_from_values(self.target, out, name=f"Tinf[{f.name}]")


def identity_isometry(space: CompactSpace) -> CompositionIsometry:
    return CompositionIsometry(space, space, tuple(range(space.n_points)))


def rotation_isometry(space: CompactSpace, steps: int) -> CompositionIsometry:
    """Rotation of a circle grid by `steps` grid positions."""
    if space.kind is not SpaceKind.CIRCLE:
        raise ValueError("rotation maps are defined on circle grids")
    m = space.n_points
    phi = tuple((j + steps) % m for j in range(m))
    return CompositionIsometry(space, space, phi)


@dataclass(frozen=True, eq=False)
class OperatorFamily:
    """An indexed sequence n -> T_n with its target isometry; it keeps only its last kernel."""

    name: str
    source: CompactSpace
    target: CompactSpace
    kernel_builder: Callable[[int], KernelOperator]
    limit: CompositionIsometry
    _cache: dict = field(default_factory=dict, repr=False)

    def operator(self, n: int) -> KernelOperator:
        n = int(n)
        if n not in self._cache:
            self._cache.clear()
            self._cache[n] = self.kernel_builder(n)
        return self._cache[n]

    def apply(self, n: int, f: ScalarFunction) -> ScalarFunction:
        if f.space is not self.source:
            raise ValueError("function lives on a different grid than the family source")
        return self.operator(n).apply(f)


# ---------------------------------------------------------------------------
# built-in operator constructors


def bernstein(n: int, space: CompactSpace) -> KernelOperator:
    """Degree-n Bernstein operator on an interval grid.

    Weights at a grid point x are the binomial probabilities
    C(n,k) x^k (1-x)^(n-k); nodes are k/n for k = 0..n.
    """
    FAMILIES["bernstein"].check_index(space, n)
    return _bernstein_product(n, space)


def _bernstein_product(n: int, space: CompactSpace) -> KernelOperator:
    """Coordinatewise product of 1-d Bernstein weights: each row is the
    outer product of the grid point's per-axis rows, taken straight into
    the sweep's buffer, and the nodes are {k/n}^dim in C order, matching
    the columns. One axis, whose coordinates are all distinct, computes
    each block's rows into the buffer; a box gathers them per axis."""
    if space.dim == 1:
        x = space.coords[:, 0]
        rows = lambda lo, hi, out: _binom_pmf(n, x[lo:hi], out=out)
    else:
        first, *middle, last = [_axis_rows(n, x) for x in space.coords.T]

        def rows(lo: int, hi: int, out: np.ndarray) -> None:
            w = first(lo, hi)
            for axis in middle:
                w = (w[:, :, None] * axis(lo, hi)[:, None, :]).reshape(hi - lo, -1)
            np.multiply(w[:, :, None], last(lo, hi)[:, None, :], out=out.reshape(hi - lo, w.shape[1], -1))

    nodes = product_points(np.arange(n + 1) / n, space.dim).reshape((-1,) + space.points.shape[1:])
    return KernelOperator(space, space, nodes, rows)


def _axis_rows(n: int, x: np.ndarray) -> Callable[[int, int], np.ndarray]:
    """A function (lo, hi) giving _binom_pmf's rows for x[lo:hi], gathered
    from one row per distinct value of x, each computed once. A stable
    argsort brings equal bits together (np.unique would map numpy's SIMD
    quicksort), so -0.0 is apart from 0.0."""
    bits = x.view(np.uint64)
    order = np.argsort(bits, kind="stable")
    new = np.r_[True, np.diff(bits[order]) != 0]
    pick = np.empty_like(order)
    pick[order] = np.cumsum(new) - 1
    table = _binom_pmf(n, x[order][new])
    return lambda lo, hi: np.take(table, pick[lo:hi], axis=0)


def _binom_pmf(n: int, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Rows C(n,k) x^k (1-x)^(n-k), k = 0..n, one per entry of x (into out if given)."""
    # the Boost ufunc behind scipy.stats.binom.pmf, from the compiled
    # extension alone: no scipy package init is run
    return _load_ufuncs()._binom_pmf(np.arange(n + 1)[None, :], n, x[:, None], out=out)


def _load_ufuncs() -> types.ModuleType:
    """scipy.special's compiled `_ufuncs` extension, loaded without running
    the package inits of scipy (config, version and test helpers, which
    pull in subprocess and sysconfig), scipy._lib (a pytest helper) and
    scipy.special (array-API backends, numpy.f2py, docstring parsing), none
    of which a kernel uses.

    An already loaded extension is returned as it is. Otherwise each of
    those three packages not yet imported gets a bare stand-in, with the
    real package's directory as its path, while the extension and its
    sibling extensions import; then exactly those stand-ins are removed. A
    later `import scipy` or `import scipy.special` runs the real init and
    reuses the loaded extensions, though a submodule loaded under a
    stand-in is not an attribute of the real package (`scipy._lib` has no
    `_ccallback`; importing it by name still finds it). Swapping
    `sys.modules` entries assumes a single-threaded import, which holds for
    every caller. A scipy whose private layout lacks the extension raises
    DependencyError, naming its version.
    """
    ufuncs = sys.modules.get("scipy.special._ufuncs")
    if ufuncs is not None:
        return ufuncs
    added = []
    try:
        spec = importlib.util.find_spec("scipy")
        if spec is None:
            raise ModuleNotFoundError("No module named 'scipy'")
        root = spec.submodule_search_locations[0]
        for name in ("scipy", "scipy._lib", "scipy.special"):
            if name not in sys.modules:
                package = sys.modules[name] = types.ModuleType(name)
                package.__path__ = [os.path.join(root, *name.split(".")[1:])]
                added.append(name)
        return importlib.import_module("scipy.special._ufuncs")
    except ImportError as exc:
        raise DependencyError(
            f"cannot load scipy.special._ufuncs from scipy {_scipy_version()}"
            f" (korovkinlab needs scipy>=1.17): {exc}"
        ) from exc
    finally:
        for name in added:
            del sys.modules[name]


def _scipy_version() -> str:
    from importlib import metadata

    try:
        return metadata.version("scipy")
    except metadata.PackageNotFoundError:
        return "(not installed)"


def _fejer_kernel(s: np.ndarray, n: int) -> np.ndarray:
    # squared-ratio closed form keeps the values nonnegative in floating point
    half = 0.5 * s
    sin_half = np.sin(half)
    num = np.sin((n + 1) * half)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(np.abs(sin_half) < 1e-12, float(n + 1), num / sin_half)
    return ratio * ratio / (n + 1)


def fejer(n: int, space: CompactSpace) -> KernelOperator:
    """Fejér (Cesàro-mean) convolution operator on a uniform circle grid.

    Requires m > 2n+2 grid points so that the trapezoidal quadrature behind
    the weights is exact for trigonometric polynomials of degree <= n+1.
    """
    FAMILIES["fejer"].check_index(space, n)
    m = space.n_points
    theta = 2.0 * np.pi * np.arange(m) / m
    return KernelOperator(
        space,
        space,
        space.points,
        lambda lo, hi, out: np.divide(_fejer_kernel(theta[lo:hi, None] - theta, n), m, out=out),
    )


def tensor_bernstein(n: int, space: CompactSpace) -> KernelOperator:
    """Coordinatewise tensor product of 1-d Bernstein weights on a box grid:
    each row is the outer product of the grid point's per-axis rows."""
    FAMILIES["tensor_bernstein"].check_index(space, n)
    return _bernstein_product(n, space)


def mollifier_disc(n: int, space: CompactSpace) -> KernelOperator:
    """Equal-weight average over grid points within distance 1/n on a disc grid."""
    FAMILIES["mollifier_disc"].check_index(space, n)

    def rows(lo: int, hi: int, out: np.ndarray) -> None:
        inside = space.pairwise.within(lo, hi, 1.0 / n, out)
        np.divide(inside, inside.sum(axis=1, keepdims=True), out=out)

    return KernelOperator(space, space, space.points, rows)


def averaging_operator(space: CompactSpace) -> KernelOperator:
    """Rank-one unital positive operator mapping f to its grid mean times 1.
    Every weight is 1/N, filled a row block at a time: no N x N mix is held."""
    w = 1.0 / space.n_points
    return KernelOperator(space, space, space.points, lambda lo, hi, out: out.fill(w))


def eps_schedule(spec) -> Callable[[int], float]:
    """Normalize an epsilon schedule, "1/n", "1/n^2" or a list (1-based by
    index, clamped at the end, each entry in [0, 1]), to a function of the
    index."""
    if isinstance(spec, str):
        if spec == "1/n":
            return lambda n: 1.0 / n
        if spec == "1/n^2":
            return lambda n: 1.0 / n**2
        raise ValueError(f"unknown epsilon schedule {spec!r}")
    if isinstance(spec, dict):  # a list of its keys would be read silently
        raise TypeError("an epsilon schedule is a name or a list, not a mapping")
    seq = [float(v) for v in spec]
    if not seq:
        raise ValueError("epsilon schedule list must be nonempty")
    for k, e in enumerate(seq, 1):
        if not 0.0 <= e <= 1.0:
            raise ValueError(f"epsilon at index {k} is {e}, outside [0, 1]")

    def from_list(n: int) -> float:
        return seq[min(n, len(seq)) - 1]

    return from_list


def perturbed_composition(phi: CompositionIsometry, mix: KernelOperator, eps) -> OperatorFamily:
    """Family T_n f = (1 - eps_n) f(phi(.)) + eps_n (mix f).

    The mix must be positive (nonnegative weights) and unital, which makes
    every T_n positive and unital and makes composition with phi the limit.
    Its nodes must be the grid's points, so T_n's kernel is N x N: the mix
    weights scaled by eps_n, plus 1 - eps_n at each (y, phi(y)).
    """
    eps_fn = eps_schedule(eps)
    if mix.source is not phi.source or mix.target is not phi.target:
        raise ValueError("mix operator must share the composition map's spaces")
    if not np.array_equal(mix.nodes, phi.source.points):
        raise ValueError("mix operator's nodes must be the grid's points")
    if not mix.weight_certificate():
        raise ValueError("mix operator must have nonnegative weights")
    if np.max(np.abs(mix.t_one_values - 1.0)) > UNITAL_TOL:
        raise ValueError("mix operator must be unital")
    phi_idx = np.array(phi.phi, dtype=np.intp)

    def build(n: int) -> KernelOperator:
        FAMILIES["perturbed_composition"].check_index(phi.source, n)
        e = eps_fn(n)

        def rows(lo: int, hi: int, out: np.ndarray) -> None:
            mix.block(lo, hi, out)
            out *= e
            out[np.arange(hi - lo), phi_idx[lo:hi]] += 1.0 - e

        return KernelOperator(phi.source, phi.target, mix.nodes, rows)

    return OperatorFamily("perturbed_composition", phi.source, phi.target, build, limit=phi)


def inject_weight(op: KernelOperator, target_index: int, node_index: int, value: float) -> KernelOperator:
    """A kernel operator with one weight of ``op`` overridden, in the one
    row block that holds it.

    Used to construct positivity counterexamples in tests and demos.
    ``node_index`` indexes ``op.nodes``, in the order given.
    """
    y, i, value = int(target_index), int(node_index), float(value)
    n_rows, n_nodes = op.target.n_points, len(op.nodes)
    if not (0 <= y < n_rows and 0 <= i < n_nodes):
        raise ValueError(
            f"weight index ({y}, {i}) is outside the kernel's {n_rows} target "
            f"points x {n_nodes} nodes"
        )

    def rows(lo: int, hi: int, out: np.ndarray) -> None:
        op.block(lo, hi, out)
        if lo <= y < hi:
            out[y - lo, i] = value

    return KernelOperator(op.source, op.target, op.nodes, rows)


# ---------------------------------------------------------------------------
# the built-in families


@dataclass(frozen=True)
class FamilySpec:
    """One built-in family. ``kind`` is the grid kind it runs on (None: any);
    ``parameters`` is its ``operators list`` text; ``weights(space, n)``
    counts its kernel's weights at index n, or raises ValueError where
    there is no kernel; ``params`` is the JSON schema of its config
    ``params`` block (by default it admits no key); ``build(space,
    params)`` makes the family from a block that passed it and builds no
    kernel.
    """

    name: str
    kind: SpaceKind | None
    parameters: str
    weights: Callable[[CompactSpace, int], int]
    build: Callable[[CompactSpace, dict], OperatorFamily]
    params: dict = field(default_factory=lambda: {"additionalProperties": False})

    def check_kind(self, space: CompactSpace) -> None:
        if self.kind not in (None, space.kind):
            need, got = self.kind.value, space.kind.value
            raise ValueError(f"{self.name} runs on {need} grids, not on {got} grids")

    def check_index(self, space: CompactSpace, n: int) -> None:
        """Raise ValueError unless the kernel at index n exists: n >= 1, the
        grid kind, the family's own rule (in ``weights``), then the budget."""
        if n < 1:
            raise ValueError(f"{self.name} index must be >= 1")
        self.check_kind(space)
        count = self.weights(space, n)
        if count > KERNEL_BUDGET:
            raise ValueError(
                f"the kernel at index {n} would hold {count} weights, above "
                f"the budget of {KERNEL_BUDGET} (2 GiB)"
            )


def _to_identity(name: str, kernel: Callable[[int, CompactSpace], KernelOperator]):
    """Row constructor of the family n -> kernel(n, space), whose limit is the identity."""
    return lambda space, params: OperatorFamily(
        name, space, space, lambda n: kernel(n, space), identity_isometry(space)
    )


def _bernstein_weights(space: CompactSpace, n: int) -> int:
    return space.n_points * (n + 1) ** space.dim


def _fejer_weights(space: CompactSpace, n: int) -> int:
    m = space.n_points
    if m <= 2 * n + 2:
        raise ValueError(f"circle grid with m={m} points is too coarse for n={n}; need m > 2n+2")
    return m**2


# perturbed_composition's params: phi is an index map or a named map
_PERTURBED_PARAMS = {
    "additionalProperties": False,
    "properties": {
        "phi": {
            "type": "object",
            "anyOf": [
                {
                    "required": ["map"],
                    "additionalProperties": False,
                    "properties": {
                        "map": {"type": "array", "items": {"type": "integer", "minimum": 0}}
                    },
                },
                {
                    "additionalProperties": False,
                    "properties": {"type": {"enum": ["identity", "rotation"]}},
                },
                {
                    "required": ["type", "steps"],
                    "additionalProperties": False,
                    "properties": {"type": {"const": "rotation"}, "steps": {"type": "integer"}},
                },
            ],
        },
        "mix": {"const": "mean"},
        "eps": {
            "anyOf": [
                {"enum": ["1/n", "1/n^2"]},
                {"type": "array", "items": {"type": "number"}, "minItems": 1},
            ]
        },
    },
}


def _perturbed_from_params(space: CompactSpace, params: dict) -> OperatorFamily:
    phi = params.get("phi", {})
    if "map" in phi:
        limit = CompositionIsometry(space, space, tuple(phi["map"]))
    elif phi.get("type") == "rotation":
        limit = rotation_isometry(space, int(phi.get("steps", 1)))
    else:
        limit = identity_isometry(space)
    # the schema allows one mix, "mean"
    return perturbed_composition(limit, averaging_operator(space), params.get("eps", "1/n"))


FAMILIES: dict[str, FamilySpec] = {
    spec.name: spec
    for spec in (
        FamilySpec(
            "bernstein",
            SpaceKind.INTERVAL,
            "space: interval grid",
            _bernstein_weights,
            _to_identity("bernstein", bernstein),
        ),
        FamilySpec(
            "fejer",
            SpaceKind.CIRCLE,
            "space: circle grid with m > 2n+2 points",
            _fejer_weights,
            _to_identity("fejer", fejer),
        ),
        FamilySpec(
            "tensor_bernstein",
            SpaceKind.BOX,
            "space: box grid",
            _bernstein_weights,
            _to_identity("tensor_bernstein", tensor_bernstein),
        ),
        FamilySpec(
            "mollifier_disc",
            SpaceKind.DISC,
            "space: disc grid",
            lambda space, n: space.n_points**2,
            _to_identity("mollifier_disc", mollifier_disc),
        ),
        FamilySpec(
            "perturbed_composition",
            None,
            "space: any grid; params.phi: {type: identity|rotation}, {type: rotation, steps}"
            " or {map: [...]}; params.mix: 'mean'; params.eps: '1/n' | '1/n^2' | [values]",
            lambda space, n: space.n_points**2,
            _perturbed_from_params,
            _PERTURBED_PARAMS,
        ),
    )
}


# ---------------------------------------------------------------------------
# certification


@dataclass(frozen=True)
class PositivityReport:
    """A kernel's smallest weight and, when the signs fail, the witness
    (i, y, weights[y, i]); None for a composition isometry, which passes."""

    min_weight: float | None
    witness: tuple[int, int, float] | None

    @property
    def passed(self) -> bool:
        return self.min_weight is None or self.min_weight >= WEIGHT_SIGN_TOL

    @property
    def worst_violation(self) -> float:
        return 0.0 if self.min_weight is None else max(0.0, -self.min_weight)

    @property
    def weight_certificate(self) -> bool | None:
        return None if self.min_weight is None else self.passed


def check_positivity(op) -> PositivityReport:
    """Certify positivity from the weight signs alone; nothing is sampled.

    A kernel operator passes when its weight certificate holds. When it
    fails, the witness is constructive: with weights[y, i] the most negative
    weight, the indicator e_i of the (distinct) node i is a nonnegative
    input with (T e_i)(y) = weights[y, i] < 0.
    """
    if isinstance(op, CompositionIsometry):
        return PositivityReport(None, None)
    if not isinstance(op, KernelOperator):
        raise TypeError(
            "check_positivity expects a KernelOperator or CompositionIsometry; "
            "for a family, pass family.operator(n)"
        )
    witness = None
    if not op.weight_certificate():
        y, i = op._swept.argmin
        witness = (i, y, op.min_weight)
    return PositivityReport(op.min_weight, witness)


@dataclass(frozen=True)
class NormEstimate:
    estimate: float
    t_one_sup: float


def estimate_operator_norm(op) -> NormEstimate:
    """The sup-norm operator norm, computed exactly.

    A kernel operator's norm is its largest absolute row sum
    max_j sum_i |w_ji| over its distinct nodes, attained by the sign (or
    phase) pattern of that row, streamed a row block at a time. A
    composition isometry has norm 1.
    """
    if isinstance(op, KernelOperator):
        t_one = op.t_one_values  # from a sweep, which refuses non-finite weights
        norm = 0.0
        for _, _, w in op._blocks():
            np.abs(w, out=w)  # in place in the sweep's buffer
            norm = max(norm, float(w.sum(axis=1).max()))
    elif isinstance(op, CompositionIsometry):
        t_one, norm = op.t_one_values, 1.0
    else:
        raise TypeError("expected a KernelOperator or CompositionIsometry")
    return NormEstimate(estimate=norm, t_one_sup=float(np.max(np.abs(t_one))))