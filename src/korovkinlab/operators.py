"""Kernel operators, composition isometries, and indexed operator families.

Every built-in family is kernel-backed: the map at index n is a weight
matrix against a fixed node array, so an application is one rule call on
all nodes and one matrix product, and positivity is certified from the
weight signs alone. Node points need not lie on the source grid; functions
are evaluation rules, so node evaluation is exact.
"""

from __future__ import annotations

import importlib
import os
import sys
import types
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .functions import ScalarFunction, evaluate, function_from_values
from .space import DEFAULT_POINT_CAP, CompactSpace, Field, SpaceKind

# a kernel operator with all weights above this is certified positive
WEIGHT_SIGN_TOL = -1e-14
UNITAL_TOL = 1e-10
# an operator norm up to 1 + CONTRACTION_TOL counts as a contraction
CONTRACTION_TOL = 1e-9
# most weights one kernel may hold: 2 GiB of float64, the budget of a grid's
# distance matrix at the point cap
KERNEL_BUDGET = DEFAULT_POINT_CAP**2


@dataclass(frozen=True, eq=False)
class KernelOperator:
    """(Tf)(y_j) = sum_i weights[j, i] * f(nodes[i]).

    ``nodes`` is one array in the form of the source grid's ``points``:
    shape ``(N,)``, or ``(N, dim)`` on a box grid. A function takes one
    value at a point however often it is listed, so the weight columns of
    equal nodes are summed on construction, keeping the order of first
    occurrence: every kernel holds distinct nodes. The kernel takes
    ownership of a float ``weights`` array and freezes it, without a copy.
    ``min_weight`` is the smallest weight after the merge.
    """

    source: CompactSpace
    target: CompactSpace
    nodes: np.ndarray
    weights: np.ndarray
    min_weight: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        nodes = np.array(self.nodes)
        if nodes.shape[1:] != self.source.points.shape[1:]:
            raise ValueError(f"nodes of shape {nodes.shape} do not match the source grid's points")
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.target.n_points, len(nodes)):
            raise ValueError(
                f"weights must have shape (n_target={self.target.n_points}, "
                f"n_nodes={len(nodes)}), got {w.shape}"
            )
        # two passes and no temporary: NaN propagates through min and max
        lo, hi = w.min(), w.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("kernel weights must be finite")
        # sorted nodes skip np.unique, whose buffers add about a tenth of
        # the weights' size to the peak memory of a large tensor build
        if not _strictly_increasing(nodes):
            _, first, inverse = np.unique(nodes, axis=0, return_index=True, return_inverse=True)
            if first.size < len(nodes):
                rank = np.empty_like(first)
                rank[np.argsort(first)] = np.arange(first.size)
                merged = np.zeros((w.shape[0], first.size))
                np.add.at(merged, (slice(None), rank[inverse.reshape(-1)]), w)
                nodes, w = nodes[np.sort(first)], merged
                lo = merged.min()
        for a in (nodes, w):
            a.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "min_weight", float(lo))

    @cached_property
    def t_one_values(self) -> np.ndarray:
        """Row sums: the image of the constant function 1."""
        return self.weights.sum(axis=1)

    def weight_certificate(self) -> bool:
        """Nonnegative-weight certificate of positivity."""
        return self.min_weight >= WEIGHT_SIGN_TOL

    def apply(self, f: ScalarFunction) -> ScalarFunction:
        if f.space is not self.source:
            raise ValueError("function lives on a different grid than the operator source")
        with np.errstate(all="ignore"):  # a non-finite image is refused below
            out = self.weights @ evaluate(f, self.nodes)
        return function_from_values(self.target, out, name=f"T[{f.name}]")


def _strictly_increasing(nodes: np.ndarray) -> bool:
    """Whether the nodes are distinct and already in the order in which
    ``np.unique(nodes, axis=0)`` sorts them: rows compared lexicographically,
    a complex entry by its real part, then its imaginary part."""
    rows = nodes.reshape(len(nodes), -1)
    if np.iscomplexobj(rows):
        rows = np.stack([rows.real, rows.imag], axis=-1).reshape(len(rows), -1)
    increasing = np.zeros(len(rows) - 1, dtype=bool)
    for before, after in zip(rows[:-1].T[::-1], rows[1:].T[::-1]):  # last column first
        increasing = (after > before) | ((after == before) & increasing)
    return bool(increasing.all())


@dataclass(frozen=True, eq=False)
class CompositionIsometry:
    """(Tf)(y) = f(phi(y)) for a grid-surjective index map phi."""

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
    if n < 1:
        raise ValueError("bernstein index must be >= 1")
    FAMILIES["bernstein"].check_kind(space)
    w = _binom_pmf(n, space.coords[:, 0])
    return KernelOperator(space, space, np.arange(n + 1) / n, w)


def _binom_pmf(n: int, x: np.ndarray) -> np.ndarray:
    """Rows C(n,k) x^k (1-x)^(n-k), k = 0..n, one per entry of x."""
    # the Boost ufunc behind scipy.stats.binom.pmf, from the compiled
    # extension alone: scipy.special's package init is not run
    return _load_ufuncs()._binom_pmf(np.arange(n + 1)[None, :], n, x[:, None])


def _load_ufuncs() -> types.ModuleType:
    """scipy.special's compiled `_ufuncs` extension, loaded without running
    scipy/special/__init__.py, whose array-API backends, numpy.f2py and
    docstring parsing no kernel uses.

    An already loaded extension is returned as it is. Otherwise a bare
    package with scipy's `special` directory as its path stands in for
    scipy.special while the extension and its sibling extensions import,
    and is removed again, so a later `import scipy.special` runs the real
    init, which reuses the loaded extension. `scipy.__dict__` is popped
    rather than read: scipy's lazy `__getattr__` would import the full
    package. Swapping the `sys.modules` entry assumes a single-threaded
    import, which holds for every caller. This relies on scipy's private
    extension layout; a release that changes it fails here, loudly.
    """
    ufuncs = sys.modules.get("scipy.special._ufuncs")
    if ufuncs is not None:
        return ufuncs
    import scipy

    package = types.ModuleType("scipy.special")
    package.__path__ = [os.path.join(scipy.__path__[0], "special")]
    sys.modules["scipy.special"] = package
    try:
        return importlib.import_module("scipy.special._ufuncs")
    finally:
        del sys.modules["scipy.special"]
        scipy.__dict__.pop("special", None)


def _fejer_kernel(s: np.ndarray, n: int) -> np.ndarray:
    # squared-ratio closed form keeps the values nonnegative in floating point
    half = 0.5 * s
    sin_half = np.sin(half)
    num = np.sin((n + 1) * half)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(np.abs(sin_half) < 1e-12, float(n + 1), num / sin_half)
    return ratio * ratio / (n + 1)


def check_fejer_grid(n: int, m: int) -> None:
    """Raise ValueError unless an m-point circle grid can carry fejer(n)."""
    if m <= 2 * n + 2:
        raise ValueError(f"circle grid with m={m} points is too coarse for n={n}; need m > 2n+2")


def fejer(n: int, space: CompactSpace) -> KernelOperator:
    """Fejér (Cesàro-mean) convolution operator on a uniform circle grid.

    Requires m > 2n+2 grid points so that the trapezoidal quadrature behind
    the weights is exact for trigonometric polynomials of degree <= n+1.
    """
    if n < 1:
        raise ValueError("fejer index must be >= 1")
    FAMILIES["fejer"].check_kind(space)
    m = space.n_points
    check_fejer_grid(n, m)
    theta = 2.0 * np.pi * np.arange(m) / m
    w = _fejer_kernel(theta[:, None] - theta[None, :], n) / m
    return KernelOperator(space, space, space.points, w)


def tensor_bernstein(n: int, space: CompactSpace) -> KernelOperator:
    """Coordinatewise tensor product of 1-d Bernstein weights on a box grid."""
    if n < 1:
        raise ValueError("tensor_bernstein index must be >= 1")
    FAMILIES["tensor_bernstein"].check_kind(space)
    p = space.dim
    w = _binom_pmf(n, space.coords[:, 0])
    for d in range(1, p):
        wd = _binom_pmf(n, space.coords[:, d])
        w = (w[:, :, None] * wd[:, None, :]).reshape(space.n_points, -1)
    # nodes in itertools.product order, matching the weight columns
    axes = np.meshgrid(*[np.arange(n + 1) / n] * p, indexing="ij")
    nodes = np.stack(axes, axis=-1).reshape((-1,) + space.points.shape[1:])
    return KernelOperator(space, space, nodes, w)


def mollifier_disc(n: int, space: CompactSpace) -> KernelOperator:
    """Equal-weight average over grid points within distance 1/n on a disc grid."""
    if n < 1:
        raise ValueError("mollifier index must be >= 1")
    FAMILIES["mollifier_disc"].check_kind(space)
    inside = space.pairwise < 1.0 / n
    w = inside / inside.sum(axis=1, keepdims=True)
    return KernelOperator(space, space, space.points, w)


def averaging_operator(space: CompactSpace) -> KernelOperator:
    """Rank-one unital positive operator mapping f to its grid mean times 1."""
    n_pts = space.n_points
    w = np.full((n_pts, n_pts), 1.0 / n_pts)
    return KernelOperator(space, space, space.points, w)


def eps_schedule(spec) -> Callable[[int], float]:
    """Normalize an epsilon schedule: "1/n", "1/n^2", a list (1-based by
    index, clamped at the end), or a callable."""
    if callable(spec):
        return spec
    if isinstance(spec, str):
        if spec == "1/n":
            return lambda n: 1.0 / n
        if spec == "1/n^2":
            return lambda n: 1.0 / n**2
        raise ValueError(f"unknown epsilon schedule {spec!r}")
    if isinstance(spec, dict):  # a list of its keys would be read silently
        raise TypeError("an epsilon schedule is a name, a list or a callable, not a mapping")
    seq = [float(v) for v in spec]
    if not seq:
        raise ValueError("epsilon schedule list must be nonempty")

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
    if mix.source is not phi.source or mix.target is not phi.target:
        raise ValueError("mix operator must share the composition map's spaces")
    if not np.array_equal(mix.nodes, phi.source.points):
        raise ValueError("mix operator's nodes must be the grid's points")
    if not mix.weight_certificate():
        raise ValueError("mix operator must have nonnegative weights")
    if np.max(np.abs(mix.t_one_values - 1.0)) > UNITAL_TOL:
        raise ValueError("mix operator must be unital")
    eps_fn = eps_schedule(eps)
    rows = np.arange(phi.target.n_points)
    phi_idx = list(phi.phi)

    def build(n: int) -> KernelOperator:
        e = float(eps_fn(n))
        if not 0.0 <= e <= 1.0:
            raise ValueError(f"epsilon at index {n} is {e}, outside [0, 1]")
        w = e * mix.weights
        w[rows, phi_idx] += 1.0 - e
        return KernelOperator(phi.source, phi.target, mix.nodes, w)

    return OperatorFamily("perturbed_composition", phi.source, phi.target, build, limit=phi)


def inject_weight(op: KernelOperator, target_index: int, node_index: int, value: float) -> KernelOperator:
    """Copy of a kernel operator with one weight overridden.

    Used to construct positivity counterexamples in tests and demos.
    ``node_index`` counts the kernel's distinct nodes.
    """
    w = op.weights.copy()
    y, i = int(target_index), int(node_index)
    if not (0 <= y < w.shape[0] and 0 <= i < w.shape[1]):
        raise ValueError(
            f"weight index ({y}, {i}) is outside the kernel's {w.shape[0]} target "
            f"points x {w.shape[1]} nodes"
        )
    w[y, i] = float(value)
    return KernelOperator(op.source, op.target, op.nodes, w)


# ---------------------------------------------------------------------------
# the built-in families


@dataclass(frozen=True)
class FamilySpec:
    """One built-in family. ``kind`` is the grid kind it runs on (None: any);
    ``parameters`` is its ``operators list`` text; ``weights(space, n)``
    counts its kernel's weights at index n before equal nodes are merged,
    or raises ValueError where there is no kernel; ``params`` is the JSON
    schema of its config ``params`` block (by default it admits no key);
    ``build(space, params)`` makes the family from a block that passed it
    and builds no kernel.
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
        """Raise ValueError unless the kernel at index n exists and fits the budget."""
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


def _fejer_weights(space: CompactSpace, n: int) -> int:
    check_fejer_grid(n, space.n_points)
    return space.n_points**2


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
                    "properties": {
                        "type": {"enum": ["identity", "rotation"]},
                        "steps": {"type": "integer"},
                    },
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
            lambda space, n: space.n_points * (n + 1),
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
            lambda space, n: space.n_points * (n + 1) ** space.dim,
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
            "space: any grid; params.phi: {type: identity|rotation, steps} or {map: [...]};"
            " params.mix: 'mean'; params.eps: '1/n' | '1/n^2' | [values]",
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

    @property
    def weight_witness(self) -> tuple[int, int, float] | None:
        """The witness as (y, i, weights[y, i])."""
        return None if self.witness is None else (self.witness[1], self.witness[0], self.witness[2])


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
        y, i = np.unravel_index(int(np.argmin(op.weights)), op.weights.shape)
        witness = (int(i), int(y), op.min_weight)
    return PositivityReport(op.min_weight, witness)


@dataclass(frozen=True)
class NormEstimate:
    estimate: float
    t_one_sup: float


def estimate_operator_norm(op) -> NormEstimate:
    """The sup-norm operator norm, computed exactly.

    A kernel operator's norm is its largest absolute row sum
    max_j sum_i |w_ji| over its distinct nodes, attained by the sign (or
    phase) pattern of that row. A composition isometry has norm 1.
    """
    if isinstance(op, KernelOperator):
        norm = float(np.abs(op.weights).sum(axis=1).max())
    elif isinstance(op, CompositionIsometry):
        norm = 1.0
    else:
        raise TypeError("expected a KernelOperator or CompositionIsometry")
    return NormEstimate(estimate=norm, t_one_sup=float(np.max(np.abs(op.t_one_values))))


@dataclass(frozen=True)
class OperatorFlags:
    unital: bool
    contraction: bool
    positive: bool
    corollary_consistent: bool


def classify_operator(op) -> OperatorFlags:
    """Unital / contraction / positive flags, plus a consistency check.

    On real-field spaces a unital contraction must act positively; any
    failure of that implication is flagged.
    """
    norm = estimate_operator_norm(op)
    unital = float(np.max(np.abs(op.t_one_values - 1.0))) <= UNITAL_TOL
    contraction = norm.estimate <= 1.0 + CONTRACTION_TOL
    positive = check_positivity(op).passed
    real = op.source.field is Field.REAL and op.target.field is Field.REAL
    return OperatorFlags(
        unital=unital,
        contraction=contraction,
        positive=positive,
        corollary_consistent=not (real and unital and contraction and not positive),
    )
