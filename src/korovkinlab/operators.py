"""Kernel operators, composition isometries, and indexed operator families.

Every built-in family is kernel-backed: the map at index n is a weight
matrix against a fixed node array, so an application is one rule call on
all nodes and one matrix product, and positivity is certified from the
weight signs alone. Node points need not lie on the source grid; functions
are evaluation rules, so node evaluation is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .functions import ScalarFunction, evaluate, function_from_values
from .space import CompactSpace, Field, PointSet, SpaceKind

# a kernel operator with all weights above this is certified positive
WEIGHT_SIGN_TOL = -1e-14
UNITAL_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class KernelOperator:
    """(Tf)(y_j) = sum_i weights[j, i] * f(nodes[i]).

    ``nodes`` is one array in the form of the source grid's ``points``:
    shape ``(N,)``, or ``(N, dim)`` on a box grid.
    """

    source: CompactSpace
    target: CompactSpace
    nodes: np.ndarray
    weights: np.ndarray

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
        if not np.all(np.isfinite(w)):
            raise ValueError("kernel weights must be finite")
        w = w.copy()
        for a in (nodes, w):
            a.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "nodes", nodes)

    @cached_property
    def t_one_values(self) -> np.ndarray:
        """Row sums: the image of the constant function 1."""
        return self.weights.sum(axis=1)

    @property
    def min_weight(self) -> float:
        return float(self.weights.min())

    def weight_certificate(self, tol: float = WEIGHT_SIGN_TOL) -> bool:
        """Nonnegative-weight certificate of positivity."""
        return self.min_weight >= tol

    def node_values(self, f: ScalarFunction) -> np.ndarray:
        """f at every node, from one rule call."""
        return evaluate(f, self.nodes)

    def apply(self, f: ScalarFunction) -> ScalarFunction:
        if f.space is not self.source:
            raise ValueError("function lives on a different grid than the operator source")
        out = self.weights @ self.node_values(f)
        return function_from_values(self.target, out, name=f"T[{f.name}]")


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

    @property
    def image(self) -> PointSet:
        return PointSet(self.source, tuple(set(self.phi)))

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
    """An indexed sequence n -> T_n together with its target isometry."""

    name: str
    source: CompactSpace
    target: CompactSpace
    kernel_builder: Callable[[int], KernelOperator]
    limit: CompositionIsometry
    _cache: dict = field(default_factory=dict, repr=False)

    def operator(self, n: int) -> KernelOperator:
        n = int(n)
        if n not in self._cache:
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
    if space.kind is not SpaceKind.INTERVAL:
        raise ValueError("bernstein needs an interval grid")
    w = _binom_pmf(n, space.coords[:, 0])
    return KernelOperator(space, space, np.arange(n + 1) / n, w)


def _binom_pmf(n: int, x: np.ndarray) -> np.ndarray:
    """Rows C(n,k) x^k (1-x)^(n-k), k = 0..n, one per entry of x."""
    # scipy.stats adds ~0.45 s of import time, so only Bernstein kernels load it
    from scipy.stats import binom

    return binom.pmf(np.arange(n + 1)[None, :], n, x[:, None])


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
    if space.kind is not SpaceKind.CIRCLE:
        raise ValueError("fejer needs a circle grid")
    m = space.n_points
    check_fejer_grid(n, m)
    theta = 2.0 * np.pi * np.arange(m) / m
    w = _fejer_kernel(theta[:, None] - theta[None, :], n) / m
    return KernelOperator(space, space, space.points, w)


def tensor_bernstein(n: int, space: CompactSpace) -> KernelOperator:
    """Coordinatewise tensor product of 1-d Bernstein weights on a box grid."""
    if n < 1:
        raise ValueError("tensor_bernstein index must be >= 1")
    if space.kind is not SpaceKind.BOX:
        raise ValueError("tensor_bernstein needs a box grid")
    p = space.dim
    w = _binom_pmf(n, space.coords[:, 0])
    for d in range(1, p):
        wd = _binom_pmf(n, space.coords[:, d])
        w = np.einsum("ia,ib->iab", w, wd).reshape(space.n_points, -1)
    # nodes in itertools.product order, matching the weight columns
    axes = np.meshgrid(*[np.arange(n + 1) / n] * p, indexing="ij")
    nodes = np.stack(axes, axis=-1).reshape((-1,) + space.points.shape[1:])
    return KernelOperator(space, space, nodes, w)


def mollifier_disc(n: int, space: CompactSpace) -> KernelOperator:
    """Equal-weight average over grid points within distance 1/n on a disc grid."""
    if n < 1:
        raise ValueError("mollifier index must be >= 1")
    if space.kind is not SpaceKind.DISC:
        raise ValueError("mollifier_disc needs a disc grid")
    radius = 1.0 / n
    n_pts = space.n_points
    w = np.zeros((n_pts, n_pts))
    for i in range(n_pts):
        ball = np.nonzero(space.pairwise[i] < radius)[0]
        w[i, ball] = 1.0 / ball.size
    return KernelOperator(space, space, space.points, w)


def averaging_operator(space: CompactSpace) -> KernelOperator:
    """Rank-one unital positive operator mapping f to its grid mean times 1."""
    n_pts = space.n_points
    w = np.full((n_pts, n_pts), 1.0 / n_pts)
    return KernelOperator(space, space, space.points, w)


def eps_schedule(spec) -> Callable[[int], float]:
    """Normalize an epsilon schedule: "1/n", "1/n^2", a list (1-based by
    index, clamped at the end), a mapping, or a callable."""
    if callable(spec):
        return spec
    if isinstance(spec, str):
        if spec == "1/n":
            return lambda n: 1.0 / n
        if spec == "1/n^2":
            return lambda n: 1.0 / n**2
        raise ValueError(f"unknown epsilon schedule {spec!r}")
    if isinstance(spec, dict):
        table = {int(k): float(v) for k, v in spec.items()}

        def from_map(n: int) -> float:
            if n not in table:
                raise ValueError(f"epsilon schedule has no entry for index {n}")
            return table[n]

        return from_map
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
    """
    if mix.source is not phi.source or mix.target is not phi.target:
        raise ValueError("mix operator must share the composition map's spaces")
    if not mix.weight_certificate():
        raise ValueError("mix operator must have nonnegative weights")
    if np.max(np.abs(mix.t_one_values - 1.0)) > UNITAL_TOL:
        raise ValueError("mix operator must be unital")
    eps_fn = eps_schedule(eps)
    nodes = np.concatenate([phi.source.points, mix.nodes])
    n_src = phi.source.n_points
    phi_idx = list(phi.phi)

    def build(n: int) -> KernelOperator:
        e = float(eps_fn(n))
        if not 0.0 <= e <= 1.0:
            raise ValueError(f"epsilon at index {n} is {e}, outside [0, 1]")
        comp = np.zeros((phi.target.n_points, n_src))
        comp[np.arange(phi.target.n_points), phi_idx] = 1.0 - e
        w = np.hstack([comp, e * mix.weights])
        return KernelOperator(phi.source, phi.target, nodes, w)

    return OperatorFamily("perturbed_composition", phi.source, phi.target, build, limit=phi)


def inject_weight(op: KernelOperator, target_index: int, node_index: int, value: float) -> KernelOperator:
    """Copy of a kernel operator with one weight overridden.

    Used to construct positivity counterexamples in tests and demos.
    """
    w = op.weights.copy()
    w[int(target_index), int(node_index)] = float(value)
    return KernelOperator(op.source, op.target, op.nodes, w)


# ---------------------------------------------------------------------------
# family constructors


def bernstein_family(space: CompactSpace) -> OperatorFamily:
    return OperatorFamily(
        "bernstein", space, space, lambda n: bernstein(n, space), identity_isometry(space)
    )


def fejer_family(space: CompactSpace) -> OperatorFamily:
    return OperatorFamily(
        "fejer", space, space, lambda n: fejer(n, space), identity_isometry(space)
    )


def tensor_bernstein_family(space: CompactSpace) -> OperatorFamily:
    return OperatorFamily(
        "tensor_bernstein",
        space,
        space,
        lambda n: tensor_bernstein(n, space),
        identity_isometry(space),
    )


def mollifier_disc_family(space: CompactSpace) -> OperatorFamily:
    return OperatorFamily(
        "mollifier_disc", space, space, lambda n: mollifier_disc(n, space), identity_isometry(space)
    )


# ---------------------------------------------------------------------------
# certification


@dataclass(frozen=True)
class PositivityReport:
    passed: bool
    worst_violation: float
    witness: tuple[int, int, float] | None
    weight_certificate: bool | None
    min_weight: float | None
    weight_witness: tuple[int, int, float] | None


def check_positivity(op) -> PositivityReport:
    """Certify positivity from the weight signs alone; nothing is sampled.

    A kernel operator passes when its weight certificate holds. Otherwise
    the weight columns of equal nodes are summed first, since a function
    takes one value at a point however often it is listed, and the merged
    weights decide. When they fail, the witness is constructive: with
    weights[y, i] the most negative merged weight, the indicator e_i of
    node i is a nonnegative input with (T e_i)(y) = weights[y, i] < 0.
    ``witness`` is (i, y, that value) and ``weight_witness`` is (y, i, that
    value), where i is the first index of that node in ``op.nodes``;
    ``worst_violation`` is max(0, -min_weight). A composition isometry
    passes trivially.
    """
    if isinstance(op, CompositionIsometry):
        return PositivityReport(True, 0.0, None, None, None, None)
    if not isinstance(op, KernelOperator):
        raise TypeError(
            "check_positivity expects a KernelOperator or CompositionIsometry; "
            "for a family, pass family.operator(n)"
        )
    weights, first = op.weights, None
    if not op.weight_certificate():
        weights, first = _distinct_node_weights(op)
    min_weight = float(weights.min())
    passed = min_weight >= WEIGHT_SIGN_TOL
    witness = weight_witness = None
    if not passed:
        y, j = np.unravel_index(int(np.argmin(weights)), weights.shape)
        i = int(first[j])
        witness = (i, int(y), min_weight)
        weight_witness = (int(y), i, min_weight)
    return PositivityReport(
        passed=passed,
        worst_violation=max(0.0, -min_weight),
        witness=witness,
        weight_certificate=passed,
        min_weight=min_weight,
        weight_witness=weight_witness,
    )


def _distinct_node_weights(op: KernelOperator) -> tuple[np.ndarray, np.ndarray]:
    """The weights with the columns of equal nodes summed, and the first
    index in ``op.nodes`` of each distinct node.

    Built on each call and not kept: on a large kernel a kept copy would
    double its memory.
    """
    _, first, inverse = np.unique(op.nodes, axis=0, return_index=True, return_inverse=True)
    if first.size == len(op.nodes):
        return op.weights, np.arange(first.size)
    inverse = inverse.reshape(-1)
    starts = np.r_[0, np.cumsum(np.bincount(inverse))[:-1]]
    order = np.argsort(inverse, kind="stable")
    return np.add.reduceat(op.weights[:, order], starts, axis=1), first


@dataclass(frozen=True)
class NormEstimate:
    estimate: float
    t_one_sup: float


def estimate_operator_norm(op) -> NormEstimate:
    """The sup-norm operator norm, computed exactly.

    A kernel operator's norm is its largest absolute row sum
    max_j sum_i |w_ji| over distinct nodes, attained by the sign (or phase)
    pattern of that row. With mixed signs the weight columns of equal nodes
    are summed first; with nonnegative weights that changes no row sum. A
    composition isometry has norm 1.
    """
    if isinstance(op, KernelOperator):
        weights = op.weights if op.min_weight >= 0.0 else _distinct_node_weights(op)[0]
        norm = float(np.abs(weights).sum(axis=1).max())
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
    contraction = norm.estimate <= 1.0 + 1e-9
    positive = check_positivity(op).passed
    real = op.source.field is Field.REAL and op.target.field is Field.REAL
    return OperatorFlags(
        unital=unital,
        contraction=contraction,
        positive=positive,
        corollary_consistent=not (real and unital and contraction and not positive),
    )
