"""Kernel operators, composition isometries, and indexed operator families.

Every built-in family is kernel-backed: the map at index n is a weight
matrix against a fixed node list, so an application is one matrix product
and positivity can be certified from the weight signs alone. Node points
need not lie on the source grid; functions are evaluation rules, so node
evaluation is exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
from scipy import stats

from .functions import ScalarFunction, function_from_values
from .space import CompactSpace, Field, PointSet, SpaceKind

# a kernel operator with all weights above this is certified positive
WEIGHT_SIGN_TOL = -1e-14
# tolerance for output positivity after large weighted sums
OUTPUT_POSITIVITY_TOL = -1e-12
UNITAL_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class KernelOperator:
    """(Tf)(y_j) = sum_i weights[j, i] * f(nodes[i])."""

    source: CompactSpace
    target: CompactSpace
    nodes: tuple
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.target.n_points, len(self.nodes)):
            raise ValueError(
                f"weights must have shape (n_target={self.target.n_points}, "
                f"n_nodes={len(self.nodes)}), got {w.shape}"
            )
        if not np.all(np.isfinite(w)):
            raise ValueError("kernel weights must be finite")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "nodes", tuple(self.nodes))

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
        return np.array([f.rule(p) for p in self.nodes])

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
    index_hint: tuple[int, int] = (1, 256)
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


def apply(family: OperatorFamily, n: int, f: ScalarFunction) -> ScalarFunction:
    """Apply the family member with index n to f."""
    return family.apply(n, f)


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
    x = space.coords[:, 0]
    k = np.arange(n + 1)
    w = stats.binom.pmf(k[None, :], n, x[:, None])
    nodes = tuple(i / n for i in range(n + 1))
    return KernelOperator(space, space, nodes, w)


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
    return KernelOperator(space, space, space.eval_points, w)


def tensor_bernstein(n: int, space: CompactSpace) -> KernelOperator:
    """Coordinatewise tensor product of 1-d Bernstein weights on a box grid."""
    if n < 1:
        raise ValueError("tensor_bernstein index must be >= 1")
    if space.kind is not SpaceKind.BOX:
        raise ValueError("tensor_bernstein needs a box grid")
    p = space.dim
    k = np.arange(n + 1)
    w = stats.binom.pmf(k[None, :], n, space.coords[:, 0][:, None])
    for d in range(1, p):
        wd = stats.binom.pmf(k[None, :], n, space.coords[:, d][:, None])
        w = np.einsum("ia,ib->iab", w, wd).reshape(space.n_points, -1)
    nodes = tuple(np.array(t, dtype=float) / n for t in itertools.product(range(n + 1), repeat=p))
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
    return KernelOperator(space, space, space.eval_points, w)


def averaging_operator(space: CompactSpace) -> KernelOperator:
    """Rank-one unital positive operator mapping f to its grid mean times 1."""
    n_pts = space.n_points
    w = np.full((n_pts, n_pts), 1.0 / n_pts)
    return KernelOperator(space, space, space.eval_points, w)


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


def perturbed_composition(
    phi: CompositionIsometry,
    mix: KernelOperator,
    eps,
    name: str = "perturbed_composition",
    index_hint: tuple[int, int] = (1, 256),
) -> OperatorFamily:
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
    source_points = phi.source.eval_points
    n_src = phi.source.n_points
    phi_idx = list(phi.phi)

    def build(n: int) -> KernelOperator:
        e = float(eps_fn(n))
        if not 0.0 <= e <= 1.0:
            raise ValueError(f"epsilon at index {n} is {e}, outside [0, 1]")
        comp = np.zeros((phi.target.n_points, n_src))
        comp[np.arange(phi.target.n_points), phi_idx] = 1.0 - e
        w = np.hstack([comp, e * mix.weights])
        return KernelOperator(phi.source, phi.target, source_points + mix.nodes, w)

    return OperatorFamily(name, phi.source, phi.target, build, limit=phi, index_hint=index_hint)


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


def check_positivity(op, trials: int = 100, seed: int = 0) -> PositivityReport:
    """Push seeded nonnegative sampled functions through the operator.

    Sampled values are uniform in [0, 1] at the operator's own evaluation
    nodes. Kernel operators additionally report their weight-sign
    certificate with a witness for the most negative weight.
    """
    rng = np.random.default_rng(seed)
    weight_cert = None
    min_weight = None
    weight_witness = None
    if isinstance(op, KernelOperator):
        values = rng.uniform(0.0, 1.0, size=(trials, len(op.nodes)))
        out = values @ op.weights.T
        min_weight = op.min_weight
        weight_cert = op.weight_certificate()
        if not weight_cert:
            yi, ni = np.unravel_index(int(np.argmin(op.weights)), op.weights.shape)
            weight_witness = (int(yi), int(ni), min_weight)
    elif isinstance(op, CompositionIsometry):
        values = rng.uniform(0.0, 1.0, size=(trials, op.source.n_points))
        out = values[:, list(op.phi)]
    else:
        raise TypeError(
            "check_positivity expects a KernelOperator or CompositionIsometry; "
            "for a family, pass family.operator(n)"
        )
    min_out = float(out.min())
    witness = None
    if min_out < OUTPUT_POSITIVITY_TOL:
        ti, yi = np.unravel_index(int(np.argmin(out)), out.shape)
        witness = (int(ti), int(yi), min_out)
    passed = min_out >= OUTPUT_POSITIVITY_TOL and weight_cert is not False
    return PositivityReport(
        passed=passed,
        worst_violation=max(0.0, -min_out),
        witness=witness,
        weight_certificate=weight_cert,
        min_weight=min_weight,
        weight_witness=weight_witness,
    )


@dataclass(frozen=True)
class NormEstimate:
    estimate: float
    t_one_sup: float


def _apply_matrix(op) -> tuple[Callable[[np.ndarray], np.ndarray], int, np.ndarray]:
    if isinstance(op, KernelOperator):
        return (lambda v: v @ op.weights.T), len(op.nodes), op.t_one_values
    if isinstance(op, CompositionIsometry):
        idx = list(op.phi)
        return (lambda v: v[..., idx]), op.source.n_points, np.ones(op.target.n_points)
    raise TypeError("expected a KernelOperator or CompositionIsometry")


def estimate_operator_norm(op, trials: int = 64, seed: int = 2024) -> NormEstimate:
    """Lower estimate of the sup-norm operator norm.

    The probe battery holds the constant 1, sign/phase patterns extracted
    from the heaviest weight rows (exact maximizers for kernel operators),
    and seeded random sign and uniform profiles, all with sup-norm 1.
    """
    rng = np.random.default_rng(seed)
    apply_mat, n_in, t1 = _apply_matrix(op)
    complex_input = op.source.field is Field.COMPLEX

    probes = [np.ones(n_in)]
    if isinstance(op, KernelOperator):
        heaviest = np.argsort(np.abs(op.weights).sum(axis=1))[::-1][:3]
        for row in heaviest:
            w = op.weights[int(row)]
            pattern = np.where(w >= 0.0, 1.0, -1.0)
            probes.append(pattern)
    half = max(trials // 2, 1)
    signs = rng.integers(0, 2, size=(half, n_in)) * 2.0 - 1.0
    probes.extend(signs)
    uniform = rng.uniform(-1.0, 1.0, size=(half, n_in))
    if complex_input:
        phases = np.exp(2j * np.pi * rng.uniform(size=(half, n_in)))
        probes.extend(phases)
        uniform = uniform * np.exp(2j * np.pi * rng.uniform(size=uniform.shape))
    probes.extend(uniform)

    best = 0.0
    for v in probes:
        scale = np.max(np.abs(v))
        if scale == 0.0:
            continue
        out = apply_mat(v / scale)
        best = max(best, float(np.max(np.abs(out))))
    return NormEstimate(estimate=best, t_one_sup=float(np.max(np.abs(t1))))


@dataclass(frozen=True)
class OperatorFlags:
    unital: bool
    contraction: bool
    positive: bool
    corollary_consistent: bool


def classify_operator(op, trials: int = 100, seed: int = 0) -> OperatorFlags:
    """Unital / contraction / positive flags, plus a consistency check.

    On real-field spaces a unital contraction must act positively; any
    failure of that implication on the test battery is flagged.
    """
    _, _, t1 = _apply_matrix(op)
    unital = float(np.max(np.abs(t1 - 1.0))) <= UNITAL_TOL
    norm = estimate_operator_norm(op, seed=seed)
    contraction = norm.estimate <= 1.0 + 1e-9
    positive = check_positivity(op, trials=trials, seed=seed).passed
    consistent = True
    if (
        op.source.field is Field.REAL
        and op.target.field is Field.REAL
        and unital
        and contraction
        and not positive
    ):
        consistent = False
    return OperatorFlags(
        unital=unital, contraction=contraction, positive=positive, corollary_consistent=consistent
    )
