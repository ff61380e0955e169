"""Convergence experiments for positive operator families.

An experiment fixes a family T_n with its limit map, a small test span,
and a battery of probe functions standing in for the ambient space. The
engine first certifies the structural hypotheses (positivity per index,
boundedness of T_n 1, the limit being a sup-norm isometry, and a boundary
estimate for the pushed-forward test span), then measures per-index errors
both over the whole target grid and restricted to the estimated boundary.

"Converged" at desk scale means: the error at the largest index is below
an absolute threshold and improved on the smallest index by a fixed
factor. Both thresholds are configuration fields, not magic numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .choquet import BoundaryEstimate, estimate_choquet_boundary, scan_radius
from .functions import FunctionSpan, ScalarFunction, oscillation, span_union, sup_norm
from .operators import OperatorFamily, PositivityReport, check_positivity
from .space import PointSet

ISOMETRY_TOL = 1e-9
ZERO_ERROR_FLOOR = 1e-12
EQUICONTINUITY_THRESHOLD = 0.1
# slack of the equicontinuity table's monotonicity check
MONOTONE_TOL = 1e-15


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """One experiment: a family, its test span and probes, the indices to
    run, and the convergence thresholds. Nothing in a run is sampled:
    positivity is certified from the kernel weight signs."""

    family: OperatorFamily
    test_span: FunctionSpan
    probes: tuple[ScalarFunction, ...]
    indices: tuple[int, ...]
    abs_threshold: float = 0.05
    improvement_factor: float = 2.0
    radius: float | None = None  # boundary scan radius; None: a fifth of the diameter
    n_generators: tuple[ScalarFunction, ...] | None = None

    def __post_init__(self) -> None:
        idx = tuple(int(n) for n in self.indices)
        if not idx:
            raise ValueError("an experiment needs at least one index")
        if any(n < 1 for n in idx):
            raise ValueError("indices must be positive")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("indices must be strictly increasing")
        object.__setattr__(self, "indices", idx)
        probes = tuple(self.probes)
        if not probes:
            raise ValueError("an experiment needs at least one probe function")
        for what, fs in (("probe", probes), ("test span", self.test_span.basis)):
            names = [f.name for f in fs]  # the errors are reported by name
            if len(set(names)) != len(names):
                raise ValueError(f"{what} names must be unique")
        object.__setattr__(self, "probes", probes)
        if self.test_span.space is not self.family.source:
            raise ValueError("test span must live on the family source grid")
        for what, fs in (("probe", probes), ("generator", self.n_generators or ())):
            for f in fs:
                if f.space is not self.family.source:
                    raise ValueError(f"{what} {f.name!r} lives on a different grid")
        scan_radius(self.family.target, self.radius)  # the grid the scans run on


@dataclass(frozen=True, eq=False)
class ChoquetInclusion:
    """Status of the boundary-inclusion hypothesis for the span of images."""

    status: str  # "checked" | "assumed"
    target_boundary: BoundaryEstimate | None
    n_boundary: BoundaryEstimate | None = None
    included: bool | None = None
    note: str = ""


@dataclass(frozen=True, eq=False)
class HypothesisReport:
    positivity: dict[int, PositivityReport]
    t_n_one_bound: float
    isometry_deviation: float
    choquet_inclusion: ChoquetInclusion
    # T_n's image (images[n]) and the limit's image of each distinct
    # test-span member, probe and generator, keyed by identity, not name
    images: dict[int, dict[ScalarFunction, ScalarFunction]]
    limit_images: dict[ScalarFunction, ScalarFunction]

    @property
    def positivity_passed(self) -> bool:
        return all(rep.passed for rep in self.positivity.values())

    @property
    def passed(self) -> bool:
        return self.positivity_passed and self.isometry_deviation <= ISOMETRY_TOL


def verify_hypotheses(config: ExperimentConfig) -> HypothesisReport:
    """Certify the structural hypotheses of a convergence experiment in a run's one pass
    over its kernels: each is built once, certified, applied, and released before the next."""
    distinct = dict.fromkeys((*config.test_span.basis, *config.probes, *(config.n_generators or ())))
    positivity, images, t1_bound = {}, {}, 0.0
    for n in config.indices:
        op = config.family.operator(n)
        positivity[n] = check_positivity(op)
        t1_bound = max(t1_bound, float(np.max(np.abs(op.t_one_values))))
        images[n] = {f: op.apply(f) for f in distinct}
        del op  # the next build must not find this kernel alive
    limit_images = {f: config.family.limit.apply(f) for f in distinct}
    iso_dev = max(abs(sup_norm(limit_images[f]) - sup_norm(f)) for f in config.probes)

    pushed = FunctionSpan(tuple(limit_images[s] for s in config.test_span.basis))
    target_boundary: BoundaryEstimate | None = None
    note = ""
    try:
        target_boundary = estimate_choquet_boundary(pushed, config.radius)
    except ValueError as exc:
        note = f"pushed span not scannable: {exc}"

    n_boundary = None
    included = None
    status = "assumed"
    if config.n_generators is not None and target_boundary is not None:
        gens: list[ScalarFunction] = []
        for g in config.n_generators:
            gens.extend(images[n][g] for n in config.indices)
            gens.append(limit_images[g])
        n_span = span_union(*[FunctionSpan((g,)) for g in gens])
        try:
            n_boundary = estimate_choquet_boundary(n_span, config.radius)
            target_idx = set(target_boundary.boundary_point_set().indices)
            n_idx = set(n_boundary.boundary_point_set().indices)
            included = n_idx <= target_idx
            status = "checked"
        except ValueError as exc:
            note = f"image span not scannable: {exc}"

    return HypothesisReport(
        positivity=positivity,
        t_n_one_bound=t1_bound,
        isometry_deviation=float(iso_dev),
        choquet_inclusion=ChoquetInclusion(
            status=status,
            target_boundary=target_boundary,
            n_boundary=n_boundary,
            included=included,
            note=note,
        ),
        images=images,
        limit_images=limit_images,
    )


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    function: str
    sup_error_global: float
    sup_error_choquet: float
    bound_constant: float


@dataclass(frozen=True)
class ProbeTrend:
    function: str
    errors: tuple[float, ...]
    final_below_threshold: bool
    improved: bool

    @property
    def converged(self) -> bool:
        return self.final_below_threshold and self.improved


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    config: ExperimentConfig
    hypotheses: HypothesisReport
    rows: tuple[ConvergenceRow, ...]
    test_errors: dict[int, dict[str, float]]
    trends: tuple[ProbeTrend, ...]
    error_fields: dict[tuple[int, str], np.ndarray]
    boundary_indices: tuple[int, ...] | None

    @property
    def converged_all(self) -> bool:
        return all(t.converged for t in self.trends)

    def test_max_error(self, n: int) -> float:
        return max(self.test_errors[n].values())


def error_bound_constant(f: ScalarFunction) -> float:
    """The factor 2 + 4*oscillation(f) + sup_norm(f) from the pointwise
    error estimate; recorded per probe in convergence reports."""
    return 2.0 + 4.0 * oscillation(f) + sup_norm(f)


def _trend(name, errors, abs_threshold, improvement_factor) -> ProbeTrend:
    final_ok = errors[-1] < abs_threshold
    if errors[0] <= ZERO_ERROR_FLOOR and errors[-1] <= ZERO_ERROR_FLOOR:
        improved = True  # exactly reproduced from the start
    else:
        improved = errors[-1] * improvement_factor <= errors[0]
    return ProbeTrend(
        function=name,
        errors=tuple(errors),
        final_below_threshold=final_ok,
        improved=improved,
    )


def run_convergence(
    config: ExperimentConfig, hypotheses: HypothesisReport | None = None
) -> ConvergenceReport:
    """Fill the per-(index, probe) error table from the images of
    ``hypotheses``, the report of ``verify_hypotheses(config)`` (verified
    here when None); no kernel is built or applied here. The table is
    filled, and carries the report, whether or not the hypotheses passed."""
    hyp = hypotheses if hypotheses is not None else verify_hypotheses(config)
    boundary_idx: tuple[int, ...] | None = None
    est = hyp.choquet_inclusion.target_boundary
    if est is not None:
        bset = est.boundary_point_set()
        if len(bset):
            boundary_idx = bset.indices

    constants = {f.name: error_bound_constant(f) for f in config.probes}

    rows: list[ConvergenceRow] = []
    test_errors: dict[int, dict[str, float]] = {}
    error_fields: dict[tuple[int, str], np.ndarray] = {}
    per_probe: dict[str, list[float]] = {f.name: [] for f in config.probes}

    for n in config.indices:
        images = hyp.images[n]
        test_errors[n] = {
            s.name: float(np.max(np.abs(images[s].values - hyp.limit_images[s].values)))
            for s in config.test_span.basis
        }
        for f in config.probes:
            diff = np.abs(images[f].values - hyp.limit_images[f].values)
            sup_global = float(diff.max())
            if boundary_idx is not None:
                sup_choquet = float(diff[list(boundary_idx)].max())
            else:
                sup_choquet = sup_global
            error_fields[(n, f.name)] = diff
            per_probe[f.name].append(sup_global)
            rows.append(
                ConvergenceRow(
                    n=n,
                    function=f.name,
                    sup_error_global=sup_global,
                    sup_error_choquet=sup_choquet,
                    bound_constant=constants[f.name],
                )
            )

    trends = tuple(
        _trend(name, errs, config.abs_threshold, config.improvement_factor)
        for name, errs in per_probe.items()
    )
    return ConvergenceReport(
        config=config,
        hypotheses=hyp,
        rows=tuple(rows),
        test_errors=test_errors,
        trends=trends,
        error_fields=error_fields,
        boundary_indices=boundary_idx,
    )


@dataclass(frozen=True)
class EquicontinuityTable:
    y0: int
    radii: tuple[float, ...]
    values: tuple[float, ...]
    monotone_ok: bool
    small_at_first: bool  # judged at EQUICONTINUITY_THRESHOLD


def equicontinuity_probe(
    family: OperatorFamily,
    f: ScalarFunction,
    y0: int,
    radii,
    indices,
) -> EquicontinuityTable:
    """Shared modulus of continuity of {T_n f} around a target point.

    For each radius r the table holds sup over n and over points within
    distance r of y0 of |T_n f(y) - T_n f(y0)|.
    """
    radii = tuple(float(r) for r in radii)
    if not radii or any(r <= 0 for r in radii):
        raise ValueError("radii must be positive")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    if not 0 <= int(y0) < family.target.n_points:
        raise ValueError("probe point index out of range")
    applied = {n: family.apply(n, f).values for n in indices}
    d = family.target.pairwise[int(y0)]
    values = []
    for r in radii:
        ball = np.nonzero(d < r)[0]
        worst = 0.0
        for n in indices:
            g = applied[n]
            worst = max(worst, float(np.max(np.abs(g[ball] - g[int(y0)]))))
        values.append(worst)
    monotone = all(b >= a - MONOTONE_TOL for a, b in zip(values, values[1:]))
    return EquicontinuityTable(
        y0=int(y0),
        radii=radii,
        values=tuple(values),
        monotone_ok=monotone,
        small_at_first=values[0] <= EQUICONTINUITY_THRESHOLD,
    )


@dataclass(frozen=True)
class SubsetSummaryRow:
    n: int
    subset_sup: float
    global_sup: float


def uniform_vs_pointwise(
    report: ConvergenceReport, subset: PointSet
) -> tuple[SubsetSummaryRow, ...]:
    """Per-index error maxima restricted to a point subset vs globally,
    so the restriction gap to the global column is visible in the data."""
    if len(subset) == 0:
        raise ValueError("subset must be nonempty")
    if subset.space is not report.config.family.target:
        raise ValueError("subset lives on a different grid than the family target")
    idx = list(subset.indices)
    out = []
    for n in report.config.indices:
        fields = [report.error_fields[(n, f.name)] for f in report.config.probes]
        sup = float(np.max(np.vstack([vec[idx] for vec in fields])))
        global_sup = max(float(vec.max()) for vec in fields)
        out.append(SubsetSummaryRow(n=n, subset_sup=sup, global_sup=global_sup))
    return tuple(out)
