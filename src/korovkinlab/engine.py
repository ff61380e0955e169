"""Convergence experiments for positive operator families.

An experiment fixes a family T_n with its limit map, a small test span,
and a battery of probe functions standing in for the ambient space. The
engine first certifies positivity per index, reports the bound on T_n 1 and
scans the boundary of the pushed-forward test span (the limit keeps every
sup norm by construction), then measures per-index errors both over the
whole target grid and restricted to the certified boundary.

"Converged" at desk scale means: the error at the largest index is below
an absolute threshold and improved on the smallest index by a fixed
factor. Both thresholds are configuration fields, not magic numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .choquet import BoundaryEstimate, estimate_choquet_boundary, scan_radius
from .functions import FunctionSpan, ScalarFunction, oscillation, sup_norm
from .operators import OperatorFamily, PositivityReport, check_positivity

ZERO_ERROR_FLOOR = 1e-12


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
        for f in probes:
            if f.space is not self.family.source:
                raise ValueError(f"probe {f.name!r} lives on a different grid")
        scan_radius(self.family.target, self.radius)  # the grid the scans run on


@dataclass(frozen=True, eq=False)
class HypothesisReport:
    positivity: dict[int, PositivityReport]
    t_n_one_bound: float
    # the boundary scan of the limit's images of the test span, None when
    # that span cannot be scanned; boundary_note says why no Boundary point
    # is certified, and is empty when one is
    target_boundary: BoundaryEstimate | None
    boundary_note: str
    # T_n's image (images[n]) and the limit's image of each distinct
    # test-span member and probe, keyed by identity, not name
    images: dict[int, dict[ScalarFunction, ScalarFunction]]
    limit_images: dict[ScalarFunction, ScalarFunction]

    @property
    def passed(self) -> bool:
        return all(rep.passed for rep in self.positivity.values())


def verify_hypotheses(config: ExperimentConfig) -> HypothesisReport:
    """Certify the structural hypotheses of a convergence experiment in a run's one pass
    over its kernels: each is swept once, a row block at a time, to certify and apply it,
    and released before the next is built."""
    distinct = dict.fromkeys((*config.test_span.basis, *config.probes))
    positivity, images, t1_bound = {}, {}, 0.0
    for n in config.indices:
        op = config.family.operator(n)
        op.sweep(distinct)  # the checks, T_n 1 and the images below read this pass
        positivity[n] = check_positivity(op)
        t1_bound = max(t1_bound, float(np.max(np.abs(op.t_one_values))))
        images[n] = {f: op.apply(f) for f in distinct}
        del op  # the next build must not find this kernel alive
    limit_images = {f: config.family.limit.apply(f) for f in distinct}

    pushed = FunctionSpan(tuple(limit_images[s] for s in config.test_span.basis))
    target_boundary: BoundaryEstimate | None = None
    note = ""
    try:
        target_boundary = estimate_choquet_boundary(pushed, config.radius)
    except ValueError as exc:
        note = f"pushed span not scannable: {exc}"
    else:
        if not len(target_boundary.boundary_point_set()):
            note = "pushed span scan certified no Boundary point"

    return HypothesisReport(
        positivity=positivity,
        t_n_one_bound=t1_bound,
        target_boundary=target_boundary,
        boundary_note=note,
        images=images,
        limit_images=limit_images,
    )


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    function: str
    sup_error_global: float
    sup_error_choquet: float | None  # None when no Boundary point is certified
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
    boundary_idx = None
    if not hyp.boundary_note:
        boundary_idx = list(hyp.target_boundary.boundary_point_set().indices)

    constants = {f.name: error_bound_constant(f) for f in config.probes}

    rows: list[ConvergenceRow] = []
    test_errors: dict[int, dict[str, float]] = {}
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
            sup_choquet = None if boundary_idx is None else float(diff[boundary_idx].max())
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
    )
