"""korovkinlab: positive linear operator convergence on finite grids.

Construct positive operator families on discretized compact spaces,
estimate Choquet boundaries of function spans by LP feasibility, and
measure how convergence on a small test set propagates to a whole probe
battery.
"""

__version__ = "0.1.0"

from .choquet import (
    BoundaryEstimate,
    ChoquetParams,
    Classification,
    LemmaBCertificate,
    PeakCertificate,
    estimate_choquet_boundary,
    find_peak_function,
    is_boundary_for,
    lemma_b_feasible,
    lemma_b_scan,
    verify_lemma_b_certificate,
    verify_peak_certificate,
)
from .engine import (
    ConvergenceReport,
    EquicontinuityTable,
    ExperimentConfig,
    HypothesisReport,
    equicontinuity_probe,
    error_bound_constant,
    run_convergence,
    uniform_vs_pointwise,
    verify_hypotheses,
)
from .errors import ConfigError, InvalidFunctionError, ResourceLimitError, SolverError
from .functions import (
    FunctionSpan,
    ScalarFunction,
    conjugate,
    conjugate_closure,
    default_probes,
    function_from_values,
    named_function,
    oscillation,
    separates_points,
    span_eval,
    span_union,
    sup_norm,
)
from .operators import (
    CompositionIsometry,
    KernelOperator,
    NormEstimate,
    OperatorFamily,
    OperatorFlags,
    PositivityReport,
    averaging_operator,
    bernstein,
    bernstein_family,
    check_positivity,
    classify_operator,
    estimate_operator_norm,
    fejer,
    fejer_family,
    identity_isometry,
    inject_weight,
    mollifier_disc,
    mollifier_disc_family,
    perturbed_composition,
    rotation_isometry,
    tensor_bernstein,
    tensor_bernstein_family,
)
from .space import (
    CompactSpace,
    Field,
    PointSet,
    SpaceKind,
    make_box_grid,
    make_circle_grid,
    make_custom_space,
    make_disc_grid,
    make_interval_grid,
    open_ball,
)
