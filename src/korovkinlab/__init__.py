"""korovkinlab: positive linear operator convergence on finite grids.

Construct positive operator families on discretized compact spaces,
estimate Choquet boundaries of function spans by LP feasibility, and
measure how convergence on a small test set propagates to a whole probe
battery.
"""

__version__ = "0.1.0"

from .choquet import (
    BoundaryEstimate,
    Classification,
    LemmaBCertificate,
    PeakCertificate,
    estimate_choquet_boundary,
    lemma_b_feasible,
    scan_radius,
    verify_lemma_b_certificate,
    verify_peak_certificate,
)
from .engine import (
    ConvergenceReport,
    ExperimentConfig,
    HypothesisReport,
    error_bound_constant,
    run_convergence,
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
    span_union,
    sup_norm,
)
from .operators import (
    FAMILIES,
    CompositionIsometry,
    KernelOperator,
    NormEstimate,
    OperatorFamily,
    PositivityReport,
    averaging_operator,
    bernstein,
    check_positivity,
    estimate_operator_norm,
    fejer,
    identity_isometry,
    inject_weight,
    mollifier_disc,
    perturbed_composition,
    rotation_isometry,
    tensor_bernstein,
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
