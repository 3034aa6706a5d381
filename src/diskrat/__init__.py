"""Orthonormal rational systems on the unit circle and best fixed-pole
rational approximation of weighted Bergman kernels, verified against
independent numerical oracles."""

from .bergman_approx import (
    Approximant,
    ErrorReport,
    build_approximant,
    build_error_report,
    closed_form_J,
    closed_form_J_tm_phase,
    competitor_function,
    competitor_nu,
    competitor_trials,
    equimodularity_variation,
    interpolation_target,
    mu_functional,
    mu_min_closed_form,
    nu_functional,
    nu_min_closed_form,
    random_competitor_coefficients,
    ratio_coefficients,
)
from .circlequad import (
    EPS_BOUNDARY,
    CircleGrid,
    Disk,
    circle_grid,
    derivative_at,
    integrate_circle,
    integrate_circle_adaptive,
    require_in_disk,
)
from .errors import (
    AccuracyNotReached,
    CountOutOfRange,
    DiskratError,
    IllConditioned,
    IndexOutOfRange,
    NonFiniteIntegrand,
    OrderTooSmall,
    PointNotInDisk,
    RadiusEscapesDisk,
    TrailingPolesMismatch,
)
from .expansion import (
    FourierExpansion,
    cauchy_integral,
    default_grid_size,
    expand_function,
    expand_kernel,
    fourier_coefficient,
    h2_remainder,
    remainder_integral_J,
)
from .kernels import KernelSpec, bergman_eval, cauchy_power_eval
from .oracle import (
    LeastSquaresProblem,
    LsqResult,
    ScanReport,
    SmallInstanceReport,
    lsq_minimize,
    small_instance_exhaustive,
    uniform_competitor_scan,
)
from .tm_basis import (
    BlaschkeProduct,
    PoleSequence,
    TMBasis,
    blaschke_eval,
    christoffel_darboux_residual,
    tm_eval,
)
from .verify import ALL_CHECK_NAMES, DEFAULT_TOLERANCES, CheckResult, run_checks

__version__ = "0.1.0"
