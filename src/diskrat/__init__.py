"""Orthonormal rational systems on the unit circle and best fixed-pole
rational approximation of weighted Bergman kernels, verified against
independent numerical oracles."""

from .bergman_approx import (
    Approximant,
    ErrorReport,
    build_approximant,
    build_error_report,
    closed_form_J,
    competitor_function,
    competitor_trials,
    equimodularity_variation,
    interpolation_target,
    mu_functional,
    mu_min_closed_form,
    nu_functional,
    nu_min_closed_form,
)
from .circlequad import (
    EPS_BOUNDARY,
    CircleGrid,
    circle_grid,
    derivative_at,
    integrate_circle,
    require_in_disk,
)
from .errors import (
    AccuracyNotReached,
    CountOutOfRange,
    DesignTooLarge,
    DiskratError,
    GridTooLarge,
    IllConditioned,
    IndexOutOfRange,
    NonFiniteIntegrand,
    OrderTooSmall,
    PointNotInDisk,
    TrailingPolesMismatch,
    ValueOutOfRange,
)
from .expansion import (
    FourierExpansion,
    default_grid_size,
    expand_function,
    expand_kernel,
    h2_remainder,
    remainder_integral_J,
)
from .kernels import KernelSpec
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
    christoffel_darboux_residual,
)
from .verify import ALL_CHECK_NAMES, DEFAULT_TOLERANCES, CheckResult, run_checks

__version__ = "0.1.0"
