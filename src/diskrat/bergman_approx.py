"""Closed-form best rational approximants of weighted Bergman kernels.

With the trailing alpha+1 poles of the sequence pinned to the kernel point w,
the function

    r(x; w) = (1 - x conj(w)) * S_{n+1}(K_alpha)(x; w)

is simultaneously the minimizer of the quadratic functional

    mu(R) = integral |K_alpha(x; w) - R(x) / (1 - x conj(w))|^2 d(sigma)

and of the uniform functional

    nu(R) = sup_{|x|=1} |(1 - x conj(w))^-(1+alpha) - R(x)|

over the fixed-pole competitor class, with exact minima

    mu_min = |w|^(2a+2) (1-|w|^2)^-(2a+3) |B(w)|^2,
    nu_min = (|w| / (1-|w|^2))^(1+a) |B(w)|,

where B is the Blaschke product over the free poles.  This module holds the
closed-form evaluator of r, its interpolation conditions, the two functionals,
the exact minima, and the closed form of the kernel-remainder integral.

The uniform error at the optimum has constant modulus on the circle (the error
is a constant times a Blaschke product); that equimodularity is checked here
as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .circlequad import (
    CircleGrid,
    circle_grid,
    derivative_at,
    require_in_disk,
    sample_on_nodes,
)
from .errors import NonFiniteIntegrand
from .expansion import (
    FourierExpansion,
    expand_function,
    expand_kernel,
    validate_trailing_poles,
)
from .kernels import KernelSpec
from .tm_basis import BlaschkeProduct, PoleSequence, TMBasis

__all__ = [
    "Approximant",
    "build_approximant",
    "mu_functional",
    "mu_min_closed_form",
    "nu_functional",
    "nu_min_closed_form",
    "closed_form_J",
    "closed_form_J_tm_phase",
    "competitor_function",
    "competitor_nu",
    "competitor_trials",
    "random_competitor_coefficients",
    "ratio_coefficients",
    "equimodularity_variation",
    "interpolation_target",
    "ErrorReport",
    "build_error_report",
    "csv_cell",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: Golden-section iterations per nu refinement: the bracket shrinks to
#: 0.618^60 ~ 3e-13 of one grid arc.
_REFINE_ITERS = 60

#: Long-double integrand evaluation kicks in below this quadratic minimum;
#: smaller minima drown in double-precision cancellation noise.
EXTENDED_MU_CUTOFF = 1e-7


def _rising_factorial(alpha: int, count: int) -> float:
    """(alpha+1)(alpha+2)...(alpha+count); empty product for count = 0.

    This is (alpha+count)!/alpha!, the coefficient produced by differentiating
    (1 - z c)^-(1+alpha) count times.
    """
    out = 1.0
    for i in range(1, count + 1):
        out *= alpha + i
    return out


def interpolation_target(spec: KernelSpec, point: complex, multiplicity: int) -> complex:
    """Right-hand side of the interpolation condition of order multiplicity-1
    at the given pole: the (multiplicity-1)-st derivative of the Cauchy-power
    kernel (1 - z conj(w))^-(1+alpha) there."""
    s = int(multiplicity)
    cw = np.conj(spec.w)
    return complex(
        _rising_factorial(spec.alpha, s - 1)
        * cw ** (s - 1)
        / (1.0 - cw * point) ** (spec.alpha + s)
    )


@dataclass
class Approximant:
    """r(x; w) = (1 - x conj(w)) S_{n+1}(K_alpha)(x; w) over a trailing-w basis."""

    spec: KernelSpec
    free_poles: PoleSequence
    basis: TMBasis
    expansion: FourierExpansion
    free_blaschke: BlaschkeProduct

    @property
    def n(self) -> int:
        return self.basis.max_index

    @property
    def coefficients(self) -> np.ndarray:
        return self.expansion.coefficients

    def eval(self, z):
        """Constructive route: multiplier times the full partial sum."""
        z = np.asarray(z)
        out = (1.0 - z * np.conj(self.spec.w)) * self.expansion.partial_sum(
            self.n + 1, z
        )
        return complex(out) if np.ndim(out) == 0 else out

    def eval_closed_form(self, z):
        """Closed form

            [(1-|w|^2)^(a+1) + (-1)^a (conj(w)(w - z))^(a+1) B(z) conj(B(w))]
            / [(1-|w|^2)^(a+1) (1 - conj(w) z)^(a+1)]

        with B the Blaschke product over the free poles.  Only the
        phase-invariant combination B(z) conj(B(w)) enters, so the stored
        product's unimodular constant is immaterial.
        """
        spec = self.spec
        z = np.asarray(z)
        a1 = spec.alpha + 1
        cw = np.conj(spec.w)
        disc = (1.0 - abs(spec.w) ** 2) ** a1
        pair = self.free_blaschke(z) * np.conj(self.free_blaschke(spec.w))
        numerator = disc + (-1.0) ** spec.alpha * (cw * (spec.w - z)) ** a1 * pair
        denominator = disc * (1.0 - cw * z) ** a1
        out = numerator / denominator
        return complex(out) if np.ndim(out) == 0 else out

    def interpolation_residuals(self) -> list[float]:
        """|r^(s_m - 1)(a_m) - target| for every pole of the full sequence.

        Derivatives are extracted by contour quadrature from the closed-form
        evaluator; s_m is the running multiplicity within the prefix.
        """
        residuals = []
        for m, a in enumerate(self.basis.poles):
            s = self.basis.poles.multiplicity_in_prefix(m)
            value = derivative_at(self.eval_closed_form, a, order=s - 1)
            residuals.append(abs(value - interpolation_target(self.spec, a, s)))
        return residuals

    def membership_residual(self, sample_count: int | None = None) -> float:
        """Relative fit residual of r against the partial-fraction competitor
        basis {1} + {(1 - conj(a_j) x)^-s_j}  (monomials x^s_j at zero poles),
        j over the first n poles; small iff r lies in the competitor class."""
        n = self.n
        if sample_count is None:
            sample_count = 4 * (n + 1) + 9
        # offset keeps samples away from grid symmetries
        x = np.exp(2j * np.pi * (np.arange(sample_count) + 0.37) / sample_count)
        columns = [np.ones_like(x)]
        for j in range(n):
            a = self.basis.poles[j]
            s = self.basis.poles.multiplicity_in_prefix(j)
            if a == 0:
                columns.append(x**s)
            else:
                columns.append((1.0 - np.conj(a) * x) ** (-float(s)))
        design = np.stack(columns, axis=1)
        target = self.eval(x)
        solution, *_ = np.linalg.lstsq(design, target, rcond=None)
        scale = max(float(np.linalg.norm(target)), 1e-300)
        return float(np.linalg.norm(target - design @ solution)) / scale

    def with_blaschke_tau(self, tau: complex) -> "Approximant":
        """Copy with a phase-injected free Blaschke product (convention probe)."""
        return replace(self, free_blaschke=self.free_blaschke.with_tau(tau))

    def to_json_dict(self) -> dict:
        data = self.expansion.to_json_dict()
        data["alpha"] = self.spec.alpha
        data["w"] = [self.spec.w.real, self.spec.w.imag]
        data["free_poles"] = [[p.real, p.imag] for p in self.free_poles]
        return data


def build_approximant(
    spec: KernelSpec, free_poles: PoleSequence | list[complex]
) -> Approximant:
    """Assemble the full pole sequence (free poles then alpha+1 copies of w),
    the basis, the kernel expansion (closed-form coefficients, no grid), and
    the approximant of order n = len(free_poles) + alpha."""
    if not isinstance(free_poles, PoleSequence):
        free_poles = PoleSequence(free_poles)
    full = free_poles.with_trailing(spec.w, spec.alpha + 1)
    basis = TMBasis(full)
    expansion = expand_kernel(spec, basis)
    return Approximant(
        spec=spec,
        free_poles=free_poles,
        basis=basis,
        expansion=expansion,
        free_blaschke=BlaschkeProduct(free_poles),
    )


def mu_functional(
    spec: KernelSpec, rational: Callable, grid: CircleGrid, extended: bool = False
) -> float:
    """Quadrature of |K_alpha(x; w) - R(x) / (1 - x conj(w))|^2 over the circle.

    With extended=True the integrand is evaluated in long-double arithmetic;
    near-optimal R makes the integrand a difference of O(1) quantities, and the
    extra mantissa keeps tiny minima meaningful.  R is called on the grid's
    own node array, so a rational built on a basis (Approximant.eval,
    competitor_function) reuses a design matrix stored for that grid.
    """
    nodes = circle_grid(grid.node_count, extended=True).nodes if extended else grid.nodes
    values = sample_on_nodes(rational, nodes)
    kernel = spec.bergman(nodes)
    error = kernel - values / (1.0 - nodes * np.conj(spec.w))
    return float(np.mean(np.abs(error) ** 2))


def mu_min_closed_form(spec: KernelSpec, free_poles: PoleSequence | list[complex]) -> float:
    """Exact quadratic minimum |w|^(2a+2) (1-|w|^2)^-(2a+3) |B(w)|^2."""
    if spec.w == 0:
        return 0.0
    if not isinstance(free_poles, PoleSequence):
        free_poles = PoleSequence(free_poles)
    b = abs(BlaschkeProduct(free_poles)(spec.w))
    ww = abs(spec.w) ** 2
    return float(ww ** (spec.alpha + 1) / (1.0 - ww) ** (2 * spec.alpha + 3) * b * b)


def _golden_max(f: Callable, lo, hi, iters: int) -> np.ndarray:
    """Golden-section maximization of f over every bracket [lo, hi] at once.

    lo and hi are arrays of one shape; f maps an array of arguments to values
    elementwise and is called once per iteration on all brackets (once more
    at the start, on the stacked first two probes).  Each bracket follows the
    scalar search exactly: np.where picks per bracket which end moves.
    """
    a = np.asarray(lo, dtype=float)
    b = np.asarray(hi, dtype=float)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(np.stack([c, d]))
    for _ in range(iters):
        right = fc < fd
        a = np.where(right, c, a)
        b = np.where(right, b, d)
        probe = np.where(right, a + _GOLDEN * (b - a), b - _GOLDEN * (b - a))
        value = f(probe)
        c, d = np.where(right, d, probe), np.where(right, probe, c)
        fc, fd = np.where(right, fd, value), np.where(right, value, fc)
    return np.maximum(fc, fd)


def _arc_brackets(theta, step: float) -> tuple[np.ndarray, np.ndarray]:
    """The two arcs [theta - step, theta] and [theta, theta + step] adjacent
    to each best node angle, stacked along a new leading axis."""
    return np.stack([theta - step, theta]), np.stack([theta, theta + step])


def _unit(t) -> np.ndarray:
    return np.cos(t) + 1j * np.sin(t)


def nu_functional(
    spec: KernelSpec,
    rational: Callable,
    grid: CircleGrid,
    refine: bool = True,
    refine_iters: int = _REFINE_ITERS,
) -> float:
    """Grid maximum of |(1 - x conj(w))^-(1+alpha) - R(x)| on the circle,
    refined by golden-section maximization over the two arcs adjacent to the
    best node, both arcs in one search.  The error modulus is smooth on the
    circle and near-constant at the optimum, so grid resolution dominates and
    the refinement is local.

    rational must accept arrays of any shape and evaluate elementwise.
    """
    values = sample_on_nodes(rational, grid.nodes)
    error = np.abs(spec.cauchy_power(grid.nodes) - values)
    j = int(np.argmax(error))
    best = float(error[j])
    if not refine:
        return best
    step = 2.0 * np.pi / grid.node_count

    def modulus(t):
        x = _unit(t)
        return np.abs(spec.cauchy_power(x) - rational(x))

    lo, hi = _arc_brackets(np.asarray(step * j), step)
    return max(best, float(np.max(_golden_max(modulus, lo, hi, refine_iters))))


def competitor_nu(
    spec: KernelSpec,
    basis: TMBasis,
    coefficients,
    grid: CircleGrid,
) -> np.ndarray:
    """nu of competitor_function(basis, spec.w, row) for every row of a
    (trials, m) coefficient matrix, as nu_functional computes it.

    The basis is evaluated on the grid once.  The grid pass takes the trials
    in blocks of at most m rows, so no temporary exceeds the design matrix;
    the refinement runs both arcs of every trial through one golden-section
    search, one basis evaluation per iteration.
    """
    coefficients = np.atleast_2d(np.asarray(coefficients, dtype=complex))
    trials, count = coefficients.shape
    cw = np.conj(spec.w)
    nodes = grid.nodes
    phi = basis.eval_all(nodes, count=count)
    multiplier = 1.0 - nodes * cw
    kernel = spec.cauchy_power(nodes)
    best = np.empty(trials)
    index = np.empty(trials, dtype=int)
    block = max(count, 1)
    for start in range(0, trials, block):
        rows = slice(start, start + block)
        error = coefficients[rows] @ phi
        error *= multiplier
        np.subtract(kernel, error, out=error)
        bad = ~np.isfinite(error)
        if bad.any():
            row, node = np.unravel_index(int(np.argmax(bad)), bad.shape)
            raise NonFiniteIntegrand(int(node), complex(error[row, node]))
        error = np.abs(error)
        index[rows] = np.argmax(error, axis=1)
        best[rows] = error[np.arange(len(error)), index[rows]]
    step = 2.0 * np.pi / grid.node_count

    def modulus(t):
        # t has the trials on its last axis; row i is refined with trial i
        x = _unit(t)
        sums = np.einsum("tk,k...t->...t", coefficients, basis.eval_all(x, count=count))
        return np.abs(spec.cauchy_power(x) - (1.0 - x * cw) * sums)

    lo, hi = _arc_brackets(step * index, step)
    refined = np.max(_golden_max(modulus, lo, hi, _REFINE_ITERS), axis=0)
    return np.maximum(best, refined)


def nu_min_closed_form(spec: KernelSpec, free_poles: PoleSequence | list[complex]) -> float:
    """Exact uniform minimum (|w| / (1-|w|^2))^(1+alpha) |B(w)|."""
    if spec.w == 0:
        return 0.0
    if not isinstance(free_poles, PoleSequence):
        free_poles = PoleSequence(free_poles)
    b = abs(BlaschkeProduct(free_poles)(spec.w))
    return float((abs(spec.w) / (1.0 - abs(spec.w) ** 2)) ** (spec.alpha + 1) * b)


def closed_form_J(spec: KernelSpec, basis: TMBasis, n: int, z) -> complex:
    """Closed form of the kernel-remainder integral, phase-aligned to the
    tau = 1 Blaschke convention used by the quadrature route:

        J(z; w) = (conj(w) / (1-|w|^2))^(alpha+1) conj(B(w)) / (1 - conj(w) z)

    with B over the free poles.  Extends continuously to 0 at w = 0."""
    validate_trailing_poles(spec, basis.poles, n)
    z = require_in_disk(z)
    if spec.w == 0:
        return 0.0j
    a1 = spec.alpha + 1
    cw = np.conj(spec.w)
    b_free = basis.blaschke(int(n) - spec.alpha)
    return complex(
        (cw / (1.0 - abs(spec.w) ** 2)) ** a1
        * np.conj(b_free(spec.w))
        / (1.0 - cw * z)
    )


def closed_form_J_tm_phase(
    spec: KernelSpec, basis: TMBasis, n: int, z
) -> tuple[complex, complex]:
    """Diagnostic companion of closed_form_J: the same value expressed in the
    phase convention the orthonormal system inherits, together with the
    unimodular constant that maps it back to the tau = 1 value

        J_tau1 = constant * J_tm,   constant = prod(-|a_m|/a_m) * (-|w|/w)^(a+1)

    over the free poles.  Undefined factors at w = 0 never form: the w = 0
    case short-circuits to (0, 1)."""
    validate_trailing_poles(spec, basis.poles, n)
    z = require_in_disk(z)
    if spec.w == 0:
        return 0.0j, 1.0 + 0.0j
    degree = int(n) - spec.alpha
    b_free = basis.blaschke(degree)
    constant = b_free.tm_phase() * (-abs(spec.w) / spec.w) ** (spec.alpha + 1)
    magnitude = (abs(spec.w) / (1.0 - abs(spec.w) ** 2)) ** (spec.alpha + 1)
    b_tm = np.conj(b_free.tm_phase() * b_free(spec.w))
    value = (
        (-1.0) ** spec.alpha * magnitude * b_tm / (np.conj(spec.w) * z - 1.0)
    )
    return complex(value), complex(constant)


def competitor_function(basis: TMBasis, w: complex, coefficients) -> Callable:
    """Member of the competitor class: R(x) = (1 - x conj(w)) sum c_m phi_m(x)."""
    coefficients = np.asarray(coefficients, dtype=complex)
    count = len(coefficients)

    def rational(x):
        x = np.asarray(x)
        phi = basis.eval_all(x, count=count)
        out = (1.0 - x * np.conj(w)) * np.tensordot(coefficients, phi, axes=1)
        return complex(out) if np.ndim(out) == 0 else out

    return rational


def random_competitor_coefficients(
    approx: Approximant, rng: np.random.Generator, noise_scale: float = 0.1
) -> np.ndarray:
    """Optimal coefficients plus complex Gaussian noise of scale
    noise_scale * max|c|: probes the neighborhood of the optimum where
    minimality violations would be most visible."""
    c = approx.coefficients
    scale = noise_scale * float(np.max(np.abs(c)))
    noise = rng.standard_normal(len(c)) + 1j * rng.standard_normal(len(c))
    return c + scale * noise


def competitor_trials(
    approx: Approximant, trials: int, rng: np.random.Generator, noise_scale: float = 0.1
) -> np.ndarray:
    """The (trials, m) coefficient schedule of the competitor scans: trial 0
    is the optimum, odd trials perturb it (random_competitor_coefficients),
    even trials draw complex Gaussian coefficients of scale max|c|.  The
    generator is consumed in trial order."""
    optimum = approx.coefficients
    scale = float(np.max(np.abs(optimum)))
    rows = np.empty((int(trials), len(optimum)), dtype=complex)
    for trial in range(len(rows)):
        if trial == 0:
            rows[trial] = optimum
        elif trial % 2 == 1:
            rows[trial] = random_competitor_coefficients(approx, rng, noise_scale)
        else:
            rows[trial] = scale * (
                rng.standard_normal(len(optimum)) + 1j * rng.standard_normal(len(optimum))
            )
    return rows


def ratio_coefficients(
    rational: Callable, w: complex, basis: TMBasis, grid: CircleGrid
) -> np.ndarray:
    """Basis coefficients of R(x) / (1 - x conj(w)) by quadrature."""
    expansion = expand_function(
        lambda x: rational(x) / (1.0 - x * np.conj(w)), basis, grid,
        source="competitor_ratio",
    )
    return expansion.coefficients


def equimodularity_variation(
    spec: KernelSpec, rational: Callable, grid: CircleGrid
) -> float:
    """Relative variation (max - min)/max of the uniform-error modulus on the
    grid; vanishes exactly at the optimum where the error is a constant times
    a Blaschke product."""
    values = sample_on_nodes(rational, grid.nodes)
    error = np.abs(spec.cauchy_power(grid.nodes) - values)
    top = float(np.max(error))
    if top == 0.0:
        return 0.0
    return float((top - float(np.min(error))) / top)


def csv_cell(x: float) -> str:
    """A CSV cell with 17 significant digits, which round-trips any double."""
    return f"{float(x):.17g}"


@dataclass
class ErrorReport:
    """Side-by-side quadrature and closed-form error values for one configuration."""

    alpha: int
    n: int
    w: complex
    free_poles: PoleSequence
    mu_quadrature: float
    mu_closed_form: float
    nu_grid: float
    nu_closed_form: float
    max_interp_residual: float
    free_pole_matches_w: bool = False
    degenerate_w_zero: bool = False
    # the objects the values came from, for callers that report them too;
    # None and empty for w = 0, and left out of every output format
    approximant: Approximant | None = field(default=None, repr=False, compare=False)
    interp_residuals: list[float] = field(default_factory=list, repr=False, compare=False)

    CSV_HEADER = (
        "n,alpha,w_re,w_im,mu_quad,mu_closed,nu_grid,nu_closed,max_interp_residual"
    )

    def validate(self):
        values = (
            self.mu_quadrature,
            self.mu_closed_form,
            self.nu_grid,
            self.nu_closed_form,
            self.max_interp_residual,
        )
        if not all(math.isfinite(v) and v >= 0.0 for v in values):
            raise ValueError(f"non-finite or negative error values: {values}")

    def csv_cells(self) -> list[str]:
        """The cells of CSV_HEADER after n and alpha: w and the five values."""
        return [
            csv_cell(v)
            for v in (
                self.w.real,
                self.w.imag,
                self.mu_quadrature,
                self.mu_closed_form,
                self.nu_grid,
                self.nu_closed_form,
                self.max_interp_residual,
            )
        ]

    def csv_row(self) -> str:
        return ",".join([str(self.n), str(self.alpha), *self.csv_cells()])

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "alpha": self.alpha,
            "w": [self.w.real, self.w.imag],
            "free_poles": [[p.real, p.imag] for p in self.free_poles],
            "mu_quad": self.mu_quadrature,
            "mu_closed": self.mu_closed_form,
            "nu_grid": self.nu_grid,
            "nu_closed": self.nu_closed_form,
            "max_interp_residual": self.max_interp_residual,
            "free_pole_matches_w": self.free_pole_matches_w,
            "degenerate_w_zero": self.degenerate_w_zero,
        }


def build_error_report(
    spec: KernelSpec,
    free_poles: PoleSequence | list[complex],
    mu_grid: CircleGrid | None = None,
    nu_grid_size: int = 2**16,
    include_interpolation: bool = True,
) -> ErrorReport:
    """Build the approximant and evaluate both error functionals against their
    closed forms.  w = 0 short-circuits to exact zeros: the kernel degenerates
    to the constant 1 and the approximant is identically 1."""
    if not isinstance(free_poles, PoleSequence):
        free_poles = PoleSequence(free_poles)
    n = len(free_poles) + spec.alpha
    matches = any(p == spec.w for p in free_poles)
    if spec.w == 0:
        return ErrorReport(
            alpha=spec.alpha,
            n=n,
            w=spec.w,
            free_poles=free_poles,
            mu_quadrature=0.0,
            mu_closed_form=0.0,
            nu_grid=0.0,
            nu_closed_form=0.0,
            max_interp_residual=0.0,
            free_pole_matches_w=matches,
            degenerate_w_zero=True,
        )
    approx = build_approximant(spec, free_poles)
    if mu_grid is None:
        mu_grid = circle_grid(approx.expansion.grid_size)
    mu_closed = mu_min_closed_form(spec, free_poles)
    # tiny minima sit below double-precision cancellation noise; evaluate the
    # integrand in long double there
    mu_quad = mu_functional(
        spec, approx.eval, mu_grid, extended=mu_closed < EXTENDED_MU_CUTOFF
    )
    nu_grid = nu_functional(spec, approx.eval, circle_grid(int(nu_grid_size)))
    nu_closed = nu_min_closed_form(spec, free_poles)
    residuals = approx.interpolation_residuals() if include_interpolation else []
    report = ErrorReport(
        alpha=spec.alpha,
        n=n,
        w=spec.w,
        free_poles=free_poles,
        mu_quadrature=mu_quad,
        mu_closed_form=mu_closed,
        nu_grid=nu_grid,
        nu_closed_form=nu_closed,
        max_interp_residual=max(residuals, default=0.0),
        free_pole_matches_w=matches,
        approximant=approx,
        interp_residuals=residuals,
    )
    report.validate()
    return report
