"""Brute-force verification of the closed-form minima.

Three independent routes certify the exact formulas at desk scale:

* discrete least squares over the competitor class for the quadratic
  functional, solved both through the orthonormal structure (coefficients are
  the discrete inner products of tm_basis.inner_products) and through the
  normal equations - the agreement of the two routes is itself the statement
  that discrete orthonormality holds on fine grids;
* seeded random competitor scans probing the uniform infimum;
* exhaustive grid minimization of the smallest nontrivial quadratic instance.

Randomness comes exclusively from numpy's seeded PCG64 generator so every
report is reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .bergman_approx import (
    Approximant,
    competitor_trials,
    mu_min_closed_form,
    nu_min_closed_form,
    nu_minimum,
)
from .circlequad import circle_grid, json_complex, sample_on_nodes
from .errors import IllConditioned
from .kernels import KernelSpec
from .tm_basis import PIECE_NODES, PoleSequence, TMBasis, inner_products

__all__ = [
    "LeastSquaresProblem",
    "LsqResult",
    "lsq_minimize",
    "ScanReport",
    "uniform_competitor_scan",
    "SmallInstanceReport",
    "small_instance_exhaustive",
]

CONDITION_LIMIT = 1e8

#: The exhaustive small instance: candidates per axis of the square of
#: coefficients, its half width, and the nodes of its quadrature grid.
EXHAUSTIVE_GRID_POINTS = 201
EXHAUSTIVE_HALF_WIDTH = 0.5
EXHAUSTIVE_QUAD_NODES = 4096


def _fields_json(report) -> dict:
    """A report's dataclass fields by name, with every complex value or
    array as json_complex writes it."""
    data = {f.name: getattr(report, f.name) for f in fields(report)}
    return {
        name: json_complex(value) if isinstance(value, (complex, np.ndarray)) else value
        for name, value in data.items()
    }


@dataclass
class LeastSquaresProblem:
    """Discrete minimization of |K_alpha - sum c_m phi_m|^2 over the grid."""

    design: np.ndarray
    target: np.ndarray
    gram: np.ndarray
    condition: float

    @classmethod
    def build(cls, spec: KernelSpec, basis: TMBasis, grid: np.ndarray) -> "LeastSquaresProblem":
        # the normal-equations matrix conj(A)^T A / N, whose entry (k, l) is
        # <phi_l, phi_k>: the conjugate of the basis's Gram, which stores A;
        # design_matrix then returns that stored A without evaluating it again
        gram = np.conj(basis.gram_matrix(grid))
        design = basis.design_matrix(grid)
        target = sample_on_nodes(spec.bergman, grid)
        return cls(design, target, gram, float(np.linalg.cond(gram)))


@dataclass
class LsqResult:
    coefficients: np.ndarray  # normal-equations route
    inner_coefficients: np.ndarray  # discrete inner-product route
    minimum: float
    route_gap: float
    condition: float
    orthogonality_residual: float

    def to_json_dict(self) -> dict:
        data = _fields_json(self)
        del data["inner_coefficients"]
        return data


def lsq_minimize(problem: LeastSquaresProblem) -> LsqResult:
    """Minimize the discrete quadratic functional via both solver routes.

    Route one treats the discrete Gram as the identity and takes the inner
    products of tm_basis.inner_products; route two solves the normal
    equations, whose right-hand side they are.  The orthogonality residual
    is the inner products of the solution's residual.  The discrete minimum
    is the mean squared residual of the normal-equations solution, in
    doubles; verify scores the solution row with mu_functional instead, in
    long double where extended_mu says so.
    """
    if not np.isfinite(problem.condition) or problem.condition > CONDITION_LIMIT:
        raise IllConditioned(problem.condition)
    inner = inner_products(problem.design, problem.target)
    coefficients = np.linalg.solve(problem.gram, inner)
    residual = problem.target - problem.design @ coefficients
    minimum = float(np.mean(np.abs(residual) ** 2))
    route_gap = float(np.max(np.abs(coefficients - inner)))
    orthogonality = float(np.max(np.abs(inner_products(problem.design, residual))))
    return LsqResult(
        coefficients=coefficients,
        inner_coefficients=inner,
        minimum=minimum,
        route_gap=route_gap,
        condition=problem.condition,
        orthogonality_residual=orthogonality,
    )


@dataclass
class ScanReport:
    seed: int
    trials: int
    min_nu: float
    argmin_trial: int
    argmin_coefficients: np.ndarray
    closed_form: float
    margin: float
    generator: str = "numpy PCG64"

    to_json_dict = _fields_json


def uniform_competitor_scan(
    approx: Approximant,
    trials: int,
    seed: int,
    grid: np.ndarray | None = None,
) -> ScanReport:
    """Evaluate the uniform functional on random members of the competitor
    class of the approximant's basis; trial 0 is the unperturbed optimum, odd
    trials perturb it, even trials draw fully random coefficients.  The
    observed minimum can never fall below the closed-form infimum (up to
    evaluation noise).  The minimum and its trial are those of
    nu_functional over every trial, to the bit, found by
    bergman_approx.nu_minimum: the optimum and trial 1 are scored in full,
    and any other trial only as far as needed to show that it cannot be
    the minimum."""
    trials = int(trials)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if grid is None:
        grid = circle_grid(PIECE_NODES)
    coefficients = competitor_trials(approx, trials, np.random.default_rng(seed))
    best_trial, best = nu_minimum(approx.spec, approx.basis, coefficients, grid)
    closed = nu_min_closed_form(approx.spec, approx.free_poles)
    return ScanReport(
        seed=int(seed),
        trials=trials,
        min_nu=best,
        argmin_trial=best_trial,
        argmin_coefficients=coefficients[best_trial],
        closed_form=closed,
        margin=float(best - closed),
    )


@dataclass
class SmallInstanceReport:
    w: complex
    grid_points: int
    half_width: float
    resolution: float
    center: complex
    grid_minimum: float
    argmin: complex
    closed_form: float

    to_json_dict = _fields_json


def small_instance_exhaustive(spec: KernelSpec) -> SmallInstanceReport:
    """Desk-scale sanity for the smallest nontrivial case alpha = 0, n = 0,
    single pole at w: sweep the lone complex coefficient over a square grid
    of EXHAUSTIVE_GRID_POINTS per axis and half width EXHAUSTIVE_HALF_WIDTH,
    centered at its quadrature value on EXHAUSTIVE_QUAD_NODES nodes, and
    take the smallest quadratic error.  The functional is exactly quadratic
    in the coefficient,

        mean|K - c phi0|^2 = mean|K|^2 - 2 Re(conj(c) <K, phi0>) + |c|^2 mean|phi0|^2,

    so three quadratures on the grid score every candidate, and the grid
    minimum sits within (grid resolution)^2 of the closed form."""
    if spec.alpha != 0:
        raise ValueError("the exhaustive instance is defined for alpha = 0")
    grid_points, half_width = EXHAUSTIVE_GRID_POINTS, EXHAUSTIVE_HALF_WIDTH
    quad_grid = circle_grid(EXHAUSTIVE_QUAD_NODES)
    basis = TMBasis(PoleSequence([spec.w]))
    kernel = sample_on_nodes(spec.bergman, quad_grid)
    phi0 = basis.eval_all(quad_grid, count=1)[0]
    center = complex(np.mean(kernel * np.conj(phi0)))  # <K, phi0>
    kernel_sq = float(np.mean(np.abs(kernel) ** 2))
    phi0_sq = float(np.mean(np.abs(phi0) ** 2))
    steps = np.linspace(-half_width, half_width, grid_points)
    candidates = (center.real + steps)[:, None] + 1j * (center.imag + steps)[None, :]
    candidates = candidates.ravel()
    mu = kernel_sq - 2.0 * (np.conj(candidates) * center).real
    mu += np.abs(candidates) ** 2 * phi0_sq
    j = int(np.argmin(mu))
    best, best_c = float(mu[j]), complex(candidates[j])
    resolution = 2.0 * half_width / (grid_points - 1)
    return SmallInstanceReport(
        w=spec.w,
        grid_points=grid_points,
        half_width=half_width,
        resolution=resolution,
        center=center,
        grid_minimum=best,
        argmin=best_c,
        closed_form=mu_min_closed_form(spec, []),
    )
