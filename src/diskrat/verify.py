"""Named verification checks behind the `verify` command and the test suite.

Each check group measures and returns ``(name, value, detail)`` triples;
`run_checks` alone judges each value against its bound.  Every bound is
pinned in DEFAULT_TOLERANCES; callers may override individual bounds (useful
for demonstrating the failure-reporting path) but nothing is deferred to
later calibration.  All randomness is seeded, so repeated runs produce
identical results byte for byte.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field

import numpy as np

from .bergman_approx import (
    NU_GRID_NODES,
    build_approximant,
    build_error_report,
    closed_form_J,
    competitor_trials,
    equimodularity_variation,
    extended_mu,
    interpolation_target,
    mu_functional,
    mu_min_closed_form,
    nu_functional,
    nu_min_closed_form,
)
from .circlequad import circle_grid, derivative_at, require_in_disk
from .errors import PointNotInDisk
from .expansion import remainder_integral_J
from .kernels import KernelSpec
from .oracle import LeastSquaresProblem, lsq_minimize, uniform_competitor_scan
from .tm_basis import PoleSequence, TMBasis, christoffel_darboux_residual

__all__ = ["CheckResult", "DEFAULT_TOLERANCES", "ALL_CHECK_NAMES", "run_checks", "verdict_dict"]

DEFAULT_TOLERANCES = {
    "orthonormality": 1e-12,
    "christoffel_darboux": 1e-12,
    "quadratic_exactness": 1e-10,
    "oracle_equivalence": 1e-8,
    "oracle_routes": 1e-9,
    "uniform_exactness": 1e-6,
    "equimodularity": 1e-9,
    "competitor_scan": 1e-9,
    "approximant_closed_form": 1e-12,
    "interpolation": 1e-8,
    "competitor_membership": 1e-12,
    "remainder_identity": 1e-10,
    "remainder_modulus": 1e-10,
    "quadratic_uniform_bound": 1e-12,
    "parseval_gap": 1e-10,
    "degenerate_w_zero": 0.0,
    "boundary_mu": 1e-8,
    "boundary_nu": 1e-5,
    "boundary_rejection": 0.0,
}

#: Checks that count failures or demand exact zeros against a bound of 0, so
#: they pass at equality; every other check passes strictly below its bound.
_PASS_AT_BOUND = ("degenerate_w_zero", "boundary_rejection")

_ORTHO_SEED = 7000
_CD_SEED = 7100
_LATTICE_SEED = 20260810


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float
    bound: float
    detail: dict = field(default_factory=dict)

    def __post_init__(self):
        # numpy scalars must not reach the JSON verdict
        self.passed = bool(self.passed)
        self.value = float(self.value)
        self.bound = float(self.bound)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: value={self.value:.6e} bound={self.bound:.6e}"


def _disk_points(rng: np.random.Generator, count: int, max_modulus: float) -> np.ndarray:
    radii = max_modulus * np.sqrt(rng.uniform(0.0, 1.0, count))
    return radii * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, count))


def _random_w(rng: np.random.Generator, modulus: float) -> complex:
    return complex(modulus * np.exp(2j * np.pi * rng.uniform()))


def _check_orthonormality() -> list[tuple[str, float, dict]]:
    grid = circle_grid(4096)
    worst = 0.0
    for i in range(20):
        rng = np.random.default_rng(_ORTHO_SEED + i)
        count = int(rng.integers(1, 22))  # up to index n = 20
        basis = TMBasis(PoleSequence.random(count, rng=rng, max_modulus=0.9))
        gram = basis.gram_matrix(grid)
        worst = max(worst, float(np.max(np.abs(gram - np.eye(count)))))
    return [("orthonormality", worst, {"sequences": 20, "grid": 4096})]


def _check_christoffel() -> list[tuple[str, float, dict]]:
    worst = 0.0
    for i in range(20):
        rng = np.random.default_rng(_CD_SEED + i)
        count = int(rng.integers(1, 22))
        basis = TMBasis(PoleSequence.random(count, rng=rng, max_modulus=0.9))
        zs = _disk_points(rng, 100, 0.8)
        zetas = _disk_points(rng, 100, 0.8)
        worst = max(worst, christoffel_darboux_residual(basis, basis.size, zs, zetas))
    return [("christoffel_darboux", worst, {"sequences": 20, "pairs_per_sequence": 100})]


def _quadratic_lattice():
    for alpha in (0, 1, 2, 3):
        for n in range(alpha, alpha + 11):
            for w_index, modulus in enumerate((0.1, 0.3, 0.5, 0.7)):
                for draw in range(3):
                    yield alpha, n, w_index, modulus, draw


def _check_quadratic_group() -> list[tuple[str, float, dict]]:
    worst_rel = 0.0
    worst_lsq = 0.0
    worst_route = 0.0
    worst_cond = 1.0
    configs = 0
    for alpha, n, w_index, modulus, draw in _quadratic_lattice():
        rng = np.random.default_rng([_LATTICE_SEED, alpha, n, w_index, draw])
        spec = KernelSpec(alpha, _random_w(rng, modulus))
        free = PoleSequence.random(n - alpha, rng=rng, max_modulus=0.85)
        approx = build_approximant(spec, free)
        mu_closed = mu_min_closed_form(spec, free)
        # mu_quad below is taken on the LSQ grid, the approximant's mu grid
        problem = LeastSquaresProblem.build(spec, approx.basis, circle_grid(4096))
        if approx.expansion.grid_size != problem.grid.node_count:
            raise RuntimeError(f"mu grid {approx.expansion.grid_size} is not the LSQ grid")
        result = lsq_minimize(problem)
        # routes: normal equations vs inner products (quadrature), and the
        # quadrature vs the closed-form coefficients of the approximant
        coefficient_gap = float(np.max(np.abs(approx.coefficients - result.inner_coefficients)))
        worst_route = max(worst_route, result.route_gap, coefficient_gap)
        worst_cond = max(worst_cond, result.condition)
        # mu of the approximant and the LSQ minimum in one pass; in doubles the
        # 2-row product rounds apart from approximate's 1-row one (see README)
        mu_quad, mu_lsq = mu_functional(
            spec, approx.basis, [approx.coefficients, result.coefficients], problem.grid,
            extended=extended_mu(mu_closed),
        )
        worst_rel = max(worst_rel, abs(mu_quad - mu_closed) / mu_closed)
        worst_lsq = max(worst_lsq, abs(mu_lsq - mu_closed) / mu_closed)
        configs += 1
    # spot value: alpha=0, n=1, free pole 0, w=0.5 gives exactly 4/27
    spot = mu_min_closed_form(KernelSpec(0, 0.5), PoleSequence([0j]))
    worst_rel = max(worst_rel, abs(spot - 4.0 / 27.0) / (4.0 / 27.0))
    detail = {"configurations": configs, "spot_mu": spot, "max_condition": worst_cond}
    return [
        ("quadratic_exactness", worst_rel, detail),
        ("oracle_equivalence", worst_lsq, detail),
        ("oracle_routes", worst_route, detail),
    ]


def _check_uniform_group() -> list[tuple[str, float, dict]]:
    nu_grid = circle_grid(NU_GRID_NODES)
    worst_nu = 0.0
    configs = 0
    for alpha in (0, 1, 2, 3):
        for offset in (0, 2, 5):
            for w_index, modulus in enumerate((0.3, 0.5, 0.7)):
                for draw in range(2):
                    n = alpha + offset
                    rng = np.random.default_rng(
                        [_LATTICE_SEED + 1, alpha, n, w_index, draw]
                    )
                    spec = KernelSpec(alpha, _random_w(rng, modulus))
                    free = PoleSequence.random(
                        n - alpha, rng=rng, max_modulus=0.8, min_modulus=0.1
                    )
                    approx = build_approximant(spec, free)
                    nu_val = nu_functional(spec, approx.basis, approx.coefficients, nu_grid)
                    nu_closed = nu_min_closed_form(spec, free)
                    worst_nu = max(worst_nu, abs(nu_val - nu_closed) / nu_closed)
                    configs += 1
    spot = nu_min_closed_form(KernelSpec(0, 0.5), PoleSequence([0j]))
    worst_nu = max(worst_nu, abs(spot - 1.0 / 3.0) / (1.0 / 3.0))

    eq_grid = circle_grid(2**14)
    worst_eq = 0.0
    for alpha in (0, 1, 2, 3):
        rng = np.random.default_rng([_LATTICE_SEED + 2, alpha])
        spec = KernelSpec(alpha, _random_w(rng, 0.55))
        free = PoleSequence.random(2, rng=rng, max_modulus=0.6, min_modulus=0.2)
        approx = build_approximant(spec, free)
        variation = equimodularity_variation(spec, approx.basis, approx.coefficients, eq_grid)
        worst_eq = max(worst_eq, variation)

    scan_configs = [
        (KernelSpec(0, 0.5), PoleSequence([0j]), 42),
        (KernelSpec(1, 0.4j), PoleSequence([0.2]), 43),
        (KernelSpec(2, complex(-0.3, 0.2)), PoleSequence([0.25, -0.3j]), 44),
    ]
    worst_scan = 0.0
    for spec, free, seed in scan_configs:
        report = uniform_competitor_scan(build_approximant(spec, free), trials=100, seed=seed)
        worst_scan = max(worst_scan, max(0.0, -report.margin))

    detail = {"configurations": configs, "spot_nu": spot, "nu_grid": NU_GRID_NODES}
    return [
        ("uniform_exactness", worst_nu, detail),
        ("equimodularity", worst_eq, {"grid": 2**14}),
        ("competitor_scan", worst_scan, {"trials": 100, "seeds": [s for *_, s in scan_configs]}),
    ]


def _approximant_configs():
    w1 = 0.5 + 0.0j
    w2 = -0.4j
    w3 = complex(0.45 * np.cos(1.1), 0.45 * np.sin(1.1))
    for alpha in (0, 1, 2):
        yield alpha, w1, [0.3, 0.3, 0.3]          # multiplicity-3 free pole
        yield alpha, w2, [0.3, 0.3]               # duplicated free pole
        yield alpha, w3, [0.2, -0.5j, 0.35]       # generic free poles
        yield alpha, w1, []                       # pure trailing block
        yield alpha, w1, [0.3, w1]                # free pole equal to w (flagged)


def _check_approximant_group() -> list[tuple[str, float, dict]]:
    rng = np.random.default_rng(_LATTICE_SEED + 3)
    disk_pts = _disk_points(rng, 25, 0.9)
    circle_pts = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 25))
    points = np.concatenate([disk_pts, circle_pts])
    worst_cf = 0.0
    worst_interp = 0.0
    worst_gap = 0.0
    worst_member = 0.0
    flagged = 0
    for alpha, w, free in _approximant_configs():
        spec = KernelSpec(alpha, w)
        approx = build_approximant(spec, PoleSequence(free))
        direct = approx.eval(points)
        closed = approx.eval_closed_form(points)
        worst_cf = max(worst_cf, float(np.max(np.abs(direct - closed))))
        # r^(s-1)(a) by the Cauchy formula on the closed form, a route that
        # shares no code with the Taylor route of Approximant.pole_derivatives
        taylor, _ = approx.pole_derivatives
        poles = approx.basis.poles
        for m, (a, s) in enumerate(zip(poles, poles.multiplicities)):
            value = derivative_at(approx.eval_closed_form, a, order=s - 1)
            worst_interp = max(worst_interp, abs(value - interpolation_target(spec, a, s)))
            worst_gap = max(worst_gap, float(abs(value - taylor[m])))
        # r in the competitor class, through partial fractions rather than
        # the orthonormal basis
        worst_member = max(worst_member, approx.membership_residual())
        if any(p == w for p in approx.free_poles):
            flagged += 1
    detail = {"points": len(points), "free_pole_equals_w_configs": flagged}
    return [
        ("approximant_closed_form", worst_cf, detail),
        ("interpolation", worst_interp, {**detail, "taylor_route_gap": worst_gap}),
        ("competitor_membership", worst_member, detail),
    ]


def _check_remainder_group() -> list[tuple[str, float, dict]]:
    rng = np.random.default_rng(_LATTICE_SEED + 4)
    zs = _disk_points(rng, 50, 0.85)
    configs = [
        (0, 0.5 + 0.0j, [0.3]),
        (1, 0.4j, [0.2]),
        (2, complex(-0.3, 0.2), [0.25, -0.35j, 0.15]),
    ]
    worst_rem = 0.0
    worst_mod = 0.0
    worst_phase = 0.0
    for alpha, w, free in configs:
        spec = KernelSpec(alpha, w)
        approx = build_approximant(spec, PoleSequence(free))
        basis = approx.basis
        n = approx.n
        grid = circle_grid(approx.expansion.grid_size)
        b_full = basis.blaschke(n + 1)
        for z in zs:
            z = complex(z)
            j_quad = remainder_integral_J(spec, basis, n, z, grid)
            j_closed = closed_form_J(spec, basis, n, z)
            lhs = spec.bergman(z) - approx.expansion.partial_sum(n + 1, z)
            rhs = b_full(z) * j_quad
            worst_rem = max(worst_rem, abs(lhs - rhs))
            worst_mod = max(
                worst_mod, abs(abs(j_quad) - abs(j_closed)) / abs(j_closed)
            )
            worst_phase = max(worst_phase, abs(j_quad - j_closed) / abs(j_closed))
    detail = {"points": len(zs), "phase_aligned_residual": worst_phase}
    return [
        ("remainder_identity", worst_rem, detail),
        ("remainder_modulus", worst_mod, detail),
    ]


def _check_inequality_group() -> list[tuple[str, float, dict]]:
    configs = [
        (0, 0.3 + 0.0j, [0.2]),
        (0, 0.5 + 0.0j, [0j]),
        (1, complex(0.5 * np.cos(np.pi / 5), 0.5 * np.sin(np.pi / 5)), [0.3, -0.2j]),
        (2, 0.6j, [0.25]),
    ]
    mu_grid = circle_grid(4096)
    nu_grid = circle_grid(2**14)
    worst_ineq = -np.inf
    worst_gap = 0.0
    for index, (alpha, w, free) in enumerate(configs):
        spec = KernelSpec(alpha, w)
        approx = build_approximant(spec, PoleSequence(free))
        basis = approx.basis
        rng = np.random.default_rng([_LATTICE_SEED + 5, index])
        optimum = approx.coefficients
        trials = competitor_trials(approx, 100, rng)
        nu_values = nu_functional(spec, basis, trials, nu_grid)
        mu = mu_functional(spec, basis, np.vstack([optimum, trials]), mu_grid, extended=False)
        mu_at_optimum, mu_values = mu[0], mu[1:]
        bound = mu_values * (1.0 - abs(w) ** 2) - nu_values**2
        worst_ineq = max(worst_ineq, float(np.max(bound)))
        # Parseval gap against the ratio coefficients <R / (1 - x conj(w)), phi_k>
        # by quadrature on the mu grid: the rows times the discrete Gram matrix
        recovered = trials @ basis.gram_matrix(mu_grid)
        sq = np.sum(np.abs(recovered - optimum) ** 2, axis=1)
        worst_gap = max(worst_gap, float(np.max(np.abs(mu_values - mu_at_optimum - sq))))
    detail = {"configurations": len(configs), "trials_per_config": 100}
    return [
        ("quadratic_uniform_bound", worst_ineq, detail),
        ("parseval_gap", worst_gap, detail),
    ]


def _check_degenerate_group() -> list[tuple[str, float, dict]]:
    report = build_error_report(KernelSpec(1, 0j), PoleSequence([0.3, -0.2j]))
    zero_value = max(abs(v) for v in report.values)

    worst_mu = 0.0
    worst_nu = 0.0
    grids = []
    for alpha in (0, 2):
        spec = KernelSpec(alpha, 0.95 + 0.0j)
        free = PoleSequence([0.3, -0.25j])
        approx = build_approximant(spec, free)
        grids.append(approx.expansion.grid_size)
        grid = circle_grid(approx.expansion.grid_size)
        mu_closed = mu_min_closed_form(spec, free)
        mu_quad = mu_functional(spec, approx.basis, approx.coefficients, grid, extended=False)
        worst_mu = max(worst_mu, abs(mu_quad - mu_closed) / mu_closed)
        nu_val = nu_functional(spec, approx.basis, approx.coefficients, circle_grid(NU_GRID_NODES))
        nu_closed = nu_min_closed_form(spec, free)
        worst_nu = max(worst_nu, abs(nu_val - nu_closed) / nu_closed)

    failures = 0
    constructors = (require_in_disk, lambda z: KernelSpec(0, z), lambda z: PoleSequence([z * 1j]))
    for bad in (1.0 - 1e-10, 1.0, 1.5):
        for construct in constructors:
            with contextlib.suppress(PointNotInDisk):
                construct(bad)
                failures += 1
    try:
        require_in_disk(0.95)
        KernelSpec(3, -0.95j)
    except PointNotInDisk:
        failures += 1

    return [
        ("degenerate_w_zero", zero_value, {"report": report.to_json_dict()}),
        ("boundary_mu", worst_mu, {"escalated_grids": grids}),
        ("boundary_nu", worst_nu, {"escalated_grids": grids}),
        ("boundary_rejection", failures, {}),
    ]


CHECK_GROUPS = [
    (("orthonormality",), _check_orthonormality),
    (("christoffel_darboux",), _check_christoffel),
    (("quadratic_exactness", "oracle_equivalence", "oracle_routes"), _check_quadratic_group),
    (("uniform_exactness", "equimodularity", "competitor_scan"), _check_uniform_group),
    (
        ("approximant_closed_form", "interpolation", "competitor_membership"),
        _check_approximant_group,
    ),
    (("remainder_identity", "remainder_modulus"), _check_remainder_group),
    (("quadratic_uniform_bound", "parseval_gap"), _check_inequality_group),
    (
        ("degenerate_w_zero", "boundary_mu", "boundary_nu", "boundary_rejection"),
        _check_degenerate_group,
    ),
]

ALL_CHECK_NAMES = [name for names, _ in CHECK_GROUPS for name in names]


def run_checks(
    only: list[str] | None = None, tolerances: dict | None = None
) -> list[CheckResult]:
    """Run all (or the selected) checks in registry order and judge each
    measured value against its bound: DEFAULT_TOLERANCES, overridden by
    `tolerances`."""
    tolerances = tolerances or {}
    for name in tolerances:
        if name not in DEFAULT_TOLERANCES:
            raise ValueError(f"unknown tolerance name: {name}")
    bounds = {**DEFAULT_TOLERANCES, **tolerances}
    if only is not None:
        unknown = set(only) - set(ALL_CHECK_NAMES)
        if unknown:
            raise ValueError(f"unknown check names: {sorted(unknown)}")
    results = []
    for names, group_fn in CHECK_GROUPS:
        if only is not None and not set(names) & set(only):
            continue
        started = time.perf_counter()
        measured = group_fn()
        elapsed = time.perf_counter() - started
        for name, value, detail in measured:
            if only is not None and name not in only:
                continue
            bound = float(bounds[name])
            passed = value <= bound if name in _PASS_AT_BOUND else value < bound
            detail.setdefault("group_seconds", round(elapsed, 3))
            results.append(CheckResult(name, passed, value, bound, detail))
    return results


def verdict_dict(results: list[CheckResult]) -> dict:
    """Machine-readable verdict: {check_name: {pass, value, bound, detail}}.
    The detail leaves out group_seconds, a timing that differs from run to
    run, so the verdict of a run is byte-deterministic."""
    return {
        r.name: {"pass": r.passed, "value": r.value, "bound": r.bound,
                 "detail": {k: v for k, v in r.detail.items() if k != "group_seconds"}}
        for r in results
    }
