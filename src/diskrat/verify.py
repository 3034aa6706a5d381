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
import itertools
import os
import time
import warnings
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
from .circlequad import circle_grid, derivative_at, random_disk_points, require_in_disk
from .errors import InvalidSelection, PointNotInDisk
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
        zs = random_disk_points(rng, 100, 0.8)
        zetas = random_disk_points(rng, 100, 0.8)
        worst = max(worst, christoffel_darboux_residual(basis, basis.size, zs, zetas))
    return [("christoffel_darboux", worst, {"sequences": 20, "pairs_per_sequence": 100})]


def _quadratic_lattice():
    for alpha in (0, 1, 2, 3):
        for n in range(alpha, alpha + 11):
            for w_index, modulus in enumerate((0.1, 0.3, 0.5, 0.7)):
                for draw in range(3):
                    yield alpha, n, w_index, modulus, draw


def _quadratic_share(share: int = 0, shares: int = 1) -> tuple:
    """The maxima over one interleaved share of the lattice, its points
    share, share + shares, ...: (worst relative mu, worst LSQ minimum, worst
    route gap, largest condition, configurations).  Interleaving evens out
    the shares' cost, which grows with n along the lattice."""
    worst_rel = 0.0
    worst_lsq = 0.0
    worst_route = 0.0
    worst_cond = 1.0
    configs = 0
    lattice = itertools.islice(_quadratic_lattice(), share, None, shares)
    for alpha, n, w_index, modulus, draw in lattice:
        rng = np.random.default_rng([_LATTICE_SEED, alpha, n, w_index, draw])
        spec = KernelSpec(alpha, _random_w(rng, modulus))
        free = PoleSequence.random(n - alpha, rng=rng, max_modulus=0.85)
        approx = build_approximant(spec, free)
        mu_closed = mu_min_closed_form(spec, free)
        # the LSQ grid is the approximant's mu grid, on which mu_quad is taken
        grid = circle_grid(approx.expansion.grid_size)
        result = lsq_minimize(LeastSquaresProblem.build(spec, approx.basis, grid))
        # routes: normal equations vs inner products (quadrature), and the
        # quadrature vs the closed-form coefficients of the approximant
        coefficient_gap = float(np.max(np.abs(approx.coefficients - result.inner_coefficients)))
        worst_route = max(worst_route, result.route_gap, coefficient_gap)
        worst_cond = max(worst_cond, result.condition)
        # mu of the approximant and the LSQ minimum in one pass; in doubles the
        # 2-row product rounds apart from approximate's 1-row one (see README)
        mu_quad, mu_lsq = mu_functional(
            spec, approx.basis, [approx.coefficients, result.coefficients], grid,
            extended=extended_mu(mu_closed),
        )
        worst_rel = max(worst_rel, abs(mu_quad - mu_closed) / mu_closed)
        worst_lsq = max(worst_lsq, abs(mu_lsq - mu_closed) / mu_closed)
        configs += 1
    return worst_rel, worst_lsq, worst_route, worst_cond, configs


def _quadratic_results(partials: list[tuple]) -> list[tuple[str, float, dict]]:
    """The group's triples from its shares' maxima.  Max and sum are
    exact, so every split gives the values and details of one share."""
    worst_rel, worst_lsq, worst_route, worst_cond = (
        max(partial[k] for partial in partials) for k in range(4)
    )
    configs = sum(partial[4] for partial in partials)
    # spot value: alpha=0, n=1, free pole 0, w=0.5 gives exactly 4/27
    spot = mu_min_closed_form(KernelSpec(0, 0.5), [0j])
    worst_rel = max(worst_rel, abs(spot - 4.0 / 27.0) / (4.0 / 27.0))
    detail = {"configurations": configs, "spot_mu": spot, "max_condition": worst_cond}
    return [
        ("quadratic_exactness", worst_rel, detail),
        ("oracle_equivalence", worst_lsq, detail),
        ("oracle_routes", worst_route, detail),
    ]


def _check_quadratic_group() -> list[tuple[str, float, dict]]:
    return _quadratic_results([_quadratic_share()])


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
    spot = nu_min_closed_form(KernelSpec(0, 0.5), [0j])
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
        (KernelSpec(0, 0.5), [0j], 42),
        (KernelSpec(1, 0.4j), [0.2], 43),
        (KernelSpec(2, complex(-0.3, 0.2)), [0.25, -0.3j], 44),
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
    disk_pts = random_disk_points(rng, 25, 0.9)
    circle_pts = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 25))
    points = np.concatenate([disk_pts, circle_pts])
    worst_cf = 0.0
    worst_interp = 0.0
    worst_gap = 0.0
    worst_member = 0.0
    flagged = 0
    for alpha, w, free in _approximant_configs():
        spec = KernelSpec(alpha, w)
        approx = build_approximant(spec, free)
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
    zs = random_disk_points(rng, 50, 0.85)
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
        approx = build_approximant(spec, free)
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
        approx = build_approximant(spec, free)
        basis = approx.basis
        rng = np.random.default_rng([_LATTICE_SEED + 5, index])
        optimum = approx.coefficients
        trials = competitor_trials(approx, 100, rng)
        nu_values = nu_functional(spec, basis, trials, nu_grid)
        # the Gram stores the mu grid's design, which the mu pass then reads
        gram = basis.gram_matrix(mu_grid)
        mu_values = mu_functional(spec, basis, trials, mu_grid, extended=False)
        mu_at_optimum = mu_values[0]  # trial 0 is the optimum
        bound = mu_values * (1.0 - abs(w) ** 2) - nu_values**2
        worst_ineq = max(worst_ineq, float(np.max(bound)))
        # Parseval gap against the ratio coefficients <R / (1 - x conj(w)), phi_k>
        # by quadrature on the mu grid: the rows times the discrete Gram matrix
        recovered = trials @ gram
        sq = np.sum(np.abs(recovered - optimum) ** 2, axis=1)
        worst_gap = max(worst_gap, float(np.max(np.abs(mu_values - mu_at_optimum - sq))))
    detail = {"configurations": len(configs), "trials_per_config": 100}
    return [
        ("quadratic_uniform_bound", worst_ineq, detail),
        ("parseval_gap", worst_gap, detail),
    ]


def _check_degenerate_group() -> list[tuple[str, float, dict]]:
    report = build_error_report(KernelSpec(1, 0j), [0.3, -0.2j])
    zero_value = max(abs(v) for v in report.values)

    worst_mu = 0.0
    worst_nu = 0.0
    grids = []
    for alpha in (0, 2):
        boundary = build_error_report(KernelSpec(alpha, 0.95 + 0.0j), [0.3, -0.25j])
        grids.append(boundary.approximant.expansion.grid_size)
        mu_closed = boundary.mu_closed_form
        worst_mu = max(worst_mu, abs(boundary.mu_quadrature - mu_closed) / mu_closed)
        nu_closed = boundary.nu_closed_form
        worst_nu = max(worst_nu, abs(boundary.nu_grid - nu_closed) / nu_closed)

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

#: Groups whose work splits into interleaved shares: the share count, the
#: function that measures one share and the one that combines the shares'
#: results into the group's triples.  Any other group is one share.  The
#: lattice's 48 shares of 11 points keep short the last wait of a pooled
#: run, for the shares a worker has started (_run_beside_pool).
_SPLIT = {
    _check_quadratic_group: (48, _quadratic_share, _quadratic_results),
}


def _split(group):
    return _SPLIT.get(group, (1, lambda share, shares: group(), lambda partials: partials[0]))


def _measure(position: int, share: int) -> tuple:
    """One task: (result, seconds) of share `share` of the group at
    `position` in CHECK_GROUPS.  A task names its group by position, so a
    worker runs the registry it was forked with, patched or wrapped."""
    shares, measure, _ = _split(CHECK_GROUPS[position][1])
    started = time.perf_counter()
    partial = measure(share, shares)
    return partial, time.perf_counter() - started


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _run_tasks(tasks: list[tuple[int, int]]) -> list[tuple]:
    """`_measure` of every task, in task order: where a split group's shares
    are among the tasks, over min(usable CPUs, tasks) processes, this one
    and a fork pool of the others.  Other tasks, such as a traced verify's,
    whose wrapped groups are not split, run here one after another, as do
    all where that count is one, fork is not available or this process
    runs another Python thread, which a fork would copy mid-step."""
    processes = min(_usable_cpus(), len(tasks))
    # only a split group has a share past its first
    if processes > 1 and any(share for _, share in tasks):
        import multiprocessing
        import threading

        if "fork" in multiprocessing.get_all_start_methods() and threading.active_count() == 1:
            return _run_beside_pool(tasks, processes - 1, multiprocessing.get_context("fork"))
    return [_measure(*task) for task in tasks]


def _run_beside_pool(tasks: list[tuple[int, int]], workers: int, context) -> list[tuple]:
    """Hand every task to a pool of `workers`, the whole groups first and
    the split groups' shares last; then walk the tasks from the back and
    run here each one that no worker has started.  Results and errors come
    back in task order.

    The workers take tasks from the front and this process from the back
    until they meet, so at the end it waits only for tasks the pool has
    started: one running in each worker and at most workers +
    EXTRA_QUEUED_CALLS queued for them.  In three sets of twelve full
    verifies on a two-core VM, the median CPU times of the two processes
    came within 6% of each other."""
    from concurrent.futures import Future, ProcessPoolExecutor

    is_share = [_split(CHECK_GROUPS[position][1])[0] > 1 for position, _ in tasks]
    order = sorted(range(len(tasks)), key=is_share.__getitem__)
    pool = ProcessPoolExecutor(workers, mp_context=context)
    blas_threads = _set_blas_threads(1)  # before the workers fork, which inherit it
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on a fork beside any thread, the BLAS
            # library's parked ones included; the workers fork at the first
            # submit, before the pool starts threads of its own
            warnings.filterwarnings(
                "ignore", r"This process .* is multi-threaded", DeprecationWarning
            )
            futures = {index: pool.submit(_measure, *tasks[index]) for index in order}
        for index in reversed(order):
            if futures[index].cancel():
                futures[index] = Future()
                try:
                    futures[index].set_result(_measure(*tasks[index]))
                except Exception as error:
                    futures[index].set_exception(error)
        return [futures[index].result() for index in range(len(tasks))]
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
        if blas_threads is not None:
            _set_blas_threads(blas_threads)


def _set_blas_threads(count: int) -> int | None:
    """Run OpenBLAS, where numpy uses it, on `count` threads in this process
    and return the count it had; None, with nothing set, without OpenBLAS.
    A pooled verify runs every process on one BLAS thread, since the
    processes already fill the usable CPUs: with numpy's default BLAS
    threads in the workers, verify took 3.3 s against 2.4 s in one process
    on a 2-core VM, and with them in the calling process alone 2.0 s
    against 1.3 s."""
    import ctypes

    previous = None
    with contextlib.suppress(OSError), open("/proc/self/maps") as maps:
        for lib in sorted({line.split()[-1] for line in maps if "openblas" in line.lower()}):
            handle = ctypes.CDLL(lib)
            for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                         "openblas_{}_num_threads"):
                if hasattr(handle, name.format("set")):
                    getter = getattr(handle, name.format("get"))
                    setter = getattr(handle, name.format("set"))
                    getter.restype = ctypes.c_int
                    setter.argtypes = [ctypes.c_int]
                    setter.restype = None
                    previous = getter() if previous is None else previous
                    setter(count)
                    break
    return previous


def run_checks(
    only: list[str] | None = None, tolerances: dict | None = None
) -> list[CheckResult]:
    """Run all (or the selected) checks and judge each measured value
    against its bound: DEFAULT_TOLERANCES, overridden by `tolerances`.  An
    empty selection, or an unknown check or tolerance name, raises
    InvalidSelection before any check runs.

    The selected groups run as one list of independent tasks, one per
    share of a split group (_SPLIT) and one per other group, here or in a
    pool (_run_tasks).  Results come back in registry order with the values
    and details of one process, bit for bit.  A group's `group_seconds` is
    the sum of its shares' seconds, which may overlap in wall time."""
    tolerances = tolerances or {}
    for name in tolerances:
        if name not in DEFAULT_TOLERANCES:
            raise InvalidSelection(f"unknown tolerance name: {name}")
    bounds = {**DEFAULT_TOLERANCES, **tolerances}
    if only is not None:
        if not only:
            raise InvalidSelection("no check selected")
        unknown = set(only) - set(ALL_CHECK_NAMES)
        if unknown:
            raise InvalidSelection(f"unknown check names: {sorted(unknown)}")
    groups = [
        (position, _split(group))
        for position, (names, group) in enumerate(CHECK_GROUPS)
        if only is None or set(names) & set(only)
    ]
    tasks = [(position, share) for position, (shares, _, _) in groups for share in range(shares)]
    outcomes = iter(_run_tasks(tasks))
    results = []
    for _, (shares, _, combine) in groups:
        parts = [next(outcomes) for _ in range(shares)]
        elapsed = sum(seconds for _, seconds in parts)
        for name, value, detail in combine([partial for partial, _ in parts]):
            if only is not None and name not in only:
                continue
            bound = float(bounds[name])
            passed = value <= bound if name in _PASS_AT_BOUND else value < bound
            # each check its own detail: a group's triples may share one dict
            detail = {**detail, "group_seconds": round(elapsed, 3)}
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
