import json

import numpy as np
import pytest

from diskrat import (
    IllConditioned,
    KernelSpec,
    LeastSquaresProblem,
    PoleSequence,
    TMBasis,
    build_approximant,
    circle_grid,
    lsq_minimize,
    mu_functional,
    mu_min_closed_form,
    nu_functional,
    nu_min_closed_form,
    small_instance_exhaustive,
    uniform_competitor_scan,
)
from diskrat.bergman_approx import extended_mu

GRID = circle_grid(4096)


class TestLeastSquares:
    def test_reproduces_basis_element(self):
        spec = KernelSpec(0, 0.5)
        basis = TMBasis([0.5, 0.3])
        problem = LeastSquaresProblem.build(spec, basis, GRID)
        # overwrite the target with phi_0 itself
        problem.target = basis.eval_all(problem.grid.nodes, count=1)[0]
        result = lsq_minimize(problem)
        assert abs(result.coefficients[0] - 1.0) < 1e-12
        assert abs(result.coefficients[1]) < 1e-12
        assert result.minimum < 1e-24

    def test_trailing_w_basis_matches_closed_form(self):
        spec = KernelSpec(0, 0.5)
        free = PoleSequence([0j])
        approx = build_approximant(spec, free)
        problem = LeastSquaresProblem.build(spec, approx.basis, GRID)
        result = lsq_minimize(problem)
        assert np.max(np.abs(result.coefficients - approx.coefficients)) < 1e-10
        closed = mu_min_closed_form(spec, free)
        assert abs(result.minimum - closed) / closed < 1e-8

    def test_all_zero_poles_minimum_is_series_tail(self):
        # oracle: tail of the squared binomial series, summed until it stops
        # changing in double precision
        spec = KernelSpec(0, 0.5)
        basis = TMBasis([0j, 0j])
        tail = 0.0
        k = 2
        while True:
            term = (k + 1) ** 2 * 0.25**k
            if term < 1e-18:
                break
            tail += term
            k += 1
        result = lsq_minimize(LeastSquaresProblem.build(spec, basis, GRID))
        assert abs(result.minimum - tail) / tail < 1e-12

    def test_inner_products_match_closed_form_coefficients(self):
        # the quadrature route of the oracle against the reproducing-property
        # coefficients of the approximant: two independent routes
        spec = KernelSpec(2, 0.6 - 0.2j)
        free = PoleSequence.random(5, np.random.default_rng(71), max_modulus=0.85)
        approx = build_approximant(spec, free)
        result = lsq_minimize(LeastSquaresProblem.build(spec, approx.basis, GRID))
        gap = np.max(np.abs(result.inner_coefficients - approx.coefficients))
        assert gap < 1e-12 * np.max(np.abs(approx.coefficients))

    def test_two_routes_agree(self):
        spec = KernelSpec(2, 0.6 - 0.2j)
        free = PoleSequence.random(4, np.random.default_rng(5), max_modulus=0.8)
        basis = TMBasis(free.with_trailing(spec.w, 3))
        result = lsq_minimize(LeastSquaresProblem.build(spec, basis, GRID))
        assert result.route_gap < 1e-9
        assert result.orthogonality_residual < 1e-10
        assert result.condition < 1.0 + 1e-8

    def test_extended_residual_rescues_tiny_minimum(self):
        # the solution row scored by mu_functional in long double, as
        # verify's quadratic group scores it; the double residual of the
        # solve misses the closed form by 7e-12 relative here
        spec = KernelSpec(2, 0.1)
        free = PoleSequence.random(6, np.random.default_rng(11), max_modulus=0.6)
        basis = TMBasis(free.with_trailing(spec.w, 3))
        closed = mu_min_closed_form(spec, free)
        assert extended_mu(closed)
        result = lsq_minimize(LeastSquaresProblem.build(spec, basis, GRID))
        minimum = mu_functional(spec, basis, result.coefficients, GRID, extended=True)
        assert abs(minimum - closed) / closed < 1e-9

    def test_rank_deficiency_raises(self):
        from diskrat import CircleGrid

        spec = KernelSpec(0, 0.5)
        free = PoleSequence.random(15, np.random.default_rng(2), max_modulus=0.8)
        basis = TMBasis(free.with_trailing(spec.w, 1))
        # 16 columns cannot be independent on 8 nodes
        problem = LeastSquaresProblem.build(spec, basis, CircleGrid(8))
        with pytest.raises(IllConditioned) as err:
            lsq_minimize(problem)
        assert err.value.condition > 1e8 or not np.isfinite(err.value.condition)


class TestCompetitorScan:
    def test_optimum_included(self):
        approx = build_approximant(KernelSpec(0, 0.5), [0j])
        report = uniform_competitor_scan(approx, trials=1, seed=0)
        assert report.min_nu == pytest.approx(1.0 / 3.0, rel=1e-8)
        assert report.argmin_trial == 0

    def test_seeded_scan_never_beats_closed_form(self):
        approx = build_approximant(KernelSpec(0, 0.5), [0j])
        report = uniform_competitor_scan(approx, trials=100, seed=42)
        assert report.min_nu >= 1.0 / 3.0 - 1e-9
        assert report.closed_form == pytest.approx(1.0 / 3.0)

    def test_byte_determinism(self):
        approx = build_approximant(KernelSpec(1, 0.4j), [0.2])
        a = json.dumps(
            uniform_competitor_scan(approx, trials=25, seed=7).to_json_dict(), sort_keys=True
        )
        b = json.dumps(
            uniform_competitor_scan(approx, trials=25, seed=7).to_json_dict(), sort_keys=True
        )
        assert a == b
        payload = json.loads(a)
        assert payload["seed"] == 7 and payload["trials"] == 25
        assert payload["generator"] == "numpy PCG64"

    def test_scaling_one_coefficient_increases_nu(self):
        spec = KernelSpec(0, 0.5)
        approx = build_approximant(spec, [0j])
        scaled = approx.coefficients.copy()
        scaled[1] *= 1.01
        nu = nu_functional(spec, approx.basis, scaled, circle_grid(4096))
        assert nu > nu_min_closed_form(spec, approx.free_poles) + 1e-5

    @pytest.mark.parametrize(
        "spec, free, seed",
        [
            (KernelSpec(0, 0.5), [0j], 42),
            (KernelSpec(1, 0.4j), [0.2], 43),
            (KernelSpec(2, complex(-0.3, 0.2)), [0.25, -0.3j], 44),
        ],
    )
    def test_verify_scans_keep_their_argmin(self, spec, free, seed):
        # the per-trial scan picked the unperturbed optimum on all three
        approx = build_approximant(spec, free)
        report = uniform_competitor_scan(approx, trials=100, seed=seed)
        assert report.argmin_trial == 0
        assert np.array_equal(report.argmin_coefficients, approx.coefficients)

    def test_trials_validation(self):
        approx = build_approximant(KernelSpec(0, 0.5), [])
        with pytest.raises(ValueError):
            uniform_competitor_scan(approx, trials=0, seed=0)


class TestSmallInstanceExhaustive:
    def test_degenerate_center(self):
        report = small_instance_exhaustive(
            KernelSpec(0, 0j), grid_points=41, quad_grid=circle_grid(1024)
        )
        # K = 1 and phi_0 = 1: the optimum is c = 1 with zero error
        assert report.center == pytest.approx(1.0, abs=1e-13)
        assert report.grid_minimum < report.resolution**2

    def test_half_kernel_point(self):
        report = small_instance_exhaustive(
            KernelSpec(0, 0.5), grid_points=201, quad_grid=circle_grid(1024)
        )
        assert report.closed_form == pytest.approx(0.25 / 0.421875, rel=1e-15)
        assert abs(report.grid_minimum - report.closed_form) < report.resolution**2

    def test_strong_kernel_point(self):
        report = small_instance_exhaustive(
            KernelSpec(0, 0.8), grid_points=201, quad_grid=circle_grid(1024)
        )
        assert report.closed_form == pytest.approx(0.64 / 0.36**3, rel=1e-14)
        assert abs(report.grid_minimum - report.closed_form) < report.resolution**2

    def test_alpha_restriction(self):
        with pytest.raises(ValueError):
            small_instance_exhaustive(KernelSpec(1, 0.5))

    @pytest.mark.parametrize("w", [0.5 + 0.1j, -0.7j])
    def test_matches_brute_force(self, w):
        spec = KernelSpec(0, w)
        grid = circle_grid(4096)
        report = small_instance_exhaustive(spec, grid_points=21, half_width=0.5, quad_grid=grid)
        # brute force: the error modulus squared averaged over the nodes,
        # for every candidate of the same 21 x 21 square
        kernel = spec.bergman(grid.nodes)
        phi0 = np.sqrt(1.0 - abs(w) ** 2) / (1.0 - np.conj(w) * grid.nodes)
        center = np.mean(kernel * np.conj(phi0))
        steps = np.linspace(-0.5, 0.5, 21)
        candidates = ((center.real + steps)[:, None] + 1j * (center.imag + steps)[None, :]).ravel()
        mu = np.mean(np.abs(kernel[None, :] - candidates[:, None] * phi0[None, :]) ** 2, axis=1)
        j = int(np.argmin(mu))
        assert report.center == center
        assert report.argmin == candidates[j]
        assert report.grid_minimum == pytest.approx(mu[j], rel=1e-13)
        assert abs(report.grid_minimum - report.closed_form) < report.resolution**2

    def test_report_serializes(self):
        report = small_instance_exhaustive(
            KernelSpec(0, 0.5), grid_points=41, quad_grid=circle_grid(1024)
        )
        data = report.to_json_dict()
        assert data["grid_points"] == 41
        assert json.dumps(data)


def hand_written_scan_json(report):
    """ScanReport.to_json_dict as it was written out key by key."""
    return {
        "seed": report.seed,
        "trials": report.trials,
        "min_nu": report.min_nu,
        "argmin_trial": report.argmin_trial,
        "argmin_coefficients": [[c.real, c.imag] for c in report.argmin_coefficients],
        "closed_form": report.closed_form,
        "margin": report.margin,
        "generator": report.generator,
    }


def hand_written_small_instance_json(report):
    """SmallInstanceReport.to_json_dict as it was written out key by key."""
    return {
        "w": [report.w.real, report.w.imag],
        "grid_points": report.grid_points,
        "half_width": report.half_width,
        "resolution": report.resolution,
        "center": [report.center.real, report.center.imag],
        "grid_minimum": report.grid_minimum,
        "argmin": [report.argmin.real, report.argmin.imag],
        "closed_form": report.closed_form,
    }


def dumped(data):
    return json.dumps(data, sort_keys=True, indent=2)


class TestReportJson:
    @pytest.mark.parametrize(
        "spec, free, trials, seed",
        [
            (KernelSpec(0, 0.5), [0j], 100, 42),
            (KernelSpec(2, complex(-0.3, 0.2)), [0.25, -0.3j], 7, 3),
            (KernelSpec(1, -0.4j), [], 1, 0),
        ],
    )
    def test_scan_json_is_the_hand_written_dict(self, spec, free, trials, seed):
        report = uniform_competitor_scan(build_approximant(spec, free), trials, seed)
        data = report.to_json_dict()
        assert data == hand_written_scan_json(report)
        assert dumped(data) == dumped(hand_written_scan_json(report))
        assert all(type(x) is float for pair in data["argmin_coefficients"] for x in pair)

    @pytest.mark.parametrize("w", [0.5, complex(0.3, -0.2), 0j, complex(-0.0, -0.6)])
    def test_small_instance_json_is_the_hand_written_dict(self, w):
        report = small_instance_exhaustive(KernelSpec(0, w), 41, quad_grid=circle_grid(1024))
        data = report.to_json_dict()
        assert dumped(data) == dumped(hand_written_small_instance_json(report))
        assert list(data) == list(hand_written_small_instance_json(report))
