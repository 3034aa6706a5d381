import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diskrat import (
    ErrorReport,
    KernelSpec,
    NonFiniteIntegrand,
    PoleSequence,
    TMBasis,
    TrailingPolesMismatch,
    build_approximant,
    build_error_report,
    circle_grid,
    closed_form_J,
    closed_form_J_tm_phase,
    competitor_function,
    competitor_trials,
    derivative_at,
    equimodularity_variation,
    interpolation_target,
    mu_functional,
    mu_min_closed_form,
    nu_functional,
    nu_min_closed_form,
    random_competitor_coefficients,
    ratio_coefficients,
)
from diskrat import bergman_approx
from diskrat.bergman_approx import NU_GRID_NODES, _GOLDEN, _REFINE_ITERS, _golden_max

GRID = circle_grid(4096)


def random_disk_points(rng, count, max_modulus):
    radii = max_modulus * np.sqrt(rng.uniform(0, 1, count))
    return radii * np.exp(2j * np.pi * rng.uniform(0, 1, count))


class TestBuild:
    def test_trailing_block_structure(self):
        approx = build_approximant(KernelSpec(1, 0.4), [0.3])
        assert approx.n == 2
        assert approx.basis.poles.points == (0.3, 0.4, 0.4)
        assert len(approx.coefficients) == 3

    def test_degenerate_kernel_gives_constant(self):
        approx = build_approximant(KernelSpec(2, 0j), [0.3, -0.5j])
        rng = np.random.default_rng(0)
        for z in random_disk_points(rng, 10, 0.9):
            assert approx.eval(z) == pytest.approx(1.0, abs=1e-12)
            assert approx.eval_closed_form(z) == pytest.approx(1.0, abs=1e-14)

    def test_order_zero_single_pole(self):
        # r(x) = (1 - 0.5 x) c_0 phi_0(x) with phi_0 built from pole 0.5
        spec = KernelSpec(0, 0.5)
        approx = build_approximant(spec, [])
        c0 = approx.coefficients[0]
        z = 0.3 - 0.1j
        phi0 = approx.basis.eval_all(z)[0]
        assert approx.eval(z) == pytest.approx((1 - z * 0.5) * c0 * phi0, abs=1e-14)
        assert approx.eval(z) == pytest.approx(approx.eval_closed_form(z), abs=1e-13)


class TestClosedForm:
    @pytest.mark.parametrize("alpha", [0, 1, 2, 3])
    def test_value_at_kernel_point(self, alpha):
        w = 0.4 - 0.25j
        spec = KernelSpec(alpha, w)
        approx = build_approximant(spec, [0.3, -0.2j])
        expected = (1.0 - abs(w) ** 2) ** (-(alpha + 1))
        assert approx.eval_closed_form(w) == pytest.approx(expected, rel=1e-13)
        assert approx.eval_closed_form(w) == pytest.approx(
            spec.cauchy_power(w), rel=1e-13
        )

    def test_matches_construction_spec_example(self):
        spec = KernelSpec(0, 0.5)
        approx = build_approximant(spec, [0j])
        assert abs(approx.eval(0.3) - approx.eval_closed_form(0.3)) < 1e-12

    @pytest.mark.parametrize(
        "alpha,w,free",
        [
            (0, 0.5 + 0j, [0.3, -0.4j]),
            (1, -0.3j, [0.2, 0.2]),
            (2, 0.35 + 0.2j, [0.5, -0.1j, 0.25]),
        ],
    )
    def test_matches_construction_many_points(self, alpha, w, free):
        spec = KernelSpec(alpha, w)
        approx = build_approximant(spec, free)
        rng = np.random.default_rng(41)
        points = np.concatenate(
            [random_disk_points(rng, 25, 0.9), np.exp(2j * np.pi * rng.uniform(0, 1, 25))]
        )
        gap = np.max(np.abs(approx.eval(points) - approx.eval_closed_form(points)))
        assert gap < 1e-12

    def test_phase_freedom(self):
        spec = KernelSpec(1, 0.4)
        approx = build_approximant(spec, [0.3, -0.2j])
        shifted = replace(approx, free_blaschke=approx.free_blaschke.with_tau(np.exp(0.9j)))
        z = 0.25 - 0.3j
        assert shifted.eval_closed_form(z) == pytest.approx(
            approx.eval_closed_form(z), abs=1e-15
        )


class TestInterpolation:
    def test_target_uses_rising_factorial(self):
        # derivative of (1 - z conj(w))^-(1+alpha) of order s-1 carries
        # (alpha+1)...(alpha+s-1), not the raw factorial
        spec = KernelSpec(2, 0.5)
        a = 0.3
        t2 = interpolation_target(spec, a, 2)
        assert t2 == pytest.approx(3.0 * 0.5 / (1 - 0.5 * 0.3) ** 4, rel=1e-14)
        t1 = interpolation_target(spec, a, 1)
        assert t1 == pytest.approx(1.0 / (1 - 0.5 * 0.3) ** 3, rel=1e-14)

    def test_simple_pole_condition_alpha0(self):
        spec = KernelSpec(0, 0.5)
        approx = build_approximant(spec, [0.3, -0.4j])
        for a in (0.3, -0.4j):
            value = approx.eval_closed_form(a)
            assert value == pytest.approx(1.0 / (1 - 0.5 * a), abs=1e-10)

    @pytest.mark.parametrize("alpha", [0, 1, 2])
    def test_residuals_small_with_multiplicities(self, alpha):
        spec = KernelSpec(alpha, 0.45)
        approx = build_approximant(spec, [0.3, 0.3, 0.3])
        residuals = approx.interpolation_residuals()
        assert len(residuals) == approx.n + 1
        assert max(residuals) < 1e-8

    def test_duplicated_free_pole_first_derivative(self):
        # second occurrence of the duplicated pole interpolates the first
        # derivative with factor (alpha+1) conj(w)
        alpha, w, a = 1, 0.4, 0.3
        spec = KernelSpec(alpha, w)
        approx = build_approximant(spec, [a, a])
        target = interpolation_target(spec, a, 2)
        assert target == pytest.approx((alpha + 1) * w / (1 - w * a) ** (alpha + 2))
        # independent finite-difference oracle on the closed form
        h = 1e-5
        fd = (approx.eval_closed_form(a + h) - approx.eval_closed_form(a - h)) / (2 * h)
        assert abs(fd - target) < 1e-6
        assert max(approx.interpolation_residuals()) < 1e-8

    def test_trailing_block_conditions(self):
        spec = KernelSpec(2, 0.35 - 0.2j)
        approx = build_approximant(spec, [0.3])
        assert max(approx.interpolation_residuals()) < 1e-8

    def test_values_and_scales_per_pole(self):
        approx = build_approximant(KernelSpec(1, 0.4 + 0.1j), [0.3, -0.2j, 0.3])
        values, scales = approx.pole_derivatives
        assert values.shape == scales.shape == (approx.n + 1,)
        assert np.all(scales > 0)
        # a pole that occurs once is r itself there
        assert values[1] == pytest.approx(approx.eval(-0.2j), abs=1e-15)
        assert approx.pole_derivatives is approx.pole_derivatives


@st.composite
def _disk_point(draw, low, high):
    modulus = draw(st.floats(low, high))
    return cmath.rect(modulus, draw(st.floats(0.0, 2.0 * math.pi)))


@st.composite
def _repeated_pole_configuration(draw):
    """alpha 0-3, a kernel point and up to four distinct free poles, each
    repeated one to three times, in a drawn order."""
    alpha = draw(st.integers(0, 3))
    w = draw(_disk_point(0.05, 0.6))
    distinct = draw(st.lists(_disk_point(0.0, 0.6), min_size=1, max_size=4, unique=True))
    assume(w not in distinct)
    counts = draw(st.lists(st.integers(1, 3), min_size=len(distinct), max_size=len(distinct)))
    free = draw(st.permutations([a for a, k in zip(distinct, counts) for _ in range(k)]))
    return alpha, w, free


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_repeated_pole_configuration())
def test_taylor_route_matches_quadrature_of_closed_form(configuration):
    alpha, w, free = configuration
    spec = KernelSpec(alpha, w)
    approx = build_approximant(spec, free)
    values, _ = approx.pole_derivatives
    poles = approx.basis.poles
    for m, a in enumerate(poles):
        s = poles.multiplicity_in_prefix(m)
        quadrature = derivative_at(approx.eval_closed_form, a, order=s - 1)
        scale = max(1.0, abs(interpolation_target(spec, a, s)))
        assert abs(values[m] - quadrature) <= 1e-10 * scale


class TestMembership:
    @pytest.mark.parametrize(
        "alpha,w,free",
        [
            (0, 0.5 + 0j, [0j]),
            (0, 0.5 + 0j, [0.3, -0.4j]),
            (1, -0.3j, [0j, 0j]),
            (2, 0.4 + 0.1j, [0.3, 0.3, -0.2j]),
        ],
    )
    def test_approximant_lies_in_competitor_class(self, alpha, w, free):
        approx = build_approximant(KernelSpec(alpha, w), free)
        assert approx.membership_residual() < 1e-8


class TestMuFunctional:
    def test_zero_competitor_constant_kernel(self):
        spec = KernelSpec(0, 0j)
        value = mu_functional(spec, lambda x: np.zeros_like(x), GRID)
        assert value == pytest.approx(1.0, abs=1e-14)

    def test_minimum_reached_at_approximant(self):
        spec = KernelSpec(0, 0.5)
        approx = build_approximant(spec, [0j])
        value = mu_functional(spec, approx.eval, GRID)
        assert value == pytest.approx(4.0 / 27.0, rel=1e-12)

    def test_pythagoras_shift(self):
        # adding 0.1 (1 - x conj(w)) phi_0 raises the minimum by exactly 0.01
        spec = KernelSpec(0, 0.5)
        approx = build_approximant(spec, [0j])
        shifted = approx.coefficients.copy()
        shifted[0] += 0.1
        value = mu_functional(spec, competitor_function(approx.basis, spec.w, shifted), GRID)
        assert value == pytest.approx(4.0 / 27.0 + 0.01, abs=1e-12)

    def test_minimality_against_random_competitors(self):
        spec = KernelSpec(1, 0.45 - 0.2j)
        approx = build_approximant(spec, [0.3, -0.5j])
        floor = mu_min_closed_form(spec, approx.free_poles)
        rng = np.random.default_rng(99)
        for _ in range(100):
            coeffs = random_competitor_coefficients(approx, rng)
            value = mu_functional(
                spec, competitor_function(approx.basis, spec.w, coeffs), GRID
            )
            assert value >= floor - 1e-12


class TestClosedFormMinima:
    def test_mu_min_degenerate(self):
        assert mu_min_closed_form(KernelSpec(3, 0j), [0.3]) == 0.0

    def test_mu_min_spot_value(self):
        value = mu_min_closed_form(KernelSpec(0, 0.5), [0j])
        assert value == pytest.approx(4.0 / 27.0, rel=1e-15)
        # independent arithmetic: (0.25 * 0.25) / 0.75^3
        assert value == pytest.approx(0.25 * 0.25 / 0.421875, rel=1e-15)

    def test_alpha0_reduces_to_classical_form(self):
        # |w B_n(w)|^2 / (1 - |w|^2)^3
        w = 0.4 - 0.3j
        free = PoleSequence([0.2, -0.5j])
        value = mu_min_closed_form(KernelSpec(0, w), free)
        b = np.prod([(w - a) / (1 - np.conj(a) * w) for a in free])
        expected = abs(w * b) ** 2 / (1 - abs(w) ** 2) ** 3
        assert value == pytest.approx(expected, rel=1e-13)

    def test_nu_min_values(self):
        assert nu_min_closed_form(KernelSpec(2, 0j), [0.3]) == 0.0
        assert nu_min_closed_form(KernelSpec(0, 0.5), [0j]) == pytest.approx(1.0 / 3.0)

    @pytest.mark.parametrize("alpha", [0, 1, 3])
    def test_nu_squared_equals_mu_times_weight(self, alpha):
        w = 0.55 * np.exp(0.7j)
        free = PoleSequence([0.3, -0.2j])
        spec = KernelSpec(alpha, complex(w))
        nu = nu_min_closed_form(spec, free)
        mu = mu_min_closed_form(spec, free)
        assert nu**2 == pytest.approx(mu * (1 - abs(w) ** 2), rel=1e-12)

    def test_monotone_decrease_under_new_pole(self):
        spec = KernelSpec(1, 0.5)
        free = PoleSequence([0.3])
        new_pole = -0.25j
        before = mu_min_closed_form(spec, free)
        after = mu_min_closed_form(spec, PoleSequence([0.3, new_pole]))
        factor = abs((spec.w - new_pole) / (1 - np.conj(new_pole) * spec.w)) ** 2
        assert factor < 1.0
        assert after == pytest.approx(before * factor, rel=1e-12)


class TestNuFunctional:
    def test_zero_competitor_poisson_peak(self):
        # sup 1/|1 - 0.5 x| on the circle is attained at x = 1 with value 2
        spec = KernelSpec(0, 0.5)
        value = nu_functional(spec, TMBasis([0j]), [0.0], circle_grid(2**14))
        assert value == pytest.approx(2.0, rel=1e-9)

    def test_optimum_reaches_closed_form_and_is_equimodular(self):
        spec = KernelSpec(0, 0.5)
        approx = build_approximant(spec, [0j])
        value = nu_functional(spec, approx.basis, approx.coefficients, circle_grid(2**14))
        assert value == pytest.approx(1.0 / 3.0, rel=1e-8)
        variation = equimodularity_variation(spec, approx.eval, circle_grid(2**12))
        assert variation < 1e-9

    def test_truncation_strictly_worse(self):
        spec = KernelSpec(0, 0.5)
        approx = build_approximant(spec, [0j])
        value = nu_functional(spec, approx.basis, approx.coefficients[:1], circle_grid(2**12))
        assert value > 1.0  # far above the optimal 1/3

    def test_single_coefficient_scaling_increases_nu(self):
        spec = KernelSpec(0, 0.5)
        approx = build_approximant(spec, [0j])
        scaled = approx.coefficients.copy()
        scaled[1] *= 1.01
        value = nu_functional(spec, approx.basis, scaled, circle_grid(2**12))
        assert value > 1.0 / 3.0 + 1e-4


def scalar_golden_max(f, lo, hi, iters):
    """Reference: golden-section search on one bracket, one point per call."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
        else:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
    return max(fc, fd)


SCAN_CONFIGS = [
    (KernelSpec(0, 0.5), [0j], 42),
    (KernelSpec(1, 0.4j), [0.2], 43),
    (KernelSpec(2, complex(-0.3, 0.2)), [0.25, -0.3j], 44),
]


def golden60_nu(spec, rational, grid):
    """Reference: nu as it was computed with a fixed golden-section search,
    the grid maximum refined by 60 steps on each arc next to the best node.
    Returns the value and the rounding noise of the modulus at the angle
    where it was taken: the spread of 65 values within 1e-13 rad of it, over
    which the smooth modulus does not move.  A maximum over noisy values
    can lie that far above the smooth maximum."""
    error = np.abs(spec.cauchy_power(grid.nodes) - rational(grid.nodes))
    j = int(np.argmax(error))
    step = 2.0 * np.pi / grid.node_count
    best = [float(error[j]), step * j]

    def modulus(t):
        x = complex(math.cos(t), math.sin(t))
        value = abs(spec.cauchy_power(x) - rational(x))
        best[:] = max(best, [value, t])
        return value

    for a, b in [(step * (j - 1), step * j), (step * j, step * (j + 1))]:
        scalar_golden_max(modulus, a, b, 60)
    x = np.exp(1j * (best[1] + np.linspace(-1e-13, 1e-13, 65)))
    near = np.abs(spec.cauchy_power(x) - rational(x))
    return best[0], float(np.ptp(near))


def refinement_battery(count=150, seed=2024):
    """Kernels with alpha 0-3 and |w| up to 0.97, each with zero, repeated,
    random or mixed free poles."""
    rng = np.random.default_rng(seed)
    radii = [0.05, 0.3, 0.6, 0.85, 0.93, 0.97]
    cases = []
    for i in range(count):
        radius = radii[i % len(radii)] if i % 3 else rng.uniform(0.01, 0.97)
        w = complex(radius * np.exp(2j * np.pi * rng.uniform()))
        m = int(rng.integers(0, 9))
        random = list(random_disk_points(rng, m, 0.95))
        repeated = [random_disk_points(rng, 1, 0.8)[0]] * m
        free = [[0j] * m, repeated, random, repeated[: m // 2] + random[m // 2 :]][i % 4]
        cases.append((KernelSpec((i // 4) % 4, w), free))
    return cases


@pytest.fixture(scope="module")
def refined_battery():
    """nu of every battery approximant by nu_functional on NU_GRID_NODES, and
    of two competitor trials each, scored together, on the 4096 nodes of the
    competitor scans, each with its golden-section reference and the noise
    there, and the number of calls of f per refinement."""
    calls = []
    refine = bergman_approx._golden_max

    def counted_refine(f, *args):
        # as the benchmark's tracer does: count the calls of the first argument
        count = [0]

        def counted(t):
            count[0] += 1
            return f(t)

        try:
            return refine(counted, *args)
        finally:
            calls.append(count[0])

    nu_grid, scan_grid = circle_grid(NU_GRID_NODES), circle_grid(4096)
    approximants, trials = [], []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bergman_approx, "_golden_max", counted_refine)
        for index, (spec, free) in enumerate(refinement_battery()):
            approx = build_approximant(spec, free)
            value = nu_functional(spec, approx.basis, approx.coefficients, nu_grid)
            approximants.append((spec, value, *golden60_nu(spec, approx.eval, nu_grid)))
            rows = competitor_trials(approx, 3, np.random.default_rng(index))[1:]
            values = nu_functional(spec, approx.basis, rows, scan_grid)
            for row, value in zip(rows, values):
                rational = competitor_function(approx.basis, spec.w, row)
                trials.append((spec, value, *golden60_nu(spec, rational, scan_grid)))
    return approximants, trials, calls


def beyond_rounding_of_golden_section(results):
    """The (spec, new, reference, noise) entries whose values differ by more
    than 1e-14 relative plus 8 eps sup|(1 - x conj(w))^-(1+alpha)| =
    8 eps (1 - |w|)^-(1+alpha), the rounding of the kernel term, plus the
    rounding noise measured at the reference's maximum."""
    misses = []
    for spec, value, reference, noise in results:
        kernel = 8 * np.finfo(float).eps * (1.0 - abs(spec.w)) ** -(spec.alpha + 1)
        if not abs(value - reference) <= 1e-14 * reference + kernel + noise:
            misses.append((spec, value, reference, noise))
    return misses


class TestBatchedNu:
    def test_refinement_matches_golden_section_on_approximants(self, refined_battery):
        approximants, _, _ = refined_battery
        assert len(approximants) >= 150
        assert beyond_rounding_of_golden_section(approximants) == []

    def test_refinement_matches_golden_section_on_competitor_trials(self, refined_battery):
        _, trials, _ = refined_battery
        assert len(trials) >= 150
        assert beyond_rounding_of_golden_section(trials) == []

    def test_refinement_calls_f_at_most_20_times(self, refined_battery):
        _, _, calls = refined_battery
        assert len(calls) == 300
        assert max(calls) <= 20

    @pytest.mark.parametrize("floor", [0.0, 1e-15])
    def test_constant_modulus_returns_the_constant(self, floor):
        calls = []

        def constant(t):
            calls.append(t)
            return np.full(np.shape(t), 0.75)

        points = np.array([[-0.1, 1.0], [0.0, 1.2], [0.1, 1.3]])
        value = _golden_max(constant, points, np.full((3, 2), 0.75), floor)
        assert np.array_equal(value, [0.75, 0.75])
        assert len(calls) <= _REFINE_ITERS

    @pytest.mark.parametrize("offset, node", [(0.3, 0), (-0.7, 4095)])
    def test_best_node_at_either_end_of_the_grid(self, offset, node):
        # |(1 - x conj(w))^-1| peaks at 2 where x = w/|w|: here 0.3 of a grid
        # step past node 0, or 0.3 of a step past node N - 1.  The refined
        # value must find that peak from a bracket that wraps round theta = 0.
        grid = circle_grid(4096)
        spec = KernelSpec(0, 0.5 * np.exp(2j * np.pi * offset / grid.node_count))
        assert np.argmax(np.abs(spec.cauchy_power(grid.nodes))) == node
        basis = TMBasis([0j])
        grid_max = float(np.max(np.abs(spec.cauchy_power(grid.nodes))))
        assert 2.0 - grid_max > 1e-8
        assert nu_functional(spec, basis, [0.0], grid) == pytest.approx(2.0, rel=1e-15, abs=0)
        (value,) = nu_functional(spec, basis, [[0.0]], grid)
        assert value == pytest.approx(2.0, rel=1e-15, abs=0)

    @pytest.mark.parametrize("truncate", [False, True])
    @pytest.mark.parametrize("spec, free, seed", SCAN_CONFIGS)
    def test_batched_rows_match_one_row_calls(self, spec, free, seed, truncate):
        approx = build_approximant(spec, free)
        rows = competitor_trials(approx, 12, np.random.default_rng(seed))
        if truncate:
            rows = rows[:, :2]
        grid = circle_grid(2**12)
        batched = nu_functional(spec, approx.basis, rows, grid)
        # The products of a batch and of one row round differently in their
        # last bits.  At the optimum the error modulus is flat, so the refined
        # maximum is a maximum over rounding noise of the terms it cancels,
        # whose size is at most sup |(1 - x conj(w))^-(1+alpha)| =
        # (1 - |w|)^-(1+alpha).
        noise = 8 * np.finfo(float).eps * (1.0 - abs(spec.w)) ** -(spec.alpha + 1)
        for row, value in zip(rows, batched):
            reference = nu_functional(spec, approx.basis, row, grid)
            assert abs(value - reference) <= 1e-14 * reference + noise

    @pytest.mark.parametrize(
        "spec, free, refined",
        [
            # |w| = 0.99: the grid triple is not flat to rounding, so the
            # refinement takes steps, and each must round as eval does
            (
                KernelSpec(1, complex(0.29409187533567466, 0.9451638163037536)),
                [complex(0.6109179433656224, -0.1566684763088134)],
                True,
            ),
            # the grid maximum, which error *= multiplier would round apart
            (KernelSpec(1, complex(0.3, 0.4)), [0j] * 6, False),
        ],
    )
    def test_approximant_row_scores_as_its_eval(self, spec, free, refined):
        approx = build_approximant(spec, free)
        grid = circle_grid(NU_GRID_NODES)
        values = approx.eval(grid.nodes)
        kernel = spec.cauchy_power(grid.nodes)
        index, points, moduli = bergman_approx._grid_brackets(np.abs(kernel - values))
        j = index[0]
        floor = 8 * np.finfo(float).eps * (abs(kernel[j]) + abs(values[j]))
        steps = []

        def modulus(t):
            steps.append(t)
            x = np.cos(t) + 1j * np.sin(t)
            return np.abs(spec.cauchy_power(x) - approx.eval(x))

        (reference,) = _golden_max(modulus, points, moduli, floor)
        assert (len(steps) > 0) == refined
        assert nu_functional(spec, approx.basis, approx.coefficients, grid) == reference

    def test_row_gives_a_float_and_matrix_one_value_per_row(self):
        spec = KernelSpec(1, 0.4j)
        approx = build_approximant(spec, [0.2])
        rows = competitor_trials(approx, 5, np.random.default_rng(3))
        grid = circle_grid(2**10)
        assert type(nu_functional(spec, approx.basis, rows[0], grid)) is float
        batched = nu_functional(spec, approx.basis, rows, grid)
        assert isinstance(batched, np.ndarray) and batched.shape == (5,)

    def test_rejects_non_finite_rows(self):
        spec = KernelSpec(0, 0.5)
        approx = build_approximant(spec, [0j])
        rows = np.array([approx.coefficients, [np.nan, 1.0]])
        with pytest.raises(NonFiniteIntegrand):
            nu_functional(spec, approx.basis, rows, circle_grid(2**10))
        with pytest.raises(NonFiniteIntegrand):
            nu_functional(spec, approx.basis, rows[1], circle_grid(2**10))

    @pytest.mark.parametrize("spec, free, seed", SCAN_CONFIGS)
    def test_trial_schedule_matches_inline_loop(self, spec, free, seed):
        approx = build_approximant(spec, free)
        rng = np.random.default_rng(seed)
        optimum = approx.coefficients
        scale = float(np.max(np.abs(optimum)))
        expected = []
        for trial in range(100):
            if trial == 0:
                coeffs = optimum
            elif trial % 2 == 1:
                coeffs = random_competitor_coefficients(approx, rng)
            else:
                coeffs = scale * (
                    rng.standard_normal(len(optimum))
                    + 1j * rng.standard_normal(len(optimum))
                )
            expected.append(coeffs)
        rows = competitor_trials(approx, 100, np.random.default_rng(seed))
        assert np.array_equal(rows, np.array(expected))


class TestClosedFormJ:
    def test_degenerate_kernel_point(self):
        spec = KernelSpec(0, 0j)
        basis = TMBasis([0.3, 0j])
        assert closed_form_J(spec, basis, 1, 0.2) == 0.0j

    def test_modulus_formula(self):
        spec = KernelSpec(1, 0.4j)
        basis = TMBasis([0.2, 0.4j, 0.4j])
        z = -0.3 + 0.1j
        value = closed_form_J(spec, basis, 2, z)
        b = abs((0.4j - 0.2) / (1 - 0.2 * 0.4j))
        expected = (0.4 / (1 - 0.16)) ** 2 * b / abs(np.conj(0.4j) * z - 1)
        assert abs(value) == pytest.approx(expected, rel=1e-13)

    def test_trailing_validation(self):
        spec = KernelSpec(0, 0.5)
        with pytest.raises(TrailingPolesMismatch):
            closed_form_J(spec, TMBasis([0.3, 0.2]), 1, 0.1)

    def test_tm_phase_alignment_constant_is_unimodular(self):
        spec = KernelSpec(2, 0.3 - 0.2j)
        basis = TMBasis([0.25, spec.w, spec.w, spec.w])
        value, constant = closed_form_J_tm_phase(spec, basis, 3, 0.1j)
        assert abs(abs(constant) - 1.0) < 1e-13
        aligned = constant * value
        direct = closed_form_J(spec, basis, 3, 0.1j)
        assert aligned == pytest.approx(direct, rel=1e-13)


class TestParsevalGap:
    def test_gap_equals_coefficient_distance(self):
        spec = KernelSpec(1, 0.5)
        approx = build_approximant(spec, [0.3])
        base = mu_functional(spec, approx.eval, GRID)
        rng = np.random.default_rng(7)
        for _ in range(10):
            coeffs = random_competitor_coefficients(approx, rng)
            rational = competitor_function(approx.basis, spec.w, coeffs)
            gap = mu_functional(spec, rational, GRID) - base
            recovered = ratio_coefficients(rational, spec.w, approx.basis, GRID)
            sq = float(np.sum(np.abs(recovered - approx.coefficients) ** 2))
            assert abs(gap - sq) < 1e-10


class TestQuadraticUniformBound:
    def test_quadratic_bounded_by_uniform(self):
        spec = KernelSpec(1, 0.45)
        approx = build_approximant(spec, [0.2, -0.3j])
        rng = np.random.default_rng(13)
        nu_grid = circle_grid(2**13)
        for trial in range(30):
            if trial == 0:
                coeffs = approx.coefficients
            else:
                coeffs = random_competitor_coefficients(approx, rng)
            rational = competitor_function(approx.basis, spec.w, coeffs)
            mu = mu_functional(spec, rational, GRID)
            nu = nu_functional(spec, approx.basis, coeffs, nu_grid)
            assert mu * (1 - abs(spec.w) ** 2) <= nu**2 + 1e-12


class TestErrorReport:
    def test_csv_round_trip_digits(self):
        spec = KernelSpec(0, 0.5)
        report = build_error_report(spec, [0j])
        row = report.csv_row()
        cells = row.split(",")
        assert cells[0] == "1" and cells[1] == "0"
        assert float(cells[5]) == report.mu_closed_form  # 17 digits round-trip
        header_fields = ErrorReport.CSV_HEADER.split(",")
        assert len(header_fields) == len(cells)

    def test_json_fields(self):
        report = build_error_report(KernelSpec(0, 0.5), [0j])
        data = report.to_json_dict()
        assert data["mu_closed"] == pytest.approx(4.0 / 27.0)
        assert data["nu_closed"] == pytest.approx(1.0 / 3.0)
        assert data["free_pole_matches_w"] is False

    def test_degenerate_w_zero_is_exactly_zero(self):
        report = build_error_report(KernelSpec(1, 0j), [0.3, -0.2j])
        assert report.degenerate_w_zero
        assert report.mu_quadrature == 0.0
        assert report.mu_closed_form == 0.0
        assert report.nu_grid == 0.0
        assert report.nu_closed_form == 0.0
        assert report.max_interp_residual == 0.0

    def test_free_pole_equal_to_w_is_flagged_and_exact(self):
        spec = KernelSpec(0, 0.5)
        report = build_error_report(spec, [0.3, 0.5])
        assert report.free_pole_matches_w
        # the kernel itself then lies in the competitor class: minima vanish
        assert report.mu_closed_form == pytest.approx(0.0, abs=1e-30)
        assert report.nu_closed_form == pytest.approx(0.0, abs=1e-15)

    def test_validate_rejects_bad_values(self):
        report = build_error_report(KernelSpec(0, 0.5), [0j])
        report.mu_quadrature = -1.0
        with pytest.raises(ValueError):
            report.validate()
