import cmath
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diskrat import (
    DesignTooLarge,
    ErrorReport,
    KernelSpec,
    NonFiniteIntegrand,
    PoleSequence,
    TMBasis,
    TrailingPolesMismatch,
    ValueOutOfRange,
    build_approximant,
    build_error_report,
    circle_grid,
    closed_form_J,
    competitor_function,
    competitor_trials,
    derivative_at,
    equimodularity_variation,
    interpolation_target,
    mu_functional,
    mu_min_closed_form,
    nu_functional,
    nu_min_closed_form,
)
from diskrat import bergman_approx, tm_basis, verify
from diskrat.bergman_approx import (
    EXTENDED_MU_CUTOFF,
    NU_GRID_NODES,
    _GOLDEN,
    _NOISE_SCALE,
    _REFINE_ITERS,
    _golden_max,
    extended_mu,
)
from diskrat.circlequad import sample_on_nodes
from diskrat.expansion import FourierExpansion, expand_function
from diskrat.tm_basis import NODE_CHUNK

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

    @pytest.mark.parametrize(
        "alpha, free, row",
        [
            # at w of multiplicity 132, j! t_j and the target leave the range
            (170, [0j, 0j], 133),
            (171, [0j, 0j], 133),
            # 171! is not a double
            (0, [0j] * 172, 171),
            # (alpha+1)...(alpha+164) is not a double: the target is NaN
            (10, [0j] * 165, 164),
        ],
    )
    def test_rows_past_the_double_range_are_refused(self, alpha, free, row):
        approx = build_approximant(KernelSpec(alpha, 0.5), free)
        with pytest.raises(ValueOutOfRange, match=f"interpolation row {row} "):
            approx.interpolation_residuals()

    def test_rows_at_the_edge_of_the_double_range_stay_finite(self):
        # multiplicity 171 at zero: 170! t_170 is about 1e241
        approx = build_approximant(KernelSpec(0, 0.5), [0j] * 171)
        residuals = approx.interpolation_residuals()
        values, scales = approx.pole_derivatives
        assert np.isfinite(residuals).all()
        assert np.isfinite(values).all() and np.isfinite(scales).all()


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


@st.composite
def _approximant_configuration(draw):
    """alpha 0-3, a kernel point with |w| <= 0.7 and zero to four free poles
    drawn with repeats from a few disk points and w itself."""
    alpha = draw(st.integers(0, 3))
    w = draw(_disk_point(0.0, 0.7))
    pool = draw(st.lists(_disk_point(0.0, 0.7), min_size=1, max_size=3)) + [w]
    free = draw(st.lists(st.sampled_from(pool), max_size=4))
    return alpha, w, free


_ROUTE_RNG = np.random.default_rng(20261018)
_ROUTE_POINTS = np.concatenate([
    random_disk_points(_ROUTE_RNG, 20, 0.95),
    np.exp(2j * np.pi * _ROUTE_RNG.uniform(0.0, 1.0, 20)),
])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_approximant_configuration())
def test_constructive_route_matches_closed_form(configuration):
    alpha, w, free = configuration
    approx = build_approximant(KernelSpec(alpha, w), free)
    closed = approx.eval_closed_form(_ROUTE_POINTS)
    gap = np.abs(approx.eval(_ROUTE_POINTS) - closed)
    assert np.all(gap <= 1e-12 * np.maximum(1.0, np.abs(closed)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_repeated_pole_configuration())
def test_taylor_route_matches_quadrature_of_closed_form(configuration):
    alpha, w, free = configuration
    spec = KernelSpec(alpha, w)
    approx = build_approximant(spec, free)
    values, _ = approx.pole_derivatives
    poles = approx.basis.poles
    for m, (a, s) in enumerate(zip(poles, poles.multiplicities)):
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
        value = mu_functional(spec, TMBasis([0j]), [0.0], GRID, extended=False)
        assert value == pytest.approx(1.0, abs=1e-14)

    def test_minimum_reached_at_approximant(self):
        spec = KernelSpec(0, 0.5)
        approx = build_approximant(spec, [0j])
        value = mu_functional(spec, approx.basis, approx.coefficients, GRID, extended=False)
        assert value == pytest.approx(4.0 / 27.0, rel=1e-12)

    def test_pythagoras_shift(self):
        # adding 0.1 (1 - x conj(w)) phi_0 raises the minimum by exactly 0.01
        spec = KernelSpec(0, 0.5)
        approx = build_approximant(spec, [0j])
        shifted = approx.coefficients.copy()
        shifted[0] += 0.1
        value = mu_functional(spec, approx.basis, shifted, GRID, extended=False)
        assert value == pytest.approx(4.0 / 27.0 + 0.01, abs=1e-12)

    def test_minimality_against_random_competitors(self):
        spec = KernelSpec(1, 0.45 - 0.2j)
        approx = build_approximant(spec, [0.3, -0.5j])
        floor = mu_min_closed_form(spec, approx.free_poles)
        rng = np.random.default_rng(99)
        rows = [competitor_trials(approx, 2, rng)[1] for _ in range(100)]
        values = mu_functional(spec, approx.basis, rows, GRID, extended=False)
        assert values.shape == (100,)
        assert np.all(values >= floor - 1e-12)


def callable_mu(spec, rational, grid, extended=False):
    """Reference: mu as it was computed from a callable R, on the whole grid
    at once."""
    nodes = circle_grid(grid.node_count, extended=True).nodes if extended else grid.nodes
    values = sample_on_nodes(rational, nodes)
    kernel = spec.bergman(nodes)
    error = kernel - values / (1.0 - nodes * np.conj(spec.w))
    return float(np.mean(np.abs(error) ** 2))


INEQUALITY_CONFIGS = [
    (KernelSpec(0, 0.3), [0.2]),
    (KernelSpec(0, 0.5), [0j]),
    (KernelSpec(1, complex(0.5 * np.cos(np.pi / 5), 0.5 * np.sin(np.pi / 5))), [0.3, -0.2j]),
    (KernelSpec(2, 0.6j), [0.25]),
]


class TestMuRows:
    """mu_functional scores coefficient rows; the row of an approximant must
    score as the callable route scored Approximant.eval."""

    @pytest.mark.parametrize(
        "spec, free, nodes, extended, stored",
        [
            # the expansion grid of an ordinary request, with and without a
            # stored design matrix, in doubles and in long double
            (KernelSpec(1, 0.4 - 0.3j), [0.3, -0.5j, 0.2 + 0.6j], None, False, False),
            (KernelSpec(1, 0.4 - 0.3j), [0.3, -0.5j, 0.2 + 0.6j], None, False, True),
            (KernelSpec(0, 0.1), [0j] * 5, None, True, False),
            (KernelSpec(3, 0.2 + 0.1j), [0.5, 0.5, -0.3j], None, True, True),
            # escalated to 2^15 nodes, two parts added pairwise
            (KernelSpec(2, 0.99j), [0.3, -0.4], None, False, False),
            (KernelSpec(2, 0.99j), [0.3, -0.4], None, True, False),
            # four parts; and grids of other sizes, whose squares are kept whole
            (KernelSpec(1, 0.5), [0.2j, 0.7], 2**16, False, False),
            (KernelSpec(1, 0.5), [0.2j, 0.7], NODE_CHUNK + 64, False, False),
            (KernelSpec(1, 0.5), [0.2j, 0.7], 3 * NODE_CHUNK, True, False),
        ],
    )
    def test_approximant_row_scores_as_its_eval(self, spec, free, nodes, extended, stored):
        approx = build_approximant(spec, free)
        if nodes is None:
            nodes = approx.expansion.grid_size
            assert nodes == (2**15 if abs(spec.w) == 0.99 else 4096)
        grid = circle_grid(nodes)
        if stored:
            approx.basis.design_matrix(circle_grid(nodes, extended=extended))
        reference = callable_mu(spec, approx.eval, grid, extended)
        value = mu_functional(spec, approx.basis, approx.coefficients, grid, extended=extended)
        assert type(value) is float
        assert value == reference

    @pytest.mark.parametrize("extended", [False, True])
    @pytest.mark.parametrize("spec, free", INEQUALITY_CONFIGS)
    def test_batch_matches_rows_scored_alone(self, spec, free, extended):
        approx = build_approximant(spec, free)
        rows = competitor_trials(approx, 12, np.random.default_rng(23))
        batched = mu_functional(spec, approx.basis, rows, GRID, extended=extended)
        assert isinstance(batched, np.ndarray) and batched.shape == (12,)
        alone = np.array(
            [mu_functional(spec, approx.basis, row, GRID, extended=extended) for row in rows]
        )
        if extended:
            # long double has no BLAS product: each row sums as it does alone
            assert np.array_equal(batched, alone)
        else:
            # the products of a batch and of one row round apart in their
            # last bits
            assert np.all(np.abs(batched - alone) <= 1e-13 * alone)

    def test_verify_lattice_batch_rounds_within_a_hundredth_of_the_bound(self):
        # verify scores each lattice point's approximant together with its
        # LSQ solution; the approximant's value must stay the one approximate
        # prints (one row) to well under the 1e-10 bound of quadratic_exactness
        checked = {False: 0, True: 0}
        for alpha, n, w_index, modulus, draw in verify._quadratic_lattice():
            if n > alpha + 7:
                continue
            rng = np.random.default_rng([verify._LATTICE_SEED, alpha, n, w_index, draw])
            spec = KernelSpec(alpha, verify._random_w(rng, modulus))
            free = PoleSequence.random(n - alpha, rng=rng, max_modulus=0.85)
            approx = build_approximant(spec, free)
            mu_closed = mu_min_closed_form(spec, free)
            extended = extended_mu(mu_closed)
            problem = verify.LeastSquaresProblem.build(spec, approx.basis, GRID)
            lsq = verify.lsq_minimize(problem).coefficients
            batch = mu_functional(
                spec, approx.basis, [approx.coefficients, lsq], GRID, extended=extended
            )[0]
            alone = mu_functional(
                spec, approx.basis, approx.coefficients, GRID, extended=extended
            )
            if extended:
                assert batch == alone
            else:
                assert abs(batch - alone) <= 1e-12 * mu_closed
            checked[extended] += 1
        assert checked[False] > 100 and checked[True] > 10

    def test_verify_refuses_an_lsq_grid_apart_from_the_expansion_grid(self, monkeypatch):
        monkeypatch.setattr(verify, "circle_grid", lambda count: circle_grid(2 * count))
        with pytest.raises(RuntimeError, match="mu grid 4096 is not the LSQ grid"):
            verify._check_quadratic_group()

    def test_non_finite_row_names_the_node_of_the_callable_route(self):
        spec = KernelSpec(0, 0.3 + 0.4j)
        basis = TMBasis([0j, 0j, 0j])
        grid = circle_grid(2**16)
        nodes = grid.nodes
        # R overflows where a row weights a huge value: row 0 in the second
        # part, row 1 earlier, in the first; the first row is reported
        design = np.array(basis.design_matrix(grid))
        design[NODE_CHUNK + 5000, 1] = 1e300
        design[5, 2] = 1e300
        design.setflags(write=False)
        basis._designs[id(nodes)] = (nodes, design)
        rows = np.array([[0.1, 1e10, 0.0], [0.1, 0.0, 1e10], [0.1, 0.1, 0.1]], dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteIntegrand) as reference:
                callable_mu(spec, competitor_function(basis, spec.w, rows[0]), grid)
            with pytest.raises(NonFiniteIntegrand) as raised:
                mu_functional(spec, basis, rows, grid, extended=False)
        assert reference.value.node_index == NODE_CHUNK + 5000
        assert raised.value.node_index == reference.value.node_index
        assert not cmath.isfinite(raised.value.value)

    @pytest.mark.parametrize("spec, free", INEQUALITY_CONFIGS)
    def test_gram_recovers_the_quadrature_expansion(self, spec, free):
        # verify's Parseval check recovers the ratio coefficients of each
        # trial as the row times the discrete Gram matrix; the old route
        # expanded R / (1 - x conj(w)) by quadrature on the same grid
        approx = build_approximant(spec, free)
        basis = approx.basis
        trials = competitor_trials(approx, 100, np.random.default_rng(17))
        recovered = trials @ basis.gram_matrix(GRID)
        for row, coefficients in zip(trials, recovered):
            rational = competitor_function(basis, spec.w, row)
            expansion = expand_function(
                lambda x: rational(x) / (1.0 - x * np.conj(spec.w)), basis, GRID
            )
            assert np.max(np.abs(expansion.coefficients - coefficients)) <= 1e-13

    def test_101_rows_peak_within_one_block(self):
        # verify's inequality group scores the optimum and 100 trials in one
        # call on a grid whose design matrix is stored: the rows go in blocks
        # of m, so the call holds about one m x N block, where the whole
        # batch at once would take 101 x N
        spec = KernelSpec(1, 0.4 + 0.2j)
        free = PoleSequence.random(18, np.random.default_rng(1), max_modulus=0.8)
        approx = build_approximant(spec, free)
        count = approx.basis.size
        approx.basis.design_matrix(GRID)
        rows = np.vstack(
            [approx.coefficients, competitor_trials(approx, 100, np.random.default_rng(2))]
        )
        block = count * GRID.node_count * 16
        tracemalloc.start()
        try:
            mu_functional(spec, approx.basis, rows, GRID, extended=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 20 and len(rows) == 101
        assert peak < 1.5 * block


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
        variation = equimodularity_variation(
            spec, approx.basis, approx.coefficients, circle_grid(2**12)
        )
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


def grid_brackets(error):
    """Whole-array reference of the streamed grid brackets: for each row of
    error moduli (last axis N), its first largest node j, the angles of
    j - 1, j, j + 1 and the moduli there, the neighbours wrapping mod N."""
    error = np.atleast_2d(error)
    count = error.shape[-1]
    index = np.argmax(error, axis=-1)
    near = index + np.arange(-1, 2)[:, None]
    values = error[np.arange(len(error)), near % count]
    return index, (2.0 * np.pi / count) * near, values


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
        index, points, moduli = grid_brackets(np.abs(kernel - values))
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
        expected = per_trial_schedule(approx, 100, np.random.default_rng(seed))
        rows = competitor_trials(approx, 100, np.random.default_rng(seed))
        assert np.array_equal(rows, expected)


def per_trial_schedule(approx, trials, rng):
    """Reference: the competitor schedule as it was drawn, two calls of
    standard_normal(m) per trial."""
    optimum = approx.coefficients
    scale = float(np.max(np.abs(optimum)))
    rows = np.empty((int(trials), len(optimum)), dtype=complex)
    for trial in range(len(rows)):
        if trial == 0:
            rows[trial] = optimum
        elif trial % 2 == 1:
            noise = rng.standard_normal(len(optimum)) + 1j * rng.standard_normal(len(optimum))
            rows[trial] = optimum + _NOISE_SCALE * scale * noise
        else:
            rows[trial] = scale * (
                rng.standard_normal(len(optimum)) + 1j * rng.standard_normal(len(optimum))
            )
    return rows


@pytest.fixture(scope="module")
def approximants_of_every_size():
    """Approximants with m = 1 to 40 coefficients."""
    rng = np.random.default_rng(40)
    out = []
    for m in range(1, 41):
        alpha = m % 3 if m > 2 else 0
        spec = KernelSpec(alpha, complex(random_disk_points(rng, 1, 0.8)[0]))
        free = PoleSequence.random(m - alpha - 1, rng=rng, max_modulus=0.85)
        out.append(build_approximant(spec, free))
    return out


@pytest.mark.parametrize("trials", [1, 2, 100])
@pytest.mark.parametrize("seed", [0, 42, 20260810])
def test_one_draw_gives_the_per_trial_schedule(approximants_of_every_size, trials, seed):
    for approx in approximants_of_every_size:
        rows = competitor_trials(approx, trials, np.random.default_rng(seed))
        reference = per_trial_schedule(approx, trials, np.random.default_rng(seed))
        assert rows.shape == reference.shape == (trials, len(approx.coefficients))
        assert rows.tobytes() == reference.tobytes()
    assert [len(a.coefficients) for a in approximants_of_every_size] == list(range(1, 41))


class TestStreamedBrackets:
    """The grid pass of nu_functional reduces NODE_CHUNK nodes at a time; its
    brackets must equal those of the whole grid."""

    N = 2**16

    def stream(self, error, block):
        trials, count = error.shape
        tracker = bergman_approx._GridBrackets(trials, count)
        for start in range(0, count, NODE_CHUNK):
            for first in range(0, trials, block):
                rows = slice(first, first + block)
                tracker.feed(rows, start, error[rows, start : start + NODE_CHUNK])
        return tracker.brackets()

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_peaks_at_chunk_edges_and_ties(self, block):
        c, n = NODE_CHUNK, self.N
        peaks = [0, n - 1, c - 1, c, 2 * c, c + 1, 4 * c - c // 2]
        error = np.random.default_rng(5).uniform(0.0, 1.0, (len(peaks) + 2, n))
        for row, j in enumerate(peaks):
            error[row, j] = 2.0
        # ties across two chunks, and across a chunk edge: the first node wins
        error[len(peaks), [100, c + 100]] = 2.0
        error[len(peaks) + 1, [c - 1, 2 * c]] = 2.0
        for got, want in zip(self.stream(error, block), grid_brackets(error)):
            assert np.array_equal(got, want)

    def test_many_ties(self):
        error = np.random.default_rng(6).integers(0, 4, (8, self.N)).astype(float)
        for got, want in zip(self.stream(error, 3), grid_brackets(error)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("count", [1, 2, 4096])
    def test_one_part(self, count):
        error = np.random.default_rng(7).uniform(0.0, 1.0, (5, count))
        error[0, 0] = error[1, -1] = 2.0
        for got, want in zip(self.stream(error, 5), grid_brackets(error)):
            assert np.array_equal(got, want)

    def test_non_finite_names_the_node_of_the_whole_grid_pass(self):
        spec = KernelSpec(0, 0.3 + 0.4j)
        basis = TMBasis([0j, 0j, 0j])
        grid = circle_grid(self.N)
        nodes = grid.nodes
        # R overflows where a row weights a huge value: row 0 in the second
        # chunk, and row 1 earlier, in the first; the pass reads the chunks
        # of this stored matrix
        design = np.array(basis.design_matrix(grid))
        design[NODE_CHUNK + 5000, 1] = 1e300
        design[5, 2] = 1e300
        design.setflags(write=False)
        basis._designs[id(nodes)] = (nodes, design)
        rows = np.array([[0.1, 1e10, 0.0], [0.1, 0.0, 1e10], [0.1, 0.1, 0.1]], dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            error = (1.0 - nodes * np.conj(spec.w)) * (rows @ design.T)
            with pytest.raises(NonFiniteIntegrand) as raised:
                nu_functional(spec, basis, rows, grid)
        bad = ~np.isfinite(error)
        row, node = np.unravel_index(int(np.argmax(bad)), bad.shape)
        assert (row, node) == (0, NODE_CHUNK + 5000)
        assert raised.value.node_index == node
        assert not cmath.isfinite(raised.value.value)


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


class TestParsevalGap:
    def test_gap_equals_coefficient_distance(self):
        spec = KernelSpec(1, 0.5)
        approx = build_approximant(spec, [0.3])
        rng = np.random.default_rng(7)
        rows = np.array([competitor_trials(approx, 2, rng)[1] for _ in range(10)])
        base, *values = mu_functional(
            spec, approx.basis, np.vstack([approx.coefficients, rows]), GRID, extended=False
        )
        recovered = rows @ approx.basis.gram_matrix(GRID)
        for value, coefficients in zip(values, recovered):
            sq = float(np.sum(np.abs(coefficients - approx.coefficients) ** 2))
            assert abs(value - base - sq) < 1e-10


class TestQuadraticUniformBound:
    def test_quadratic_bounded_by_uniform(self):
        spec = KernelSpec(1, 0.45)
        approx = build_approximant(spec, [0.2, -0.3j])
        rng = np.random.default_rng(13)
        nu_grid = circle_grid(2**13)
        rows = [approx.coefficients]
        rows += [competitor_trials(approx, 2, rng)[1] for _ in range(29)]
        mu = mu_functional(spec, approx.basis, rows, GRID, extended=False)
        nu = nu_functional(spec, approx.basis, rows, nu_grid)
        assert np.all(mu * (1 - abs(spec.w) ** 2) <= nu**2 + 1e-12)


def spy_on_mu(monkeypatch) -> list[bool]:
    """Record the extended flag of every mu_functional call that
    build_error_report makes."""
    calls = []
    real = bergman_approx.mu_functional

    def mu_functional(spec, basis, coefficients, grid, *, extended):
        calls.append(extended)
        return real(spec, basis, coefficients, grid, extended=extended)

    monkeypatch.setattr(bergman_approx, "mu_functional", mu_functional)
    return calls


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

    @pytest.mark.parametrize(
        "alpha, w, free",
        [
            (0, 0.5, [0.3, 0.5]),
            (2, 0.7 + 0.2j, [0.3, 0.7 + 0.2j, -0.5j]),
            (3, -0.9j, [-0.9j] * 3 + [0.2]),
            (1, 0.95, [0.95, 0.1]),
        ],
    )
    def test_zero_minimum_takes_mu_in_doubles(self, alpha, w, free, monkeypatch):
        # B(w) = 0 makes mu_min exactly zero: there is no relative tolerance
        # for long double to keep, and mu in doubles stays at rounding level
        spec = KernelSpec(alpha, w)
        calls = spy_on_mu(monkeypatch)
        report = build_error_report(spec, free)
        assert report.mu_closed_form == 0.0
        assert calls == [False]
        # scaled as the benchmark's gate scales it: by the sup of the
        # approximated function (1 - x conj(w))^-(1+alpha) on the circle
        sup_kernel = float(np.max(np.abs(spec.cauchy_power(GRID.nodes))))
        assert report.mu_quadrature <= 1e-20 * max(1.0, sup_kernel**2)

    def test_tiny_nonzero_minimum_takes_mu_in_long_double(self, monkeypatch):
        spec = KernelSpec(0, 0.1)
        calls = spy_on_mu(monkeypatch)
        report = build_error_report(spec, [0j] * 5)
        assert report.mu_closed_form == pytest.approx(1.03e-12, rel=1e-2)
        assert calls == [True]

    def test_the_rule(self):
        assert not extended_mu(0.0)
        assert extended_mu(1e-300)
        assert extended_mu(np.nextafter(EXTENDED_MU_CUTOFF, 0.0))
        assert not extended_mu(EXTENDED_MU_CUTOFF)

    def test_verify_takes_the_same_rule(self, monkeypatch):
        seen = []

        class Seen(Exception):
            pass

        def rule(mu_min):
            seen.append(mu_min)
            raise Seen  # the first configuration is enough

        monkeypatch.setattr(verify, "extended_mu", rule)
        with pytest.raises(Seen):
            verify._check_quadratic_group()
        assert len(seen) == 1 and seen[0] > 0.0

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_validate_rejects_bad_values(self, bad):
        report = build_error_report(KernelSpec(0, 0.5), [0j])
        report.mu_quadrature = bad
        with pytest.raises(ValueOutOfRange):
            report.validate()

    def test_over_the_design_cap_raises_before_the_nu_pass(self, monkeypatch):
        # The nu pass evaluates the basis one chunk at a time.  With 64
        # functions one chunk's block is 16 MiB, where the whole 2^16-node
        # block would be 64 MiB; the grid's nodes are cached beforehand.
        spec = KernelSpec(0, 0.5)
        approx = build_approximant(spec, [0.3] * 63)
        grid = circle_grid(NU_GRID_NODES)
        block = 64 * NODE_CHUNK * 16
        tracemalloc.start()
        try:
            nu_functional(spec, approx.basis, approx.coefficients, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert block < peak < block + block // 2
        # A cap of half that block admits the mu pass, on 4096 nodes in long
        # double here (8 MiB), and refuses the nu pass before it allocates.
        monkeypatch.setattr(tm_basis, "MAX_DESIGN_BYTES", block // 2)
        tracemalloc.start()
        try:
            with pytest.raises(DesignTooLarge, match="16384 points by 64 functions"):
                build_error_report(spec, [0.3] * 63)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < block


def callable_equimodularity(spec, rational, grid):
    """equimodularity_variation as it was, on a callable: the reference the
    row route must reproduce to the bit."""
    values = sample_on_nodes(rational, grid.nodes)
    error = np.abs(spec.cauchy_power(grid.nodes) - values)
    top = float(np.max(error))
    if top == 0.0:
        return 0.0
    return float((top - float(np.min(error))) / top)


def verify_equimodularity_approximants():
    """The four approximants of verify's equimodularity check."""
    out = []
    for alpha in (0, 1, 2, 3):
        rng = np.random.default_rng([verify._LATTICE_SEED + 2, alpha])
        spec = KernelSpec(alpha, verify._random_w(rng, 0.55))
        free = PoleSequence.random(2, rng=rng, max_modulus=0.6, min_modulus=0.2)
        out.append(build_approximant(spec, free))
    return out


class TestEquimodularityRows:
    @pytest.mark.parametrize("nodes", [4096, 2**14, 2**16])
    def test_rows_match_the_callable_route_to_the_bit(self, nodes):
        grid = circle_grid(nodes)
        approximants = verify_equimodularity_approximants()
        for approx in approximants:
            row = equimodularity_variation(approx.spec, approx.basis, approx.coefficients, grid)
            assert row == callable_equimodularity(approx.spec, approx.eval, grid)
            assert row < 1e-9
        # a perturbed competitor: its eval is that of an approximant whose
        # expansion holds the trial's coefficients
        approx = approximants[2]
        trial = competitor_trials(approx, 2, np.random.default_rng(5))[1]
        expansion = FourierExpansion(approx.basis, trial, "trial", nodes)
        competitor = replace(approx, expansion=expansion)
        row = equimodularity_variation(approx.spec, approx.basis, trial, grid)
        assert row == callable_equimodularity(approx.spec, competitor.eval, grid)
        assert row > 1e-3

    def test_a_matrix_gives_one_value_per_row(self):
        approx = verify_equimodularity_approximants()[1]
        rows = competitor_trials(approx, 5, np.random.default_rng(3))
        grid = circle_grid(4096)
        values = equimodularity_variation(approx.spec, approx.basis, rows, grid)
        assert values.shape == (5,)
        single = [equimodularity_variation(approx.spec, approx.basis, r, grid) for r in rows]
        assert values == pytest.approx(single, rel=1e-12)

    def test_a_zero_error_has_no_variation(self):
        # alpha = 0, w = 0: the Cauchy power is 1 and the row [1] over a
        # zero pole is R = 1, so the error vanishes on every node
        spec = KernelSpec(0, 0j)
        assert equimodularity_variation(spec, TMBasis([0j]), [1.0], circle_grid(256)) == 0.0


class TestErrorRowNames:
    def test_one_name_list_feeds_every_format(self):
        assert ErrorReport.VALUE_NAMES == (
            "mu_quad", "mu_closed", "nu_grid", "nu_closed", "max_interp_residual",
        )
        assert ErrorReport.CSV_HEADER == (
            "n,alpha,w_re,w_im,mu_quad,mu_closed,nu_grid,nu_closed,max_interp_residual"
        )
        report = build_error_report(KernelSpec(1, 0.5 + 0.2j), [0.3, -0.4j])
        assert report.values == (
            report.mu_quadrature,
            report.mu_closed_form,
            report.nu_grid,
            report.nu_closed_form,
            report.max_interp_residual,
        )
        assert sorted(report.to_json_dict()) == [
            "alpha", "degenerate_w_zero", "free_pole_matches_w", "free_poles",
            "max_interp_residual", "mu_closed", "mu_quad", "n", "nu_closed", "nu_grid", "w",
        ]
        assert report.csv_cells()[2:] == [f"{v:.17g}" for v in report.values]


class TestTrialBound:
    def test_over_the_cap_raises_before_allocating(self):
        approx = build_approximant(KernelSpec(0, 0.5), [0.1])
        tracemalloc.start()
        try:
            with pytest.raises(DesignTooLarge, match="10000000000000 trials by 2 coefficients"):
                competitor_trials(approx, 10**13, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    def test_the_cap_counts_the_schedule_and_its_draws(self, monkeypatch):
        approx = build_approximant(KernelSpec(0, 0.5), [0.1])  # m = 2
        # 100 trials: 100 complex rows and 99 pairs of real draws of 2 entries
        size = 16 * 2 * (100 + 99)
        monkeypatch.setattr(bergman_approx, "MAX_DESIGN_BYTES", size)
        assert competitor_trials(approx, 100, np.random.default_rng(0)).shape == (100, 2)
        monkeypatch.setattr(bergman_approx, "MAX_DESIGN_BYTES", size - 1)
        with pytest.raises(DesignTooLarge, match=f"needs {size} bytes"):
            competitor_trials(approx, 100, np.random.default_rng(0))
