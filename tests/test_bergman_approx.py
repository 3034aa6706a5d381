import cmath
import json
import math
import re
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diskrat import (
    BlaschkeProduct,
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
    competitor_trials,
    derivative_at,
    equimodularity_variation,
    interpolation_target,
    mu_functional,
    mu_min_closed_form,
    nu_functional,
    nu_min_closed_form,
    uniform_competitor_scan,
)
from diskrat import bergman_approx, circlequad, tm_basis, verify
from diskrat.bergman_approx import (
    EXTENDED_MU_CUTOFF,
    NU_GRID_NODES,
    _GOLDEN,
    _NOISE_SCALE,
    _REFINE_ITERS,
    _golden_max,
    competitor_function,
    extended_mu,
)
from diskrat.circlequad import json_complex, random_disk_points, sample_on_nodes
from diskrat.expansion import FourierExpansion, expand_function
from diskrat.kernels import reciprocal_power
from diskrat.tm_basis import NODE_CHUNK, PIECE_NODES

GRID = circle_grid(4096)


class TestBuild:
    def test_trailing_block_structure(self):
        approx = build_approximant(KernelSpec(1, 0.4), [0.3])
        assert approx.n == 2
        assert approx.basis.poles == (0.3, 0.4, 0.4)
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

    def test_phase_freedom(self, monkeypatch):
        spec = KernelSpec(1, 0.4)
        approx = build_approximant(spec, [0.3, -0.2j])
        z = 0.25 - 0.3j
        expected = approx.eval_closed_form(z)

        class Rotated(BlaschkeProduct):
            def __call__(self, z):
                return np.exp(0.9j) * super().__call__(z)

        # a free product times the unimodular constant e^{0.9i}
        monkeypatch.setattr(bergman_approx, "BlaschkeProduct", Rotated)
        shifted = build_approximant(spec, [0.3, -0.2j])
        assert isinstance(shifted.free_blaschke, Rotated)
        assert shifted.eval_closed_form(z) == pytest.approx(expected, abs=1e-15)


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
            # 171! is not a double
            (0, [0j] * 172, 171),
            # nor is any later row, past the end of the Taylor table
            (0, [0j] * 300, 171),
            # (alpha+1)...(alpha+164) is not a double: the target is NaN
            (10, [0j] * 165, 164),
        ],
    )
    def test_rows_past_the_double_range_are_refused(self, alpha, free, row):
        approx = build_approximant(KernelSpec(alpha, 0.5), free)
        with pytest.raises(ValueOutOfRange, match=f"interpolation row {row} "):
            approx.interpolation_residuals()

    @pytest.mark.parametrize("w", [0.5, 0j])
    def test_an_alpha_past_the_factorial_range_is_refused_at_build(self, w, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a basis was built")

        monkeypatch.setattr(TMBasis, "__init__", never)
        with pytest.raises(ValueOutOfRange, match="^alpha 171 is above 170: "):
            build_approximant(KernelSpec(171, w), [0j, 0j])

    def test_rows_past_the_taylor_table_are_nan(self):
        approx = build_approximant(KernelSpec(0, 0.5), [0j] * 180)
        values, scales = approx.pole_derivatives
        assert np.isnan(values[172:180]).all() and np.isnan(scales[172:180]).all()
        assert not np.isfinite(values[171])
        assert np.isfinite(values[:171]).all() and np.isfinite(values[180])

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


def _old_ring_value(f, a, order: int, n: int) -> complex:
    """derivative_at's ring of n nodes as it was written before it took its
    mean through integrate_circle: f sampled, then divided by t^order."""
    radius = (1.0 - abs(a)) / 2.0
    scale = math.factorial(order) / radius**order
    nodes = circle_grid(n)
    values = sample_on_nodes(lambda t: f(a + radius * t), nodes)
    if order:
        values = values * nodes ** (-order)
    return complex(values.mean()) * scale


def test_derivative_rings_keep_every_bit(monkeypatch):
    # every pole of verify's interpolation check, at order 0 and at its
    # multiplicity less one, on rings of 256 to 4096 nodes: with an infinite
    # tolerance derivative_at returns its second ring, of twice the start
    monkeypatch.setattr(circlequad, "_DERIVATIVE_TOL", np.inf)
    for alpha, w, free in verify._approximant_configs():
        approx = build_approximant(KernelSpec(alpha, w), PoleSequence(free))
        poles = approx.basis.poles
        for a, s in zip(poles, poles.multiplicities):
            for order in sorted({0, s - 1}):
                for n in (256, 512, 1024, 2048, 4096):
                    monkeypatch.setattr(circlequad, "_DERIVATIVE_START_NODES", n // 2)
                    got = derivative_at(approx.eval_closed_form, a, order=order)
                    want = _old_ring_value(approx.eval_closed_form, complex(a), order, n)
                    assert np.array(got).tobytes() == np.array(want).tobytes()


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


def callable_squares(spec, rational, grid, extended=False):
    """The squares |K - R/(1 - x conj(w))|^2 of a callable R, evaluated on
    the whole grid at once."""
    nodes = circle_grid(len(grid), extended=True) if extended else grid
    values = sample_on_nodes(rational, nodes)
    kernel = spec.bergman(nodes)
    error = kernel - values / (1.0 - nodes * np.conj(spec.w))
    return np.abs(error) ** 2


def callable_mu(spec, rational, grid, extended=False):
    """Reference: mu from a callable R, its squares summed NODE_CHUNK nodes
    at a time and the parts added in node order."""
    squares = callable_squares(spec, rational, grid, extended)
    total = squares.dtype.type(0.0)
    for start in range(0, len(squares), NODE_CHUNK):
        total += np.add.reduce(squares[start : start + NODE_CHUNK])
    return float(total / len(squares))


def spy_chunks(monkeypatch, basis):
    """The first node of every part the grid passes read from basis."""
    read = []
    chunks = basis.eval_chunks

    def spy(nodes, count=None):
        for part, phi in chunks(nodes, count):
            read.append(part.start)
            yield part, phi

    monkeypatch.setattr(basis, "eval_chunks", spy)
    return read


def doctored_basis(grid, node=NODE_CHUNK + 5000):
    """A basis of three monomials whose stored design matrix on grid holds
    1e300 at the given node of phi_1 and at node 5 of phi_2, and rows that
    weight them: R of row 0 overflows at that node only, by default in the
    second part, R of row 1 in the first part, at node 5."""
    basis = TMBasis([0j, 0j, 0j])
    nodes = grid
    design = np.array(basis.design_matrix(grid))
    design[node, 1] = 1e300
    design[5, 2] = 1e300
    design.setflags(write=False)
    basis._designs[id(nodes)] = (nodes, design)
    rows = np.array([[0.1, 1e10, 0.0], [0.1, 0.0, 1e10], [0.1, 0.1, 0.1]], dtype=complex)
    return basis, rows


INEQUALITY_CONFIGS = [
    (KernelSpec(0, 0.3), [0.2]),
    (KernelSpec(0, 0.5), [0j]),
    (KernelSpec(1, complex(0.5 * np.cos(np.pi / 5), 0.5 * np.sin(np.pi / 5))), [0.3, -0.2j]),
    (KernelSpec(2, 0.6j), [0.25]),
]


class TestMuRows:
    """mu_functional scores coefficient rows; the row of an approximant must
    score as the callable route from Approximant.eval, summed part by part."""

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
            # four parts; and grids of other sizes, whose last part is shorter
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
        # numpy's pairwise sum splits a row of 2 NODE_CHUNK nodes at NODE_CHUNK,
        # so on one or two whole parts the value is numpy's mean of the row
        mean = float(np.mean(callable_squares(spec, approx.eval, grid, extended)))
        if nodes <= NODE_CHUNK or nodes == 2 * NODE_CHUNK:
            assert value == mean
        else:
            assert abs(value - mean) <= 4 * np.spacing(mean)

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
        # a batch multiplies the basis by its rows, one row is summed in
        # nested form: they round apart in their last bits, in long double too
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
            # the batch's matrix product and the row's nested sum round apart
            assert abs(batch - alone) <= 1e-12 * mu_closed
            checked[extended] += 1
        assert checked[False] > 100 and checked[True] > 10

    def test_verify_builds_each_lsq_problem_on_the_expansion_grid(self, monkeypatch):
        built, problems = [], []
        build_approximant, build = verify.build_approximant, verify.LeastSquaresProblem.build

        def approximant(spec, free):
            built.append(build_approximant(spec, free))
            return built[-1]

        def problem(spec, basis, grid):
            problems.append((basis, grid))
            return build(spec, basis, grid)

        monkeypatch.setattr(verify, "build_approximant", approximant)
        monkeypatch.setattr(verify.LeastSquaresProblem, "build", problem)
        verify._check_quadratic_group()
        assert len(problems) == len(built) > 100
        for approx, (basis, grid) in zip(built, problems):
            assert basis is approx.basis
            assert len(grid) == approx.expansion.grid_size

    def test_the_first_non_finite_part_row_and_node_are_named(self, monkeypatch):
        spec = KernelSpec(0, 0.3 + 0.4j)
        grid = circle_grid(2**16)
        basis, rows = doctored_basis(grid)
        read = spy_chunks(monkeypatch, basis)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteIntegrand) as raised:
                mu_functional(spec, basis, rows, grid, extended=False)
        # row 1 fails in the first part, before row 0 fails in the second,
        # which is never read
        assert raised.value.node_index == 5
        assert not cmath.isfinite(raised.value.value)
        assert read == [0]

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
        block = count * len(GRID) * 16
        tracemalloc.start()
        try:
            mu_functional(spec, approx.basis, rows, GRID, extended=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 20 and len(rows) == 101
        assert peak < 1.5 * block

    def test_101_rows_on_two_parts_peak_within_two_part_blocks(self):
        # on a grid of several parts the rows' sums are added part by
        # part: no rows x N block of squares is kept beside the errors.
        # The errors are one m x PIECE_NODES part, a quarter of an
        # m x NODE_CHUNK block, read in place from the stored matrix; the
        # part's kernel and multiplier add 2 x 2^12 x 16 bytes
        spec = KernelSpec(1, 0.4 + 0.2j)
        free = PoleSequence.random(18, np.random.default_rng(1), max_modulus=0.8)
        approx = build_approximant(spec, free)
        count = approx.basis.size
        grid = circle_grid(2 * NODE_CHUNK)
        approx.basis.design_matrix(grid)
        rows = np.vstack(
            [approx.coefficients, competitor_trials(approx, 100, np.random.default_rng(2))]
        )
        block = count * NODE_CHUNK * 16
        tracemalloc.start()
        try:
            mu = mu_functional(spec, approx.basis, rows, grid, extended=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 20 and mu.shape == (101,)
        assert peak < 0.5 * block


class TestClosedFormMinima:
    @pytest.mark.parametrize("alpha", [0, 3])
    @pytest.mark.parametrize("free", [[], [0.3, -0.2j], [0j]], ids=["none", "two", "zero"])
    def test_mu_min_degenerate(self, alpha, free):
        # +0.0 at w = 0, whatever the free poles
        value = mu_min_closed_form(KernelSpec(alpha, 0j), free)
        assert type(value) is float and value == 0.0 and math.copysign(1.0, value) == 1.0

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
        for alpha in (0, 3):
            for free in ([], [0.3, -0.2j], [0j]):
                value = nu_min_closed_form(KernelSpec(alpha, 0j), free)
                assert type(value) is float and value == 0.0
                assert math.copysign(1.0, value) == 1.0
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
    error = np.abs(spec.cauchy_power(grid) - rational(grid))
    j = int(np.argmax(error))
    step = 2.0 * np.pi / len(grid)
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
        spec = KernelSpec(0, 0.5 * np.exp(2j * np.pi * offset / len(grid)))
        assert np.argmax(np.abs(spec.cauchy_power(grid))) == node
        basis = TMBasis([0j])
        grid_max = float(np.max(np.abs(spec.cauchy_power(grid))))
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
                KernelSpec(1, complex(0.7916166458442855, -0.5965916033172038)),
                [complex(0.09627720635406925, 0.613034424130815)],
                True,
            ),
            # the grid maximum, which error *= multiplier would round apart
            (KernelSpec(1, complex(0.3, 0.4)), [0j] * 6, False),
        ],
    )
    def test_approximant_row_scores_as_its_eval(self, spec, free, refined):
        approx = build_approximant(spec, free)
        grid = circle_grid(NU_GRID_NODES)
        values = approx.eval(grid)
        kernel = spec.cauchy_power(grid)
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

    @pytest.mark.parametrize("count, stored", [(4096, True), (NODE_CHUNK, False)])
    def test_a_batch_forms_no_basis_block_after_its_grid_pass(self, count, stored, monkeypatch):
        spec, free, seed = SCAN_CONFIGS[2]
        approx = build_approximant(spec, free)
        basis, grid = approx.basis, circle_grid(count)
        if stored:
            basis.design_matrix(grid)
        rows = competitor_trials(approx, 40, np.random.default_rng(seed))
        refining, blocks, live, summed = [False], [], [], []

        def guard(method):
            def guarded(*args, **kwargs):
                if refining[0]:
                    raise AssertionError(f"{method.__name__} called in the refinement")
                blocks.append(method.__name__)
                return method(*args, **kwargs)

            return guarded

        def spy_sum(coefficients, z, sums=basis.eval_sum):
            if refining[0]:
                summed.append((np.shape(coefficients), np.shape(z)))
            return sums(coefficients, z)

        def golden_max(f, points, values, floor, refine=bergman_approx._golden_max):
            refining[0] = True

            def counted(t):
                live.append(int(np.count_nonzero(~np.isnan(t))))
                return f(t)

            return refine(counted, points, values, floor)

        monkeypatch.setattr(basis, "eval_all", guard(basis.eval_all))
        monkeypatch.setattr(basis, "eval_chunks", guard(basis.eval_chunks))
        monkeypatch.setattr(basis, "eval_sum", spy_sum)
        monkeypatch.setattr(bergman_approx, "_golden_max", golden_max)
        nu_functional(spec, approx.basis, rows, grid)
        # the grid pass reads the stored matrix or evaluates its one part
        assert blocks == (["eval_chunks"] if stored else ["eval_chunks", "eval_all"])
        # trial 0, the optimum, is flat to rounding and takes no step
        assert len(live) > 0 and 0 < min(live) and max(live) < len(rows)
        m = len(approx.coefficients)
        assert summed == [((n, m), (n,)) for n in live]

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

    # A batch is checked as one row is, by each block's reduction: where that
    # is not finite, K's first non-finite node at the block's nodes is named,
    # else R's first such node of its first such row, R formed again since
    # the reduction wrote over it.  At w = 0.3 + 0.4j the multiplier has a
    # real part near 1.5 at nodes 9000 to 10610 of 16384, so R = 1.5e308
    # times it is inf there with a finite imaginary part, whose sign K - R
    # would flip.

    @staticmethod
    def overflowing_design(grid, entries):
        """A basis of three monomials whose stored design on grid holds
        1e300 at each (node, function) of entries."""
        basis = TMBasis([0j, 0j, 0j])
        design = np.array(basis.design_matrix(grid))
        for node, function in entries:
            design[node, function] = 1e300
        design.setflags(write=False)
        basis._designs[id(grid)] = (grid, design)
        return basis

    @pytest.mark.parametrize("functional", [
        nu_functional,
        lambda spec, basis, rows, grid: mu_functional(spec, basis, rows, grid, extended=False),
    ], ids=["nu", "mu"])
    def test_a_batch_names_its_first_non_finite_row_in_a_later_block(self, functional,
                                                                     monkeypatch):
        # 2m rows, two blocks of m = 3: only the second block's rows 4 and 5
        # overflow, at nodes 10610 and 9000 of the third 4096-node part.  Row
        # 4 is the first such row, so its node is named, not the earlier one
        # of row 5, and no later part is read
        grid = circle_grid(16384)
        basis = self.overflowing_design(grid, [(10610, 1), (9000, 2)])
        rows = np.zeros((6, 3), dtype=complex)
        rows[:, 0] = 0.1
        rows[4], rows[5] = [0, 1.5e8, 0], [0, 0, 1.5e8]
        read = spy_chunks(monkeypatch, basis)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteIntegrand) as raised:
                functional(KernelSpec(0, 0.3 + 0.4j), basis, rows, grid)
        assert raised.value.node_index == 10610
        assert repr(raised.value.value) == "(inf-2.873793556535387e+302j)"
        assert read == [0, 4096, 8192]

    def test_a_screened_row_is_refused_at_its_screened_node(self, monkeypatch):
        # nu_minimum scores rows 0 and 1 in full and screens rows 2 to 7 at
        # every 16th node: row 5 overflows at node 10608 = 16 x 663 only
        grid = circle_grid(16384)
        basis = self.overflowing_design(grid, [(10608, 1)])
        rows = np.zeros((8, 3), dtype=complex)
        rows[:, 0] = 0.1
        rows[5] = [0, 1.5e8, 0]
        spec = KernelSpec(0, 0.3 + 0.4j)
        assert np.isfinite(bergman_approx._screen_margins(spec, basis, rows)).all()
        read = spy_chunks(monkeypatch, basis)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteIntegrand) as raised:
                bergman_approx.nu_minimum(spec, basis, rows, grid)
        assert raised.value.node_index == 10608
        assert repr(raised.value.value) == "(inf-5.781165317644726e+304j)"
        assert read == [0, 4096, 8192]

    def test_an_error_that_overflows_only_in_its_reduction_warns_and_is_not_refused(self):
        # at w = 0, K = 1 and the multiplier is 1: R is each finite
        # coefficient, |K - R| of the last row overflows in the modulus,
        # silently, and the square of the second row's in mu, which warns
        # once per part of 2^14 nodes, as where K and R were checked before
        # reducing
        spec, basis, grid = KernelSpec(0, 0j), TMBasis([0j]), circle_grid(2**15)
        rows = np.array([[0.5], [1e200], [-1.5e308 - 1.5e308j]])
        for functional, want, messages in [
            (nu_functional, [0.5, 1e200, np.inf], []),
            (lambda *args: mu_functional(*args, extended=False), [0.25, np.inf, np.inf],
             ["overflow encountered in square"] * 2),
        ]:
            with warnings.catch_warnings(record=True) as caught, np.errstate(all="warn"):
                warnings.simplefilter("always")
                values = functional(spec, basis, rows, grid)
            assert values.tolist() == want
            assert [(w.category, str(w.message)) for w in caught] == [
                (RuntimeWarning, message) for message in messages
            ]
        with np.errstate(over="raise"), pytest.raises(FloatingPointError) as raised:
            mu_functional(spec, basis, rows, grid, extended=False)
        assert str(raised.value) == "overflow encountered in square"

    def test_a_batch_forms_r_before_its_kernel_is_checked(self):
        # K = (1 - x conj(w))^-171 overflows from node 1014 of 4096 (near
        # x = i), and R = 1.5e308 times the multiplier near x = -i: one part
        # holds both.  R is formed before the block's reduction checks K, as
        # in one row's pass, so R's overflow raises or warns first; where it
        # only warns, K's first non-finite node is named
        spec, basis, grid = KernelSpec(170, 0.999j), TMBasis([0j]), circle_grid(4096)
        rows = np.array([[1.5e308], [0.1]], dtype=complex)
        assert int(np.argmax(~np.isfinite(spec.cauchy_power(grid)))) == 1014
        with np.errstate(over="raise", invalid="ignore"):
            with pytest.raises(FloatingPointError) as error:
                nu_functional(spec, basis, rows, grid)
        assert str(error.value) == "overflow encountered in multiply"
        with warnings.catch_warnings(record=True) as caught, np.errstate(all="warn"):
            warnings.simplefilter("always")
            with pytest.raises(NonFiniteIntegrand) as refused:
                nu_functional(spec, basis, rows, grid)
        assert [(w.category, str(w.message)) for w in caught] == [
            (RuntimeWarning, "overflow encountered in multiply")
        ]
        assert refused.value.node_index == 1014
        assert repr(refused.value.value) == "(nan+infj)"

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
    """The grid pass of nu_functional reduces NODE_CHUNK nodes and a block of
    at most m rows at a time to each row's running maximum; the bracket that
    _golden_max receives must equal that of the whole grid."""

    N = 2**16

    @staticmethod
    def check(moduli, block, monkeypatch):
        """Drive rows whose error moduli on a grid of moduli.shape[1] nodes
        are given through nu_functional, and check what _golden_max receives
        against grid_brackets.  At w = 0, K = 1 and the multiplier is 1.  A
        basis of `block` functions makes the grid pass take blocks of
        `block` rows.  Each call scores at most `block` rows, once and then
        twice over, row i the indicator of function i, whose stored values
        on the grid are 1 - moduli; eval_sum, which sums one row and every
        bracket, reads the same values.  The moduli are dyadic, so every
        value is exact."""
        count = moduli.shape[1]
        grid = circle_grid(count)
        received = []

        def golden_max(f, points, values, floor):
            received.append((points, values))
            return values[1]

        monkeypatch.setattr(bergman_approx, "_golden_max", golden_max)
        for first in range(0, len(moduli), block):
            group = moduli[first : first + block]
            values = np.zeros((block, count))
            values[: len(group)] = 1.0 - group
            basis = TMBasis([0j] * block)
            basis._designs[id(grid)] = (grid, values.T)

            def table(coefficients, z, values=values, reciprocal=None):
                node = np.rint(np.angle(z) * (count / (2 * np.pi))).astype(int) % count
                return values[np.argmax(np.abs(coefficients), axis=-1), node].astype(complex)

            monkeypatch.setattr(basis, "eval_sum", table)
            for copies in (1, 2):
                rows = np.tile(np.eye(len(group), block), (copies, 1))
                nu_functional(KernelSpec(0, 0j), basis, rows, grid)
                _, points, want = grid_brackets(np.tile(group, (copies, 1)))
                got_points, got = received.pop()
                assert np.array_equal(got_points, points)
                assert np.array_equal(got, want)

    @staticmethod
    def dyadic(rng, shape):
        """Moduli in [0, 1) on 20 bits, so 1 - (1 - x) is x."""
        return rng.integers(0, 2**20, shape) / 2**20

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_peaks_at_chunk_edges_and_ties(self, block, monkeypatch):
        c, n = NODE_CHUNK, self.N
        peaks = [0, n - 1, c - 1, c, c + 1, 2 * c, 4 * c - c // 2]
        moduli = self.dyadic(np.random.default_rng(5), (len(peaks) + 3, n))
        for row, j in enumerate(peaks):
            moduli[row, j] = 2.0
        # ties inside a part, across two parts and across a part edge: the
        # first node wins
        moduli[len(peaks), [200, 300]] = 2.0
        moduli[len(peaks) + 1, [100, c + 100]] = 2.0
        moduli[len(peaks) + 2, [c - 1, 2 * c]] = 2.0
        self.check(moduli, block, monkeypatch)

    def test_many_ties(self, monkeypatch):
        moduli = np.random.default_rng(6).integers(0, 4, (8, self.N)).astype(float)
        self.check(moduli, 3, monkeypatch)

    @pytest.mark.parametrize("count", [1, 2, 4096])
    def test_one_part(self, count, monkeypatch):
        moduli = self.dyadic(np.random.default_rng(7), (5, count))
        moduli[0, 0] = moduli[1, -1] = 2.0
        self.check(moduli, 5, monkeypatch)

    @pytest.mark.parametrize("functional", [nu_functional, equimodularity_variation])
    def test_the_first_non_finite_part_stops_the_pass(self, functional, monkeypatch):
        spec = KernelSpec(0, 0.3 + 0.4j)
        grid = circle_grid(self.N)
        basis, rows = doctored_basis(grid)
        read = spy_chunks(monkeypatch, basis)
        design = basis.design_matrix(grid)
        with np.errstate(over="ignore", invalid="ignore"):
            error = (1.0 - grid * np.conj(spec.w)) * (rows @ design.T)
            with pytest.raises(NonFiniteIntegrand) as raised:
                functional(spec, basis, rows, grid)
        # the first part's first non-finite value lies in row 1, at node 5
        bad = ~np.isfinite(error[:, :NODE_CHUNK])
        row, node = np.unravel_index(int(np.argmax(bad)), bad.shape)
        assert (row, node) == (1, 5)
        assert raised.value.node_index == node
        assert not cmath.isfinite(raised.value.value)
        assert read == [0]

    @pytest.mark.parametrize("functional", [
        lambda spec, basis, rows, grid: mu_functional(spec, basis, rows, grid, extended=False),
        nu_functional,
        equimodularity_variation,
    ], ids=["mu", "nu", "equimodularity"])
    def test_a_stored_part_names_its_first_non_finite_row_across_pieces(self, functional):
        # row 0 overflows at node 5000, in the stored design's second part
        # of PIECE_NODES, and row 1 at node 5, in its first: the pass stops
        # in the first part and names row 1's node
        spec = KernelSpec(0, 0.3 + 0.4j)
        grid = circle_grid(self.N)
        basis, rows = doctored_basis(grid, 5000)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteIntegrand) as raised:
                functional(spec, basis, rows, grid)
        assert raised.value.node_index == 5
        assert not cmath.isfinite(raised.value.value)

    @pytest.mark.parametrize("stored", [False, True], ids=["evaluated", "stored"])
    @pytest.mark.parametrize("trials", [1, 40])
    @pytest.mark.parametrize("functional, kernel", [
        (lambda spec, basis, rows, grid: mu_functional(spec, basis, rows, grid, extended=False),
         KernelSpec.bergman),
        (nu_functional, KernelSpec.cauchy_power),
        (equimodularity_variation, KernelSpec.cauchy_power),
        (lambda spec, basis, rows, grid: bergman_approx.nu_minimum(
            spec, basis, np.atleast_2d(rows), grid), KernelSpec.cauchy_power),
    ], ids=["mu", "nu", "equimodularity", "nu_minimum"])
    def test_a_non_finite_kernel_sample_stops_the_pass(self, functional, kernel, trials, stored):
        # (1 - x conj(w))^-171 and ^-172 overflow on the nodes nearest
        # x = i, below node 1024 of 4096, where every R is finite: the pass
        # names K's first non-finite node, where a nan nu or a variation of
        # 0 would pass for a value
        spec = KernelSpec(170, 0.999j)
        grid = circle_grid(4096)
        basis = TMBasis([0.3, -0.2j, 0j])
        rng = np.random.default_rng(11)
        rows = 0.1 * (rng.standard_normal((trials, 3)) + 1j * rng.standard_normal((trials, 3)))
        if stored:
            basis.design_matrix(grid)
        bad = ~np.isfinite(kernel(spec, grid))
        node = int(np.argmax(bad))
        assert bad.any() and 900 < node < 1024
        with pytest.raises(NonFiniteIntegrand) as raised:
            functional(spec, basis, rows[0] if trials == 1 else rows, grid)
        assert raised.value.node_index == node
        assert not cmath.isfinite(raised.value.value)


def as_formed(multiplier, kernel, values, out):
    """A reduction that writes over nothing and is always finite, so _walk
    yields every block's R, and this gives the multiplier and K, as the
    walk formed them."""
    return np.zeros(len(values)), multiplier, kernel


@st.composite
def _height_configuration(draw):
    """The rows of a competitor scan of 2 to 40 functions on 2^12 to 2^14
    nodes, stored or not, multiplied at every node or at the screen's
    stride."""
    alpha = draw(st.integers(0, 3))
    w = draw(_disk_point(0.05, 0.9))
    pool = [0j, draw(_disk_point(0.0, 0.8)), draw(_disk_point(0.99, 0.999)),
            draw(_disk_point(0.0, 0.95))]
    free = draw(st.lists(st.sampled_from(pool), min_size=int(alpha == 0), max_size=39 - alpha))
    nodes = 2 ** draw(st.integers(12, 14))
    stored = draw(st.booleans())
    stride = draw(st.sampled_from([1, bergman_approx._SCREEN_STRIDE]))
    seed = draw(st.integers(0, 2**32 - 1))
    return alpha, w, free, nodes, stored, stride, seed


@settings(max_examples=30, deadline=None, derandomize=True)
@given(configuration=_height_configuration())
def test_a_row_rounds_alike_in_every_block_of_two_rows_or_more(configuration):
    # nu_minimum scores its first two rows in a block of two, nu_functional
    # in a block of m: a BLAS whose product rounded a row by the height of
    # its block would move min_nu.  Each block here starts at row 0, one
    # for every height from m down to 2, on read-only stored parts (whole
    # or at the screen's stride) or on evaluated ones.
    alpha, w, free, nodes, stored, stride, seed = configuration
    spec = KernelSpec(alpha, w)
    approx = build_approximant(spec, free)
    count = len(approx.coefficients)
    rows = competitor_trials(approx, count, np.random.default_rng(seed))
    grid = circle_grid(nodes)
    if stored:
        approx.basis.design_matrix(grid)
    blocks = np.array([(0, height, stride) for height in range(count, 1, -1)])
    tallest = {}
    for at, block, values, _ in bergman_approx._walk(
        spec, approx.basis, rows, grid, spec.alpha + 1, as_formed, blocks
    ):
        bits = values.view(np.uint64)
        if block.stop == count:
            tallest[at.start] = bits.copy()
        else:
            assert np.array_equal(bits, tallest[at.start][: block.stop])
    assert sorted(tallest) == list(range(0, nodes, PIECE_NODES if stored else NODE_CHUNK))


@st.composite
def _scan_configuration(draw):
    """A competitor scan: alpha 0-3, 1 to 40 functions over zero, repeated,
    near-circle and random free poles, 1 to 300 rows from competitor_trials
    in one of four arrangements, and 2^8 to 2^14 nodes, with or without a
    stored design."""
    alpha = draw(st.integers(0, 3))
    w = draw(_disk_point(0.05, 0.9))
    pool = [0j, draw(_disk_point(0.0, 0.8)), draw(_disk_point(0.99, 0.999)),
            draw(_disk_point(0.0, 0.95))]
    free = draw(st.lists(st.sampled_from(pool), max_size=39 - alpha))
    trials = draw(st.integers(1, 300))
    arrangement = draw(st.sampled_from(["drawn", "permuted", "tie", "last"]))
    nodes = 2 ** draw(st.integers(8, 14))
    stored, seed = draw(st.booleans()), draw(st.integers(0, 2**32 - 1))
    return alpha, w, free, trials, arrangement, nodes, stored, seed


def scan_rows(approx, trials, arrangement, seed):
    """competitor_trials as drawn, permuted, with the optimum repeated as
    the last row (a tie across blocks), or with the optimum moved to the last
    block and repeated in a middle one."""
    rng = np.random.default_rng(seed)
    rows = competitor_trials(approx, trials, rng)
    if arrangement == "permuted":
        rows = rows[rng.permutation(trials)]
    elif arrangement == "tie":
        rows[-1] = rows[0]
    elif arrangement == "last":
        rows = np.roll(rows, -1, axis=0)
        rows[trials // 2] = rows[-1]
    return rows


def full_minimum(spec, basis, rows, grid):
    """(index, value) of np.argmin over nu_functional, which scores every row."""
    values = nu_functional(spec, basis, rows, grid)
    index = int(np.argmin(values))
    return index, float(values[index])


class TestNuMinimum:
    """nu_minimum gives the first argmin and the minimum of nu_functional to
    the bit, while scoring in full only the rows that can still win."""

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(configuration=_scan_configuration())
    def test_equals_the_argmin_of_every_row(self, configuration):
        alpha, w, free, trials, arrangement, nodes, stored, seed = configuration
        spec = KernelSpec(alpha, w)
        approx = build_approximant(spec, free)
        rows = scan_rows(approx, trials, arrangement, seed)
        grid = circle_grid(nodes)
        if stored:
            approx.basis.design_matrix(grid)
        index, value = bergman_approx.nu_minimum(spec, approx.basis, rows, grid)
        assert type(index) is int and type(value) is float
        assert (index, value) == full_minimum(spec, approx.basis, rows, grid)

    @pytest.mark.parametrize("free, trials", [([0.3, -0.2j], 1), ([], 40), ([], 1)])
    @pytest.mark.parametrize("arrangement", ["drawn", "permuted", "tie", "last"])
    def test_one_row_and_one_function(self, free, trials, arrangement):
        # m = 1 (alpha 0, no free pole) makes every row a block of its own
        spec = KernelSpec(0, 0.4 - 0.3j)
        approx = build_approximant(spec, free)
        rows = scan_rows(approx, trials, arrangement, 3)
        grid = circle_grid(2**12)
        got = bergman_approx.nu_minimum(spec, approx.basis, rows, grid)
        assert got == full_minimum(spec, approx.basis, rows, grid)

    @staticmethod
    def doctored_scan(grid):
        """doctored_basis's rows behind three plain rows, so the rows whose
        R overflows (at node 5, and at node NODE_CHUNK + 5000) lie in the
        second block, where a screen at every 16th node would miss both."""
        basis, bad = doctored_basis(grid)
        rows = np.vstack([np.full((3, 3), 0.1, dtype=complex), bad[:2], np.full((4, 3), 0.1)])
        return basis, rows

    @pytest.mark.parametrize("overflow, node", [("kernel", 0), ("bound", 5), ("row", 5)],
                             ids=["kernel", "bound", "row"])
    def test_an_unbounded_scan_raises_where_every_row_is_scored(self, overflow, node, monkeypatch):
        # A kernel supremum (1 - |w|)^-(1+alpha) past the double range, or a
        # row whose norm squares past it: nu_minimum takes nu_functional's
        # pass for every row, which stops at the same node.  At w = 0.999999
        # that is node 0, where the sample of K overflows; with w halfway
        # between nodes 0 and 1 every sample of K is finite though the
        # supremum is not, and the pass stops at row 1's overflow at node 5.
        grid = circle_grid(2**16)
        basis, rows = self.doctored_scan(grid)
        spec = KernelSpec(0, 0.3 + 0.4j)
        if overflow == "kernel":
            spec = KernelSpec(60, 0.999999)
        elif overflow == "bound":
            spec = KernelSpec(60, cmath.rect(0.999999, math.pi / 2**16))
        else:
            rows[-1, 0] = 1e200
        raised = []
        for score in (bergman_approx.nu_minimum, full_minimum):
            read = spy_chunks(monkeypatch, basis)
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(NonFiniteIntegrand) as error:
                    score(spec, basis, rows, grid)
            raised.append((error.value.node_index, repr(error.value.value), read))
            monkeypatch.undo()
        assert raised[0] == raised[1]
        assert raised[0][0] == node and raised[0][2] == [0]

    def test_a_scan_at_the_optimum_scores_one_block_and_refines_one_bracket(self, monkeypatch):
        # the block scored in full is the optimum and trial 1, two rows of
        # the 8 functions
        spec = KernelSpec(1, 0.45 - 0.3j)
        approx = build_approximant(spec, PoleSequence.random(6, np.random.default_rng(83)))
        assert len(approx.coefficients) == 8
        full, refined = [], []
        walk = bergman_approx._walk
        golden = bergman_approx._golden_max

        def walked(*args, **kwargs):
            for at, rows_at, error, reduced in walk(*args, **kwargs):
                if at.step == 1:
                    full.append((at.start, rows_at.start, rows_at.stop))
                yield at, rows_at, error, reduced

        def golden_max(f, points, moduli, floor):
            refined.append(points.shape[1])
            return golden(f, points, moduli, floor)

        monkeypatch.setattr(bergman_approx, "_walk", walked)
        monkeypatch.setattr(bergman_approx, "_golden_max", golden_max)
        report = uniform_competitor_scan(approx, 100, 7, circle_grid(2**15))
        assert report.trials == 100 and report.argmin_trial == 0
        assert full == [(0, 0, 2), (NODE_CHUNK, 0, 2)]
        assert refined == [1]

    def test_the_largest_oracle_shape_scores_two_trials_in_full(self, monkeypatch):
        # oracle's largest request shape, a stored 16384-node design of 37
        # functions: the first grid pass scores the optimum and trial 1 on
        # every node and screens the other 98, so it scores at most
        # 2 x 16384 values in full
        spec = KernelSpec(2, 0.5 - 0.3j)
        approx = build_approximant(spec, PoleSequence.random(34, np.random.default_rng(4), 0.9))
        grid = circle_grid(16384)
        assert approx.basis.design_matrix(grid).shape == (16384, 37)
        full = []  # per grid pass, the values scored at every node
        walk = bergman_approx._walk

        def walked(*args, **kwargs):
            full.append(0)
            for at, rows_at, error, reduced in walk(*args, **kwargs):
                if at.step == 1:
                    full[-1] += error.size
                yield at, rows_at, error, reduced

        monkeypatch.setattr(bergman_approx, "_walk", walked)
        report = uniform_competitor_scan(approx, 100, 7, grid)
        assert 0 < full[0] <= 2 * 16384
        monkeypatch.undo()
        rows = competitor_trials(approx, 100, np.random.default_rng(7))
        assert (report.argmin_trial, report.min_nu) == full_minimum(spec, approx.basis, rows, grid)


def whole_parts(basis):
    """basis.eval_chunks with every part copied: the walk multiplies each
    block of rows by np.dot of the part's whole basis block, a copy where
    it is stored."""
    chunks = basis.eval_chunks

    def copied(nodes, count=None):
        for part, phi in chunks(nodes, count):
            yield part, np.array(phi)

    return copied


@st.composite
def _piece_configuration(draw):
    """A batch of 2 to 120 competitor rows of 1 to 24 functions on 2^12 to
    2^16 nodes, stored or not, mu in doubles or long double."""
    alpha = draw(st.integers(0, 3))
    w = draw(_disk_point(0.05, 0.9))
    pool = [0j, draw(_disk_point(0.0, 0.8)), draw(_disk_point(0.0, 0.95))]
    free = draw(st.lists(st.sampled_from(pool), max_size=23 - alpha))
    trials = draw(st.integers(2, 120))
    arrangement = draw(st.sampled_from(["drawn", "permuted", "tie", "last"]))
    nodes = 2 ** draw(st.integers(12, 16))
    stored, extended = draw(st.booleans()), draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    return alpha, w, free, trials, arrangement, nodes, stored, extended, seed


@settings(max_examples=30, deadline=None, derandomize=True)
@given(configuration=_piece_configuration())
def test_batch_grid_passes_equal_the_whole_part_product(configuration):
    # np.matmul of a stored part read in place rounds as np.dot of its copy
    alpha, w, free, trials, arrangement, nodes, stored, extended, seed = configuration
    spec = KernelSpec(alpha, w)
    approx = build_approximant(spec, free)
    basis = approx.basis
    rows = scan_rows(approx, trials, arrangement, seed)
    grid = circle_grid(nodes)
    if stored:
        basis.design_matrix(grid)

    def scores():
        return (mu_functional(spec, basis, rows, grid, extended=extended),
                nu_functional(spec, basis, rows, grid),
                bergman_approx.nu_minimum(spec, basis, rows, grid),
                equimodularity_variation(spec, basis, rows, grid))

    got = scores()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(basis, "eval_chunks", whole_parts(basis))
        want = scores()
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert got[2] == want[2]
    assert np.array_equal(got[3], want[3])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(configuration=_piece_configuration())
def test_a_stored_design_keeps_the_values_of_an_unstored_pass(configuration):
    # an unstored grid is evaluated in parts of NODE_CHUNK nodes, a stored
    # design read in parts of PIECE_NODES.  A maximum and a minimum do not
    # depend on the split, nor does a product's value on its columns'; mu
    # adds more parts' sums in order, within 4 ulp, as four parts of
    # NODE_CHUNK stay within 4 ulp of a whole-row sum
    alpha, w, free, trials, arrangement, nodes, _, extended, seed = configuration
    spec = KernelSpec(alpha, w)
    approx = build_approximant(spec, free)
    basis = approx.basis
    rows = scan_rows(approx, trials, arrangement, seed)
    grid = circle_grid(nodes)

    def scores():
        return (mu_functional(spec, basis, rows, grid, extended=extended),
                nu_functional(spec, basis, rows, grid),
                bergman_approx.nu_minimum(spec, basis, rows, grid),
                equimodularity_variation(spec, basis, rows, grid))

    unstored = scores()
    basis.design_matrix(circle_grid(nodes, extended=extended))
    basis.design_matrix(grid)
    stored = scores()
    assert np.array_equal(stored[1], unstored[1])
    assert stored[2] == unstored[2]
    assert np.array_equal(stored[3], unstored[3])
    if nodes <= PIECE_NODES:
        assert np.array_equal(stored[0], unstored[0])
    else:
        assert np.all(np.abs(stored[0] - unstored[0]) <= 4 * np.spacing(unstored[0]))


def doctored_sums(monkeypatch, basis, nodes, bad):
    """Make the nested sums of basis non-finite at the given nodes of the
    node array, and return the first node of every part summed there."""
    read = []
    sums = basis.eval_sum

    def doctored(coefficients, z, **kwargs):
        read.append(int(np.flatnonzero(nodes == z[0])[0]))
        out = sums(coefficients, z, **kwargs)
        out[np.isin(z, nodes[bad])] = np.inf
        return out

    monkeypatch.setattr(basis, "eval_sum", doctored)
    return read


@pytest.mark.parametrize(
    "bad",
    [
        [NODE_CHUNK + 9000, NODE_CHUNK + 5000, 3 * NODE_CHUNK],
        [5],
        [70, 40000],
        [NODE_CHUNK + 3],
        [40000, 2**16 - 1],
        [2**16 - 1],
    ],
    ids=["second-part", "node-5", "node-70", "node-16387", "node-40000", "node-65535"],
)
@pytest.mark.parametrize("functional", ["mu", "nu", "equimodularity"])
def test_one_row_stops_at_its_first_non_finite_part(functional, bad, monkeypatch):
    spec = KernelSpec(0, 0.3 + 0.4j)
    grid = circle_grid(2**16)
    approx = build_approximant(spec, [0.2, -0.5j])
    read = doctored_sums(monkeypatch, approx.basis, grid, bad)
    call = {
        "mu": lambda: mu_functional(spec, approx.basis, approx.coefficients, grid, extended=False),
        "nu": lambda: nu_functional(spec, approx.basis, approx.coefficients, grid),
        "equimodularity": lambda: equimodularity_variation(
            spec, approx.basis, approx.coefficients, grid
        ),
    }[functional]
    with pytest.raises(NonFiniteIntegrand) as raised:
        call()
    # the first non-finite node, in the part that holds it; no later part
    # is summed
    assert raised.value.node_index == min(bad)
    assert not cmath.isfinite(raised.value.value)
    assert read == list(range(0, min(bad) // NODE_CHUNK * NODE_CHUNK + 1, NODE_CHUNK))


def exact_bits(a, b) -> bool:
    """Equal arrays to the bit: complex doubles as int64 views; long double,
    whose padding bytes are undefined, by value and the sign of each part."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if a.dtype == np.complex128:
        return np.array_equal(a.view(np.int64), b.view(np.int64))
    return all(np.array_equal(f(a), f(b)) for f in (
        np.real, np.imag, lambda v: np.signbit(v.real), lambda v: np.signbit(v.imag)))


def ones_power(spec, x, exponent):
    """(1 - x conj(w))^-exponent as a product started from ones, one factor
    of the reciprocal at a time: the reference of reciprocal_power."""
    base = 1.0 / (1.0 - x * np.conj(spec.w))
    out = np.ones_like(base)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(exponent):
            out = out * base
    return out


@st.composite
def _shared_pass_configuration(draw):
    """An approximant of alpha 0-3 whose free poles are zeros, repeats, random
    points or w itself, |w| up to 0.99, and the nodes of one part: 1, 3,
    4096 or 2^14 consecutive nodes of a 2^14 grid, or a long-double grid of
    4096."""
    alpha = draw(st.integers(0, 3))
    w = draw(_disk_point(0.0, 0.99))
    pool = [0j, w, draw(_disk_point(0.0, 0.9)), draw(_disk_point(0.0, 0.99))]
    free = draw(st.lists(st.sampled_from(pool), max_size=12))
    size = draw(st.sampled_from([1, 3, 4096, NODE_CHUNK, "extended"]))
    start = draw(st.integers(0, NODE_CHUNK - 1)) if size in (1, 3) else 0
    return alpha, w, free, size, start


@settings(max_examples=40, deadline=None, derandomize=True)
@given(configuration=_shared_pass_configuration())
def test_a_shared_reciprocal_keeps_the_unshared_bits(configuration):
    # one row's pass forms 1 - x conj(w) and its reciprocal once per part and
    # raises K from it; eval_sum reads it for the trailing run at w.  Each of
    # multiplier, K and R has the bits of its own unshared evaluation
    alpha, w, free, size, start = configuration
    spec = KernelSpec(alpha, w)
    approx = build_approximant(spec, free)
    if size == "extended":
        nodes = circle_grid(4096, extended=True)
    else:
        nodes = circle_grid(NODE_CHUNK)[start : start + size]
    row = approx.coefficients
    for exponent, kernel in ((alpha + 2, spec.bergman), (alpha + 1, spec.cauchy_power)):
        with np.errstate(over="ignore", invalid="ignore"):
            parts = list(bergman_approx._walk(spec, approx.basis, row[None], nodes, exponent,
                                              as_formed))
        assert len(parts) == 1
        at, _, values, (_, multiplier, sampled) = parts[0]
        x = nodes[at]
        want_multiplier = 1.0 - x * np.conj(w)
        assert exact_bits(multiplier, want_multiplier)
        assert exact_bits(sampled, np.asarray(kernel(x)))
        assert exact_bits(sampled, ones_power(spec, x, exponent))
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.multiply(want_multiplier, approx.basis.eval_sum(row, x))
        assert exact_bits(values[0], want)


def overflowing_row(last):
    """(spec, basis, row): a row of 1e308-sized coefficients whose sums
    overflow at some nodes of a 2^16 grid, first in the third part where
    the basis ends at w, else in the first."""
    spec = KernelSpec(1, 0.4 - 0.3j)
    basis = TMBasis([0.3, 0j, spec.w if last == "w" else 0.5j])
    return spec, basis, np.array([1e308, -1e308j, 1e308])


@pytest.mark.parametrize("last", ["w", "not w"])
def test_only_a_basis_ending_at_w_shares_its_reciprocal(last, monkeypatch):
    # sums of 1e308-sized coefficients overflow at some nodes: the pass names
    # the first of them, where the unshared product leaves the double range,
    # whether or not the row's sum read the pass's reciprocal.  One row's
    # parts are checked by the functional's reduction of them (_walk), and
    # no part after the refused one is summed
    spec, basis, row = overflowing_row(last)
    grid = circle_grid(2**16)
    with np.errstate(over="ignore", invalid="ignore"):
        unshared = np.multiply(1.0 - grid * np.conj(spec.w), basis.eval_sum(row, grid))
    bad = ~np.isfinite(unshared)
    assert bad.any() and not bad.all()
    received, sums = [], basis.eval_sum

    def recorded(coefficients, z, *, reciprocal=None):
        received.append(reciprocal)
        return sums(coefficients, z, reciprocal=reciprocal)

    monkeypatch.setattr(basis, "eval_sum", recorded)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteIntegrand) as raised:
            nu_functional(spec, basis, row, grid)
    assert raised.value.node_index == int(np.argmax(bad))
    assert len(received) == int(np.argmax(bad)) // NODE_CHUNK + 1
    if last == "w":
        assert all(isinstance(r, np.ndarray) for r in received)
    else:
        assert received == [None] * len(received)


@st.composite
def _one_row_pass_configuration(draw):
    """An approximant of alpha 0-3 with up to ten free poles, |w| up to
    0.95, a grid of 2^15 or 2^16 nodes and a scale of its row: at 1e308
    the sums leave the double range at some nodes."""
    alpha = draw(st.integers(0, 3))
    w = draw(_disk_point(0.05, 0.95))
    free = draw(st.lists(_disk_point(0.0, 0.9), max_size=10))
    nodes = draw(st.sampled_from([2**15, 2**16]))
    scale = draw(st.sampled_from([1.0, 1e306, 1e308]))
    return alpha, w, free, nodes, scale


def one_row_outcomes(spec, free, nodes, scale) -> list:
    """The bytes of every one-row pass of a fresh approximant's row, times
    scale, on a grid of nodes nodes, in the order of an error report's and
    verify's passes: nu's grid pass (maximum, its node and minimum), nu,
    nu and the R its pass gathers at the expansion's grid, mu in doubles
    handed that R there, mu in doubles and in long double on the grid, and
    the equimodularity variation.  A refused pass gives its node, value and
    message."""
    approx = build_approximant(spec, free)
    basis, row, grid = approx.basis, approx.coefficients * scale, circle_grid(nodes)
    mu_grid = circle_grid(approx.expansion.grid_size)
    assert nodes % len(mu_grid) == 0
    handed = []

    def gathering_nu():
        nu, gathered = nu_functional(spec, basis, row, grid, gather=nodes // len(mu_grid))
        handed.append(gathered)
        return nu, gathered

    passes = [
        lambda: bergman_approx._nu_grid_pass(spec, basis, row[None], grid)[:3],
        lambda: nu_functional(spec, basis, row, grid),
        gathering_nu,
        lambda: mu_functional(spec, basis, row, mu_grid, extended=False,
                              gathered=handed[0] if handed else None),
        lambda: mu_functional(spec, basis, row, grid, extended=False),
        lambda: mu_functional(spec, basis, row, grid, extended=True),
        lambda: equimodularity_variation(spec, basis, row, grid),
    ]
    outcomes = []
    for one_pass in passes:
        try:
            values = one_pass()
            values = values if isinstance(values, tuple) else (values,)
            outcomes.append(b"".join(np.ascontiguousarray(v).tobytes() for v in values))
        except NonFiniteIntegrand as error:
            outcomes.append((error.node_index, np.complex128(error.value).tobytes(), str(error)))
    return outcomes


def plain_row_values(spec, basis, row, nodes, exponent, given=None):
    """One row's parts, NODE_CHUNK nodes at a time, in a plain loop:
    each part's multiplier, K raised from its own reciprocal, and R as
    competitor_function forms it, with no reciprocal shared, or the R
    given."""
    for start in range(0, len(nodes), NODE_CHUNK):
        x = nodes[start : start + NODE_CHUNK]
        multiplier = 1.0 - x * np.conj(spec.w)
        sampled = reciprocal_power(1.0 / multiplier, exponent)
        if given is None:
            values = competitor_function(basis, spec.w, row)(x)
        else:
            values = given[start : start + len(x)]
        yield slice(start, start + len(x), 1), slice(0, 1), multiplier, sampled, values[None]


def plain_walk(spec, basis, rows, nodes, exponent, reduce, blocks=None, given=None):
    """_walk of one row spelled as plain_row_values reduced part by part:
    where a reduction is not finite, K's first non-finite node is refused,
    else R's."""
    (row,) = rows
    for at, block, multiplier, sampled, values in plain_row_values(
        spec, basis, row, nodes, exponent, given
    ):
        result = reduce(multiplier, sampled, values, multiplier.copy()[None])
        if not np.isfinite(result[0]).all():
            circlequad.require_finite(at.start, 1, sampled[None])
            circlequad.require_finite(at.start, 1, values)
        yield at, block, values, result


@settings(max_examples=10, deadline=None, derandomize=True)
@given(configuration=_one_row_pass_configuration())
def test_one_row_passes_keep_the_bits_of_a_plain_part_loop(configuration):
    # one row's parts are evaluated and reduced one at a time on this
    # thread; each value, node, gathered R and refusal has the bits of the
    # same passes over parts formed one by one, without a shared reciprocal
    alpha, w, free, nodes, scale = configuration
    spec = KernelSpec(alpha, w)
    with np.errstate(all="ignore"):
        got = one_row_outcomes(spec, free, nodes, scale)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bergman_approx, "_walk", plain_walk)
            want = one_row_outcomes(spec, free, nodes, scale)
    assert got == want


def refused_part(error) -> int:
    """The first node of the part whose evaluation raised error."""
    tb = error.__traceback__
    while tb.tb_frame.f_code.co_name != "_walk":
        tb = tb.tb_next
    return tb.tb_frame.f_locals["part"].start


@pytest.mark.parametrize(
    "last, message, part",
    [("w", "overflow encountered in add", 2), ("not w", "overflow encountered in multiply", 0)],
)
def test_a_pass_under_raise_raises_in_the_part_that_overflows(last, message, part):
    # the first overflow is in the third part where the basis ends at w, in
    # the first otherwise; that part raises as it is summed
    spec, basis, row = overflowing_row(last)
    grid = circle_grid(2**16)
    with np.errstate(over="ignore", invalid="ignore"):
        unshared = np.multiply(1.0 - grid * np.conj(spec.w), basis.eval_sum(row, grid))
    assert int(np.argmax(~np.isfinite(unshared))) // NODE_CHUNK == part
    with np.errstate(over="raise", invalid="ignore"), pytest.raises(FloatingPointError) as error:
        nu_functional(spec, basis, row, grid)
    assert (str(error.value), refused_part(error.value)) == (message, part * NODE_CHUNK)


@pytest.mark.parametrize("last", ["w", "not w"])
def test_a_pass_warns_and_then_refuses(last):
    # under a warning error state the overflowing part warns, and the pass
    # refuses it at its first non-finite node
    spec, basis, row = overflowing_row(last)
    grid = circle_grid(2**16)
    with np.errstate(over="ignore", invalid="ignore"):
        unshared = np.multiply(1.0 - grid * np.conj(spec.w), basis.eval_sum(row, grid))
    with warnings.catch_warnings(record=True) as caught, np.errstate(all="warn"):
        warnings.simplefilter("always")
        with pytest.raises(NonFiniteIntegrand) as refused:
            nu_functional(spec, basis, row, grid)
    assert caught and all(w.category is RuntimeWarning for w in caught)
    assert refused.value.node_index == int(np.argmax(~np.isfinite(unshared)))


@pytest.mark.parametrize("trials", [1, 2])
def test_a_replayed_reduction_warns_its_underflow_once(trials):
    # K = (1 - 0.6 x)^-753 is finite, 1.6^-753 to 0.4^-753 in modulus, R is
    # zero: mu's squares of |K| underflow and overflow in one reduction.
    # The reduction that replays the overflow for the caller warns it, and
    # leaves the underflow the first reduction warned; two rows are two
    # blocks of one row, each replayed
    spec, basis, grid = KernelSpec(752, 0.6), TMBasis([0j]), circle_grid(4096)
    rows = np.zeros((trials, 1), dtype=complex)
    with warnings.catch_warnings(record=True) as caught, np.errstate(all="warn"):
        warnings.simplefilter("always")
        values = mu_functional(spec, basis, rows, grid, extended=False)
    assert np.isposinf(values).all()
    assert [(w.category, str(w.message)) for w in caught] == [
        (RuntimeWarning, f"{kind} encountered in square")
        for kind in ["underflow", "overflow"] * trials
    ]
    with np.errstate(all="ignore"):
        assert np.array_equal(mu_functional(spec, basis, rows, grid, extended=False), values)


def test_an_approximate_request_forms_one_taylor_table_at_w_and_one_reciprocal_per_part(
    monkeypatch, capsys
):
    from diskrat import cli

    spec = KernelSpec(2, 0.45 - 0.3j)
    free = [0.2 + 0.1j, spec.w, -0.5j]
    tables, raised, received = [], [], []
    taylor, power, sums = TMBasis.taylor, bergman_approx.reciprocal_power, TMBasis.eval_sum

    def spy_taylor(self, w, order):
        tables.append((complex(w), order))
        return taylor(self, w, order)

    def spy_power(reciprocal, exponent):
        raised.append(reciprocal)
        return power(reciprocal, exponent)

    def spy_sum(self, coefficients, z, *, reciprocal=None):
        if reciprocal is not None:
            received.append(reciprocal)
        return sums(self, coefficients, z, reciprocal=reciprocal)

    monkeypatch.setattr(TMBasis, "taylor", spy_taylor)
    monkeypatch.setattr(bergman_approx, "reciprocal_power", spy_power)
    monkeypatch.setattr(TMBasis, "eval_sum", spy_sum)
    poles = ";".join(f"{p.real!r},{p.imag!r}" for p in free)
    argv = ["approximate", "--alpha", "2", f"--w={spec.w.real!r},{spec.w.imag!r}", f"--poles={poles}"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    # w is a pole of multiplicity alpha + 2: the table of order alpha + 1
    # serves the expansion and the interpolation rows alike
    assert [table for table in tables if table[0] == spec.w] == [(spec.w, 3)]
    # nu's four parts of 2^14, then mu's one part of 4096 nodes, which is
    # handed the R nu's pass gathered at every 16th node and sums nothing
    assert len(raised) == 5 and len(received) == 4
    assert [len(r) for r in raised] == [NODE_CHUNK] * 4 + [4096]
    # each of nu's parts raises its reciprocal and then its sum reads it
    assert all(a is b for a, b in zip(raised, received))


@pytest.mark.parametrize("copies", [0, 1, 3])
def test_pole_derivatives_keep_the_bits_of_their_own_table(copies):
    # a group at w of at most alpha + 2 poles reads the kernel expansion's
    # table; more copies form their own.  Either way the rows are those of
    # taylor(w, S - 1) formed for the group, as an expansion without a
    # table forms it
    for alpha in range(4):
        spec = KernelSpec(alpha, 0.6 + 0.25j)
        approx = build_approximant(spec, [0.1j, *[spec.w] * copies, -0.3, 0.1j])
        assert approx.expansion.taylor.shape == (approx.basis.size, alpha + 2)
        untabled = FourierExpansion(approx.basis, approx.coefficients, "copy", 4096)
        own = replace(approx, expansion=untabled)
        assert own.expansion.taylor is None and own.basis is approx.basis
        for got, want in zip(approx.pole_derivatives, own.pole_derivatives):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_a_competitor_expansion_gives_the_derivatives_of_its_own_function():
    # replace(approx, expansion=...) keeps the approximant's spec and free
    # poles, and its pole derivatives are those of the competitor's function:
    # r^(s - 1)(a) by the Cauchy formula, at simple and repeated poles alike
    spec = KernelSpec(1, 0.3 - 0.2j)
    approx = build_approximant(spec, [0.25j, -0.4, 0.25j])
    trial = competitor_trials(approx, 2, np.random.default_rng(17))[1]
    competitor = replace(approx, expansion=FourierExpansion(approx.basis, trial, "trial", 4096))
    assert competitor.basis is approx.basis and competitor.free_poles == approx.free_poles
    values, scales = competitor.pole_derivatives
    poles = competitor.basis.poles
    for value, scale, a, s in zip(values, scales, poles, poles.multiplicities):
        assert np.isfinite(scale)
        assert value == pytest.approx(derivative_at(competitor.eval, a, s - 1), rel=1e-9, abs=1e-9)
    assert not np.allclose(values, approx.pole_derivatives[0])


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

    def mu_functional(spec, basis, coefficients, grid, *, extended, gathered=None):
        calls.append(extended)
        return real(spec, basis, coefficients, grid, extended=extended, gathered=gathered)

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

    @pytest.mark.parametrize(
        "alpha, w, free",
        [(1, 0j, [0.3, -0.2j]), (0, complex(0.0, -0.0), [0j, 0.5]), (3, -0.0, [])],
    )
    def test_w_zero_report_is_the_old_literal(self, alpha, w, free, monkeypatch):
        def no_approximant(*args):
            raise AssertionError("w = 0 builds no approximant")

        monkeypatch.setattr(bergman_approx, "build_approximant", no_approximant)
        spec = KernelSpec(alpha, w)
        free_poles = PoleSequence(free)
        # the literal build_error_report returned at w = 0 before it built
        # every report in one place
        expected = ErrorReport(
            alpha=spec.alpha,
            n=len(free_poles) + spec.alpha,
            w=spec.w,
            free_poles=free_poles,
            mu_quadrature=0.0,
            mu_closed_form=0.0,
            nu_grid=0.0,
            nu_closed_form=0.0,
            max_interp_residual=0.0,
            free_pole_matches_w=any(p == spec.w for p in free_poles),
            degenerate_w_zero=True,
        )
        report = build_error_report(spec, free)
        assert report.approximant is None
        for f in fields(ErrorReport):
            value, want = getattr(report, f.name), getattr(expected, f.name)
            assert type(value) is type(want) and value == want, f.name
        assert math.copysign(1.0, report.w.imag) == math.copysign(1.0, spec.w.imag)
        assert report.to_json_dict() == expected.to_json_dict()
        assert report.csv_row() == expected.csv_row()

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
        sup_kernel = float(np.max(np.abs(spec.cauchy_power(GRID))))
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

    @pytest.mark.parametrize(
        "alpha, w, free",
        [
            (1, 0j, [0.3, -0.2j]),
            (0, complex(0.0, -0.0), [0.3]),
            (1, 0.4 + 0.1j, [0.3, 0.2 + 0.1j, 0.3, 0.2 + 0.1j]),
            (1, 0.4 + 0.1j, [0.4 + 0.1j, 0.2]),
            (0, 0.3, [0.7] * 24),
        ],
        ids=["w-zero", "signed-zero-w", "interleaved-repeats", "free-pole-at-w", "24-at-0.7"],
    )
    def test_payload_is_the_command_assembly_it_replaces(self, alpha, w, free):
        spec = KernelSpec(alpha, w)
        free_poles = PoleSequence(free)
        report = build_error_report(spec, free_poles)
        expected = command_payload(spec, free_poles, report)
        # compared as printed, so that the sign of a zero counts
        assert json.dumps(report.payload(), sort_keys=True) == json.dumps(expected, sort_keys=True)

    @pytest.mark.parametrize(
        "alpha, free", [(170, [0j, 0j]), (0, [0j] * 172), (10, [0j] * 165)]
    )
    def test_a_row_past_the_double_range_fails_the_report_before_the_grid_passes(
        self, alpha, free, monkeypatch
    ):
        spec = KernelSpec(alpha, 0.5)
        with pytest.raises(ValueOutOfRange) as expected:
            command_rows(spec, build_approximant(spec, free))

        def no_grid_pass(*args, **kwargs):
            raise AssertionError("a grid pass ran")

        # the mu grid is made before the rows, and no pass runs on it
        for name in ("mu_functional", "nu_functional"):
            monkeypatch.setattr(bergman_approx, name, no_grid_pass)
        with pytest.raises(ValueOutOfRange) as refused:
            build_error_report(spec, free)
        assert str(refused.value) == str(expected.value)

    @pytest.mark.parametrize("pass_name", ["mu", "long-double mu", "nu"])
    def test_single_row_passes_peak_within_a_few_parts(self, pass_name):
        # One row is summed part by part in nested form, so its passes on
        # 2^16 nodes hold a few arrays of one part, whatever m is: with 64
        # functions one part's basis block alone would be 64 such arrays
        grid = circle_grid(NU_GRID_NODES)
        nodes = circle_grid(NU_GRID_NODES, extended=pass_name == "long-double mu")
        part = NODE_CHUNK * nodes.itemsize
        peaks = []
        for m in (8, 64):
            spec = KernelSpec(0, 0.5)
            free = PoleSequence.random(m - 1, np.random.default_rng(m), max_modulus=0.8)
            approx = build_approximant(spec, free)
            assert approx.basis.size == m
            tracemalloc.start()
            try:
                if pass_name == "nu":
                    nu_functional(spec, approx.basis, approx.coefficients, grid)
                else:
                    extended = pass_name == "long-double mu"
                    mu_functional(spec, approx.basis, approx.coefficients, grid, extended=extended)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert max(peaks) < 8 * part
        assert abs(peaks[1] - peaks[0]) < part // 16

    @pytest.mark.parametrize(
        "spec, free, grid_nodes",
        [
            # a refined row: the refinement sums one row as well
            (
                KernelSpec(1, complex(0.7916166458442855, -0.5965916033172038)),
                [complex(0.09627720635406925, 0.613034424130815)],
                NU_GRID_NODES,
            ),
            (KernelSpec(2, 0.4 - 0.3j), [0.3, -0.5j, 0j], 3 * NODE_CHUNK + 5),
        ],
    )
    def test_no_single_row_pass_evaluates_a_basis_block(self, spec, free, grid_nodes, monkeypatch):
        approx = build_approximant(spec, free)
        grid = circle_grid(grid_nodes)
        approx.basis.design_matrix(circle_grid(4096))  # a stored matrix is not read either

        def block(*args, **kwargs):
            raise AssertionError("a single-row pass evaluated a basis block")

        monkeypatch.setattr(TMBasis, "eval_all", block)
        monkeypatch.setattr(TMBasis, "eval_chunks", block)
        rows = (approx.coefficients, approx.coefficients[None])
        for row in rows:
            for extended in (False, True):
                mu_functional(spec, approx.basis, row, grid, extended=extended)
            nu_functional(spec, approx.basis, row, grid)
            equimodularity_variation(spec, approx.basis, row, grid)
            nu_functional(spec, approx.basis, row, circle_grid(4096))

    def test_a_report_without_simple_poles_evaluates_no_basis_block(self, monkeypatch):
        # every pole repeats, so the interpolation rows take the Taylor route
        # and the two grid passes sum one row each
        def block(*args, **kwargs):
            raise AssertionError("the report evaluated a basis block")

        monkeypatch.setattr(TMBasis, "eval_all", block)
        monkeypatch.setattr(TMBasis, "eval_chunks", block)
        report = build_error_report(KernelSpec(1, 0.4 + 0.3j), [0.3, -0.2j, 0.3, -0.2j])
        assert report.nu_grid == pytest.approx(report.nu_closed_form, rel=1e-9)


def command_rows(spec, approx):
    """The interpolation rows as the approximate command assembled them
    before Approximant.interpolation_rows: the targets, the residuals with
    their range check, and the rows, each in its own pass."""
    poles = approx.basis.poles
    targets = [interpolation_target(spec, a, s) for a, s in zip(poles, poles.multiplicities)]
    values, scales = approx.pole_derivatives
    residuals = []
    for m, (value, scale, a, s, target) in enumerate(
        zip(values, scales, poles, poles.multiplicities, targets)
    ):
        if not np.isfinite([value, target, scale]).all():
            raise ValueOutOfRange(
                f"interpolation row {m} (pole {a}, multiplicity {s}) leaves the "
                f"double range: value {value}, target {target}, rounding scale {scale}"
            )
        residuals.append(abs(value - target))
    rows = zip(poles, poles.multiplicities, targets, residuals, scales)
    return [
        {
            "m": m,
            "pole": json_complex(a),
            "multiplicity": s,
            "target": json_complex(target),
            "residual": residual,
            "rounding_scale": float(scale),
        }
        for m, (a, s, target, residual, scale) in enumerate(rows)
    ]


def command_payload(spec, free, report):
    """The approximate JSON as the command assembled it before
    ErrorReport.payload."""
    if report.degenerate_w_zero:
        approx_dict = {
            "alpha": spec.alpha,
            "w": json_complex(spec.w),
            "free_poles": json_complex(free),
            "note": "degenerate kernel: the approximant is identically 1",
        }
        interp_rows = []
    else:
        # Approximant.to_json_dict as it was
        approx_dict = report.approximant.expansion.to_json_dict()
        approx_dict["alpha"] = report.approximant.spec.alpha
        approx_dict["w"] = json_complex(report.approximant.spec.w)
        approx_dict["free_poles"] = json_complex(report.approximant.free_poles)
        interp_rows = command_rows(spec, report.approximant)
    return {
        "approximant": approx_dict,
        "error_report": report.to_json_dict(),
        "interpolation_residuals": interp_rows,
    }


def callable_equimodularity(spec, rational, grid):
    """equimodularity_variation as it was, on a callable: the reference the
    row route must reproduce to the bit."""
    values = sample_on_nodes(rational, grid)
    error = np.abs(spec.cauchy_power(grid) - values)
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

    def test_the_cap_counts_the_schedule_its_draws_and_the_nu_pass(self, monkeypatch):
        approx = build_approximant(KernelSpec(0, 0.5), [0.1])  # m = 2
        # 100 trials: 100 complex rows, 99 pairs of real draws of 2 entries,
        # and per row the refinement's evaluation of 2 functions and the
        # rest of the nu pass's state
        size = 16 * 2 * (100 + 99) + 100 * (16 * 2 + bergman_approx._NU_ROW_BYTES)
        monkeypatch.setattr(tm_basis, "MAX_DESIGN_BYTES", size)
        assert competitor_trials(approx, 100, np.random.default_rng(0)).shape == (100, 2)
        monkeypatch.setattr(tm_basis, "MAX_DESIGN_BYTES", size - 1)
        with pytest.raises(DesignTooLarge, match=f"needs {size} bytes"):
            competitor_trials(approx, 100, np.random.default_rng(0))

    def test_the_one_cap_refuses_a_schedule(self, monkeypatch):
        # lowering tm_basis's cap alone refuses the schedule: bergman_approx
        # holds no copy of it
        approx = build_approximant(KernelSpec(0, 0.5), [0.1])  # m = 2
        monkeypatch.setattr(tm_basis, "MAX_DESIGN_BYTES", 10)
        message = (
            r"^a competitor schedule of 3 trials by 2 coefficients needs \d+ bytes "
            r"with its nu pass, more than the cap of 10$"
        )
        with pytest.raises(DesignTooLarge, match=message):
            competitor_trials(approx, 3, np.random.default_rng(0))

    @staticmethod
    def counted(approx, trials, monkeypatch):
        """The bytes competitor_trials counts for a scan, from its refusal."""
        with monkeypatch.context() as patch:
            patch.setattr(tm_basis, "MAX_DESIGN_BYTES", 0)
            with pytest.raises(DesignTooLarge) as refusal:
                competitor_trials(approx, trials, np.random.default_rng(0))
        return int(re.search(r"needs (\d+) bytes", str(refusal.value)).group(1))

    def test_a_scan_over_the_new_count_is_refused_before_allocating(self, monkeypatch):
        approx = build_approximant(KernelSpec(0, 0.5), [0.1])  # m = 2
        trials, grid = 20_000, circle_grid(1024)
        schedule = 16 * 2 * (2 * trials - 1)  # the rows and draws alone
        counted = self.counted(approx, trials, monkeypatch)
        assert counted > 8 * schedule
        monkeypatch.setattr(tm_basis, "MAX_DESIGN_BYTES", (schedule + counted) // 2)
        tracemalloc.start()
        try:
            with pytest.raises(DesignTooLarge, match=f"needs {counted} bytes"):
                uniform_competitor_scan(approx, trials, 0, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("alpha, free", [(0, 1), (1, 27)])
    def test_a_scan_peaks_within_its_count(self, alpha, free, monkeypatch):
        spec = KernelSpec(alpha, 0.5 - 0.2j)
        poles = PoleSequence.random(free, np.random.default_rng(8), max_modulus=0.8)
        approx = build_approximant(spec, poles)
        trials, grid = 20_000, circle_grid(1024)
        counted = self.counted(approx, trials, monkeypatch)
        nu_functional(spec, approx.basis, approx.coefficients, grid)  # caches filled
        tracemalloc.start()
        try:
            uniform_competitor_scan(approx, trials, 0, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= counted


def same_float(a: float, b: float) -> bool:
    return np.float64(a).view(np.int64) == np.float64(b).view(np.int64)


#: |w| ranges whose mu grid has 4096, 8192, 16384 and 32768 nodes, and
#: small ones, where mu is taken in long double unless B(w) = 0 or alpha = 0.
_REPORT_MODULI = [(0.1, 0.75), (0.94, 0.966), (0.968, 0.983), (0.984, 0.991), (0.005, 0.05)]


@st.composite
def _report_configuration(draw):
    """alpha 0-3, w in one of _REPORT_MODULI, and free poles zero, random,
    repeated, equal to w, or none."""
    alpha = draw(st.integers(0, 3))
    w = draw(_disk_point(*draw(st.sampled_from(_REPORT_MODULI))))
    pool = [0j, w, draw(_disk_point(0.0, 0.8)), draw(_disk_point(0.0, 0.8))]
    free = draw(st.lists(st.sampled_from(pool), max_size=8))
    return alpha, w, free


def handed_sums(patch) -> list:
    """The R each mu_functional call is handed (gathered), from now on."""
    handed, mu = [], bergman_approx.mu_functional

    def spy(*args, gathered=None, **kwargs):
        handed.append(gathered)
        return mu(*args, gathered=gathered, **kwargs)

    patch.setattr(bergman_approx, "mu_functional", spy)
    return handed


@settings(max_examples=60, deadline=None, derandomize=True)
@given(configuration=_report_configuration())
def test_an_error_report_keeps_the_bits_of_each_functional_alone(configuration):
    # the report runs nu first, whose pass gathers R at mu's nodes, every
    # 16th, 8th, 4th or 2nd of nu's, and hands it to mu in doubles: each
    # value is still that of its functional on a fresh approximant
    alpha, w, free = configuration
    spec = KernelSpec(alpha, w)
    with pytest.MonkeyPatch.context() as patch:
        handed = handed_sums(patch)
        report = build_error_report(spec, free)
    fresh = build_approximant(spec, free)
    grid = circle_grid(fresh.expansion.grid_size)
    assert 4096 <= len(grid) <= 2**15
    extended = extended_mu(mu_min_closed_form(spec, free))
    mu = mu_functional(spec, fresh.basis, fresh.coefficients, grid, extended=extended)
    nu = nu_functional(spec, fresh.basis, fresh.coefficients, circle_grid(NU_GRID_NODES))
    assert same_float(report.mu_quadrature, mu) and same_float(report.nu_grid, nu)
    # mu was handed R, the row's R at its nodes to the bit, or took long
    # double, which is handed nothing
    (gathered,) = handed
    if extended:
        assert gathered is None
    else:
        want = competitor_function(fresh.basis, w, fresh.coefficients)(grid)
        assert gathered.shape == grid.shape and exact_bits(gathered, want)


def test_mu_sums_no_node_only_where_it_is_handed_r(monkeypatch):
    spec = KernelSpec(1, 0.02 + 0.01j)
    free = [0.3, -0.2j]
    assert extended_mu(mu_min_closed_form(spec, free))
    approx = build_approximant(spec, free)
    basis, row = approx.basis, approx.coefficients
    grid = circle_grid(approx.expansion.grid_size)
    nu, gathered = nu_functional(spec, basis, row, circle_grid(NU_GRID_NODES),
                                 gather=NU_GRID_NODES // len(grid))
    assert same_float(nu, nu_functional(spec, basis, row, circle_grid(NU_GRID_NODES)))
    assert gathered.shape == grid.shape
    # the report hands R to mu in doubles only
    with pytest.MonkeyPatch.context() as patch:
        handed = handed_sums(patch)
        build_error_report(spec, free)
    assert handed == [None]
    summed, sums = [], basis.eval_sum

    def spy(coefficients, z, **kwargs):
        summed.append((len(z), z.dtype))
        return sums(coefficients, z, **kwargs)

    monkeypatch.setattr(basis, "eval_sum", spy)
    values = [mu_functional(spec, basis, row, grid, extended=True),
              mu_functional(spec, basis, row, grid, extended=False, gathered=gathered)]
    # the long-double pass sums its one part; the double pass sums nothing
    assert summed == [(len(grid), np.dtype(np.clongdouble))]
    monkeypatch.undo()
    fresh = build_approximant(spec, free)
    for value, extended in zip(values, (True, False)):
        alone = mu_functional(spec, fresh.basis, fresh.coefficients, grid, extended=extended)
        assert same_float(value, alone)


def test_a_gathered_r_is_the_rows_r_at_every_stride_th_node():
    spec = KernelSpec(0, 0.4 - 0.1j)
    approx = build_approximant(spec, [0.2j, -0.5])
    basis, row = approx.basis, approx.coefficients
    grid = circle_grid(4096)
    # a refused pass hands nothing on
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteIntegrand):
        nu_functional(spec, basis, row * 1e308, grid, gather=2)
    nu, gathered = nu_functional(spec, basis, row, grid, gather=1)
    assert same_float(nu, nu_functional(spec, basis, row, grid))
    assert exact_bits(gathered, competitor_function(basis, spec.w, row)(grid))
    assert nu_functional(spec, basis, row, grid, gather=0) == (nu, None)
    # nested grids: mu on 2048 nodes reads every other R of 4096, and on
    # 4096 every 2nd, 16th of 8192 and 2^16 nodes: each R has the bits of
    # the row's own R there, and mu the bits of its own sum
    want = mu_functional(spec, basis, row, circle_grid(2048), extended=False)
    _, gathered = nu_functional(spec, basis, row, grid, gather=2)
    assert exact_bits(gathered, competitor_function(basis, spec.w, row)(circle_grid(2048)))
    handed = mu_functional(spec, basis, row, circle_grid(2048), extended=False, gathered=gathered)
    assert same_float(handed, want)
    for count in (8192, NU_GRID_NODES):
        _, gathered = nu_functional(spec, basis, row, circle_grid(count), gather=count // 4096)
        assert exact_bits(gathered, competitor_function(basis, spec.w, row)(grid))
    # a stride that does not divide a part: every third node of the grid,
    # across the parts of 2^16 nodes, and of a grid of 3000
    for count in (NU_GRID_NODES, 3000):
        nodes = circle_grid(count)
        _, gathered = nu_functional(spec, basis, row, nodes, gather=3)
        assert exact_bits(gathered, competitor_function(basis, spec.w, row)(nodes[::3]))


def test_passes_leave_a_basis_stateless():
    # each attribute as it was made, and no other: no pass stores anything
    # on the basis, and no design is stored
    spec = KernelSpec(1, 0.4 - 0.1j)
    free = [0.2j, -0.5, 0.3]
    approx = build_approximant(spec, free)
    basis, row = approx.basis, approx.coefficients
    grid = circle_grid(approx.expansion.grid_size)
    nu_functional(spec, basis, row, circle_grid(NU_GRID_NODES))
    for extended in (False, True):
        mu_functional(spec, basis, row, grid, extended=extended)
    equimodularity_variation(spec, basis, row, grid)
    report = build_error_report(spec, free)
    for passed in (basis, report.approximant.basis):
        made = vars(TMBasis(passed.poles))
        assert vars(passed).keys() == made.keys() and vars(passed) == made
        assert passed._designs == {}


def doctored_class_sums(monkeypatch, nodes, bad):
    """Make the nested sums of every basis non-finite at the given nodes of
    the node array, on the parts of a grid pass (no bracket sum)."""
    sums = TMBasis.eval_sum

    def doctored(self, coefficients, z, **kwargs):
        out = sums(self, coefficients, z, **kwargs)
        if np.ndim(z) == 1 and len(z) >= 4096:
            out[np.isin(z, nodes[bad])] = np.inf
        return out

    monkeypatch.setattr(TMBasis, "eval_sum", doctored)


@pytest.mark.parametrize("bad, kernel, node", [
    ([16 * 5], [], 5),
    ([16 * 5 + 3], [], 16 * 5 + 3),
    ([16 * 5 + 3, 16 * 700], [], 700),
    ([], [9], 9),
    ([16 * 3], [9], 9),
], ids=["R at a mu node", "R at a nu node only", "R at both", "K only", "K after R in a part"])
def test_a_refused_report_names_the_node_mu_first_named(bad, kernel, node, monkeypatch):
    # mu on 4096 nodes, every 16th of nu's.  Parent order, mu then nu on a
    # fresh approximant, names the first non-finite K_(alpha+2) or R of mu's
    # pass (K first within a part), else nu's first non-finite R; the
    # report, which runs nu first, raises the same error.  kernel holds mu
    # nodes whose K_(alpha+2) overflows, where K_(alpha+1) does not
    spec = KernelSpec(1, 0.5 + 0.2j)
    free = [0.3, -0.4j]
    doctored_class_sums(monkeypatch, circle_grid(NU_GRID_NODES), bad)
    power = bergman_approx.reciprocal_power

    def doctored_power(reciprocal, exponent):
        out = power(reciprocal, exponent)
        if exponent == spec.alpha + 2:
            out[kernel] = np.inf
        return out

    monkeypatch.setattr(bergman_approx, "reciprocal_power", doctored_power)
    approx = build_approximant(spec, free)
    grid = circle_grid(approx.expansion.grid_size)
    assert len(grid) == 4096
    with pytest.raises(NonFiniteIntegrand) as parent:
        mu_functional(spec, approx.basis, approx.coefficients, grid, extended=False)
        nu_functional(spec, approx.basis, approx.coefficients, circle_grid(NU_GRID_NODES))
    with pytest.raises(NonFiniteIntegrand) as raised:
        build_error_report(spec, free)
    assert raised.value.node_index == parent.value.node_index == node
    assert repr(raised.value.value) == repr(parent.value.value)
    assert str(raised.value) == str(parent.value)
