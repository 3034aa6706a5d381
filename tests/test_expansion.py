import json
import math

import numpy as np
import pytest

from diskrat import (
    CircleGrid,
    CountOutOfRange,
    GridTooLarge,
    KernelSpec,
    OrderTooSmall,
    PoleSequence,
    TMBasis,
    TrailingPolesMismatch,
    build_error_report,
    circle_grid,
    closed_form_J,
    default_grid_size,
    expand_function,
    expand_kernel,
    h2_remainder,
    integrate_circle,
    remainder_integral_J,
)
from diskrat.circlequad import MAX_NODES

GRID = circle_grid(4096)


def binomial_coefficients(w, count):
    """Series oracle: K_0(x; w) = sum (k+1) (conj(w) x)^k, so the monomial
    coefficients are (k+1) conj(w)^k."""
    return [(k + 1) * np.conj(w) ** k for k in range(count)]


class TestFourierCoefficient:
    def test_orthonormal_reproduction(self):
        basis = TMBasis([0.3, -0.4j, 0.5, 0.2])
        for j in range(4):
            c = expand_function(lambda t, j=j: basis.eval_all(t)[j], basis, GRID).coefficients
            assert np.max(np.abs(c - np.eye(4)[j])) < 1e-12

    def test_bergman_coefficients_match_binomial_series(self):
        spec = KernelSpec(0, 0.5)
        basis = TMBasis([0j, 0j, 0j])
        expected = binomial_coefficients(0.5, 3)
        c = expand_function(spec.bergman, basis, GRID).coefficients
        assert c == pytest.approx(expected, abs=1e-12)
        assert expected[1] == pytest.approx(1.0)


class TestPartialSum:
    def test_empty_sum_is_zero(self):
        exp = expand_kernel(KernelSpec(0, 0.5), TMBasis([0j, 0j]))
        assert exp.partial_sum(0, 0.3) == 0.0

    def test_single_term_reproduces_first_function(self):
        basis = TMBasis([0.3, -0.4j])
        exp = expand_function(lambda t: basis.eval_all(t, count=1)[0], basis, GRID)
        z = 0.2 - 0.5j
        assert exp.partial_sum(1, z) == pytest.approx(basis.eval_all(z)[0], abs=1e-12)

    def test_truncated_binomial_value(self):
        # oracle: sum_{k<3} (k+1) (0.5 * 0.3)^k = 1.3675
        spec = KernelSpec(0, 0.5)
        exp = expand_kernel(spec, TMBasis([0j, 0j, 0j]))
        expected = sum((k + 1) * 0.15**k for k in range(3))
        assert expected == pytest.approx(1.3675)
        assert exp.partial_sum(3, 0.3) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "size, extended", [(2**14, False), (2**16, False), (2**15, True)]
    )
    def test_streamed_sum_keeps_the_bits_of_the_whole_grid(self, size, extended):
        spec = KernelSpec(1, 0.4 - 0.3j)
        basis = TMBasis([0.6j, 0j, 0.2, 0.2, spec.w, spec.w])
        exp = expand_kernel(spec, basis)
        nodes = circle_grid(size, extended=extended).nodes
        whole = np.tensordot(exp.coefficients[:5], basis.eval_all(nodes, count=5), axes=1)
        values = exp.partial_sum(5, nodes)
        assert values.dtype == whole.dtype
        assert np.array_equal(values, whole)
        square = nodes.reshape(-1, 2**7)
        assert np.array_equal(exp.partial_sum(5, square), whole.reshape(square.shape))

    def test_count_validation(self):
        exp = expand_kernel(KernelSpec(0, 0.5), TMBasis([0j, 0j]))
        with pytest.raises(CountOutOfRange):
            exp.partial_sum(3, 0.1)
        with pytest.raises(CountOutOfRange):
            exp.partial_sum(-1, 0.1)


class TestExpansionInvariants:
    def test_bessel_bound_and_monotone_sums(self):
        spec = KernelSpec(1, 0.6)
        free = PoleSequence.random(8, np.random.default_rng(7), max_modulus=0.8)
        basis = TMBasis(free.with_trailing(0.6, 2))
        exp = expand_kernel(spec, basis)
        norm_sq = integrate_circle(lambda t: np.abs(spec.bergman(t)) ** 2, GRID).real
        sums = np.cumsum(np.abs(exp.coefficients) ** 2)
        assert np.all(np.diff(sums) >= -1e-15)
        assert sums[-1] <= norm_sq + 1e-10

    def test_coefficients_reproducible(self):
        spec = KernelSpec(0, 0.4 - 0.3j)
        basis = TMBasis([0.3, -0.2j, spec.w])
        exp = expand_kernel(spec, basis)
        again = expand_function(spec.bergman, basis, circle_grid(exp.grid_size))
        assert np.max(np.abs(again.coefficients - exp.coefficients)) < 1e-12

    def test_json_round_trip(self):
        spec = KernelSpec(0, 0.5)
        exp = expand_kernel(spec, TMBasis([0.3, 0.5]))
        data = json.loads(json.dumps(exp.to_json_dict()))
        assert set(data) == {"poles", "coefficients", "source"}
        poles = PoleSequence(complex(*p) for p in data["poles"])
        coefficients = np.array([complex(*c) for c in data["coefficients"]])
        assert np.array_equal(coefficients, exp.coefficients)
        assert poles == exp.basis.poles
        assert data["source"] == exp.source

    def test_default_grid_escalates_near_boundary(self):
        assert default_grid_size(3) == 4096
        assert default_grid_size(100) == 64 * 101
        assert default_grid_size(3, rho=0.95) == 8192
        assert default_grid_size(3, rho=0.99) == 32768


class TestH2Representation:
    def test_order_zero_remainder_is_cauchy_integral(self):
        spec = KernelSpec(1, 0.4)
        basis = TMBasis([0.3, 0.4, 0.4])
        z = 0.2
        rem = h2_remainder(spec.bergman, basis, 0, z, GRID)
        # B_0 = 1: the plain Cauchy integral of the boundary values
        direct = np.mean(spec.bergman(GRID.nodes) / (1.0 - z * np.conj(GRID.nodes)))
        assert rem == pytest.approx(direct, abs=1e-14)
        assert rem == pytest.approx(spec.bergman(z), abs=1e-12)

    def test_function_in_span_has_zero_remainder(self):
        basis = TMBasis([0.3, -0.4j])
        rem = h2_remainder(lambda t: basis.eval_all(t, count=1)[0], basis, 1, 0.2 + 0.3j, GRID)
        assert abs(rem) < 1e-12

    def test_two_sided_representation_value(self):
        spec = KernelSpec(1, 0.4)
        basis = TMBasis([0.3, 0.4, 0.4])
        exp = expand_kernel(spec, basis)
        z = 0.2
        lhs = spec.bergman(z)  # equals 1/0.92^3
        assert lhs == pytest.approx(1.0 / 0.92**3)
        total = exp.partial_sum(3, z) + h2_remainder(spec.bergman, basis, 3, z, GRID)
        assert abs(lhs - total) < 1e-11

    def test_representation_identity_many_functions(self):
        rng = np.random.default_rng(17)
        poles = PoleSequence.random(15, np.random.default_rng(23), max_modulus=0.8)
        basis = TMBasis(poles)
        spec = KernelSpec(2, 0.5 - 0.2j)
        functions = [
            spec.bergman,
            lambda t: basis.eval_all(t, count=4)[3],
            lambda t: 1.0 + 2.0 * t - 0.5 * t**3,  # polynomial boundary trace
        ]
        radii = 0.8 * np.sqrt(rng.uniform(0, 1, 50))
        zs = radii * np.exp(2j * np.pi * rng.uniform(0, 1, 50))
        for f in functions:
            exp = expand_function(f, basis, GRID)
            for n in (1, 2, 3, 5, 8, 15):
                for z in zs[:10]:
                    z = complex(z)
                    value = f(z)
                    total = exp.partial_sum(n, z) + h2_remainder(f, basis, n, z, GRID)
                    assert abs(value - total) < 1e-10


class TestRemainderIntegral:
    def test_zero_kernel_point_kills_integral(self):
        spec = KernelSpec(0, 0j)
        basis = TMBasis([0j, 0j, 0j])
        for z in (0.0, 0.3 - 0.2j):
            value = remainder_integral_J(spec, basis, 2, z, GRID)
            assert abs(value) < 1e-14

    def test_trailing_pole_validation(self):
        spec = KernelSpec(0, 0.5)
        with pytest.raises(TrailingPolesMismatch):
            remainder_integral_J(spec, TMBasis([0.3, 0.2]), 1, 0.1, GRID)
        spec2 = KernelSpec(2, 0.5)
        with pytest.raises(OrderTooSmall):
            remainder_integral_J(spec2, TMBasis([0.5, 0.5, 0.5]), 1, 0.1, GRID)

    def test_closed_form_cross_check_alpha0(self):
        spec = KernelSpec(0, 0.5)
        basis = TMBasis([0.3, 0.5])
        quad = remainder_integral_J(spec, basis, 1, 0.1, GRID)
        closed = closed_form_J(spec, basis, 1, 0.1)
        assert abs(quad - closed) / abs(closed) < 1e-10

    def test_closed_form_cross_check_alpha1(self):
        spec = KernelSpec(1, 0.4j)
        basis = TMBasis([0.2, 0.4j, 0.4j])
        quad = remainder_integral_J(spec, basis, 2, -0.3, GRID)
        closed = closed_form_J(spec, basis, 2, -0.3)
        assert abs(quad - closed) / abs(closed) < 1e-10

    def test_consistency_with_kernel_remainder(self):
        # K - S_{n+1} = B_{n+1} * J at random disk points
        spec = KernelSpec(1, 0.4j)
        basis = TMBasis([0.2, 0.4j, 0.4j])
        exp = expand_kernel(spec, basis)
        rng = np.random.default_rng(29)
        radii = 0.8 * np.sqrt(rng.uniform(0, 1, 20))
        zs = radii * np.exp(2j * np.pi * rng.uniform(0, 1, 20))
        b = basis.blaschke(3)
        for z in zs:
            z = complex(z)
            lhs = spec.bergman(z) - exp.partial_sum(3, z)
            rhs = b(z) * remainder_integral_J(spec, basis, 2, z, GRID)
            assert abs(lhs - rhs) < 1e-10


def closed_form_cases():
    w = 0.45 - 0.3j
    random_free = list(PoleSequence.random(6, np.random.default_rng(61), max_modulus=0.85))
    for alpha in range(4):
        yield alpha, w, random_free
        yield alpha, w, [0j] * 5
        yield alpha, w, [0.3, 0.3, 0.3, -0.5j, -0.5j]
        yield alpha, w, [0.2, w, -0.6j]
        yield alpha, w, []
        yield alpha, 0j, random_free[:3]


class TestClosedFormCoefficients:
    @pytest.mark.parametrize("alpha, w, free", list(closed_form_cases()))
    def test_match_quadrature_expansion(self, alpha, w, free):
        spec = KernelSpec(alpha, w)
        basis = TMBasis(list(free) + [w] * (alpha + 1))
        closed = expand_kernel(spec, basis).coefficients
        quadrature = expand_function(spec.bergman, basis, circle_grid(2**14)).coefficients
        scale = float(np.max(np.abs(quadrature)))
        assert np.max(np.abs(closed - quadrature)) <= 1e-14 * scale

    def test_taylor_of_monomials(self):
        # zero poles give phi_k = z^k, whose Taylor coefficients at w are
        # C(k, j) w^(k-j)
        w = 0.3 + 0.4j
        taylor = TMBasis([0j] * 6).taylor(w, 3)
        for k in range(6):
            for j in range(4):
                expected = math.comb(k, j) * w ** (k - j) if j <= k else 0.0
                assert taylor[k, j] == pytest.approx(expected, abs=1e-15)

    def test_grid_size_is_the_mu_grid(self):
        spec = KernelSpec(1, 0.95)
        basis = TMBasis([0.3, 0.95, 0.95])
        assert expand_kernel(spec, basis).grid_size == default_grid_size(2, 0.95) == 8192


class TestGridCap:
    @pytest.mark.parametrize("rho, size", [(0.9999, 2**22), (1.0 - 1e-8, 2**35)])
    def test_sizes_past_the_cap_raise(self, rho, size):
        with pytest.raises(GridTooLarge, match=str(size)):
            default_grid_size(2, rho)

    def test_cap_itself_is_allowed(self):
        assert default_grid_size(2, 0.9997) == MAX_NODES
        assert default_grid_size(MAX_NODES // 64 - 1) == MAX_NODES
        with pytest.raises(GridTooLarge):
            default_grid_size(MAX_NODES // 64)

    def test_construction_raises_before_allocating(self, monkeypatch):
        def no_huge_grid(self, node_count, extended=False):
            raise AssertionError(f"allocating a grid of {node_count} nodes")

        monkeypatch.setattr(CircleGrid, "__init__", no_huge_grid)
        spec = KernelSpec(0, 0.99999999)
        with pytest.raises(GridTooLarge):
            expand_kernel(spec, TMBasis([0j, spec.w]))
        with pytest.raises(GridTooLarge):
            build_error_report(spec, [0j])
