import numpy as np
import pytest

from diskrat import (
    AccuracyNotReached,
    NonFiniteIntegrand,
    PointNotInDisk,
    circle_grid,
    derivative_at,
    integrate_circle,
    require_in_disk,
)
from diskrat import circlequad


def test_grid_invariants():
    for extended, dtype in [(False, np.complex128), (True, np.clongdouble)]:
        grid = circle_grid(64, extended=extended)
        assert grid.dtype == dtype
        assert not grid.flags.writeable
        assert circle_grid(64, extended=extended) is grid  # cached
        assert len(grid) == 64
        assert np.all(np.abs(np.abs(grid) - 1.0) < 1e-15)
        assert len(np.unique(np.round(grid, 12))) == 64
        args = np.angle(grid)
        gaps = np.diff(np.unwrap(args))
        assert np.all(np.abs(gaps - 2 * np.pi / 64) < 1e-12)


def test_grid_rejects_nonpositive():
    for count in (0, -3):
        with pytest.raises(ValueError, match="node_count must be a positive integer"):
            circle_grid(count)


def test_constant_integrand():
    assert integrate_circle(lambda t: 1.0, circle_grid(64)) == pytest.approx(1.0)


@pytest.mark.parametrize("k", [1, 5, -3, 63, -17])
def test_trig_monomials_integrate_to_zero(k):
    value = integrate_circle(lambda t: t**k, circle_grid(64))
    assert abs(value) < 1e-14


def test_monomial_aliasing_at_grid_order():
    # k = 0 (mod N) aliases to the constant: the known exactness boundary
    value = integrate_circle(lambda t: t**64, circle_grid(64))
    assert value == pytest.approx(1.0)


def test_poisson_identity_against_geometric_series():
    # oracle: integral of d(sigma)/|1 - t w|^2 equals sum |w|^(2k)
    w = 0.5
    series = 0.0
    term = 1.0
    k = 0
    while term > 1e-17:
        series += term
        k += 1
        term = abs(w) ** (2 * k)
    value = integrate_circle(lambda t: 1.0 / np.abs(1.0 - t * w) ** 2, circle_grid(256))
    assert value.imag == pytest.approx(0.0, abs=1e-15)
    assert value.real == pytest.approx(series, abs=1e-13)
    assert value.real == pytest.approx(1.0 / (1.0 - 0.25), abs=1e-13)


def test_linearity_to_machine_precision():
    grid = circle_grid(128)
    f = lambda t: 1.0 / (1.0 - 0.4 * t)
    g = lambda t: t**2 + 0.3j * t
    a, b = 2.3 - 0.7j, -1.1 + 0.2j
    lhs = integrate_circle(lambda t: a * f(t) + b * g(t), grid)
    rhs = a * integrate_circle(f, grid) + b * integrate_circle(g, grid)
    assert abs(lhs - rhs) < 1e-14


def test_nonfinite_integrand_names_node():
    def f(t):
        t = np.asarray(t)
        out = np.ones(t.shape, dtype=complex)
        if out.ndim:
            out[3] = np.nan
        return out

    with pytest.raises(NonFiniteIntegrand) as err:
        integrate_circle(f, circle_grid(16))
    assert err.value.node_index == 3


def test_scalar_only_callable_is_rejected():
    # no silent point-by-point retry: the callable's own error surfaces
    def f(t):
        if np.ndim(t):
            raise TypeError("scalar only")
        return t**2

    with pytest.raises(TypeError, match="scalar only"):
        integrate_circle(f, circle_grid(32))


def test_wrong_shape_result_is_rejected():
    with pytest.raises(ValueError, match="one value per node"):
        integrate_circle(lambda t: t[:5], circle_grid(32))


def test_doubling_invariance_for_artifact_integrands():
    # kernel-type integrands are already converged at the default size:
    # doubling the node count moves the value by far less than 1e-12
    for w in (0.5, 0.9 * np.exp(0.4j)):
        f = lambda t, w=w: 1.0 / np.abs(1.0 - np.conj(w) * t) ** 4
        coarse = integrate_circle(f, circle_grid(4096))
        fine = integrate_circle(f, circle_grid(8192))
        assert abs(fine - coarse) < 1e-12 * max(1.0, abs(fine))


def test_derivative_polynomial():
    assert derivative_at(lambda z: z**2, 0.0, order=2) == pytest.approx(2.0, abs=1e-12)


def test_derivative_geometric_series_coefficient():
    value = derivative_at(lambda z: 1.0 / (1.0 - 0.5 * z), 0.0, order=1)
    assert value == pytest.approx(0.5, abs=1e-12)


def test_derivative_matches_hand_differentiated_closed_form():
    # oracle: d/dz (1 - 0.5 z)^-3 = 3 * 0.5 * (1 - 0.5 z)^-4 at z = 0.2
    expected = 3.0 * 0.5 / (1.0 - 0.5 * 0.2) ** 4
    value = derivative_at(lambda z: 1.0 / (1.0 - 0.5 * z) ** 3, 0.2, order=1)
    assert value == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "f,a",
    [
        (lambda z: np.exp(z), 0.1 + 0.2j),
        (lambda z: 1.0 / (1.0 - 0.7 * z) ** 2, -0.3j),
        (lambda z: z**5 - 2 * z + 1, 0.5),
    ],
)
def test_derivative_order_zero_is_mean_value(f, a):
    assert abs(derivative_at(f, a, order=0) - f(a)) < 1e-12


def test_derivative_reports_cap():
    # a pole just outside the sampling circle |z| = 1/2 about 0: the ring
    # values never settle within 2^16 nodes
    with pytest.raises(AccuracyNotReached, match="within 65536 nodes"):
        derivative_at(lambda z: 1.0 / (1.0 - z / 0.5000001), 0.0, order=3)


@pytest.mark.parametrize("a", [0.0, 0.5, -0.3 + 0.6j, 0.999])
def test_derivative_samples_the_half_distance_circle(a):
    distances = []

    def f(z):
        distances.append(np.abs(z - a))
        return z

    derivative_at(f, a, order=1)
    radius = np.concatenate(distances)
    assert np.allclose(radius, (1.0 - abs(a)) / 2.0, rtol=1e-12, atol=0.0)


def test_derivative_rejects_negative_order():
    with pytest.raises(ValueError):
        derivative_at(lambda z: z, 0.5, order=-1)


def test_disk_membership():
    assert require_in_disk(0.95) == 0.95
    assert require_in_disk(0.3 + 0.4j) == 0.3 + 0.4j
    for bad in (1.0 - 1e-10, 1.0, 1.2, -1.0, 1.5j):
        with pytest.raises(PointNotInDisk):
            require_in_disk(bad)


@pytest.mark.parametrize("count", [4096.7, 0.5, float("nan"), float("inf"), True, False, "64"])
def test_grid_refuses_a_node_count_that_is_not_an_integer(count, monkeypatch):
    made = []
    monkeypatch.setattr(circlequad, "_circle_nodes", lambda n, extended: made.append(n))
    hits = circle_grid.cache_info().hits
    with pytest.raises(ValueError, match="node_count must be an integer"):
        circle_grid(count)
    assert made == []
    assert circle_grid.cache_info().hits == hits  # a raise is not cached


def test_an_integral_float_gives_the_cached_grid_of_its_int():
    assert circle_grid(4096.0) is circle_grid(4096)
    assert circle_grid(np.float64(4096.0)) is circle_grid(4096)
    assert circle_grid(4096.0, extended=True) is circle_grid(4096, extended=True)
    assert len(circle_grid(np.int64(64))) == 64


def test_power_of_two_grids_nest_bit_for_bit():
    # 2 pi j / N is 2 pi (j M/N) / M exactly for powers of two: the node
    # angles differ by exact power-of-two scalings, so every grid is every
    # (M/N)-th node of a finer one, to the bit.  Error reports hand mu the R
    # that nu's 2^16-node pass gathers at mu's nodes on this account
    # (build_error_report).
    sizes = [2**k for k in range(8, 18)]
    for fine in sizes:
        grid = circle_grid(fine)
        for count in (n for n in sizes if n <= fine):
            nested = grid[:: fine // count]
            for part in (np.real, np.imag):
                assert np.array_equal(part(nested).view(np.int64),
                                      part(circle_grid(count)).view(np.int64))
