import numpy as np
import pytest

from diskrat import KernelSpec, PointNotInDisk, circle_grid


@pytest.mark.parametrize("alpha", [0, 1, 3])
def test_kernel_degenerates_at_origin(alpha):
    spec = KernelSpec(alpha, 0j)
    for z in (0.0, 0.5, -0.9j, np.exp(0.3j)):
        assert spec.bergman(z) == pytest.approx(1.0)
        assert spec.cauchy_power(z) == pytest.approx(1.0)


def test_bergman_direct_substitution():
    assert KernelSpec(0, 0.5).bergman(0.5) == pytest.approx(1.0 / 0.75**2)


def test_bergman_against_independent_power():
    # oracle: plain real power computation
    expected = 1.0
    for _ in range(4):
        expected /= 0.7
    value = KernelSpec(2, 0.3).bergman(1.0 + 0j)
    assert value == pytest.approx(expected, rel=1e-15)


def test_cauchy_power_examples():
    assert KernelSpec(0, 0j).cauchy_power(0.77) == pytest.approx(1.0)
    assert KernelSpec(0, 0.5).cauchy_power(0.2) == pytest.approx(1.0 / 0.9)


def test_cauchy_power_reduces_to_lower_bergman():
    spec = KernelSpec(1, 0.25j)
    lower = KernelSpec(0, 0.25j)
    z = -0.4
    assert spec.cauchy_power(z) == pytest.approx(lower.bergman(z))


@pytest.mark.parametrize("alpha", [1, 2, 4])
def test_power_ratio_identity(alpha):
    spec = KernelSpec(alpha, 0.3 - 0.2j)
    lower = KernelSpec(alpha - 1, 0.3 - 0.2j)
    nodes = circle_grid(128)
    lhs = spec.cauchy_power(nodes) * (1.0 - nodes * np.conj(spec.w))
    rhs = lower.cauchy_power(nodes)
    assert np.max(np.abs(lhs - rhs)) < 1e-14


def test_vectorized_matches_scalar():
    spec = KernelSpec(2, 0.4j)
    zs = np.array([0.1, -0.3j, 0.2 + 0.2j])
    stacked = spec.bergman(zs)
    for z, v in zip(zs, stacked):
        assert v == pytest.approx(spec.bergman(complex(z)))


def test_alpha_validation():
    with pytest.raises(ValueError):
        KernelSpec(1.5, 0.3)
    with pytest.raises(ValueError):
        KernelSpec(-1, 0.3)
    with pytest.raises(ValueError):
        KernelSpec(True, 0.3)
    assert KernelSpec(2.0, 0.3).alpha == 2  # integral floats are accepted


def test_w_validation():
    with pytest.raises(PointNotInDisk):
        KernelSpec(0, 1.0)
    with pytest.raises(PointNotInDisk):
        KernelSpec(0, 1.0 - 1e-10)
    assert KernelSpec(0, 0.95).w == 0.95


@pytest.mark.parametrize("w", [complex(np.nan, 0), complex(0, np.inf), np.nan])
def test_w_rejects_non_finite(w):
    with pytest.raises(PointNotInDisk):
        KernelSpec(0, w)
