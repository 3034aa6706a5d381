"""The closed-form minima in doubles against the mpmath reference of
mpref.py, within a relative bound counted from their operations."""

import math

import mpmath
import pytest

from diskrat import KernelSpec, mu_min_closed_form, nu_min_closed_form

import mpref

U = 2.0**-53  # unit roundoff of a double

STATE_W = complex(-0.16441764599570138, -0.23825000659934784)

CONFIGURATIONS = {
    "state request": (2, STATE_W, [0j] * 28),
    **{f"{count} zero poles": (2, 0.3 + 0j, [0j] * count) for count in (6, 12, 18, 24, 30, 35)},
    "|w| = 0.999": (10, 0.999 + 0j, [0j]),
    "two free poles": (3, 0.9 + 0.3j, [0.5 + 0.1j, -0.3j]),
}


def closed_form_bounds(alpha: int, w: complex, poles) -> tuple[float, float]:
    """First-order relative error bounds of mu_min_closed_form and
    nu_min_closed_form at exact double inputs, counted operation by
    operation.  A basic operation on doubles rounds by at most u = 2^-53; a
    libm call (hypot behind abs of a complex, pow behind **) is within one
    ulp, 2u; a product of complex doubles is within sqrt(5) u normwise (with
    or without a fused multiply-add); and a quotient by Smith's algorithm,
    as numpy forms it, within 8u normwise: the ratio rho = d_i / d_r (1),
    the denominator d_r + d_i rho (2; both terms carry d_r's sign, so it
    cannot cancel), its reciprocal (1), each numerator component such as
    n_r + n_i rho (3 normwise, as |n rho| <= |n| sqrt(1 + rho^2)) and the
    product by the reciprocal (1).

    - r = |w|: 2u.  q = r^2, the rounding of |w|^2: twice r's error plus
      pow's, 6u.
    - s = 1 - q: q's error is absolute, q * 6u, so relative to s it is
      amplified by q / (1 - q); the subtraction adds u.
    - Powers: a rounded base of relative error e raised to the integer k
      has error k e to first order, and pow adds 2u: (alpha + 1) for q
      (and for nu's quotient r / s, of error 2u + e_s + u) and 2 alpha + 3
      for s.
    - |B(w)|: two roundings per Blaschke factor, the running product by
      w - a (sqrt(5) u) and the quotient by 1 - conj(a) w (8u), beside the
      forming of those two: w - a rounds each component (u), and
      1 - conj(a) w carries the product's sqrt(5) u |a w| amplified by
      |a w| / |1 - conj(a) w| and the subtraction's u.  abs of the product
      adds 2u.
    - mu divides the powers and multiplies by |B| twice (3u, with twice
      |B|'s error); nu multiplies once (u, with |B|'s error once).

    Second-order terms are below 1e-20 relative for every configuration
    here and are not counted."""
    r = abs(w)
    q = r * r
    e_q = 6 * U
    e_s = q / (1 - q) * e_q + U
    e_b = 2 * U
    for a in poles:
        denominator = abs(1 - a.conjugate() * w)
        e_b += U + (math.sqrt(5) * abs(a * w) / denominator + 1) * U + math.sqrt(5) * U + 8 * U
    e_mu = (alpha + 1) * e_q + 2 * U + (2 * alpha + 3) * e_s + 2 * U + 2 * e_b + 3 * U
    e_nu = (alpha + 1) * (2 * U + e_s + U) + 2 * U + e_b + U
    return e_mu, e_nu


@pytest.mark.parametrize("alpha, w, poles", CONFIGURATIONS.values(), ids=CONFIGURATIONS.keys())
def test_closed_form_minima_lie_within_their_counted_bound_of_the_reference(alpha, w, poles):
    spec = KernelSpec(alpha, w)
    bounds = closed_form_bounds(alpha, w, poles)
    for closed_form, reference, bound in [
        (mu_min_closed_form, mpref.mu_min, bounds[0]),
        (nu_min_closed_form, mpref.nu_min, bounds[1]),
    ]:
        value, exact = closed_form(spec, poles), reference(alpha, w, poles)
        assert math.isfinite(value) and value > 0.0
        error = float(abs(mpmath.mpf(value) - exact) / exact)
        assert error <= bound, (closed_form.__name__, error, bound)
