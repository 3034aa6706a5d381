"""Reference values in mpmath at 50 significant digits, sharing no code with
diskrat: the closed-form quadratic and uniform minima of the best
approximant of order n = len(poles) + alpha,

    mu_min = |w|^(2 alpha + 2) (1 - |w|^2)^-(2 alpha + 3) |B(w)|^2,
    nu_min = (|w| / (1 - |w|^2))^(alpha + 1) |B(w)|,

B the Blaschke product prod (z - a) / (1 - conj(a) z) over the free poles.
Each double input converts to mpmath exactly, so a value is the minimum at
the given doubles, to about 1e-50 relative."""

import mpmath

DIGITS = 50


def blaschke_modulus(w: complex, poles) -> mpmath.mpf:
    """|B(w)| over the free poles."""
    with mpmath.workdps(DIGITS):
        z, b = mpmath.mpc(w), mpmath.mpf(1)
        for a in map(mpmath.mpc, poles):
            b *= abs((z - a) / (1 - mpmath.conj(a) * z))
        return +b


def mu_min(alpha: int, w: complex, poles) -> mpmath.mpf:
    with mpmath.workdps(DIGITS):
        ww = abs(mpmath.mpc(w)) ** 2
        return ww ** (alpha + 1) / (1 - ww) ** (2 * alpha + 3) * blaschke_modulus(w, poles) ** 2


def nu_min(alpha: int, w: complex, poles) -> mpmath.mpf:
    with mpmath.workdps(DIGITS):
        r = abs(mpmath.mpc(w))
        return (r / (1 - r**2)) ** (alpha + 1) * blaschke_modulus(w, poles)
