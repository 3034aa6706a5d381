"""Weighted Bergman kernels and Cauchy-power kernels on the closed disk.

The weighted Bergman kernel with non-negative integer weight alpha is

    K_alpha(z; w) = (1 - z conj(w))^-(2 + alpha),

alpha = 0 giving the classical Bergman kernel; the companion family
(1 - z conj(w))^-(1 + alpha) reduces at alpha = 0 to the Cauchy kernel.
Only integer alpha is admitted: the closed forms downstream rest on residue
calculus with integer-order poles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circlequad import require_in_disk

__all__ = ["KernelSpec", "reciprocal_power"]


def reciprocal_power(reciprocal, exponent: int):
    """reciprocal^exponent for exponent >= 1 by repeated multiplication,
    starting from reciprocal itself: reciprocal itself at exponent 1, else a
    new array.  These are the bits of the product started from ones wherever
    1 * r is r: at every finite r with no negative zero part, so at
    1 / (1 - z conj(w)) for every z of the closed disk.  A power past the
    double range is inf, silently; the grid passes refuse it."""
    out = reciprocal
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(exponent - 1):
            out = out * reciprocal
    return out


@dataclass(frozen=True)
class KernelSpec:
    """The pair (alpha, w) selecting the kernel K_alpha(.; w).

    Both kernels are powers of the reciprocal 1 / (1 - z conj(w)), never
    complex log/exp: no branch-cut ambiguity, and the exponents here are
    small.  A caller that holds that reciprocal takes the power with
    reciprocal_power, as the grid passes do with the one reciprocal per
    part that also serves their multiplier and the nested sum's last run."""

    alpha: int
    w: complex

    def __post_init__(self):
        alpha = self.alpha
        if isinstance(alpha, float):
            if not alpha.is_integer():
                raise ValueError(f"alpha must be a non-negative integer, got {alpha}")
            alpha = int(alpha)
        if not isinstance(alpha, (int, np.integer)) or isinstance(alpha, bool):
            raise ValueError(f"alpha must be a non-negative integer, got {alpha!r}")
        if alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {alpha}")
        object.__setattr__(self, "alpha", int(alpha))
        object.__setattr__(self, "w", require_in_disk(self.w))

    def _power(self, z, exponent: int):
        """(1 - z conj(w))^-exponent, by reciprocal_power."""
        out = reciprocal_power(1.0 / (1.0 - np.asarray(z) * np.conj(self.w)), exponent)
        return complex(out) if np.ndim(out) == 0 else out

    def bergman(self, z):
        """K_alpha(z; w) = (1 - z conj(w))^-(2 + alpha) for |z| <= 1."""
        return self._power(z, 2 + self.alpha)

    def cauchy_power(self, z):
        """(1 - z conj(w))^-(1 + alpha); alpha = 0 is the Cauchy kernel."""
        return self._power(z, 1 + self.alpha)
