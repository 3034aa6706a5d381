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

__all__ = ["KernelSpec"]


@dataclass(frozen=True)
class KernelSpec:
    """The pair (alpha, w) selecting the kernel K_alpha(.; w)."""

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
        """(1 - z conj(w))^-exponent by repeated multiplication, never complex
        log/exp: no branch-cut ambiguity, and the exponents here are small."""
        base = 1.0 / (1.0 - np.asarray(z) * np.conj(self.w))
        out = np.ones_like(base)
        for _ in range(exponent):
            out = out * base
        return complex(out) if np.ndim(out) == 0 else out

    def bergman(self, z):
        """K_alpha(z; w) = (1 - z conj(w))^-(2 + alpha) for |z| <= 1."""
        return self._power(z, 2 + self.alpha)

    def cauchy_power(self, z):
        """(1 - z conj(w))^-(1 + alpha); alpha = 0 is the Cauchy kernel."""
        return self._power(z, 1 + self.alpha)
