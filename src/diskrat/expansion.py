"""Fourier expansions of boundary functions in the orthonormal rational system.

Coefficients of a general boundary function are plain quadratures
c_m(f) = integral of f conj(phi_m) against normalized Lebesgue measure.  The
coefficients of the weighted Bergman kernel need no quadrature: by its
reproducing property they are derivatives of phi_m at the kernel point (see
expand_kernel).  Partial sums, the Blaschke-weighted remainder of
the Hardy-space representation

    f(z) = sum_{m<n} c_m(f) phi_m(z)
           + B_n(z) * integral conj(B_n(t)) f(t) / (1 - z conj(t)) d(sigma),

and the kernel-remainder integral used by the closed forms all live here.
Boundary functions are supplied as callables evaluated at grid nodes.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .circlequad import integrate_circle, json_complex, require_in_disk, sample_on_nodes
from .errors import CountOutOfRange, IndexOutOfRange, OrderTooSmall, TrailingPolesMismatch
from .kernels import KernelSpec
from .tm_basis import PIECE_NODES, PoleSequence, TMBasis, inner_products

__all__ = [
    "default_grid_size",
    "FourierExpansion",
    "expand_function",
    "expand_kernel",
    "h2_remainder",
    "remainder_integral_J",
]


def _next_pow2(n: int) -> int:
    return 1 << max(0, (int(n) - 1)).bit_length()


def default_grid_size(n: int, rho: float = 0.0) -> int:
    """Grid size for expansions of order n with singularity radius rho.

    Base size max(PIECE_NODES, 64*(n+1)), so up to 64 functions get a grid
    of one part; integrand smoothness degrades as the poles
    or the kernel point approach the circle, so for rho >= 0.8 the size is
    escalated until the geometric quadrature decay rho^N is driven far below
    double precision, rounded up to a power of two.  Only a size: the cap
    is circlequad.circle_grid's, checked when a grid is made.
    """
    size = max(PIECE_NODES, 64 * (int(n) + 1))
    rho = float(rho)
    if rho >= 0.8:
        needed = int(math.ceil(120.0 / -math.log10(rho)))
        size = max(size, _next_pow2(needed))
    return size


class FourierExpansion:
    """Coefficients c_0..c_n of a boundary function over a TM basis."""

    #: The read-only Taylor table the coefficients were read from, which
    #: expand_kernel sets; None for coefficients from quadrature or given.
    taylor: np.ndarray | None = None

    def __init__(self, basis: TMBasis, coefficients, source: str, grid_size: int):
        coefficients = np.asarray(coefficients, dtype=complex)
        if coefficients.ndim != 1 or len(coefficients) > basis.size:
            raise ValueError("coefficient vector does not fit the basis")
        coefficients.setflags(write=False)
        self.basis = basis
        self.coefficients = coefficients
        self.source = str(source)
        self.grid_size = int(grid_size)

    def partial_sum(self, count: int, z):
        """sum_{m<count} c_m phi_m(z); the empty sum is 0.  The nested sum
        of TMBasis.eval_sum at all of z, which forms no basis block and
        which MAX_DESIGN_BYTES bounds."""
        count = int(count)
        if not 0 <= count <= len(self.coefficients):
            raise CountOutOfRange(
                f"requested {count} terms, stored {len(self.coefficients)}"
            )
        out = self.basis.eval_sum(self.coefficients[:count], z)
        return complex(out) if np.ndim(out) == 0 else out

    def to_json_dict(self) -> dict:
        return {
            "poles": json_complex(self.basis.poles),
            "coefficients": json_complex(self.coefficients),
            "source": self.source,
        }


def expand_function(
    f: Callable, basis: TMBasis, grid: np.ndarray, source: str = ""
) -> FourierExpansion:
    """Expand f over the whole basis by quadrature: its inner products with
    the (stored) design matrix, all coefficients at once."""
    values = sample_on_nodes(f, grid)
    coefficients = inner_products(basis.design_matrix(grid), values)
    return FourierExpansion(basis, coefficients, source, len(grid))


def expand_kernel(spec: KernelSpec, basis: TMBasis) -> FourierExpansion:
    """Coefficients of K_alpha(.; w) from its reproducing property, without
    quadrature.  K_alpha(z; w) = sum_j C(j+1+alpha, 1+alpha) conj(w)^j z^j, so

        c_m = conj( (1/(alpha+1)!) d^(alpha+1)/dw^(alpha+1) [w^(alpha+1) phi_m(w)] )
            = conj( sum_{k<=alpha+1} C(alpha+1, k) w^k phi_m^(k)(w) / k! ),

    read off the Taylor coefficients of the basis at w, basis.taylor(w,
    alpha + 1), which the expansion keeps, read-only, as its taylor (for
    Approximant.pole_derivatives).  The expansion's grid_size is the grid
    the quadratic functional is evaluated on, default_grid_size at the
    largest of |w| and the pole moduli."""
    rho = max(basis.poles.max_modulus, abs(spec.w))
    grid_size = default_grid_size(basis.max_index, rho)
    a1 = spec.alpha + 1
    table = basis.taylor(spec.w, a1)
    table.setflags(write=False)
    weights = [math.comb(a1, k) * spec.w**k for k in range(a1 + 1)]
    # coefficients past the double range stay silent: the rows and grid passes refuse them
    with np.errstate(over="ignore", invalid="ignore"):
        coefficients = np.conj(table @ weights)
    source = f"bergman_kernel(alpha={spec.alpha}, w={spec.w!r})"
    expansion = FourierExpansion(basis, coefficients, source, grid_size)
    expansion.taylor = table
    return expansion


def h2_remainder(f: Callable, basis: TMBasis, n: int, z, grid: np.ndarray) -> complex:
    """B_n(z) * quadrature of conj(B_n(t)) f(t) / (1 - z conj(t)).

    Together with the n-term partial sum this reconstructs f(z) exactly (up to
    quadrature accuracy) for boundary traces of H2 functions; n = 0 degenerates
    to the plain Cauchy integral.
    """
    n = int(n)
    if not 0 <= n <= basis.size:
        raise CountOutOfRange(f"remainder order {n} outside 0..{basis.size}")
    z = require_in_disk(z)
    b = basis.blaschke(n)
    remainder = integrate_circle(lambda t: np.conj(b(t)) * f(t) / (1.0 - z * np.conj(t)), grid)
    return complex(b(z) * remainder)


def validate_trailing_poles(spec: KernelSpec, poles: PoleSequence, n: int) -> None:
    """Require a_{n-alpha} .. a_n all equal to w (exact complex equality)."""
    n = int(n)
    if n < spec.alpha:
        raise OrderTooSmall(f"n = {n} is smaller than alpha = {spec.alpha}")
    if n >= len(poles):
        raise IndexOutOfRange(f"pole sequence of length {len(poles)} has no index {n}")
    block = poles[n - spec.alpha : n + 1]
    if any(p != spec.w for p in block):
        raise TrailingPolesMismatch(
            f"poles a_{n - spec.alpha}..a_{n} = {list(block)} != w = {spec.w}"
        )


def remainder_integral_J(
    spec: KernelSpec, basis: TMBasis, n: int, z, grid: np.ndarray
) -> complex:
    """Quadrature of conj(B_{n+1}(t)) K_alpha(t; w) / (1 - z conj(t)).

    Requires the trailing alpha+1 poles of the sequence to equal w and
    n >= alpha.
    """
    validate_trailing_poles(spec, basis.poles, n)
    z = require_in_disk(z)
    b = basis.blaschke(int(n) + 1)
    return integrate_circle(
        lambda t: np.conj(b(t)) * spec.bergman(t) / (1.0 - z * np.conj(t)), grid
    )
