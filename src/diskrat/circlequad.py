"""Quadrature on the unit circle with respect to normalized Lebesgue measure.

The workhorse is the composite trapezoid rule on N equispaced nodes, which for
integrands analytic in an annulus containing the circle converges geometrically
in N.  On top of it sit an adaptive node-doubling wrapper and a contour-integral
evaluator for derivatives of analytic functions (Cauchy's formula discretized
on a circle inside the disk).

All values are immutable after construction and every operation is pure, so
everything here is safe for unsynchronized concurrent use.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import (
    AccuracyNotReached,
    NonFiniteIntegrand,
    PointNotInDisk,
    RadiusEscapesDisk,
)

#: Points with modulus >= 1 - EPS_BOUNDARY are rejected as disk points; the
#: closed-form error constants downstream blow up like (1 - |w|^2)^-(2a+3).
EPS_BOUNDARY = 1e-9

DEFAULT_NODES = 4096
MAX_NODES = 2**20


def require_in_disk(z: complex, eps: float = EPS_BOUNDARY) -> complex:
    """Return z as a plain complex after checking that it is finite and
    |z| < 1 - eps."""
    z = complex(z)
    if not cmath.isfinite(z) or abs(z) >= 1.0 - eps:
        raise PointNotInDisk(
            f"point with |z| = {abs(z):.12g} is not strictly inside the unit disk"
        )
    return z


@dataclass(frozen=True)
class Disk:
    """A point strictly inside the open unit disk."""

    point: complex

    def __post_init__(self):
        object.__setattr__(self, "point", require_in_disk(self.point))


def _as_point(z) -> complex:
    return z.point if isinstance(z, Disk) else complex(z)


class CircleGrid:
    """N equispaced unit-circle nodes exp(2*pi*i*j/N), each with weight 1/N."""

    def __init__(self, node_count: int, extended: bool = False):
        node_count = int(node_count)
        if node_count < 1:
            raise ValueError("node_count must be a positive integer")
        self.node_count = node_count
        self.weight = 1.0 / node_count
        self.extended = bool(extended)
        if extended:
            # Long-double nodes; pi is recomputed in long double so the node
            # arguments are not limited by double rounding.
            pi_l = np.arccos(np.array(-1.0, dtype=np.longdouble))
            theta = 2.0 * pi_l * np.arange(node_count, dtype=np.longdouble)
            theta /= node_count
        else:
            theta = 2.0 * np.pi * np.arange(node_count) / node_count
        nodes = np.exp(1j * theta)
        nodes.setflags(write=False)
        self.nodes = nodes

    def __repr__(self):
        return f"CircleGrid(node_count={self.node_count})"


@lru_cache(maxsize=32)
def circle_grid(node_count: int, extended: bool = False) -> CircleGrid:
    """Cached grid factory; grids are immutable so sharing is safe."""
    return CircleGrid(node_count, extended=extended)


def sample_on_nodes(f: Callable, nodes: np.ndarray) -> np.ndarray:
    """Evaluate f on all nodes, accepting vectorized or scalar-only callables.

    Raises NonFiniteIntegrand naming the first offending node index.
    """
    try:
        values = np.asarray(f(nodes))
    except (TypeError, ValueError):
        values = np.asarray([f(t) for t in nodes])
    if values.ndim == 0:
        values = np.full(nodes.shape, complex(values), dtype=complex)
    if values.shape != nodes.shape:
        values = np.asarray([f(t) for t in nodes])
        if values.shape != nodes.shape:
            raise ValueError("integrand did not produce one value per node")
    bad = ~np.isfinite(values)
    if bad.any():
        idx = int(np.argmax(bad))
        raise NonFiniteIntegrand(idx, complex(values[idx]))
    return values


def integrate_circle(f: Callable, grid: CircleGrid) -> complex:
    """Trapezoid-rule integral of f over the unit circle against d(sigma).

    Exactly linear in f; exact for trigonometric monomials t^k with
    k != 0 (mod N); geometrically convergent for integrands analytic in an
    annulus containing the circle.
    """
    values = sample_on_nodes(f, grid.nodes)
    return complex(values.mean())


def integrate_circle_adaptive(
    f: Callable,
    rel_tol: float = 1e-12,
    start_nodes: int = DEFAULT_NODES,
    max_nodes: int = MAX_NODES,
) -> complex:
    """Double N until successive trapezoid values agree to rel_tol.

    The comparison scale is max(1, |I|): a pure relative test can never be
    met for integrals that are legitimately zero.
    """
    n = int(start_nodes)
    previous = integrate_circle(f, circle_grid(n))
    while n < max_nodes:
        n *= 2
        current = integrate_circle(f, circle_grid(n))
        if abs(current - previous) <= rel_tol * max(1.0, abs(current)):
            return current
        previous = current
    raise AccuracyNotReached(
        f"no convergence to rel_tol={rel_tol:g} within {max_nodes} nodes"
    )


def derivative_at(
    f: Callable,
    a,
    order: int = 0,
    radius: float | None = None,
    rel_tol: float = 1e-12,
    start_nodes: int = 256,
    max_nodes: int = 2**16,
) -> complex:
    """Derivative f^(order)(a) by the trapezoid-discretized Cauchy formula.

    Samples f on the circle of the given radius about a, which must stay
    inside the unit disk.  The default radius (1 - |a|)/2 balances the
    conditioning of radius^-order against boundary proximity; any
    sub-boundary circle works for functions analytic on the disk.
    """
    a = require_in_disk(_as_point(a))
    order = int(order)
    if order < 0:
        raise ValueError("derivative order must be non-negative")
    if radius is None:
        radius = (1.0 - abs(a)) / 2.0
    radius = float(radius)
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if radius >= 1.0 - abs(a):
        raise RadiusEscapesDisk(
            f"radius {radius:g} escapes the unit disk from center |a| = {abs(a):g}"
        )
    scale = math.factorial(order) / radius**order

    def ring_value(n: int) -> complex:
        grid = circle_grid(n)
        values = sample_on_nodes(lambda t: f(a + radius * t), grid.nodes)
        if order:
            values = values * grid.nodes ** (-order)
        return complex(values.mean()) * scale

    n = int(start_nodes)
    previous = ring_value(n)
    while n < max_nodes:
        n *= 2
        current = ring_value(n)
        if abs(current - previous) <= rel_tol * max(1.0, abs(current)):
            return current
        previous = current
    raise AccuracyNotReached(
        f"derivative quadrature did not settle within {max_nodes} nodes"
    )
