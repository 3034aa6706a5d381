"""Quadrature on the unit circle with respect to normalized Lebesgue measure.

The workhorse is the composite trapezoid rule on N equispaced nodes, which for
integrands analytic in an annulus containing the circle converges geometrically
in N.  On top of it sits a contour-integral evaluator for derivatives of
analytic functions (Cauchy's formula discretized on a circle inside the disk),
which doubles its node count until successive values agree.

All values are immutable after construction and every operation is pure, so
everything here is safe for unsynchronized concurrent use.
"""

from __future__ import annotations

import cmath
import math
import numbers
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import AccuracyNotReached, NonFiniteIntegrand, PointNotInDisk

#: Points with modulus >= 1 - EPS_BOUNDARY are rejected as disk points; the
#: closed-form error constants downstream blow up like (1 - |w|^2)^-(2a+3).
EPS_BOUNDARY = 1e-9

#: Largest quadrature grid an expansion may ask for (see
#: expansion.default_grid_size).
MAX_NODES = 2**20


def require_in_disk(z: complex) -> complex:
    """Return z as a plain complex after checking that it is finite and
    |z| < 1 - EPS_BOUNDARY."""
    z = complex(z)
    if not cmath.isfinite(z) or abs(z) >= 1.0 - EPS_BOUNDARY:
        raise PointNotInDisk(
            f"point with |z| = {abs(z):.12g} is not strictly inside the unit disk"
        )
    return z


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


def json_complex(values):
    """The JSON form of complex values: [re, im], two floats, for a number,
    and lists of such pairs, nested as values is, for a sequence or array."""
    if isinstance(values, numbers.Number):
        z = complex(values)
        return [z.real, z.imag]
    return [json_complex(v) for v in values]


@lru_cache(maxsize=32)
def circle_grid(node_count: int, extended: bool = False) -> CircleGrid:
    """Cached grid factory; grids are immutable so sharing is safe."""
    return CircleGrid(node_count, extended=extended)


def sample_on_nodes(f: Callable, nodes: np.ndarray) -> np.ndarray:
    """Evaluate the vectorized f on all nodes at once; a constant (0-d)
    result is broadcast to every node.

    Raises NonFiniteIntegrand naming the first offending node index.
    """
    values = np.asarray(f(nodes))
    if values.ndim == 0:
        values = np.full(nodes.shape, complex(values), dtype=complex)
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


#: derivative_at doubles its ring from _DERIVATIVE_START_NODES nodes until
#: successive values agree to _DERIVATIVE_TOL * max(1, |value|), and gives
#: up at _DERIVATIVE_MAX_NODES.
_DERIVATIVE_START_NODES = 256
_DERIVATIVE_MAX_NODES = 2**16
_DERIVATIVE_TOL = 1e-12


def derivative_at(f: Callable, a, order: int = 0) -> complex:
    """Derivative f^(order)(a) by the trapezoid-discretized Cauchy formula.

    Samples f on the circle of radius (1 - |a|)/2 about a, which balances
    the conditioning of radius^-order against boundary proximity and stays
    inside the unit disk, where f must be analytic.
    """
    a = require_in_disk(a)
    order = int(order)
    if order < 0:
        raise ValueError("derivative order must be non-negative")
    radius = (1.0 - abs(a)) / 2.0
    scale = math.factorial(order) / radius**order

    def ring_value(n: int) -> complex:
        grid = circle_grid(n)
        values = sample_on_nodes(lambda t: f(a + radius * t), grid.nodes)
        if order:
            values = values * grid.nodes ** (-order)
        return complex(values.mean()) * scale

    n = _DERIVATIVE_START_NODES
    previous = ring_value(n)
    while n < _DERIVATIVE_MAX_NODES:
        n *= 2
        current = ring_value(n)
        if abs(current - previous) <= _DERIVATIVE_TOL * max(1.0, abs(current)):
            return current
        previous = current
    raise AccuracyNotReached(
        f"derivative quadrature did not settle within {_DERIVATIVE_MAX_NODES} nodes"
    )
