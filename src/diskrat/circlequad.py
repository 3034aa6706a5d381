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

from .errors import AccuracyNotReached, GridTooLarge, NonFiniteIntegrand, PointNotInDisk

#: Points with modulus >= 1 - EPS_BOUNDARY are rejected as disk points; the
#: closed-form error constants downstream blow up like (1 - |w|^2)^-(2a+3).
EPS_BOUNDARY = 1e-9

#: Largest quadrature grid circle_grid makes.
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


def require_finite(start: int, stride: int, values: np.ndarray):
    """Raise NonFiniteIntegrand at the first non-finite node of the first
    row of values holding one, values sampled at every stride-th node from
    node start."""
    if not np.isfinite(values).all():
        row, node = np.argwhere(~np.isfinite(values))[0]
        raise NonFiniteIntegrand(start + stride * int(node), complex(values[row, node]))


def random_disk_points(rng: np.random.Generator, count: int, max_modulus: float) -> np.ndarray:
    """count points drawn uniformly by area from the disk |z| <= max_modulus:
    count radii max_modulus * sqrt(U), then count angles 2 pi U."""
    radii = max_modulus * np.sqrt(rng.uniform(0.0, 1.0, count))
    return radii * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, count))


def json_complex(values):
    """The JSON form of complex values: [re, im], two floats, for a number,
    and lists of such pairs, nested as values is, for a sequence or array."""
    if isinstance(values, numbers.Number):
        z = complex(values)
        return [z.real, z.imag]
    return [json_complex(v) for v in values]


def _circle_nodes(node_count: int, extended: bool) -> np.ndarray:
    """The N equispaced unit-circle nodes exp(2*pi*i*j/N), read-only;
    each carries the weight 1/N.  Uncached: circle_grid alone calls it."""
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
    return nodes


@lru_cache(maxsize=32)
def circle_grid(node_count: int, extended: bool = False) -> np.ndarray:
    """The grid of node_count nodes: its cached, read-only node array,
    complex128, or clongdouble with extended=True; shared arrays are safe,
    since none can be written.  The one maker of grids: a node count that
    is a bool or not integral raises ValueError, and so does one below 1;
    more than MAX_NODES nodes raise GridTooLarge, before anything is
    allocated (a raise is not cached).  An integral float gives the grid of
    its int."""
    if isinstance(node_count, float) and node_count.is_integer():
        # the cache keys a call by its shape: call as the library does
        count = int(node_count)
        return circle_grid(count, extended=True) if extended else circle_grid(count)
    if not isinstance(node_count, (int, np.integer)) or isinstance(node_count, bool):
        raise ValueError(f"node_count must be an integer, got {node_count!r}")
    if node_count < 1:
        raise ValueError("node_count must be a positive integer")
    if node_count > MAX_NODES:
        raise GridTooLarge(
            f"a quadrature grid of {node_count} nodes, more than the cap of {MAX_NODES}"
        )
    return _circle_nodes(int(node_count), extended)


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
    require_finite(0, 1, values.reshape(1, -1))
    return values


def integrate_circle(f: Callable, grid: np.ndarray) -> complex:
    """Trapezoid-rule integral of f over the unit circle against d(sigma).

    Exactly linear in f; exact for trigonometric monomials t^k with
    k != 0 (mod N); geometrically convergent for integrands analytic in an
    annulus containing the circle.
    """
    values = sample_on_nodes(f, grid)
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

    def on_ring(t):
        # at order 0 no factor t^0 = 1 + 0j multiplies f: it could flip a signed zero
        return f(a + radius * t) * t ** (-order) if order else f(a + radius * t)

    def ring_value(n: int) -> complex:
        return integrate_circle(on_ring, circle_grid(n)) * scale

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
