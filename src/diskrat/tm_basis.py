"""Pole sequences, Blaschke products, and the orthonormal rational system.

For a sequence a_0, a_1, ... of points in the open unit disk the system is

    phi_0(z) = sqrt(1 - |a_0|^2) / (1 - conj(a_0) z),
    phi_k(z) = sqrt(1 - |a_k|^2) / (1 - conj(a_k) z)
               * prod_{j<k} (-|a_j|/a_j) (z - a_j) / (1 - conj(a_j) z),

with the convention that the factor (-|a_j|/a_j) is +1 when a_j = 0, so the
all-zero sequence reproduces the monomials z^k.  The system is orthonormal on
the unit circle against normalized Lebesgue measure.

Blaschke products here carry a free unimodular constant tau, fixed to 1 by
default; every downstream identity consumes only phase-cancelling combinations
such as conj(B(z)) B(zeta), so the choice is immaterial and is probed by the
phase-freedom tests.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .circlequad import CircleGrid, require_in_disk
from .errors import DesignTooLarge, IndexOutOfRange

__all__ = [
    "PoleSequence",
    "BlaschkeProduct",
    "TMBasis",
    "christoffel_darboux_residual",
]

#: Largest design matrix TMBasis.design_matrix may allocate, in bytes: nodes
#: times functions times 16 (complex double) or the size of a complex long
#: double (32 on x86-64).  The largest design of the benchmark streams,
#: 16384 nodes by 38 functions in doubles, takes about 10 MB.
MAX_DESIGN_BYTES = 2**28


class PoleSequence:
    """Ordered points of the open unit disk with multiplicity bookkeeping.

    Repetitions are allowed (including zeros).  Multiplicities are counted by
    exact complex equality of the stored values on purpose: tolerance-based
    clustering would silently change interpolation multiplicities, so callers
    who mean "equal poles" must pass bitwise-equal values.
    """

    def __init__(self, points: Iterable[complex]):
        self._points = tuple(require_in_disk(p) for p in points)

    @property
    def points(self) -> tuple[complex, ...]:
        return self._points

    def __len__(self):
        return len(self._points)

    def __iter__(self):
        return iter(self._points)

    def __getitem__(self, index):
        return self._points[index]

    def __eq__(self, other):
        return isinstance(other, PoleSequence) and self._points == other._points

    def __hash__(self):
        return hash(self._points)

    def __repr__(self):
        return f"PoleSequence({list(self._points)!r})"

    def multiplicity_in_prefix(self, m: int) -> int:
        """s_m: occurrences of a_m among a_0..a_m."""
        a = self._points[m]
        return sum(1 for p in self._points[: m + 1] if p == a)

    @property
    def max_modulus(self) -> float:
        return max((abs(p) for p in self._points), default=0.0)

    def prefix(self, count: int) -> "PoleSequence":
        return PoleSequence(self._points[:count])

    def with_trailing(self, w: complex, count: int) -> "PoleSequence":
        return PoleSequence(self._points + (complex(w),) * count)

    @classmethod
    def random(
        cls,
        count: int,
        rng: np.random.Generator,
        max_modulus: float = 0.9,
        min_modulus: float = 0.0,
    ) -> "PoleSequence":
        """Area-uniform draw from the annulus min_modulus <= |a| <= max_modulus."""
        radii = np.sqrt(rng.uniform(min_modulus**2, max_modulus**2, size=count))
        angles = rng.uniform(0.0, 2.0 * np.pi, size=count)
        return cls(complex(r * np.cos(t), r * np.sin(t)) for r, t in zip(radii, angles))


class BlaschkeProduct:
    """Finite Blaschke product tau * prod (z - a_j) / (1 - conj(a_j) z).

    Unimodular on the circle, of modulus < 1 inside the disk, with zeros at
    the poles of the generating sequence.  The degree-0 product is identically
    tau (= 1 by default).
    """

    def __init__(self, poles: PoleSequence | Sequence[complex], tau: complex = 1.0):
        if not isinstance(poles, PoleSequence):
            poles = PoleSequence(poles)
        tau = complex(tau)
        if abs(abs(tau) - 1.0) > 1e-12:
            raise ValueError("tau must be unimodular")
        self.poles = poles
        self.tau = tau

    @property
    def degree(self) -> int:
        return len(self.poles)

    def with_tau(self, tau: complex) -> "BlaschkeProduct":
        return BlaschkeProduct(self.poles, tau)

    def __call__(self, z):
        z = np.asarray(z)
        out = np.full(z.shape, self.tau, dtype=np.result_type(z, np.complex128))
        for a in self.poles:
            out = out * (z - a) / (1.0 - np.conj(a) * z)
        return complex(out) if out.ndim == 0 else out

    def tm_phase(self) -> complex:
        """prod (-|a_j|/a_j), the unimodular constant relating tau = 1 to the
        phase convention the orthonormal system inherits; +1 at zero poles."""
        phase = 1.0 + 0.0j
        for a in self.poles:
            if a != 0:
                phase *= -abs(a) / a
        return phase


class TMBasis:
    """Evaluator for phi_0..phi_n bound to a pole sequence.

    All poles of every phi_k lie at the circle reflections 1/conj(a_j), so the
    functions are analytic on the closed unit disk.
    """

    def __init__(self, poles: PoleSequence | Sequence[complex]):
        if not isinstance(poles, PoleSequence):
            poles = PoleSequence(poles)
        if len(poles) == 0:
            raise ValueError("a basis needs at least one pole")
        self.poles = poles
        # per-pole constants of the recurrence: sqrt(1 - |a|^2), conj(a) and
        # the unimodular factor -|a|/a (+1 at a zero pole)
        self._norms = [math.sqrt(1.0 - abs(a) ** 2) for a in poles]
        self._conjs = [a.conjugate() for a in poles]
        self._phases = [-abs(a) / a if a != 0 else 1.0 for a in poles]
        # id(nodes) -> (nodes, read-only design matrix), filled only by
        # design_matrix; holding the nodes keeps their id from being reused
        self._designs: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def size(self) -> int:
        return len(self.poles)

    @property
    def max_index(self) -> int:
        return len(self.poles) - 1

    def _check_count(self, count: int | None) -> int:
        if count is None:
            return self.size
        if not 0 <= count <= self.size:
            raise IndexOutOfRange(f"requested {count} functions, have {self.size}")
        return count

    def eval_all(self, z, count: int | None = None) -> np.ndarray:
        """Stack [phi_0(z), ..., phi_{count-1}(z)] along a new leading axis.

        On the node array of a grid that design_matrix has seen, the result
        is a read-only view of the stored matrix.  Otherwise the recurrence
        forms the denominator 1 - conj(a) z once per pole, shares it between
        phi_k and the next product factor, reuses both for a repeated pole,
        and skips the division at a zero pole, whose factor is z itself.
        """
        count = self._check_count(count)
        entry = self._designs.get(id(z))
        if entry is not None:
            return entry[1][:, :count].T
        z = np.asarray(z)
        scalar = z.ndim == 0
        zz = np.atleast_1d(z)
        out = np.empty((count,) + zz.shape, dtype=np.result_type(zz, np.complex128))
        running = np.ones(zz.shape, dtype=out.dtype)
        previous = None
        for k in range(count):
            a = self.poles[k]
            if a != previous:
                if a == 0:
                    scale, factor = None, zz
                else:
                    denominator = 1.0 - self._conjs[k] * zz
                    scale = self._norms[k] / denominator
                    factor = self._phases[k] * (zz - a) / denominator
                previous = a
            out[k] = running if scale is None else scale * running
            if k + 1 < count:
                running = running * factor
        return out[:, 0] if scalar else out

    def design_matrix(self, grid: CircleGrid, count: int | None = None) -> np.ndarray:
        """Node-by-function matrix A[j, k] = phi_k(node_j), read-only.

        The full matrix is evaluated once per grid and stored with the basis,
        keyed by the identity of the grid's (immutable, cached) node array.
        A matrix of more than MAX_DESIGN_BYTES raises DesignTooLarge before
        anything is allocated."""
        count = self._check_count(count)
        nodes = grid.nodes
        entry = self._designs.get(id(nodes))
        if entry is None:
            itemsize = np.result_type(nodes, np.complex128).itemsize
            size = grid.node_count * self.size * itemsize
            if size > MAX_DESIGN_BYTES:
                raise DesignTooLarge(
                    f"a design matrix of {grid.node_count} nodes by {self.size} functions "
                    f"needs {size} bytes, more than the cap of {MAX_DESIGN_BYTES}"
                )
            design = self.eval_all(nodes).T
            design.setflags(write=False)
            entry = self._designs.setdefault(id(nodes), (nodes, design))
        return entry[1] if count == self.size else entry[1][:, :count]

    def taylor(self, w: complex, order: int) -> np.ndarray:
        """Row k holds the Taylor coefficients phi_k^(j)(w) / j!, j = 0..order.

        Truncated series arithmetic in h = z - w through the running product
        of eval_all.  With d = 1 - conj(a) w and r = conj(a) / d,

            1 / (1 - conj(a) z)        = sum_j r^j h^j / d,
            (z - a) / (1 - conj(a) z)  = (w - a) / d
                                         + sum_{j>=1} r^(j-1) (1 - |a|^2) / d^2 h^j.
        """
        w = complex(w)
        powers = np.arange(int(order) + 1)
        out = np.empty((self.size, len(powers)), dtype=complex)
        running = (powers == 0).astype(complex)
        for k, a in enumerate(self.poles):
            d = 1.0 - self._conjs[k] * w
            geometric = (self._conjs[k] / d) ** powers / d
            out[k] = self._norms[k] * np.convolve(geometric, running)[: len(powers)]
            factor = np.empty_like(geometric)
            factor[0] = (w - a) / d
            factor[1:] = geometric[:-1] * ((1.0 - abs(a) ** 2) / d)
            running = np.convolve(running, self._phases[k] * factor)[: len(powers)]
        return out

    def gram_matrix(self, grid: CircleGrid) -> np.ndarray:
        """Discrete Gram <phi_k, phi_l> under the grid's quadrature."""
        a = self.design_matrix(grid)
        return (a.T @ np.conj(a)) * grid.weight

    def blaschke(self, degree: int, tau: complex = 1.0) -> BlaschkeProduct:
        """Blaschke product over the first `degree` poles."""
        if not 0 <= degree <= self.size:
            raise IndexOutOfRange(
                f"Blaschke degree {degree} outside 0..{self.size}"
            )
        return BlaschkeProduct(self.poles.prefix(degree), tau)


def christoffel_darboux_residual(
    basis: TMBasis, n: int, z, zeta, tau: complex = 1.0
) -> float:
    """Largest residual of the partial-reproducing-kernel identity

        1/(1 - conj(z) zeta) = sum_{k<n} conj(phi_k(z)) phi_k(zeta)
                               + conj(B_n(z)) B_n(zeta) / (1 - conj(z) zeta)

    over the pairs (z[i], zeta[i]) of open-disk points, for
    1 <= n <= max_index + 1.  Scalars count as one pair.  The optional tau
    probes phase freedom: the result must not depend on it.
    """
    n = int(n)
    if not 1 <= n <= basis.max_index + 1:
        raise IndexOutOfRange(f"n = {n} outside 1..{basis.max_index + 1}")
    z, zeta = (
        np.array([require_in_disk(p) for p in np.ravel(v)], dtype=complex)
        for v in (z, zeta)
    )
    cauchy = 1.0 / (1.0 - np.conj(z) * zeta)
    phi_z = basis.eval_all(z, count=n)
    phi_zeta = basis.eval_all(zeta, count=n)
    kernel_sum = np.sum(np.conj(phi_z) * phi_zeta, axis=0)
    b = basis.blaschke(n, tau)
    remainder = np.conj(b(z)) * b(zeta) * cauchy
    return float(np.max(np.abs(cauchy - kernel_sum - remainder)))
