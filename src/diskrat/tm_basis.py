"""Pole sequences, Blaschke products, and the orthonormal rational system.

For a sequence a_0, a_1, ... of points in the open unit disk the system is

    phi_0(z) = sqrt(1 - |a_0|^2) / (1 - conj(a_0) z),
    phi_k(z) = sqrt(1 - |a_k|^2) / (1 - conj(a_k) z)
               * prod_{j<k} (-|a_j|/a_j) (z - a_j) / (1 - conj(a_j) z),

with the convention that the factor (-|a_j|/a_j) is +1 when a_j = 0, so the
all-zero sequence reproduces the monomials z^k.  The system is orthonormal on
the unit circle against normalized Lebesgue measure.

Blaschke products here carry no free unimodular constant: every downstream
identity consumes only phase-cancelling combinations such as
conj(B(z)) B(zeta).
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .circlequad import require_in_disk
from .errors import DesignTooLarge, IndexOutOfRange

__all__ = [
    "PoleSequence",
    "BlaschkeProduct",
    "TMBasis",
    "christoffel_darboux_residual",
    "inner_products",
]

#: Largest array of values TMBasis.eval_all may allocate, in bytes: points
#: times functions times 16 (complex double) or the size of a complex long
#: double (32 on x86-64): the size of its output, a design.  It bounds
#: every design matrix, the working arrays of TMBasis.eval_sum, and what
#: inner_products forms: its result and one piece of conjugate values.
#: The grid passes take at most NODE_CHUNK nodes at a time: a batch of
#: m-coefficient rows evaluates one m x NODE_CHUNK block per part (m times
#: 256 KiB in doubles), or reads one m x PIECE_NODES part in place from a
#: stored design (TMBasis.eval_chunks), and multiplies it by the rows in
#: one product; one row, summed by eval_sum, forms no block.  eval_all
#: evaluates any other array whole, and design_matrix is the one writer of
#: stored whole-grid blocks.
MAX_DESIGN_BYTES = 2**28


def require_bytes(size: int, need: str):
    """Raise DesignTooLarge, saying need, when size bytes are more than
    MAX_DESIGN_BYTES, read at the call: every byte cap is refused here."""
    if size > MAX_DESIGN_BYTES:
        raise DesignTooLarge(f"{need}, more than the cap of {MAX_DESIGN_BYTES}")


#: The side of a Gram matrix of MAX_DESIGN_BYTES, 4096: no basis of more
#: functions has a Gram within the cap, so no command-line count asks for
#: more.  inner_products counts a conjugated piece of the design beside the
#: Gram, so it admits the Gram of at most 3969 functions on 256 nodes and
#: of at most 2531 on 4096.
MAX_FUNCTIONS = math.isqrt(MAX_DESIGN_BYTES // np.dtype(complex).itemsize)

#: Nodes per evaluated part of a streamed grid pass (TMBasis.eval_chunks),
#: and per part one row is summed on.  It must not be smaller: eval_all
#: rounds arrays under 256 KiB differently.  From that size on, numpy's temporary
#: elision rewrites phase * (zz - a) as an in-place (zz - a) * phase, and
#: numpy's SIMD complex multiply is not bit-commutative.  2^14 complex
#: doubles are exactly 256 KiB, so chunks of this size round as the whole
#: grid does; 4096-node chunks of a 2^16 grid differ at 24,907 nodes.  Long
#: double has no SIMD loop and rounds alike at every chunk size, and so
#: does eval_sum at any length.
NODE_CHUNK = 2**14

#: Nodes per part of a stored design that TMBasis.eval_chunks reads, and
#: the default grid size, so every default-size grid is one part.  A stored
#: part is sliced, not evaluated, so its length leaves its bits alone, and
#: a batch's product with it is a quarter of the size of one with a
#: NODE_CHUNK part, formed beside the stored design.
#: inner_products conjugates the design in pieces of columns that hold as
#: many values as PIECE_NODES of its rows.
PIECE_NODES = 2**12


class PoleSequence(tuple):
    """Ordered points of the open unit disk with multiplicity bookkeeping: a
    tuple of plain complex numbers, each checked by require_in_disk once.
    A sequence is accepted as itself, a prefix keeps its checked points,
    and with_trailing checks only the point it appends; a slice is a plain
    tuple, and equality and hashing are the tuple's.

    Repetitions are allowed (including zeros).  Multiplicities are counted by
    exact complex equality of the stored values on purpose: tolerance-based
    clustering would silently change interpolation multiplicities, so callers
    who mean "equal poles" must pass bitwise-equal values.
    """

    def __new__(cls, points: Iterable[complex]):
        if type(points) is cls:
            return points
        return super().__new__(cls, (require_in_disk(p) for p in points))

    def __repr__(self):
        return f"PoleSequence({list(self)!r})"

    @cached_property
    def multiplicities(self) -> tuple[int, ...]:
        """(s_0, s_1, ...), s_m the occurrences of a_m among a_0..a_m, in
        one pass."""
        seen: dict[complex, int] = {}
        out = []
        for a in self:
            seen[a] = seen.get(a, 0) + 1
            out.append(seen[a])
        return tuple(out)

    @property
    def max_modulus(self) -> float:
        return max((abs(p) for p in self), default=0.0)

    def prefix(self, count: int) -> "PoleSequence":
        return tuple.__new__(PoleSequence, self[:count])

    def with_trailing(self, w: complex, count: int) -> "PoleSequence":
        trailing = (require_in_disk(w),) * count if count > 0 else ()
        return tuple.__new__(PoleSequence, self + trailing)

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
    """Finite Blaschke product prod (z - a_j) / (1 - conj(a_j) z).

    Unimodular on the circle, of modulus < 1 inside the disk, with zeros at
    the poles of the generating sequence.  The degree-0 product is
    identically 1.
    """

    def __init__(self, poles: PoleSequence | Sequence[complex]):
        self.poles = PoleSequence(poles)

    def __call__(self, z):
        z = np.asarray(z)
        out = np.ones(z.shape, dtype=np.result_type(z, np.complex128))
        for a in self.poles:
            out = out * (z - a) / (1.0 - np.conj(a) * z)
        return complex(out) if out.ndim == 0 else out


def _phase(a: complex) -> complex:
    """-|a|/a, or +1 at a = 0.  A pole below 2^-900 in modulus is scaled by
    2^600 first, which is exact: |a| rounded to the subnormal range keeps too
    few bits to be unimodular against a (8.9e-12 off at |a| = 2.2e-313)."""
    if a == 0:
        return 1.0
    if abs(a) < 2.0**-900:
        a *= 2.0**600
    return -abs(a) / a


def _conjugate_pieces(design_shape, values_shape, itemsize: int) -> list[slice] | None:
    """The pieces of columns in which inner_products conjugates a design of
    design_shape for a matrix of values, or None for one vector, whose
    conjugate it forms instead.  A piece has as many columns as hold the
    values of PIECE_NODES nodes, so a design on PIECE_NODES nodes or fewer
    is one piece, and no piece is a single column beside others: numpy
    takes the product of one column by a matrix-vector routine, which
    rounds apart.  The widest piece's conjugate (or the vector's) and the
    result of more than MAX_DESIGN_BYTES are refused by require_bytes,
    before anything is allocated."""
    nodes, functions = design_shape
    vectors = math.prod(values_shape[1:])
    pieces = None
    conjugate = nodes
    if len(values_shape) > 1:
        width = max(2, PIECE_NODES * functions // nodes)
        bounds = [*range(0, max(functions - 1, 1), width), functions]
        pieces = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
        conjugate *= max(piece.stop - piece.start for piece in pieces)
    size = (conjugate + functions * vectors) * itemsize
    require_bytes(size, f"inner products of {functions} functions with {vectors} vectors need "
                  f"{size} bytes with {conjugate} conjugate values")
    return pieces


def inner_products(design: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The discrete inner products <v, phi_k> = sum_j v(x_j) conj(phi_k(x_j)) / N
    under the trapezoid rule on the N nodes of the node-by-function design
    matrix, one per row, with the weight 1/N read from the design: one
    result row k per column of the design, for a vector v of values at the
    nodes or for each column of a matrix of them.  The one inner product
    behind Fourier coefficients, the Gram matrix and the least-squares
    normal equations.

    No conjugate of the whole design is formed.  One vector is conjugated
    instead, conj(A^T conj(v)); a matrix of vectors is multiplied by the
    conjugate of one piece of the design's columns at a time
    (_conjugate_pieces), each piece filling its rows of the result.  Both
    keep every bit of the one product conj(A)^T v, signed zeros included:
    negation is exact, and each entry is still summed over all N nodes in
    one BLAS call of the same kind.  The weight is applied in place."""
    pieces = _conjugate_pieces(design.shape, values.shape, np.result_type(design, values).itemsize)
    if pieces is None:
        result = design.T @ np.conj(values)
        # conjugated as 0 - imag, so an exact zero is +0.0, as BLAS sums it
        np.subtract(0.0, result.imag, out=result.imag)
    else:
        result = np.empty((design.shape[1], values.shape[1]), np.result_type(design, values))
        for piece in pieces:
            np.matmul(np.conj(design[:, piece]).T, values, out=result[piece])
    return np.multiply(result, 1.0 / design.shape[0], out=result)


class TMBasis:
    """Evaluator for phi_0..phi_n bound to a pole sequence.

    All poles of every phi_k lie at the circle reflections 1/conj(a_j), so the
    functions are analytic on the closed unit disk.
    """

    def __init__(self, poles: PoleSequence | Sequence[complex]):
        self.poles = PoleSequence(poles)
        if len(self.poles) == 0:
            raise ValueError("a basis needs at least one pole")
        # per-pole constants of the recurrence: sqrt(1 - |a|^2), conj(a) and
        # the unimodular factor -|a|/a (+1 at a zero pole)
        self._norms = [math.sqrt(1.0 - abs(a) ** 2) for a in self.poles]
        self._conjs = [a.conjugate() for a in self.poles]
        self._phases = [_phase(a) for a in self.poles]
        # id(nodes) -> (nodes, read-only design matrix), written by design_matrix,
        # read by eval_chunks; holding the nodes keeps their id from being reused
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
        """Stack [phi_0(z), ..., phi_{count-1}(z)] along a new leading axis,
        in a new array: every call runs the recurrence, whatever z is.

        The recurrence forms the denominator 1 - conj(a) z once per run of
        equal consecutive poles, shares it between the scale of phi_k and
        the product factor, and reuses that (scale, factor) pair along the
        run; a pole that recurs after other poles forms it again, to the
        same bits.  A zero pole divides nothing: its factor is z itself.
        The factor of the last function is not formed.  Values of more than
        MAX_DESIGN_BYTES are refused by require_bytes before any allocation.
        The bits depend on the length of z (see NODE_CHUNK); the grid
        passes of a batch of rows go through eval_chunks.
        """
        count = self._check_count(count)
        z = np.asarray(z)
        scalar = z.ndim == 0
        zz = np.atleast_1d(z)
        dtype = np.result_type(zz, np.complex128)
        size = zz.size * count * dtype.itemsize
        require_bytes(size, f"an evaluation of {zz.size} points by {count} functions "
                      f"needs {size} bytes")
        out = np.empty((count,) + zz.shape, dtype=dtype)
        running = np.ones(zz.shape, dtype=out.dtype)
        poles = self.poles[:count]
        for k, a in enumerate(poles):
            if k > 0 and poles[k - 1] == a:
                pass  # the rest of a run reuses its first pole's pair
            elif a == 0:
                scale, factor = None, zz
            else:
                denominator = 1.0 - self._conjs[k] * zz
                scale = self._norms[k] / denominator
                factor = None
                if k + 1 < count:
                    factor = self._phases[k] * (zz - a) / denominator
            if scale is None:
                out[k] = running
            else:
                np.multiply(scale, running, out=out[k])
            if k + 1 < count:
                # out of place: numpy's aliased complex multiply
                # (out=running) takes another loop and rounds differently
                running = running * factor
        return out[:, 0] if scalar else out

    def eval_sum(self, coefficients, z, *, reciprocal=None):
        """S(z) = sum_k c_k phi_k(z) without forming any phi_k.  A vector c
        of at most size coefficients is summed at every point of z, in an
        array of z's shape (a numpy scalar for a scalar z).  Rows of shape
        (..., m) give each point its own row: their leading axes broadcast
        against z's shape, as the result does, and no row is copied, so
        (trials, m) rows at (3, trials) points give (3, trials) sums.

        phi_k is a scale s_k = sqrt(1 - |a_k|^2) / (1 - conj(a_k) z) times
        the factors f_j = (-|a_j|/a_j) (z - a_j) / (1 - conj(a_j) z) of the
        poles before it, so S has the nested form

            c_0 s_0 + f_0 (c_1 s_1 + f_1 (c_2 s_2 + ... + f_(m-2) c_(m-1) s_(m-1))),

        Horner's scheme with factors of modulus at most 1 on the closed
        disk, taken backwards over the poles.  The unimodular constants of
        the factors are moved onto the coefficients, so each step is
        acc = ((z - a_k) acc + c'_k) / (1 - conj(a_k) z), with one product,
        one sum and one product by the reciprocal; c'_k is formed in its
        step, one column of the rows at a time.  The first step, at the last
        pole, sets the term to c'_(m-1) instead of multiplying the zero
        accumulator.  z - a_k and the reciprocal are formed once per run of
        equal consecutive poles and reused along it; a pole that recurs
        after other poles forms them again, to the same bits.  A zero pole
        divides nothing.  Two working arrays of the result's size, two of
        z's size and c'_k of rows are counted against MAX_DESIGN_BYTES,
        however the poles recur: more are refused by require_bytes before
        anything is allocated.

        reciprocal, if given, is 1 / (1 - conj(a) z) of the last pole a,
        formed by the caller as this sum forms it, of z's shape and the
        result's dtype: the last pole's run reads it in place of forming its
        own, and never writes to it.  A zero last pole ignores it.  The grid
        passes hand in the reciprocal their multiplier and kernel come from,
        since an approximant's basis ends with poles at w.

        Every operation writes into an array of its own, and no complex
        product writes over one of its operands, so the bits at a point do
        not depend on how many points are evaluated with it: numpy elides
        temporaries of 256 KiB and more in place (see NODE_CHUNK), and its
        in-place complex product rounds a single point differently.  They
        differ from those of c @ eval_all(z) in the last bits.  For a vector
        c each c'_k is a numpy scalar; numpy rounds the same product of
        arrays, 0-d ones included, apart in the last bits, so rows may differ
        there from the vector sum of each row.
        """
        coefficients = np.asarray(coefficients, dtype=complex)
        count = self._check_count(coefficients.shape[-1])
        z = np.asarray(z)
        lead = coefficients.shape[:-1]
        # a vector skips np.broadcast_shapes, whose few KiB would precede the cap
        shape = np.broadcast_shapes(z.shape, lead) if lead else z.shape
        dtype = np.result_type(z, np.complex128)
        column = math.prod(lead) if lead else 0  # c'_k of rows
        size = (2 * math.prod(shape) + 2 * z.size + column) * dtype.itemsize
        require_bytes(size, f"a sum of {count} functions at {math.prod(shape)} points "
                      f"needs {size} bytes")
        poles = self.poles[:count]
        # c'_k = c_k sqrt(1 - |a_k|^2) times phases[k], the unimodular
        # constants of f_0..f_(k-1)
        phases = list(itertools.accumulate(self._phases[:count], operator.mul, initial=1.0))
        columns = np.moveaxis(coefficients, -1, 0)
        acc = np.zeros(shape, dtype=dtype)
        term = np.empty_like(acc)
        shifted = np.empty(z.shape, dtype=dtype)
        given, formed = reciprocal, np.empty_like(shifted)
        for k in reversed(range(count)):
            a = poles[k]
            if a != 0 and (k + 1 == count or poles[k + 1] != a):  # a run's first step
                np.subtract(z, a, out=shifted)
                if k + 1 == count and given is not None:
                    reciprocal = given
                else:
                    reciprocal = formed
                    np.multiply(z, self._conjs[k], out=reciprocal)
                    np.subtract(1.0, reciprocal, out=reciprocal)
                    np.divide(1.0, reciprocal, out=reciprocal)
            scaled = columns[k] * phases[k] * self._norms[k]
            if k + 1 == count:
                term[...] = scaled
            else:
                np.multiply(z if a == 0 else shifted, acc, out=term)
                np.add(term, scaled, out=term)
            if a == 0:
                acc, term = term, acc
            else:
                np.multiply(term, reciprocal, out=acc)
        return acc[()]

    def eval_chunks(self, nodes, count: int | None = None):
        """Yield (part, phi), phi = eval_all(nodes[part], count), for the
        consecutive slices part of a 1-d node array, so no larger block is
        formed and out[part] = f(phi) fills an output of the nodes' shape.
        This alone decides how long a batch's part is.

        Beside design_matrix itself, this is the one reader of the stored
        design matrices: on a node array whose matrix design_matrix has
        stored, each phi is a read-only slice of that matrix, of PIECE_NODES
        nodes, and is not evaluated again.  Any other part is evaluated,
        NODE_CHUNK nodes at a time, so it rounds as the whole grid does.
        """
        count = self._check_count(count)
        entry = self._designs.get(id(nodes))
        step = NODE_CHUNK if entry is None else PIECE_NODES
        for start in range(0, len(nodes), step):
            part = slice(start, start + step)
            if entry is not None:
                yield part, entry[1][part, :count].T
            else:
                yield part, self.eval_all(nodes[part], count)

    def design_matrix(self, grid: np.ndarray) -> np.ndarray:
        """Node-by-function matrix A[j, k] = phi_k(node_j), read-only.

        The matrix is evaluated once per grid and stored with the basis,
        keyed by the identity of the grid, an immutable, cached node array;
        eval_chunks reads it back.  eval_all bounds its size."""
        entry = self._designs.get(id(grid))
        if entry is None:
            design = self.eval_all(grid).T
            design.setflags(write=False)
            entry = self._designs.setdefault(id(grid), (grid, design))
        return entry[1]

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
        # orders past the double range overflow silently: callers check what they read
        with np.errstate(over="ignore", invalid="ignore"):
            for k, a in enumerate(self.poles):
                d = 1.0 - self._conjs[k] * w
                geometric = (self._conjs[k] / d) ** powers / d
                out[k] = self._norms[k] * np.convolve(geometric, running)[: len(powers)]
                factor = np.empty_like(geometric)
                factor[0] = (w - a) / d
                factor[1:] = geometric[:-1] * ((1.0 - abs(a) ** 2) / d)
                running = np.convolve(running, self._phases[k] * factor)[: len(powers)]
        return out

    def gram_matrix(self, grid: np.ndarray) -> np.ndarray:
        """Discrete Gram <phi_k, phi_l> under the grid's quadrature: the
        conjugate of the inner products of the grid's design matrix with
        itself, read through design_matrix.  Raises DesignTooLarge, where
        inner_products would refuse the Gram, before the design is built."""
        shape = (len(grid), self.size)
        _conjugate_pieces(shape, shape, grid.itemsize)
        design = self.design_matrix(grid)
        gram = inner_products(design, design)
        return np.conjugate(gram, out=gram)

    def blaschke(self, degree: int) -> BlaschkeProduct:
        """Blaschke product over the first `degree` poles."""
        if not 0 <= degree <= self.size:
            raise IndexOutOfRange(
                f"Blaschke degree {degree} outside 0..{self.size}"
            )
        return BlaschkeProduct(self.poles.prefix(degree))


def christoffel_darboux_residual(basis: TMBasis, n: int, z, zeta) -> float:
    """Largest residual of the partial-reproducing-kernel identity

        1/(1 - conj(z) zeta) = sum_{k<n} conj(phi_k(z)) phi_k(zeta)
                               + conj(B_n(z)) B_n(zeta) / (1 - conj(z) zeta)

    over the pairs (z[i], zeta[i]) of open-disk points, for
    1 <= n <= max_index + 1.  Scalars count as one pair.
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
    b = basis.blaschke(n)
    remainder = np.conj(b(z)) * b(zeta) * cauchy
    return float(np.max(np.abs(cauchy - kernel_sum - remainder)))
