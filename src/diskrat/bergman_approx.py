"""Closed-form best rational approximants of weighted Bergman kernels.

With the trailing alpha+1 poles of the sequence pinned to the kernel point w,
the function

    r(x; w) = (1 - x conj(w)) * S_{n+1}(K_alpha)(x; w)

is simultaneously the minimizer of the quadratic functional

    mu(R) = integral |K_alpha(x; w) - R(x) / (1 - x conj(w))|^2 d(sigma)

and of the uniform functional

    nu(R) = sup_{|x|=1} |(1 - x conj(w))^-(1+alpha) - R(x)|

over the fixed-pole competitor class, with exact minima

    mu_min = |w|^(2a+2) (1-|w|^2)^-(2a+3) |B(w)|^2,
    nu_min = (|w| / (1-|w|^2))^(1+a) |B(w)|,

where B is the Blaschke product over the free poles.  This module holds the
closed-form evaluator of r, its interpolation conditions, the two functionals,
the exact minima, and the closed form of the kernel-remainder integral.

The uniform error at the optimum has constant modulus on the circle (the error
is a constant times a Blaschke product); that equimodularity is checked here
as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .circlequad import CircleGrid, circle_grid, json_complex, require_in_disk
from .errors import DesignTooLarge, NonFiniteIntegrand, ValueOutOfRange
from .expansion import FourierExpansion, expand_kernel, validate_trailing_poles
from .kernels import KernelSpec
from .tm_basis import MAX_DESIGN_BYTES, NODE_CHUNK, BlaschkeProduct, PoleSequence, TMBasis

__all__ = [
    "Approximant",
    "build_approximant",
    "mu_functional",
    "mu_min_closed_form",
    "nu_functional",
    "nu_min_closed_form",
    "closed_form_J",
    "competitor_function",
    "competitor_trials",
    "equimodularity_variation",
    "extended_mu",
    "interpolation_target",
    "ErrorReport",
    "build_error_report",
    "csv_cell",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: Most steps of one nu refinement.  A bracket also stops at 0.618^60 of its
#: initial width, where 60 golden-section steps would leave it.
_REFINE_ITERS = 60

#: Rounding error of one evaluation of the uniform error modulus, relative to
#: the sum of the moduli of the two terms it subtracts.
_ROUNDING_FLOOR = 8 * np.finfo(float).eps

#: Long-double integrand evaluation kicks in below this nonzero quadratic
#: minimum (see extended_mu); smaller minima drown in double-precision
#: cancellation noise.  A zero minimum has no relative tolerance to keep and
#: is taken in doubles.
EXTENDED_MU_CUTOFF = 1e-7

#: Grid of the uniform functional in error reports and in verify.
NU_GRID_NODES = 2**16

#: Largest j whose factorial is a finite double (171! exceeds the range).
_MAX_FACTORIAL = 170

#: Scale of the Gaussian perturbations of the optimum in competitor trials,
#: relative to max|c|.
_NOISE_SCALE = 0.1


def _rising_factorial(alpha: int, count: int) -> float:
    """(alpha+1)(alpha+2)...(alpha+count); empty product for count = 0.

    This is (alpha+count)!/alpha!, the coefficient produced by differentiating
    (1 - z c)^-(1+alpha) count times.  Past the double range it is inf.
    """
    out = 1.0
    for i in range(1, count + 1):
        out *= alpha + i
    return out


def extended_mu(mu_min: float) -> bool:
    """Whether mu of an approximant with exact minimum mu_min is taken in
    long double: where 0 < mu_min < EXTENDED_MU_CUTOFF."""
    return 0.0 < mu_min < EXTENDED_MU_CUTOFF


def interpolation_target(spec: KernelSpec, point: complex, multiplicity: int) -> complex:
    """Right-hand side of the interpolation condition of order multiplicity-1
    at the given pole: the (multiplicity-1)-st derivative of the Cauchy-power
    kernel (1 - z conj(w))^-(1+alpha) there.  Not finite where it leaves the
    double range."""
    s = int(multiplicity)
    cw = np.conj(spec.w)
    with np.errstate(all="ignore"):
        return complex(
            _rising_factorial(spec.alpha, s - 1)
            * cw ** (s - 1)
            / (1.0 - cw * point) ** (spec.alpha + s)
        )


@dataclass
class Approximant:
    """r(x; w) = (1 - x conj(w)) S_{n+1}(K_alpha)(x; w) over a trailing-w basis."""

    spec: KernelSpec
    free_poles: PoleSequence
    basis: TMBasis
    expansion: FourierExpansion
    free_blaschke: BlaschkeProduct

    @property
    def n(self) -> int:
        return self.basis.max_index

    @property
    def coefficients(self) -> np.ndarray:
        return self.expansion.coefficients

    def eval(self, z):
        """Constructive route: multiplier times the full partial sum."""
        z = np.asarray(z)
        out = (1.0 - z * np.conj(self.spec.w)) * self.expansion.partial_sum(
            self.n + 1, z
        )
        return complex(out) if np.ndim(out) == 0 else out

    def eval_closed_form(self, z):
        """Closed form

            [(1-|w|^2)^(a+1) + (-1)^a (conj(w)(w - z))^(a+1) B(z) conj(B(w))]
            / [(1-|w|^2)^(a+1) (1 - conj(w) z)^(a+1)]

        with B the Blaschke product over the free poles.  Only the
        phase-invariant combination B(z) conj(B(w)) enters, so the stored
        product's unimodular constant is immaterial.
        """
        spec = self.spec
        z = np.asarray(z)
        a1 = spec.alpha + 1
        cw = np.conj(spec.w)
        disc = (1.0 - abs(spec.w) ** 2) ** a1
        pair = self.free_blaschke(z) * np.conj(self.free_blaschke(spec.w))
        numerator = disc + (-1.0) ** spec.alpha * (cw * (spec.w - z)) ** a1 * pair
        denominator = disc * (1.0 - cw * z) ** a1
        out = numerator / denominator
        return complex(out) if np.ndim(out) == 0 else out

    @cached_property
    def pole_derivatives(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, rounding_scales): r^(s_m - 1)(a_m) for every pole a_m of
        the full sequence, s_m its running multiplicity, and the rounding
        scale of each value.

        Poles are grouped by exact equality.  Those that occur once are
        evaluated together.  At a pole a of highest multiplicity S > 1,
        t = c @ taylor(a, S - 1) holds the Taylor coefficients of the partial
        sum, and r = (1 - a conj(w) - conj(w) h) * sum_j t_j h^j in h = z - a
        gives r^(j)(a) = j! ((1 - a conj(w)) t_j - conj(w) t_(j-1)).  No grid
        is involved.  The rounding scale repeats that formula with absolute
        values, u = |c| @ |taylor| in place of t, times eps: the size of the
        terms the sums cancel, times the unit roundoff.  It is an estimate of
        the rounding error, not a bound: it leaves out the rounding inside
        taylor itself.  Computed once per approximant.  Where j! or a
        product leaves the double range, the value or scale is not finite;
        interpolation_residuals refuses such rows.
        """
        poles = self.basis.poles
        c = self.coefficients
        cw = np.conj(self.spec.w)
        groups: dict[complex, list[int]] = {}
        for m, a in enumerate(poles):
            groups.setdefault(a, []).append(m)
        values = np.empty(len(poles), dtype=complex)
        scales = np.empty(len(poles))
        simple = [m for index in groups.values() if len(index) == 1 for m in index]
        if simple:
            z = np.array([poles[m] for m in simple])
            phi = self.basis.eval_all(z)
            multiplier = 1.0 - z * cw
            values[simple] = multiplier * (c @ phi)
            scales[simple] = np.abs(multiplier) * (np.abs(c) @ np.abs(phi))
        for a, index in groups.items():
            if len(index) == 1:
                continue
            taylor = self.basis.taylor(a, len(index) - 1)
            t = c @ taylor
            u = np.abs(c) @ np.abs(taylor)
            multiplier = 1.0 - a * cw
            coefficients = multiplier * t
            coefficients[1:] -= cw * t[:-1]
            sizes = abs(multiplier) * u
            sizes[1:] += abs(cw) * u[:-1]
            factorials = np.array(
                [float(math.factorial(j)) if j <= _MAX_FACTORIAL else np.inf
                 for j in range(len(index))]
            )
            with np.errstate(all="ignore"):
                values[index] = factorials * coefficients
                scales[index] = factorials * sizes
        return values, scales * np.finfo(float).eps

    @cached_property
    def interpolation_targets(self) -> list[complex]:
        """interpolation_target at every pole a_m of the full sequence, with
        s_m its running multiplicity within the prefix.  Computed once per
        approximant."""
        poles = self.basis.poles
        return [
            interpolation_target(self.spec, a, s)
            for a, s in zip(poles, poles.multiplicities)
        ]

    def interpolation_residuals(self) -> list[float]:
        """|r^(s_m - 1)(a_m) - target| for every pole of the full sequence,
        from pole_derivatives and interpolation_targets.  A row whose value,
        target or rounding scale is not finite raises ValueOutOfRange."""
        poles = self.basis.poles
        values, scales = self.pole_derivatives
        residuals = []
        rows = zip(values, scales, poles, poles.multiplicities, self.interpolation_targets)
        for m, (value, scale, a, s, target) in enumerate(rows):
            if not np.isfinite([value, target, scale]).all():
                raise ValueOutOfRange(
                    f"interpolation row {m} (pole {a}, multiplicity {s}) leaves the "
                    f"double range: value {value}, target {target}, rounding scale {scale}"
                )
            residuals.append(abs(value - target))
        return residuals

    def membership_residual(self) -> float:
        """Relative fit residual of r against the partial-fraction competitor
        basis {1} + {(1 - conj(a_j) x)^-s_j}  (monomials x^s_j at zero poles),
        j over the first n poles, on 4(n+1)+9 circle samples; small iff r lies
        in the competitor class."""
        n = self.n
        sample_count = 4 * (n + 1) + 9
        # offset keeps samples away from grid symmetries
        x = np.exp(2j * np.pi * (np.arange(sample_count) + 0.37) / sample_count)
        columns = [np.ones_like(x)]
        poles = self.basis.poles
        for a, s in zip(poles[:n], poles.multiplicities):
            if a == 0:
                columns.append(x**s)
            else:
                columns.append((1.0 - np.conj(a) * x) ** (-float(s)))
        design = np.stack(columns, axis=1)
        target = self.eval(x)
        solution, *_ = np.linalg.lstsq(design, target, rcond=None)
        scale = max(float(np.linalg.norm(target)), 1e-300)
        return float(np.linalg.norm(target - design @ solution)) / scale

    def to_json_dict(self) -> dict:
        data = self.expansion.to_json_dict()
        data["alpha"] = self.spec.alpha
        data["w"] = json_complex(self.spec.w)
        data["free_poles"] = json_complex(self.free_poles)
        return data


def build_approximant(
    spec: KernelSpec, free_poles: PoleSequence | list[complex]
) -> Approximant:
    """Assemble the full pole sequence (free poles then alpha+1 copies of w),
    the basis, the kernel expansion (closed-form coefficients, no grid), and
    the approximant of order n = len(free_poles) + alpha."""
    if not isinstance(free_poles, PoleSequence):
        free_poles = PoleSequence(free_poles)
    full = free_poles.with_trailing(spec.w, spec.alpha + 1)
    basis = TMBasis(full)
    expansion = expand_kernel(spec, basis)
    return Approximant(
        spec=spec,
        free_poles=free_poles,
        basis=basis,
        expansion=expansion,
        free_blaschke=BlaschkeProduct(free_poles),
    )


def _competitor_values(basis: TMBasis, rows: np.ndarray, nodes, multiplier):
    """Yield (start, part, block, R), R = multiplier * (rows[block] @ phi),
    for each part of the nodes (TMBasis.eval_chunks) in node order and each
    block of at most m rows; start is the part's first node.  The caller may
    overwrite R and must drop it before the next block.  A non-finite R
    raises NonFiniteIntegrand, after the last part, at the first node of the
    first row that has one."""
    trials, count = rows.shape
    block = max(count, 1)
    bad_row = trials  # the first row with a non-finite R, once one is seen
    start = 0
    for part, phi in basis.eval_chunks(nodes, count):
        for first in range(0, bad_row, block):
            # R = multiplier * (rows @ phi) in this operand order, the rounding
            # of Approximant.eval; error *= multiplier rounds differently.
            # np.dot rounds as matmul does, and is twice as fast in long double
            values = np.dot(rows[first : first + block], phi)
            np.multiply(multiplier[part], values, out=values)
            finite = np.isfinite(values[: bad_row - first])
            if not finite.all():
                row, node = np.unravel_index(int(np.argmin(finite)), finite.shape)
                bad_row, bad_node = first + row, start + node
                bad_value = complex(values[row, node])
                break
            # once a row has failed, only the rows before it are checked on:
            # a failure of theirs at a later node is the one to report
            if bad_row == trials:
                yield start, part, slice(first, first + block), values
            del values  # freed before the next block is formed
        start += phi.shape[-1]
        del phi  # freed before the next part is evaluated
    if bad_row < trials:
        raise NonFiniteIntegrand(int(bad_node), bad_value)


def mu_functional(
    spec: KernelSpec, basis: TMBasis, coefficients, grid: CircleGrid, *, extended: bool
) -> float | np.ndarray:
    """mu of R(x) = (1 - x conj(w)) sum_k c_k phi_k(x): the quadrature of
    |K_alpha(x; w) - R(x) / (1 - x conj(w))|^2 over the circle, in long
    double on the grid's long-double twin with extended=True (the rule is
    extended_mu).  A row c gives a float, a (trials, m) matrix one value per
    row.  The pass streams as nu_functional's does and samples K once.  The
    integrand is formed, and summed, as numpy's mean of the callable route
    from Approximant.eval was, so an approximant's row scores as its eval
    did, to the bit; a batch of rows takes another matrix product and may
    round apart in the last bits.
    """
    coefficients = np.asarray(coefficients, dtype=complex)
    rows = np.atleast_2d(coefficients)
    nodes = circle_grid(grid.node_count, extended=True).nodes if extended else grid.nodes
    multiplier = 1.0 - nodes * np.conj(spec.w)
    kernel = spec.bergman(nodes)
    count = len(nodes)
    # numpy's mean summed a row's squares whole; on a grid of several parts
    # the squares are kept (every such caller passes one row) to do the same
    whole = count > NODE_CHUNK
    squares = np.empty((len(rows), count if whole else 0), dtype=kernel.real.dtype)
    sums = np.empty(len(rows), dtype=squares.dtype)
    for _, part, block, error in _competitor_values(basis, rows, nodes, multiplier):
        np.divide(error, multiplier[part], out=error)
        np.subtract(kernel[part], error, out=error)
        # one row at a time: no block of moduli beside the block of errors
        for row in range(block.start, block.start + len(error)):
            modulus = np.abs(error[row - block.start], out=squares[row, part] if whole else None)
            np.square(modulus, out=modulus)
            if not whole:
                sums[row] = np.add.reduce(modulus)
        del error  # freed before the next block is formed
    if whole:
        sums = np.add.reduce(squares, axis=-1)
    mu = (sums / count).astype(float)
    return float(mu[0]) if coefficients.ndim == 1 else mu


def _free_blaschke_modulus(spec: KernelSpec, free_poles) -> float:
    """|B(w)|, B the Blaschke product over the free poles."""
    return abs(BlaschkeProduct(free_poles)(spec.w))


def mu_min_closed_form(spec: KernelSpec, free_poles: PoleSequence | list[complex]) -> float:
    """Exact quadratic minimum |w|^(2a+2) (1-|w|^2)^-(2a+3) |B(w)|^2."""
    if spec.w == 0:
        return 0.0
    b = _free_blaschke_modulus(spec, free_poles)
    ww = abs(spec.w) ** 2
    return float(ww ** (spec.alpha + 1) / (1.0 - ww) ** (2 * spec.alpha + 3) * b * b)


def _golden_max(f: Callable, points, values, floor) -> np.ndarray:
    """Maximize f on every bracket a < x < b at once by safeguarded parabolic
    steps (R. P. Brent, Algorithms for Minimization without Derivatives,
    1973), and return f at each final middle point.

    points and values are (3, m) arrays: the triples (a, x, b) and their f
    values, with f(x) >= f(a), f(b); floor is the rounding error of one
    evaluation, per bracket.  f maps an array of angles to values
    elementwise and is called once per step on all brackets; a stopped
    bracket is evaluated at its x and keeps its state.

    Let c <= 0 be the curvature of the parabola through the triple and L the
    larger of x - a and b - x.  Its vertex lies within L/2 of x, so the
    parabola promises at most -c L^2 / 4 over f(x), and the bracket stops
    once that is at most floor.  This takes no evaluation when the triple is
    flat to rounding, as at the optimum.  Otherwise each step goes to the
    vertex; a vertex that is not finite or lies outside the bracket gives
    way to a golden-section step into the larger side, and one closer to x
    than tol = sqrt(floor / -c) to a step of tol into the larger side, whose
    end it brings to within tol of x.  The new point becomes x if it is at
    least f(x), else the end on its side, so f(x) >= f(ends) throughout.  A
    bracket also stops at 0.618^60 of its initial width, when a step no
    longer moves x, or after _REFINE_ITERS steps.

    The name is that of the golden-section search this replaced: the
    benchmark's tracer wraps bergman_approx._golden_max and counts the calls
    of its first positional argument, so both stay, and callers pass f
    positionally.
    """
    a, x, b = (np.array(p, dtype=float) for p in points)
    fa, fx, fb = (np.array(v, dtype=float) for v in values)
    min_width = _GOLDEN**_REFINE_ITERS * (b - a)
    active = np.ones(x.shape, dtype=bool)
    for _ in range(_REFINE_ITERS):
        with np.errstate(divide="ignore", invalid="ignore"):
            # Newton form of the parabola: slope at x and curvature; a side
            # that has shrunk to nothing gives 0/0, which stops the bracket
            left = (fx - fa) / (x - a)
            curve = ((fb - fx) / (b - x) - left) / (b - a)
            shift = -0.5 * (left + curve * (x - a)) / curve
            tol = np.sqrt(floor / -curve)
        larger = np.where(b - x > x - a, b - x, a - x)
        u = x + shift
        u = np.where(
            (a < u) & (u < b),
            np.where(np.abs(shift) < tol, x + np.copysign(tol, larger), u),
            x + (1.0 - _GOLDEN) * larger,
        )
        promise = -0.25 * curve * larger**2
        active &= (promise > floor) & (b - a > min_width) & (a < u) & (u < b) & (u != x)
        if not active.any():
            break
        fu = f(np.where(active, u, x))
        higher = fu >= fx
        # a higher u turns x into the end on the other side of u; a lower u
        # becomes the end on its own side
        end = np.where(higher, x, u)
        f_end = np.where(higher, fx, fu)
        move_a = active & (higher == (u > x))
        move_b = active & ~move_a
        a, fa = np.where(move_a, end, a), np.where(move_a, f_end, fa)
        b, fb = np.where(move_b, end, b), np.where(move_b, f_end, fb)
        higher &= active
        x, fx = np.where(higher, u, x), np.where(higher, fu, fx)
    return fx


class _GridBrackets:
    """The brackets _golden_max starts from, for rows of error moduli on an
    N-node grid fed part by part: for each row its largest node j (the first
    of equal maxima), the angles theta_(j-1) < theta_j < theta_(j+1) and the
    moduli there.  The neighbours of j = 0 and j = N - 1 lie across
    theta = 0, at index (j +- 1) mod N.  A neighbour across the edge of a
    part is taken from the last node of the part before it or from the
    first node of the part after it.  The state is a few numbers per row;
    no row of N moduli is kept."""

    def __init__(self, rows: int, node_count: int):
        self.node_count = node_count
        self.index = np.zeros(rows, dtype=int)
        # left neighbour, maximum and right neighbour of every row
        self.moduli = np.full((3, rows), -np.inf)
        self._first = np.zeros(rows)  # modulus at node 0
        self._last = np.zeros(rows)  # modulus at the last node fed

    def feed(self, rows: slice, start: int, moduli) -> tuple[np.ndarray, np.ndarray]:
        """Take the moduli of the given rows at nodes start, start + 1, ...
        (parts in node order, each row once per part).  Return the mask of
        the rows whose maximum moved into this part, and every row's largest
        node within the part."""
        index, triple, last = self.index[rows], self.moduli[:, rows], self._last[rows]
        every = np.arange(len(moduli))
        if start == 0:
            self._first[rows] = moduli[:, 0]
        else:
            ends = index == start - 1
            triple[2, ends] = moduli[ends, 0]
        local = np.argmax(moduli, axis=1)
        value = moduli[every, local]
        # only a strictly larger value moves the maximum: the first node wins
        moved = value > triple[1]
        left = np.where(local > 0, moduli[every, local - 1], last)
        right = moduli[every, np.minimum(local + 1, moduli.shape[1] - 1)]
        index[moved] = start + local[moved]
        triple[:, moved] = np.stack([left, value, right])[:, moved]
        last[:] = moduli[:, -1]
        return moved, local

    def brackets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Once every node is fed: the largest node of every row, and the
        (3, rows) angles and moduli of its bracket."""
        count = self.node_count
        wraps = self.index == 0
        self.moduli[0, wraps] = self._last[wraps]
        wraps = self.index == count - 1
        self.moduli[2, wraps] = self._first[wraps]
        near = self.index + np.arange(-1, 2)[:, None]
        return self.index, (2.0 * np.pi / count) * near, self.moduli


def _unit(t) -> np.ndarray:
    return np.cos(t) + 1j * np.sin(t)


def nu_functional(
    spec: KernelSpec, basis: TMBasis, coefficients, grid: CircleGrid
) -> float | np.ndarray:
    """nu of R(x) = (1 - x conj(w)) sum_k c_k phi_k(x): the grid maximum of
    |(1 - x conj(w))^-(1+alpha) - R(x)| on the circle, refined by parabolic
    steps on the bracket of the best node and its two neighbours.  The error
    modulus is smooth on the circle and near-constant at the optimum, so grid
    resolution dominates and the refinement is local; at the optimum the grid
    triple is flat to rounding and the refinement evaluates nothing.

    A row c of length m gives a float; a (trials, m) matrix gives one value
    per row.  The grid pass streams: the basis is evaluated on one part of
    at most NODE_CHUNK nodes at a time (TMBasis.eval_chunks), each part is
    reduced at once, in blocks of at most m rows, to a running maximum per
    row, and no (m x N) block is formed.  The refinement runs the brackets
    of all rows together, one basis evaluation per step.  R is formed as
    Approximant.eval forms it, so the row of an approximant scores as its
    eval does on the grid.  A non-finite R raises NonFiniteIntegrand at the
    first node of the first row that has one.
    """
    coefficients = np.asarray(coefficients, dtype=complex)
    rows = np.atleast_2d(coefficients)
    trials, count = rows.shape
    cw = np.conj(spec.w)
    nodes = grid.nodes
    multiplier = 1.0 - nodes * cw
    kernel = spec.cauchy_power(nodes)
    tracker = _GridBrackets(trials, len(nodes))
    sizes = np.empty(trials)
    for start, part, block, error in _competitor_values(basis, rows, nodes, multiplier):
        np.subtract(kernel[part], error, out=error)
        moved, local = tracker.feed(block, start, np.abs(error))
        # |R| = |K - error| at each new best node
        j = local[moved]
        sizes[block][moved] = np.abs(kernel[start + j] - error[moved, j])
        del error  # freed before the next block is formed
    index, points, moduli = tracker.brackets()
    floor = _ROUNDING_FLOOR * (np.abs(kernel[index]) + sizes)

    def modulus(t):
        # entry i of t is refined with row i, by one dot product per row: the
        # sum Approximant.eval takes at one point, to the bit
        x = _unit(t)
        sums = (rows[:, None, :] @ basis.eval_all(x, count=count).T[:, :, None])[:, 0, 0]
        return np.abs(spec.cauchy_power(x) - (1.0 - x * cw) * sums)

    nu = _golden_max(modulus, points, moduli, floor)
    return float(nu[0]) if coefficients.ndim == 1 else nu


def nu_min_closed_form(spec: KernelSpec, free_poles: PoleSequence | list[complex]) -> float:
    """Exact uniform minimum (|w| / (1-|w|^2))^(1+alpha) |B(w)|."""
    if spec.w == 0:
        return 0.0
    b = _free_blaschke_modulus(spec, free_poles)
    return float((abs(spec.w) / (1.0 - abs(spec.w) ** 2)) ** (spec.alpha + 1) * b)


def closed_form_J(spec: KernelSpec, basis: TMBasis, n: int, z) -> complex:
    """Closed form of the kernel-remainder integral, phase-aligned to the
    tau = 1 Blaschke convention used by the quadrature route:

        J(z; w) = (conj(w) / (1-|w|^2))^(alpha+1) conj(B(w)) / (1 - conj(w) z)

    with B over the free poles.  Extends continuously to 0 at w = 0."""
    validate_trailing_poles(spec, basis.poles, n)
    z = require_in_disk(z)
    if spec.w == 0:
        return 0.0j
    a1 = spec.alpha + 1
    cw = np.conj(spec.w)
    b_free = basis.blaschke(int(n) - spec.alpha)
    return complex(
        (cw / (1.0 - abs(spec.w) ** 2)) ** a1
        * np.conj(b_free(spec.w))
        / (1.0 - cw * z)
    )


def competitor_function(basis: TMBasis, w: complex, coefficients) -> Callable:
    """Member of the competitor class: R(x) = (1 - x conj(w)) sum c_m phi_m(x).
    The library scores coefficient rows and no longer calls this; it stays
    while the benchmark's tracer installs a span on it."""
    coefficients = np.asarray(coefficients, dtype=complex)
    count = len(coefficients)

    def rational(x):
        x = np.asarray(x)
        phi = basis.eval_all(x, count=count)
        out = (1.0 - x * np.conj(w)) * np.tensordot(coefficients, phi, axes=1)
        return complex(out) if np.ndim(out) == 0 else out

    return rational


def competitor_trials(
    approx: Approximant, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """The (trials, m) coefficient schedule of the competitor scans: trial 0
    is the optimum, odd trials add complex Gaussian noise of scale
    _NOISE_SCALE * max|c| to it, even trials draw complex Gaussian
    coefficients of scale max|c|.  The generator is consumed in trial order,
    each trial taking the real and then the imaginary parts of its m
    Gaussians, all in one draw.  A schedule and draws of more than
    MAX_DESIGN_BYTES together raise DesignTooLarge before either is
    allocated."""
    optimum = approx.coefficients
    trials, count = int(trials), len(optimum)
    shape = (max(trials - 1, 0), 2, count)  # the real draws behind rows 1, 2, ...
    size = 16 * trials * count + 8 * math.prod(shape)
    if size > MAX_DESIGN_BYTES:
        raise DesignTooLarge(
            f"a competitor schedule of {trials} trials by {count} coefficients "
            f"needs {size} bytes, more than the cap of {MAX_DESIGN_BYTES}"
        )
    scale = float(np.max(np.abs(optimum)))
    rows = np.empty((trials, count), dtype=complex)
    rows[:1] = optimum
    draws = rng.standard_normal(shape)
    noise = draws[:, 0] + 1j * draws[:, 1]
    rows[1::2] = optimum + (_NOISE_SCALE * scale) * noise[0::2]
    rows[2::2] = scale * noise[1::2]
    return rows


def equimodularity_variation(
    spec: KernelSpec, basis: TMBasis, coefficients, grid: CircleGrid
) -> float | np.ndarray:
    """Relative variation (max - min)/max on the grid of the uniform-error
    modulus |(1 - x conj(w))^-(1+alpha) - R(x)|, R formed from the rows as
    nu_functional forms it (0 where the error vanishes); a row gives a
    float, a (trials, m) matrix one value per row.  It vanishes exactly at
    the optimum, where the error is a constant times a Blaschke product."""
    coefficients = np.asarray(coefficients, dtype=complex)
    rows = np.atleast_2d(coefficients)
    nodes = grid.nodes
    kernel = spec.cauchy_power(nodes)
    top = np.full(len(rows), -np.inf)
    bottom = np.full(len(rows), np.inf)
    multiplier = 1.0 - nodes * np.conj(spec.w)
    for _, part, block, error in _competitor_values(basis, rows, nodes, multiplier):
        moduli = np.abs(np.subtract(kernel[part], error, out=error))
        np.maximum(top[block], moduli.max(axis=1), out=top[block])
        np.minimum(bottom[block], moduli.min(axis=1), out=bottom[block])
        del error, moduli  # freed before the next block is formed
    variation = np.divide(top - bottom, top, out=np.zeros_like(top), where=top > 0.0)
    return float(variation[0]) if coefficients.ndim == 1 else variation


def csv_cell(x: float) -> str:
    """A CSV cell with 17 significant digits, which round-trips any double."""
    return f"{float(x):.17g}"


@dataclass
class ErrorReport:
    """Side-by-side quadrature and closed-form error values for one configuration."""

    alpha: int
    n: int
    w: complex
    free_poles: PoleSequence
    mu_quadrature: float
    mu_closed_form: float
    nu_grid: float
    nu_closed_form: float
    max_interp_residual: float
    free_pole_matches_w: bool = False
    degenerate_w_zero: bool = False
    # the objects the values came from, for callers that report them too;
    # None and empty for w = 0, and left out of every output format
    approximant: Approximant | None = field(default=None, repr=False, compare=False)
    interp_residuals: list[float] = field(default_factory=list, repr=False, compare=False)

    #: The names of the five error values, in the order of every output.
    VALUE_NAMES = ("mu_quad", "mu_closed", "nu_grid", "nu_closed", "max_interp_residual")
    CSV_HEADER = ",".join(("n", "alpha", "w_re", "w_im", *VALUE_NAMES))

    @property
    def values(self) -> tuple[float, ...]:
        """The five error values, named by VALUE_NAMES."""
        return (self.mu_quadrature, self.mu_closed_form, self.nu_grid,
                self.nu_closed_form, self.max_interp_residual)

    def validate(self):
        values = self.values
        if not all(math.isfinite(v) and v >= 0.0 for v in values):
            raise ValueOutOfRange(f"non-finite or negative error values: {values}")

    def csv_cells(self) -> list[str]:
        """The cells of CSV_HEADER after n and alpha: w and the five values."""
        return [csv_cell(v) for v in (self.w.real, self.w.imag, *self.values)]

    def csv_row(self) -> str:
        return ",".join([str(self.n), str(self.alpha), *self.csv_cells()])

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "alpha": self.alpha,
            "w": json_complex(self.w),
            "free_poles": json_complex(self.free_poles),
            **dict(zip(self.VALUE_NAMES, self.values)),
            "free_pole_matches_w": self.free_pole_matches_w,
            "degenerate_w_zero": self.degenerate_w_zero,
        }


def build_error_report(
    spec: KernelSpec, free_poles: PoleSequence | list[complex]
) -> ErrorReport:
    """Build the approximant and evaluate both error functionals against their
    closed forms: mu on the expansion's grid, nu on NU_GRID_NODES nodes.
    w = 0 short-circuits to exact zeros: the kernel degenerates to the
    constant 1 and the approximant is identically 1."""
    if not isinstance(free_poles, PoleSequence):
        free_poles = PoleSequence(free_poles)
    n = len(free_poles) + spec.alpha
    matches = any(p == spec.w for p in free_poles)
    if spec.w == 0:
        return ErrorReport(
            alpha=spec.alpha,
            n=n,
            w=spec.w,
            free_poles=free_poles,
            mu_quadrature=0.0,
            mu_closed_form=0.0,
            nu_grid=0.0,
            nu_closed_form=0.0,
            max_interp_residual=0.0,
            free_pole_matches_w=matches,
            degenerate_w_zero=True,
        )
    approx = build_approximant(spec, free_poles)
    # the rows first: they are cheap, and one out of the double range fails
    # the report before the grid passes
    residuals = approx.interpolation_residuals()
    mu_grid = circle_grid(approx.expansion.grid_size)
    mu_closed = mu_min_closed_form(spec, free_poles)
    mu_quad = mu_functional(
        spec, approx.basis, approx.coefficients, mu_grid, extended=extended_mu(mu_closed)
    )
    nu_grid = nu_functional(spec, approx.basis, approx.coefficients, circle_grid(NU_GRID_NODES))
    nu_closed = nu_min_closed_form(spec, free_poles)
    report = ErrorReport(
        alpha=spec.alpha,
        n=n,
        w=spec.w,
        free_poles=free_poles,
        mu_quadrature=mu_quad,
        mu_closed_form=mu_closed,
        nu_grid=nu_grid,
        nu_closed_form=nu_closed,
        max_interp_residual=max(residuals, default=0.0),
        free_pole_matches_w=matches,
        approximant=approx,
        interp_residuals=residuals,
    )
    report.validate()
    return report
