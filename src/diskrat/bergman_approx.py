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

from .circlequad import circle_grid, json_complex, require_finite, require_in_disk
from .errors import ValueOutOfRange
from .expansion import FourierExpansion, expand_kernel, validate_trailing_poles
from .kernels import KernelSpec, reciprocal_power
from .tm_basis import NODE_CHUNK, BlaschkeProduct, PoleSequence, TMBasis, require_bytes

__all__ = [
    "Approximant",
    "build_approximant",
    "mu_functional",
    "mu_min_closed_form",
    "nu_functional",
    "nu_minimum",
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

#: nu_minimum screens the rows it does not score in full at every this
#: many-th node of each part.
_SCREEN_STRIDE = 16

#: Bytes per row nu_functional or nu_minimum holds beside the rows and the
#: m-dependent part that competitor_trials counts (the running maximum and
#: its node, the bracket evaluation, whose TMBasis.eval_sum holds four
#: working arrays however the poles recur, _golden_max and their
#: temporaries, and nu_minimum's screen, margin and second pass): by
#: tracemalloc at 20,000 rows, m = 2 to 30, about 43 doubles for
#: nu_functional and at most 54 for nu_minimum, where every row must be
#: scored in full; 64 leave headroom.
_NU_ROW_BYTES = 64 * 8


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
    """r(x; w) = (1 - x conj(w)) S_{n+1}(K_alpha)(x; w) over a trailing-w basis,
    the expansion's basis."""

    spec: KernelSpec
    free_poles: PoleSequence
    expansion: FourierExpansion

    @cached_property
    def free_blaschke(self) -> BlaschkeProduct:
        """The Blaschke product over the free poles."""
        return BlaschkeProduct(self.free_poles)

    @property
    def basis(self) -> TMBasis:
        return self.expansion.basis

    @property
    def n(self) -> int:
        return self.basis.max_index

    @property
    def coefficients(self) -> np.ndarray:
        return self.expansion.coefficients

    def eval(self, z):
        """Constructive route: the competitor_function of the approximant's
        coefficients, multiplier times the full partial sum."""
        return competitor_function(self.basis, self.spec.w, self.coefficients)(z)

    def eval_closed_form(self, z):
        """Closed form

            [(1-|w|^2)^(a+1) + (-1)^a (conj(w)(w - z))^(a+1) B(z) conj(B(w))]
            / [(1-|w|^2)^(a+1) (1 - conj(w) z)^(a+1)]

        with B the Blaschke product over the free poles.  Only the
        phase-invariant combination B(z) conj(B(w)) enters.
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
        gives r^(j)(a) = j! ((1 - a conj(w)) t_j - conj(w) t_(j-1)).  At
        a = w with S <= alpha + 2 the table is a contiguous copy of the first
        S columns of the expansion's FourierExpansion.taylor, which are
        taylor(w, S - 1) to the bit, so the product keeps its width and bits;
        a is the group's first pole, equal to w, and can differ from it only
        in the sign of a zero part.  Without that table each group forms its own.
        No grid is involved.  The rounding scale repeats that formula with
        absolute values, u = |c| @ |taylor| in place of t, times eps: the
        size of the terms the sums cancel, times the unit roundoff.  It is
        an estimate of the rounding error, not a bound: it leaves out the
        rounding inside taylor itself.  Computed once per approximant.  Where j! or a
        product leaves the double range, the value or scale is not finite;
        interpolation_rows refuses such rows.  j! is inf from j = 171 on, so
        the table stops at order _MAX_FACTORIAL + 1 and later rows stay NaN.
        """
        poles = self.basis.poles
        c = self.coefficients
        cw = np.conj(self.spec.w)
        groups: dict[complex, list[int]] = {}
        for m, a in enumerate(poles):
            groups.setdefault(a, []).append(m)
        values = np.full(len(poles), np.nan, dtype=complex)
        scales = np.full(len(poles), np.nan)
        table = self.expansion.taylor
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
            index = index[: _MAX_FACTORIAL + 2]
            if a == self.spec.w and table is not None and len(index) <= table.shape[1]:
                taylor = np.ascontiguousarray(table[:, : len(index)])
            else:
                taylor = self.basis.taylor(a, len(index) - 1)
            factorials = np.array(
                [float(math.factorial(j)) if j <= _MAX_FACTORIAL else np.inf
                 for j in range(len(index))]
            )
            with np.errstate(over="ignore", invalid="ignore"):
                t = c @ taylor
                u = np.abs(c) @ np.abs(taylor)
                multiplier = 1.0 - a * cw
                coefficients = multiplier * t
                coefficients[1:] -= cw * t[:-1]
                sizes = abs(multiplier) * u
                sizes[1:] += abs(cw) * u[:-1]
                values[index] = factorials * coefficients
                scales[index] = factorials * sizes
        return values, scales * np.finfo(float).eps

    @cached_property
    def interpolation_rows(self) -> list[dict]:
        """One row per pole a_m of the full sequence, as approximate prints
        it: m, a_m, its running multiplicity s_m, the interpolation_target,
        the residual |r^(s_m - 1)(a_m) - target| and the rounding_scale of
        pole_derivatives.  A row whose value, target or rounding scale is not
        finite raises ValueOutOfRange.  Computed once per approximant."""
        poles = self.basis.poles
        values, scales = self.pole_derivatives
        rows = []
        for m, (value, scale, a, s) in enumerate(zip(values, scales, poles, poles.multiplicities)):
            target = interpolation_target(self.spec, a, s)
            if not np.isfinite([value, target, scale]).all():
                raise ValueOutOfRange(
                    f"interpolation row {m} (pole {a}, multiplicity {s}) leaves the "
                    f"double range: value {value}, target {target}, rounding scale {scale}"
                )
            rows.append({
                "m": m,
                "pole": json_complex(a),
                "multiplicity": s,
                "target": json_complex(target),
                "residual": abs(value - target),
                "rounding_scale": float(scale),
            })
        return rows

    def interpolation_residuals(self) -> list[float]:
        """The residual of every interpolation row."""
        return [row["residual"] for row in self.interpolation_rows]

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


def build_approximant(
    spec: KernelSpec, free_poles: PoleSequence | list[complex]
) -> Approximant:
    """Assemble the full pole sequence (free poles then alpha+1 copies of w),
    its basis and the kernel expansion over it (closed-form coefficients and
    the Taylor table at w they come from, no grid): the approximant of
    order n = len(free_poles) + alpha.  An alpha above
    _MAX_FACTORIAL raises ValueOutOfRange first, at any w: the interpolation
    row of multiplicity alpha + 1 at w multiplies by alpha!."""
    if spec.alpha > _MAX_FACTORIAL:
        raise ValueOutOfRange(
            f"alpha {spec.alpha} is above {_MAX_FACTORIAL}: the interpolation row "
            f"of multiplicity alpha + 1 at w would carry alpha! beyond the double range"
        )
    free_poles = PoleSequence(free_poles)
    basis = TMBasis(free_poles.with_trailing(spec.w, spec.alpha + 1))
    return Approximant(spec=spec, free_poles=free_poles, expansion=expand_kernel(spec, basis))


def _blocks(firsts, size: int, stride: int = 1) -> np.ndarray:
    """The (first, stop, stride) rows of the blocks of at most size rows
    that start at firsts, for _walk."""
    firsts = np.asarray(firsts, dtype=int)
    return np.stack([firsts, firsts + size, np.full_like(firsts, stride)], axis=1)


def _sampled(spec: KernelSpec, x, exponent: int):
    """(multiplier, reciprocal, K) at the nodes x of a part: 1 - x conj(w),
    its reciprocal and K = (1 - x conj(w))^-exponent, reciprocal_power of
    that reciprocal."""
    multiplier = 1.0 - x * np.conj(spec.w)
    reciprocal = 1.0 / multiplier
    return multiplier, reciprocal, reciprocal_power(reciprocal, exponent)


def _walk(spec: KernelSpec, basis: TMBasis, rows: np.ndarray, nodes, exponent: int,
          reduce: Callable, blocks=None, given=None):
    """Yield (at, block, R, reduce(multiplier, K, R, out)) for each part of
    the nodes x, in node order, and each block of rows of blocks, in its
    order (an array of (first, stop, stride) rows, see _blocks; by default
    every block of m rows at stride 1): the one loop of the grid passes.
    A block is evaluated at every stride-th node of the part from its
    first: at is slice(start, stop, stride) of those nodes, multiplier =
    1 - x conj(w) and K = (1 - x conj(w))^-exponent are theirs, sampled once
    per part (_sampled), and R = multiplier * sum_k c_k phi_k(x) for every
    row c of the block.  K has the bits of spec.bergman(x) at exponent
    alpha + 2 and of spec.cauchy_power(x) at alpha + 1.  A part's arrays
    are formed, reduced and freed before the next part is formed.

    One row takes parts of NODE_CHUNK nodes and the one block slice(0, 1).
    Its R is competitor_function's, with the part's own multiplier: the
    nested sum TMBasis.eval_sum on the part (which, where the row's last
    pole is w, as in every approximant's basis, reads the part's reciprocal
    for that pole's run) times the multiplier.  So R is Approximant.eval of
    the row on the part, to the bit, and its bits at a node do not depend
    on the other nodes.  A row given its R at the nodes (as
    build_error_report hands nu's to mu) reads it instead of summing.  A
    batch of rows takes its parts from TMBasis.eval_chunks, which alone
    decides their length, and multiplies each block by the part in one
    product: an evaluated part whole, or a PIECE_NODES part read in place
    from a stored design.  The product rounds apart from eval_sum in the
    last bits; splitting its columns leaves each value's bits alone.

    reduce returns a tuple whose first item reduces each row's error over
    the block's nodes, formed from K and R, and writes over out alone, an
    array of R's shape: a batch's R, which the caller must drop before the
    next yield, or one row's multiplier, so one row's R is yielded whole.
    That reduction, taken with overflow and invalid operations ignored, is
    the one finiteness check.  Where it is not finite, the multiplier and
    K are sampled again, and a batch's R formed again, under the same
    ignore and to the same bits, and NonFiniteIntegrand names K's first
    non-finite node at the block's nodes, else R's first such node of its
    first such row; nothing later is evaluated.  Where both are finite (the
    error or its reduction overflowed), reduce runs again under the
    caller's error state, underflow aside (the first run reported it): the
    warnings of a pass that checked K and R before reducing."""
    trials, count = rows.shape
    if trials == 1:
        starts = range(0, len(nodes), NODE_CHUNK)
        parts = ((slice(start, start + NODE_CHUNK), None) for start in starts)
        blocks = [(0, 1, 1)]
    else:
        parts = basis.eval_chunks(nodes, count)
        if blocks is None:
            blocks = _blocks(range(0, trials, max(count, 1)), max(count, 1))
        blocks = blocks.tolist()
    # one row whose last pole is w: its run reads the part's reciprocal
    shared = trials == 1 and count > 0 and basis.poles[count - 1] == spec.w

    def formed(phi, first, stop, stride, multiplier):
        # R = multiplier * (rows @ phi) in this operand order, which
        # error *= multiplier would round apart.  np.matmul reads a stored
        # (read-only) part in place, where np.dot would copy it.  np.dot is
        # 1.1-1.8 times as fast in long double, but rounds as matmul does
        # only in complex128: the bits hold as no library route stores a
        # design on an extended grid
        product = np.dot if phi.flags.writeable else np.matmul
        values = product(rows[first:stop], phi[:, ::stride])
        np.multiply(multiplier[::stride], values, out=values)
        return values

    for part, phi in parts:
        x = nodes[part]
        multiplier, reciprocal, kernel = _sampled(spec, x, exponent)
        if phi is None:
            values = given[part] if given is not None else np.multiply(
                multiplier, basis.eval_sum(rows[0], x, reciprocal=reciprocal if shared else None)
            )
            values = values[None]
        del reciprocal  # freed before the part is reduced
        for first, stop, stride in blocks:
            if phi is not None:
                values = formed(phi, first, stop, stride, multiplier)
            with np.errstate(over="ignore", invalid="ignore"):
                result = reduce(multiplier[::stride], kernel[::stride], values,
                                values if phi is not None else multiplier[None])
                finite = np.isfinite(result[0]).all()
                if not finite:
                    multiplier, _, kernel = _sampled(spec, x, exponent)
                    if phi is not None:
                        values = formed(phi, first, stop, stride, multiplier)
            if not finite:
                require_finite(part.start, stride, kernel[None, ::stride])
                require_finite(part.start, stride, values)
                with np.errstate(under="ignore"):
                    result = reduce(multiplier[::stride], kernel[::stride], values,
                                    values if phi is not None else multiplier[None])
            yield slice(part.start, part.start + len(x), stride), slice(first, stop), values, result
            del values, result  # freed before the next block or part is formed
        del phi, multiplier, kernel  # freed before the next part is evaluated


def mu_functional(
    spec: KernelSpec, basis: TMBasis, coefficients, grid: np.ndarray, *, extended: bool,
    gathered=None
) -> float | np.ndarray:
    """mu of R(x) = (1 - x conj(w)) sum_k c_k phi_k(x): the quadrature of
    |K_alpha(x; w) - R(x) / (1 - x conj(w))|^2 over the circle, in long
    double on the grid's long-double twin with extended=True (the rule is
    extended_mu).  A row c gives a float, a (trials, m) matrix one value per
    row.  The pass streams as nu_functional's does (see _walk): it samples
    K part by part, sums each row's squares on the part by np.add.reduce
    and adds that sum straight into the row's running sum.  So on a grid
    of one part a row's value is numpy's mean of its whole row of squares,
    to the bit, and so is it on two evaluated parts of NODE_CHUNK nodes
    (numpy's pairwise sum splits a row of 2^15 at 2^14).  One row forms R
    as Approximant.eval forms it, part by part, and sums the parts in node
    order.  In doubles one row may be handed its R at the grid's nodes,
    gathered, as nu_functional's pass on a grid this one nests in gathers
    it (build_error_report): the pass reduces it, to the same bits, and
    sums no node.  A batch of rows takes a matrix product and may round
    apart in the last bits."""
    coefficients = np.asarray(coefficients, dtype=complex)
    rows = np.atleast_2d(coefficients)
    nodes = circle_grid(len(grid), extended=True) if extended else grid
    sums = np.zeros(len(rows), dtype=nodes.real.dtype)
    for _, block, values, (part,) in _walk(
        spec, basis, rows, nodes, spec.alpha + 2, _squares, given=gathered
    ):
        sums[block] += part
        del values  # freed before the next block or part is formed
    mu = (sums / len(nodes)).astype(float)
    return float(mu[0]) if coefficients.ndim == 1 else mu


def _squares(multiplier, kernel, values, out) -> tuple[np.ndarray]:
    """(sums,): each row's sum over a part of |K - R / multiplier|^2
    (np.add.reduce of its squares), the errors written over out, one row
    at a time: no block of moduli beside the block of errors."""
    error = np.divide(values, multiplier, out=out)
    np.subtract(kernel, error, out=error)
    sums = np.empty(len(error), dtype=error.real.dtype)
    for row, row_error in enumerate(error):
        modulus = np.abs(row_error)
        sums[row] = np.add.reduce(np.square(modulus, out=modulus))
    return (sums,)


def _free_blaschke_modulus(spec: KernelSpec, free_poles) -> float:
    """|B(w)|, B the Blaschke product over the free poles."""
    return abs(BlaschkeProduct(free_poles)(spec.w))


def mu_min_closed_form(spec: KernelSpec, free_poles: PoleSequence | list[complex]) -> float:
    """Exact quadratic minimum |w|^(2a+2) (1-|w|^2)^-(2a+3) |B(w)|^2."""
    b = _free_blaschke_modulus(spec, free_poles)
    ww = abs(spec.w) ** 2
    return float(ww ** (spec.alpha + 1) / (1.0 - ww) ** (2 * spec.alpha + 3) * b * b)


def _golden_max(f: Callable, points, values, floor) -> np.ndarray:
    """Maximize f on every bracket a < x < b at once by safeguarded parabolic
    steps (R. P. Brent, Algorithms for Minimization without Derivatives,
    1973), and return f at each final middle point.

    points and values are (3, brackets) arrays: the triples (a, x, b) and
    their f values, with f(x) >= f(a), f(b) (a triple that breaks this by
    rounding stops at once); floor is the rounding error of one evaluation,
    per bracket.  f maps an array of angles to values elementwise and is
    called once per step on all brackets, with NaN at each stopped bracket:
    its value there is ignored, so f need evaluate only the others (as
    _nu_refine's does, each live bracket with its own row), and a stopped
    bracket keeps its state.  Each bracket's result depends on its own
    triple, floor and values of f alone, and is never below its initial
    f(x): nu_minimum's pruning rests on both.

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
        fu = f(np.where(active, u, np.nan))
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


def nu_functional(
    spec: KernelSpec, basis: TMBasis, coefficients, grid: np.ndarray, *, gather: int | None = None
) -> float | np.ndarray | tuple:
    """nu of R(x) = (1 - x conj(w)) sum_k c_k phi_k(x): the grid maximum of
    |(1 - x conj(w))^-(1+alpha) - R(x)| on the circle, refined by parabolic
    steps on the bracket of the best node and its two neighbours.  The error
    modulus is smooth on the circle and near-constant at the optimum, so grid
    resolution dominates and the refinement is local; at the optimum the grid
    triple is flat to rounding and the refinement evaluates nothing.

    A row c of length m gives a float; a (trials, m) matrix gives one value
    per row.  The grid pass streams (see _walk) and keeps each row's
    running maximum and its node j, the first of equal maxima.  One nested
    sum (TMBasis.eval_sum, each point with its own row) then gives the
    moduli at the (3, trials) nodes j - 1, j, j + 1 (mod N) and, at j, |K|
    and |K - (K - R)| for the rounding floor; each refinement step sums
    only the live brackets alike, so no basis block is formed after the
    grid pass.  One row is summed as its grid pass summed it, to the bit,
    and scores as Approximant.eval does; a batch's grid pass multiplies
    basis blocks by its rows, which round apart in the last bits.  The
    first non-finite K or R stops the grid pass with NonFiniteIntegrand.
    nu_minimum gives the first argmin and the minimum of a batch's values
    with the same pass, brackets and refinement, scoring in full only the
    rows that can still be the minimum.

    With gather, a row's grid pass also gathers its R at every gather-th
    node, and (nu, R) is returned (R None for gather 0): the R that
    build_error_report hands to mu_functional."""
    coefficients = np.asarray(coefficients, dtype=complex)
    rows = np.atleast_2d(coefficients)
    _, index, _, gathered = _nu_grid_pass(spec, basis, rows, grid, gather=gather or 0)
    # one row, (m,) or (1, m), is summed as a vector, as its grid pass was
    own = rows[0] if len(rows) == 1 else rows
    nu = _nu_refine(spec, basis, own, *_nu_brackets(spec, basis, own, grid, index))
    nu = float(nu[0]) if coefficients.ndim == 1 else nu
    return nu if gather is None else (nu, gathered)


def _nu_grid_pass(spec: KernelSpec, basis: TMBasis, rows: np.ndarray, nodes, blocks=None,
                  gather: int = 0):
    """(top, index, bottom, gathered): each row's largest error modulus
    over the nodes its block is evaluated at (_walk with these blocks;
    rows of no block keep -inf, 0 and inf), the node of it, the first of
    equal maxima, and its smallest error modulus there; and, with gather,
    one row's R at every gather-th node, else None.  A maximum and a
    minimum are exact, so they do not depend on how the nodes are split
    into parts.  This is the one pass of |K - R| over a grid."""
    top = np.full(len(rows), -np.inf)
    bottom = np.full(len(rows), np.inf)
    index = np.zeros(len(rows), dtype=int)
    parts = []
    for at, block, values, (value, local, moduli) in _walk(
        spec, basis, rows, nodes, spec.alpha + 1, _maxima, blocks
    ):
        if gather:
            # a copy per part, joined after the pass: one array of the
            # whole R, held through the pass, raised the pass's peak, and
            # glibc's heap trimming then had every request fault that
            # memory in afresh
            parts.append(values[0, -at.start % gather :: gather].copy())
        moved = value > top[block]
        top[block] = np.where(moved, value, top[block])
        index[block] = np.where(moved, at.start + at.step * local, index[block])
        np.minimum(bottom[block], moduli.min(axis=1), out=bottom[block])
        del values, moduli  # freed before the next block or part is formed
    return top, index, bottom, np.concatenate(parts) if gather else None


def _maxima(multiplier, kernel, values, out) -> tuple:
    """(value, local, moduli) of a part: each row's error moduli |K - R|,
    the errors written over out, the first node of each row's largest
    modulus, and that modulus (NaN where the row holds one: np.argmax takes
    the first NaN)."""
    moduli = np.abs(np.subtract(kernel, values, out=out))
    local = np.argmax(moduli, axis=1)
    return moduli[np.arange(len(moduli)), local], local, moduli


def _kernel_error(spec: KernelSpec, basis: TMBasis, x, rows):
    """K(x) and the error K(x) - R(x) of the rows, each point of x with its
    own row for rows of shape (..., m), by the nested sum."""
    kernel = spec.cauchy_power(x)
    return kernel, kernel - competitor_function(basis, spec.w, rows)(x)


def _nu_brackets(spec: KernelSpec, basis: TMBasis, rows, nodes, index):
    """(points, moduli, floor) of the brackets _golden_max refines: the
    angles of the nodes j - 1, j, j + 1 (mod N) of each row's best node j,
    the error moduli there, and the rounding floor at j.  rows is one
    vector, summed as its grid pass summed it, or one row per bracket."""
    near = index + np.arange(-1, 2)[:, None]
    kernel, bracket = _kernel_error(spec, basis, nodes[near % len(nodes)], rows)
    floor = _ROUNDING_FLOOR * (np.abs(kernel[1]) + np.abs(kernel[1] - bracket[1]))
    return (2.0 * np.pi / len(nodes)) * near, np.abs(bracket), floor


def _nu_refine(spec: KernelSpec, basis: TMBasis, rows, points, moduli, floor) -> np.ndarray:
    """nu of every bracket of _nu_brackets: _golden_max of the error modulus,
    each live bracket summed with its own row (or with the one vector)."""

    def modulus(t):
        # stopped brackets come as NaN; only the live ones are evaluated
        live = ~np.isnan(t)
        x = np.cos(t[live]) + 1j * np.sin(t[live])
        out = np.full(t.shape, np.nan)
        out[live] = np.abs(_kernel_error(spec, basis, x, rows if rows.ndim == 1 else rows[live])[1])
        return out

    return _golden_max(modulus, points, moduli, floor)


def _screen_margins(spec: KernelSpec, basis: TMBasis, rows: np.ndarray) -> np.ndarray:
    """Per row, twice the most by which two evaluations of the error
    modulus |K(x) - R(x)| at one node x of the circle can differ; NaN or
    inf where a bound is not finite or lies within a factor 4 of the
    double range, so that no evaluation can overflow.

    With Phi = (sum_k (1 + |a_k|)/(1 - |a_k|))^(1/2) over the first m poles,
    |phi_k(x)|^2 <= (1 + |a_k|)/(1 - |a_k|) on the circle, so
    sum_k |c_k phi_k(x)| <= ||c||_2 Phi, and |R(x)| <= Rb = (1 + |w|) ||c||_2
    Phi; |K(x)| <= Kb = (1 - |w|)^-(1+alpha).  Two sums differ by at most
    8 m eps sum_k |c_k phi_k(x)| (the agreement bound of the nested sum and
    the block product), which the multiplier scales by at most 1 + |w|.
    Each evaluation of the multiplier d = 1 - x conj(w) is within 3 eps of
    it, and its product with the sum rounds within 2 eps |R|: with the sums,
    8 (m + 2) eps Rb covers both evaluations of R.  Relatively, d is within
    3 eps / (1 - |w|), and K = d^-(1+alpha) takes alpha + 2 more roundings,
    each within 2 eps: 10 (alpha + 2) eps Kb / (1 - |w|) covers both
    evaluations of K.  The subtraction and the modulus add at most
    2 eps (Kb + Rb) per evaluation.  So one node gives at most

        D = eps (8 (m + 2) Rb + 10 (alpha + 2) Kb / (1 - |w|) + 4 (Kb + Rb)),

    and the margin 2 D covers the two nodes nu_minimum compares across."""
    eps = np.finfo(float).eps
    count = rows.shape[1]
    moduli = np.abs(np.asarray(basis.poles[:count], dtype=complex))
    gap = 1.0 - abs(spec.w)
    with np.errstate(over="ignore", invalid="ignore"):
        phi = np.sqrt(np.sum((1.0 + moduli) / (1.0 - moduli)))
        norms = np.sqrt(np.sum(np.square(np.abs(rows)), axis=1))
        kernel = np.power(gap, -(spec.alpha + 1.0))
        bound = (1.0 + abs(spec.w)) * norms * phi
        margins = 2.0 * eps * (8.0 * (count + 2) * bound + 10.0 * (spec.alpha + 2) * kernel / gap
                               + 4.0 * (kernel + bound))
        margins[~np.isfinite(4.0 * (kernel + bound))] = np.inf
    return margins


def _nu_branch(spec: KernelSpec, basis: TMBasis, rows, nodes, scored, index, best):
    """Refine, among the rows scored (indices whose grid pass gave index),
    those that can still beat best = (value, row), and return the new best.
    Refinement never lowers a bracket's middle value, so only a row whose
    middle value lies below best's value (or equals it, at a lower row)
    can; the lowest of them is refined first, then the rest that still can,
    together.  A tie goes to the lower row, as np.argmin's does."""
    points, moduli, floor = _nu_brackets(spec, basis, rows[scored], nodes, index[scored])
    middle = moduli[1]
    # scored is increasing, so a stable sort by middle value breaks ties by row
    order = np.array(sorted(range(len(scored)), key=middle.__getitem__), dtype=int)
    for chosen in (order[:1], order[1:]):
        chosen = chosen[(middle[chosen] < best[0])
                        | ((middle[chosen] == best[0]) & (scored[chosen] < best[1]))]
        if len(chosen):
            values = _nu_refine(spec, basis, rows[scored[chosen]], points[:, chosen],
                                moduli[:, chosen], floor[chosen])
            best = min(best, *zip(values.tolist(), scored[chosen].tolist()))
    return best


def nu_minimum(spec: KernelSpec, basis: TMBasis, rows, grid: np.ndarray) -> tuple[int, float]:
    """(index, value): the first argmin and the minimum of
    nu_functional(spec, basis, rows, grid) for a (trials, m) batch, to the
    bit, by branch and bound (A. H. Land and A. G. Doig, Econometrica 28,
    1960) over the same grid pass, brackets and refinement.

    One streamed pass scores the first min(2, m) rows in full (the optimum
    and trial 1, in a competitor scan) and evaluates every other row's error
    only at every _SCREEN_STRIDE-th node of each part, keeping its largest
    modulus there, the screen.  A row of a product rounds alike in any block
    of two or more rows, so those rows round as in nu_functional's first
    block of m.  Only a block of one row, which numpy multiplies by a
    matrix-vector routine, rounds apart; it is formed only where m = 1,
    where nu_functional forms it too.  Their brackets are refined as
    _nu_branch says.  A screened row whose screen less its margin
    (_screen_margins) exceeds the best refined value cannot be the minimum:
    nu is at least the middle value of the row's bracket at its best node j,
    which is at most a margin's half below the grid pass's value at j, which
    is at least the pass's value at the screen's node, at most a margin's
    half below the screen.  The blocks holding any other row then take the
    full grid pass, in their own aligned blocks of m rows (so each row
    rounds as in nu_functional), and their rows' brackets are refined as the
    first rows' were.  One row, a batch of one block, or a batch with a
    bound that is not finite (see _screen_margins) takes nu_functional's
    pass for every row, so a non-finite R or K raises NonFiniteIntegrand at
    the same node."""
    rows = np.asarray(rows, dtype=complex)
    trials, count = rows.shape
    block = max(count, 1)
    margins = _screen_margins(spec, basis, rows)
    if trials <= block or not np.isfinite(margins).all():
        values = nu_functional(spec, basis, rows, grid)
        first = int(np.argmin(values))
        return first, float(values[first])
    scored = min(2, block)
    screen = block * _SCREEN_STRIDE  # rows per screened block: as many values as a full one
    blocks = np.concatenate([
        _blocks([0], scored), _blocks(range(scored, trials, screen), screen, _SCREEN_STRIDE)
    ])
    top, index, _, _ = _nu_grid_pass(spec, basis, rows, grid, blocks)
    best = _nu_branch(spec, basis, rows, grid, np.arange(scored), index, (np.inf, trials))
    rest = np.arange(scored, trials)
    rest = rest[~(top[scored:] - margins[scored:] > best[0])]
    del top, index
    if len(rest):
        blocks = _blocks(np.unique(rest // block) * block, block)
        _, index, _, _ = _nu_grid_pass(spec, basis, rows, grid, blocks)
        best = _nu_branch(spec, basis, rows, grid, rest, index, best)
    return best[1], best[0]


def nu_min_closed_form(spec: KernelSpec, free_poles: PoleSequence | list[complex]) -> float:
    """Exact uniform minimum (|w| / (1-|w|^2))^(1+alpha) |B(w)|."""
    b = _free_blaschke_modulus(spec, free_poles)
    return float((abs(spec.w) / (1.0 - abs(spec.w) ** 2)) ** (spec.alpha + 1) * b)


def closed_form_J(spec: KernelSpec, basis: TMBasis, n: int, z) -> complex:
    """Closed form of the kernel-remainder integral, with the Blaschke
    product of the quadrature route, so the two agree in phase as well:

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
    """Member of the competitor class: R(x) = (1 - x conj(w)) sum c_m phi_m(x),
    the sum taken by TMBasis.eval_sum at all of x, whose bits at a point do
    not depend on the other points.  Rows of shape (..., m) pass through to
    eval_sum and give each point its own row.  Approximant.eval is this R of
    the approximant's coefficients and nu_functional takes it at the
    brackets of its rows; the grid passes of one row form the same product
    part by part with their own multiplier (_walk)."""
    coefficients = np.asarray(coefficients, dtype=complex)

    def rational(x):
        x = np.asarray(x)
        sums = basis.eval_sum(coefficients, x)
        # an explicit product: an operator could be rewritten in place
        out = np.multiply(1.0 - x * np.conj(w), sums)
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
    Gaussians, all in one draw.  require_bytes refuses a scan of more than
    MAX_DESIGN_BYTES before anything is allocated: per trial its row, its
    draws, 16 m bytes for its row's part in the nu brackets and the rest of
    its nu state, _NU_ROW_BYTES.  The draws are freed before nu runs.  With
    the 16 m bytes they cover the copy of a live bracket's row in a
    refinement step, 16 m bytes; eval_sum holds no more arrays at repeated
    poles than at distinct ones, so the count over-covers."""
    optimum = approx.coefficients
    trials, count = int(trials), len(optimum)
    shape = (max(trials - 1, 0), 2, count)  # the real draws behind rows 1, 2, ...
    size = trials * (32 * count + _NU_ROW_BYTES) + 8 * math.prod(shape)
    require_bytes(size, f"a competitor schedule of {trials} trials by {count} coefficients "
                  f"needs {size} bytes with its nu pass")
    scale = float(np.max(np.abs(optimum)))
    rows = np.empty((trials, count), dtype=complex)
    rows[:1] = optimum
    # the noise in place, to the bits of optimum + c * (re + 1j * im)
    rows[1:].real, rows[1:].imag = rng.standard_normal(shape).transpose(1, 0, 2)
    rows[1::2] *= _NOISE_SCALE * scale
    rows[1::2] += optimum
    rows[2::2] *= scale
    return rows


def equimodularity_variation(
    spec: KernelSpec, basis: TMBasis, coefficients, grid: np.ndarray
) -> float | np.ndarray:
    """Relative variation (max - min)/max on the grid of the uniform-error
    modulus |(1 - x conj(w))^-(1+alpha) - R(x)|, R formed from the rows as
    nu_functional forms it (0 where the error vanishes); a row gives a
    float, a (trials, m) matrix one value per row.  The max and the min are
    those of nu_functional's grid pass.  It vanishes exactly at the optimum,
    where the error is a constant times a Blaschke product."""
    coefficients = np.asarray(coefficients, dtype=complex)
    top, _, bottom, _ = _nu_grid_pass(spec, basis, np.atleast_2d(coefficients), grid)
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
    # the approximant the values came from (None for w = 0), for payload
    approximant: Approximant | None = field(default=None, repr=False, compare=False)

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

    def payload(self) -> dict:
        """The approximate JSON: the approximant (alpha, w, the free poles and
        its expansion), this report and the interpolation rows.  At w = 0 a
        note stands for the expansion, and there are no rows."""
        report, approx = self.to_json_dict(), self.approximant
        if approx is None:
            block, rows = {"note": "degenerate kernel: the approximant is identically 1"}, []
        else:
            block, rows = approx.expansion.to_json_dict(), approx.interpolation_rows
        # the report's own alpha, w and free poles, so the two blocks agree
        block.update({key: report[key] for key in ("alpha", "w", "free_poles")})
        return {"approximant": block, "error_report": report, "interpolation_residuals": rows}


def build_error_report(
    spec: KernelSpec, free_poles: PoleSequence | list[complex]
) -> ErrorReport:
    """Build the approximant and evaluate both error functionals against their
    closed forms: mu on the expansion's grid, nu on NU_GRID_NODES nodes.
    w = 0 short-circuits to exact zeros, without an approximant: the kernel
    degenerates to the constant 1 and the approximant is identically 1.  Else
    build_approximant refuses an alpha past the double range, and the mu
    grid is made next, so a grid past the cap (GridTooLarge) refuses the
    request before its rows.

    nu runs before mu, and its pass hands mu the R it gathers at mu's
    nodes where mu's grid nests in nu's (a power of two of at most
    NU_GRID_NODES nodes, every stride-th of nu's to the bit): mu in
    doubles reduces that R with its own multiplier and K, and sums no node.
    Each value has the bits of its functional on a fresh approximant.  A
    refused nu runs mu first and then raises, so a request that mu would
    refuse reports mu's refusal, as when mu ran first.  Both passes run on
    this thread and start none, so a verify that follows in this process
    can still form its pool."""
    free_poles = PoleSequence(free_poles)
    approx, values = None, (0.0,) * len(ErrorReport.VALUE_NAMES)
    if spec.w != 0:
        approx = build_approximant(spec, free_poles)
        mu_grid = circle_grid(approx.expansion.grid_size)
        # the rows next: they are cheap, and one out of the double range fails
        # the report before the grid passes
        residuals = approx.interpolation_residuals()
        mu_closed = mu_min_closed_form(spec, free_poles)
        extended = extended_mu(mu_closed)
        nests = not extended and NU_GRID_NODES % len(mu_grid) == 0
        stride = NU_GRID_NODES // len(mu_grid) if nests else 0
        args = (spec, approx.basis, approx.coefficients)
        try:
            nu_grid, gathered = nu_functional(*args, circle_grid(NU_GRID_NODES), gather=stride)
        except Exception:
            mu_functional(*args, mu_grid, extended=extended)
            raise
        mu_quad = mu_functional(*args, mu_grid, extended=extended, gathered=gathered)
        nu_closed = nu_min_closed_form(spec, free_poles)
        values = (mu_quad, mu_closed, nu_grid, nu_closed, max(residuals, default=0.0))
    report = ErrorReport(
        spec.alpha, len(free_poles) + spec.alpha, spec.w, free_poles, *values,
        free_pole_matches_w=any(p == spec.w for p in free_poles),
        degenerate_w_zero=spec.w == 0,
        approximant=approx,
    )
    report.validate()
    return report
