"""Seeded request streams and per-operation correctness gates.

Each workload is an endless sequence of *blocks*.  A block has a fixed
composition (how many requests of each class, which order strata, which grid
sizes), and the seed draws everything inside it: the order, alpha, n, w and
the free poles.  A run always executes whole blocks, so two runs with
different seeds do the same kind of work and their medians can be compared.

The program only ever sees the CLI argument lists built here.  Every request
also carries the harness's own copy of its inputs, from which the gates
recompute the closed-form minima independently of the library.

Every draw is kept, including those in the known-defect regions (see
``known_defects``): they are gated like the rest and count as failures.
The gates take their bounds from ``diskrat.verify.DEFAULT_TOLERANCES``,
passed in by ``run.py``, and never loosen them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: Largest |w| in the stream; escalates expansion grids to 2^15 nodes.
W_MAX = 0.99
#: Points with |w| at or above this use the boundary tolerances.
BOUNDARY = 0.8
#: Free poles are drawn area-uniformly from |a| <= POLE_MAX.
POLE_MAX = 0.85
#: Largest number of free poles in an ``approximate`` request (n - alpha).
FREE_MAX = 30
#: closed-form mu_min of the tiny-mu requests is log-uniform in this range.
TINY_MU = (1e-14, 1e-9)

#: Input regions where the program is known not to deliver a certified
#: number at unchanged tolerances.  Requests in them stay in the streams at
#: their natural rate, are gated like every other request and count in
#: ``failed``; the tags only let a run tell a known defect from a new one.
#:
#: ``repeated_pole``: a free pole a repeated s times whose Cauchy-formula
#: scale factorial(s-1) / r^(s-1), r = (1-|a|)/2 the default radius of
#: ``circlequad.derivative_at``, reaches this (about its rel_tol 1e-12 over
#: double epsilon); the derivative quadrature of the interpolation
#: residuals then stops with AccuracyNotReached or misses the gate.
REPEAT_DEFECT = 1e4
#: ``near_circle``: (1-|w|^2)^(alpha+1) below this; ``eval_closed_form``
#: divides by it and the derivative quadrature stops settling.
DISC_DEFECT = 1e-3
#: ``nu_floor``: nu_min below this times sup|(1 - x conj(w))^-(1+alpha)|;
#: double precision resolves the uniform error (and the LSQ oracle's
#: minimum, which ``cmd_oracle`` never computes in long double) only to
#: about 1e-16 of that scale.
NU_DEFECT = 1e-6
#: ``double_mu``: mu_min in this range, where ``build_error_report``
#: evaluates mu in doubles (its long-double cutoff is a literal 1e-9) while
#: ``verify`` would use long double (EXTENDED_MU_CUTOFF = 1e-7).
MU_DEFECT = (1e-9, 1e-7)


def _cplx(z: complex) -> str:
    """"re,im" with every digit, so the CLI parses back the exact value."""
    return f"{float(z.real)!r},{float(z.imag)!r}"


def _pole_list(poles) -> str:
    return ";".join(_cplx(p) for p in poles)


def blaschke_at(w: complex, poles) -> float:
    """|B(w)| for the Blaschke product over the given free poles."""
    out = 1.0
    for a in poles:
        out *= abs((w - a) / (1.0 - a.conjugate() * w))
    return out


def mu_min(alpha: int, w: complex, poles) -> float:
    """|w|^(2a+2) (1-|w|^2)^-(2a+3) |B(w)|^2."""
    ww = abs(w) ** 2
    return ww ** (alpha + 1) / (1.0 - ww) ** (2 * alpha + 3) * blaschke_at(w, poles) ** 2


def nu_min(alpha: int, w: complex, poles) -> float:
    """(|w| / (1-|w|^2))^(1+a) |B(w)|."""
    return (abs(w) / (1.0 - abs(w) ** 2)) ** (alpha + 1) * blaschke_at(w, poles)


def cauchy_scale(alpha: int, w: complex) -> float:
    """sup over the circle of |(1 - x conj(w))^-(1+alpha)|."""
    return (1.0 - abs(w)) ** -(alpha + 1)


def known_defects(workload: str, alpha: int, w: complex, poles) -> list[str]:
    """The known-defect regions (see REPEAT_DEFECT ff.) the inputs lie in."""
    if w == 0:
        return []
    tags = []
    if any(math.factorial(s - 1) * (2.0 / (1.0 - abs(p))) ** (s - 1) >= REPEAT_DEFECT
           for p in set(poles) if (s := poles.count(p)) > 1):
        tags.append("repeated_pole")
    if (1.0 - abs(w) ** 2) ** (alpha + 1) < DISC_DEFECT:
        tags.append("near_circle")
    if 0.0 < nu_min(alpha, w, poles) < NU_DEFECT * cauchy_scale(alpha, w):
        tags.append("nu_floor")
    if workload == "approximate" and MU_DEFECT[0] <= mu_min(alpha, w, poles) < MU_DEFECT[1]:
        tags.append("double_mu")
    return tags


@dataclass
class Request:
    """One CLI call and the inputs the gate needs to check it."""

    argv: list[str]
    alpha: int
    w: complex
    poles: list[complex]
    tags: dict = field(default_factory=dict)
    defects: list[str] = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.alpha + len(self.poles)


def _disk(rng: np.random.Generator, count: int, r_max: float = POLE_MAX) -> list[complex]:
    radii = np.sqrt(rng.uniform(0.0, r_max**2, count))
    angles = rng.uniform(0.0, 2.0 * np.pi, count)
    return [complex(r * math.cos(t), r * math.sin(t)) for r, t in zip(radii, angles)]


def _point(rng: np.random.Generator, lo: float, hi: float) -> complex:
    modulus = rng.uniform(lo, hi)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    return complex(modulus * math.cos(angle), modulus * math.sin(angle))


# --------------------------------------------------------------------------
# approximate


#: |w| strata of the boundary requests in every block; the last stratum
#: escalates the expansion grid to 2^15 nodes, so every block holds one.
BOUNDARY_STRATA = ((0.8, 0.85), (0.85, 0.9), (0.9, 0.95), (0.95, 0.98), (0.984, W_MAX))
#: (class, free-pole kind, requests) making up one block of 20: one w = 0
#: request, three with mu_min < 1e-9 (one pole near w), one per boundary
#: stratum, and the rest interior (0.1 <= |w| < 0.8).
APPROX_BLOCK = (
    ("w_zero", "random", 1),
    ("tiny_mu", "near_w", 3),
    ("boundary", "random", 2),
    ("boundary", "zeros", 1),
    ("boundary", "repeated", 1),
    ("boundary", "equals_w", 1),
    ("interior", "random", 4),
    ("interior", "zeros", 3),
    ("interior", "repeated", 2),
    ("interior", "equals_w", 2),
)


def _count(u: float, lo: int, hi: int) -> int:
    """Map a stratified uniform u in [0, 1) onto lo..hi."""
    return lo + int(u * (hi - lo + 1))


def _free_poles(rng: np.random.Generator, kind: str, w: complex, u: float):
    if kind == "zeros":
        return [0j] * _count(u, 1, FREE_MAX)
    if kind == "repeated":
        poles = _disk(rng, _count(u, 2, FREE_MAX))
        copies = int(rng.integers(2, len(poles) + 1))
        poles[:copies] = [poles[0]] * copies
        rng.shuffle(poles)
        return poles
    poles = _disk(rng, _count(u, 0, FREE_MAX))
    if kind == "equals_w":
        poles = poles or [0j]
        poles[int(rng.integers(0, len(poles)))] = w
    return poles


def near_w_poles(rng: np.random.Generator, alpha: int, w: complex, u: float, lo: float, hi: float):
    """Free poles whose closed-form mu_min lands log-uniformly in [lo, hi]:
    one pole is placed at pseudo-hyperbolic distance f from w, which scales
    |B(w)| by exactly f.  Other poles are dropped while they alone make
    |B(w)| too small."""
    ww = abs(w) ** 2
    c = ww ** (alpha + 1) / (1.0 - ww) ** (2 * alpha + 3)
    target = 10 ** rng.uniform(math.log10(lo), math.log10(hi))
    others = _disk(rng, _count(u, 0, FREE_MAX - 1))
    while not (f := math.sqrt(target / c) / blaschke_at(w, others)) < 0.9:
        others.pop()
    angle = rng.uniform(0.0, 2.0 * np.pi)
    z = complex(f * math.cos(angle), f * math.sin(angle))
    poles = others + [(w - z) / (1.0 - w.conjugate() * z)]
    rng.shuffle(poles)
    return poles


def _approx_request(rng, cls: str, kind: str, alpha: int, u: float, stratum) -> Request:
    if cls == "w_zero":
        w = 0j
        poles = _disk(rng, _count(u, 0, FREE_MAX))
    elif cls == "tiny_mu":
        w = _point(rng, 0.1, 0.5)
        poles = near_w_poles(rng, alpha, w, u, *TINY_MU)
    elif cls == "boundary":
        w = _point(rng, *stratum)
        poles = _free_poles(rng, kind, w, u)
    else:
        w = _point(rng, 0.1, BOUNDARY)
        poles = _free_poles(rng, kind, w, u)
    argv = ["approximate", "--alpha", str(alpha), f"--w={_cplx(w)}"]
    if kind == "zeros":
        argv += ["--poles=zeros", "--n", str(alpha + len(poles))]
    elif poles:
        argv += [f"--poles={_pole_list(poles)}"]
    else:
        argv += ["--n", str(alpha)]
    return Request(argv, alpha, w, poles, {"class": cls, "poles": kind},
                   known_defects("approximate", alpha, w, poles))


def approximate_blocks(seed: int):
    """Endless blocks of ``approximate`` requests.

    Within each group of a block alpha cycles through 0..3 and the
    free-pole count is stratified over its range, so blocks differ in their
    draws but not in their make-up.  Every draw is kept."""
    rng = np.random.default_rng([seed, 1])
    while True:
        strata = list(rng.permutation(len(BOUNDARY_STRATA)))
        block = []
        for cls, kind, size in APPROX_BLOCK:
            offset = int(rng.integers(0, 4))
            us = (rng.permutation(size) + rng.uniform(size=size)) / size
            for i, u in enumerate(us):
                stratum = BOUNDARY_STRATA[strata.pop()] if cls == "boundary" else None
                block.append(_approx_request(rng, cls, kind, (offset + i) % 4, u, stratum))
        yield [block[i] for i in rng.permutation(len(block))]


# --------------------------------------------------------------------------
# oracle


#: n strata of an oracle block, after the alpha = 0, n = 0 request that also
#: runs the exhaustive small-instance scan.  Request cost grows with n, so
#: narrow strata keep every block's cost profile the same.
ORACLE_STRATA = ((9, 11), (21, 23), (35, 37))
ORACLE_GRIDS = (4096, 16384)
ORACLE_TRIALS = 100


def _oracle_request(rng, alpha: int, n: int, grid: int, scan_seed: int) -> Request:
    w = _point(rng, 0.1, 0.7)
    poles = _disk(rng, n - alpha)
    argv = [
        "oracle", "--alpha", str(alpha), f"--w={_cplx(w)}",
        "--grid", str(grid), "--trials", str(ORACLE_TRIALS), "--seed", str(scan_seed),
    ]
    argv += [f"--poles={_pole_list(poles)}"] if poles else ["--n", str(n)]
    return Request(argv, alpha, w, poles, {"grid": grid, "exhaustive": n == 0},
                   known_defects("oracle", alpha, w, poles))


def oracle_blocks(seed: int):
    """Endless blocks of ``oracle`` requests.

    A block runs the exhaustive-scan slot and each n stratum twice, once on
    each grid size, in random order.  Every draw is kept."""
    rng = np.random.default_rng([seed, 2])
    slots = [(0, 0)] + list(ORACLE_STRATA)
    scan_seed = 0
    while True:
        block = []
        for (lo, hi), grid in [(slot, grid) for slot in slots for grid in ORACLE_GRIDS]:
            n = int(rng.integers(lo, hi + 1))
            alpha = int(rng.integers(0, min(3, n) + 1))
            scan_seed += 1
            block.append(_oracle_request(rng, alpha, n, grid, scan_seed))
        yield [block[i] for i in rng.permutation(len(block))]


# --------------------------------------------------------------------------
# verify


def verify_blocks(seed: int):
    """One full ``verify`` per block.  Its inputs are pinned by the check
    registry's own seeds, so the workload seed does not change it."""
    while True:
        yield [Request(["verify"], 0, 0j, [], {})]


BLOCKS = {"verify": verify_blocks, "approximate": approximate_blocks, "oracle": oracle_blocks}


# --------------------------------------------------------------------------
# gates


def _rel(value: float, reference: float) -> float:
    return abs(value - reference) / reference


def gate_verify(code: int, stdout: str, check_names) -> list[tuple[str, bool]]:
    """One (check, passed) pair per registry check: exit 0 and a PASS line."""
    lines = {}
    for line in stdout.splitlines():
        status, _, rest = line.partition(" ")
        name = rest.split(":", 1)[0]
        if status in ("PASS", "FAIL") and name in check_names:
            lines[name] = status == "PASS"
    return [(name, code == 0 and lines.get(name, False)) for name in check_names]


def gate_approximate(req: Request, code: int, out: dict | None, tol) -> list[str]:
    """Reasons the response misses its gate; empty when it passes."""
    if code != 0 or out is None:
        return [f"exit {code}"]
    report = out["error_report"]
    values = (report["mu_quad"], report["mu_closed"], report["nu_grid"], report["nu_closed"])
    if req.w == 0:
        rows = out["interpolation_residuals"]
        if any(v != 0.0 for v in values) or report["max_interp_residual"] != 0.0 or rows:
            return ["w = 0 without exact zeros"]
        return []
    boundary = abs(req.w) >= BOUNDARY
    mu_tol = tol["boundary_mu" if boundary else "quadratic_exactness"]
    nu_tol = tol["boundary_nu" if boundary else "uniform_exactness"]
    misses = []
    mu_ref = mu_min(req.alpha, req.w, req.poles)
    nu_ref = nu_min(req.alpha, req.w, req.poles)
    if mu_ref > 0:
        mu_errs = [_rel(report["mu_quad"], mu_ref), _rel(report["mu_closed"], mu_ref)]
        nu_errs = [_rel(report["nu_grid"], nu_ref), _rel(report["nu_closed"], nu_ref)]
    else:
        # A free pole equal to w makes both minima exactly 0, so the relative
        # error is undefined: scale by the size of the approximated function,
        # as the residual gate below does.
        scale = cauchy_scale(req.alpha, req.w)
        mu_errs = [report["mu_quad"] / max(1.0, scale**2), report["mu_closed"]]
        nu_errs = [report["nu_grid"] / max(1.0, scale), report["nu_closed"]]
    if not max(mu_errs) < mu_tol:
        misses.append(f"mu error {max(mu_errs):.3e} >= {mu_tol:g}")
    if not max(nu_errs) < nu_tol:
        misses.append(f"nu error {max(nu_errs):.3e} >= {nu_tol:g}")
    rows = out["interpolation_residuals"]
    if len(rows) != req.n + 1:
        misses.append(f"{len(rows)} interpolation rows for n = {req.n}")
    worst = max(
        (r["residual"] / max(1.0, abs(complex(*r["target"]))) for r in rows), default=0.0
    )
    if not worst < tol["interpolation"]:
        misses.append(f"scaled interpolation residual {worst:.3e} >= {tol['interpolation']:g}")
    return misses


def gate_oracle(req: Request, code: int, out: dict | None, tol) -> list[str]:
    """Reasons the response misses its gate; empty when it passes."""
    if code != 0 or out is None:
        return [f"exit {code}"]
    misses = []
    lsq, scan = out["lsq"], out["scan"]
    if not scan["margin"] >= -tol["competitor_scan"]:
        misses.append(f"scan margin {scan['margin']:.3e}")
    if scan["trials"] != ORACLE_TRIALS:
        misses.append(f"{scan['trials']} trials")
    if not lsq["route_gap"] < tol["oracle_routes"]:
        misses.append(f"route gap {lsq['route_gap']:.3e}")
    lsq_err = _rel(lsq["minimum"], mu_min(req.alpha, req.w, req.poles))
    if not lsq_err < tol["oracle_equivalence"]:
        misses.append(f"lsq minimum error {lsq_err:.3e}")
    exhaustive = out.get("exhaustive")
    if req.tags["exhaustive"] != (exhaustive is not None):
        misses.append("exhaustive scan missing or unexpected")
    elif exhaustive is not None:
        closed = mu_min(0, req.w, [])
        if not abs(exhaustive["grid_minimum"] - closed) <= exhaustive["resolution"] ** 2:
            misses.append("exhaustive minimum outside resolution^2")
    return misses
