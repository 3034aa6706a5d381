"""Command-line front end.

Subcommands: basis, approximate, sweep, verify, oracle.  Configuration is
accepted both as flags and as a JSON config file, flags overriding file
values; complex numbers are entered as "re,im" pairs.  Exit codes: 0 success,
1 usage error, 2 numerical-acceptance failure, 3 internal error.

All CSV cells carry 17 significant digits (round-trippable doubles) and all
outputs are byte-deterministic given (config, seed).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bergman_approx import build_error_report, interpolation_target
from .circlequad import circle_grid, require_in_disk
from .errors import DiskratError, OrderTooSmall, PointNotInDisk
from .kernels import KernelSpec
from .oracle import (
    LeastSquaresProblem,
    lsq_minimize,
    small_instance_exhaustive,
    uniform_competitor_scan,
)
from .tm_basis import PoleSequence, TMBasis, christoffel_darboux_residual
from .verify import ALL_CHECK_NAMES, run_checks, verdict_dict

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ACCEPTANCE = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def parse_complex(text: str) -> complex:
    """Parse "re,im" (or a bare real part) into a complex number."""
    parts = str(text).split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise UsageError(f"cannot parse complex number from {text!r}; expected re,im")


def parse_pole_list(text: str) -> list[complex]:
    """Semicolon- or whitespace-separated "re,im" pairs; "zeros" is accepted
    as a generator keyword handled by the caller."""
    items = [s for chunk in str(text).split(";") for s in chunk.split()]
    return [parse_complex(item) for item in items if item]


def parse_int_list(text: str) -> list[int]:
    """Comma list "0,1,2" or range "a:b" (inclusive)."""
    text = str(text)
    if ":" in text:
        lo, hi = text.split(":")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",") if s]


@dataclass
class RunConfig:
    command: str
    alpha: int = 0
    w: complex = 0j
    poles: list[complex] | None = None
    poles_keyword: str | None = None  # "zeros" generator
    random_poles: int | None = None
    seed: int = 0
    max_modulus: float = 0.85
    n: int | None = None
    grid_size: int = 4096
    out: str | None = None
    fmt: str = "json"
    only: list[str] | None = None
    tolerances: dict = field(default_factory=dict)
    trials: int = 100
    samples: list[complex] | None = None
    alphas: list[int] | None = None
    ns: list[int] | None = None
    ws: list[complex] | None = None

    def validate(self):
        if self.alpha < 0:
            raise UsageError("alpha must be >= 0")
        try:
            for point in [self.w, *(self.poles or []), *(self.ws or [])]:
                require_in_disk(point)
        except PointNotInDisk as exc:
            raise UsageError(str(exc))
        if self.grid_size < 256 or self.grid_size & (self.grid_size - 1):
            raise UsageError("grid size must be a power of two >= 256")
        if self.fmt not in ("csv", "json"):
            raise UsageError("format must be csv or json")


def _load_config_file(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    return data


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    file_values = _load_config_file(args.config) if args.config else {}

    def pick(flag_value, key, default):
        if flag_value is not None:
            return flag_value
        if key in file_values:
            return file_values[key]
        return default

    cfg = RunConfig(command=args.command)
    cfg.alpha = int(pick(args.alpha, "alpha", 0))
    w = pick(args.w, "w", 0j)
    cfg.w = parse_complex(w) if isinstance(w, str) else (
        complex(w[0], w[1]) if isinstance(w, (list, tuple)) else complex(w)
    )
    poles = pick(args.poles, "poles", None)
    if isinstance(poles, str):
        if poles.strip() == "zeros":
            cfg.poles_keyword = "zeros"
        else:
            cfg.poles = parse_pole_list(poles)
    elif isinstance(poles, list):
        cfg.poles = [complex(p[0], p[1]) for p in poles]
    cfg.random_poles = pick(args.random_poles, "random_poles", None)
    if cfg.random_poles is not None:
        cfg.random_poles = int(cfg.random_poles)
    cfg.seed = int(pick(args.seed, "seed", 0))
    cfg.max_modulus = float(pick(args.max_modulus, "max_modulus", 0.85))
    n = pick(args.n, "n", None)
    cfg.n = None if n is None else int(n)
    cfg.grid_size = int(pick(args.grid, "grid", 4096))
    cfg.out = pick(args.out, "out", None)
    cfg.fmt = str(pick(args.format, "format", "json"))
    only = pick(getattr(args, "only", None), "only", None)
    if isinstance(only, str):
        only = [s for s in only.split(",") if s]
    cfg.only = only
    cfg.tolerances = dict(file_values.get("tolerances", {}))
    for item in getattr(args, "tol", None) or []:
        if "=" not in item:
            raise UsageError(f"--tol expects name=value, got {item!r}")
        name, value = item.split("=", 1)
        try:
            cfg.tolerances[name] = float(value)
        except ValueError:
            raise UsageError(f"--tol value is not a number: {item!r}")
    cfg.trials = int(pick(getattr(args, "trials", None), "trials", 100))
    samples = pick(getattr(args, "samples", None), "samples", None)
    if isinstance(samples, str):
        cfg.samples = parse_pole_list(samples)
    elif isinstance(samples, list):
        cfg.samples = [complex(p[0], p[1]) for p in samples]
    alphas = pick(getattr(args, "alphas", None), "alphas", None)
    cfg.alphas = parse_int_list(alphas) if isinstance(alphas, str) else alphas
    ns = pick(getattr(args, "ns", None), "ns", None)
    cfg.ns = parse_int_list(ns) if isinstance(ns, str) else ns
    ws = pick(getattr(args, "ws", None), "ws", None)
    if isinstance(ws, str):
        cfg.ws = parse_pole_list(ws)
    elif isinstance(ws, list):
        cfg.ws = [complex(p[0], p[1]) for p in ws]
    cfg.validate()
    return cfg


def _free_poles_for(cfg: RunConfig, count: int, salt: int = 0) -> PoleSequence:
    """Resolve the free-pole source (explicit, zeros, or random) for a lattice
    point needing `count` poles."""
    if count < 0:
        raise OrderTooSmall(f"n smaller than alpha leaves {count} free poles")
    if cfg.poles_keyword == "zeros":
        return PoleSequence([0j] * count)
    if cfg.poles is not None:
        if len(cfg.poles) < count:
            raise UsageError(
                f"need {count} poles but only {len(cfg.poles)} were given"
            )
        return PoleSequence(cfg.poles[:count])
    return PoleSequence.random(count, seed=cfg.seed + salt, max_modulus=cfg.max_modulus)


def _emit(cfg: RunConfig, text: str):
    if cfg.out:
        Path(cfg.out).write_text(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def cmd_basis(cfg: RunConfig) -> int:
    if cfg.poles is not None:
        poles = PoleSequence(cfg.poles)
    elif cfg.poles_keyword == "zeros":
        poles = PoleSequence([0j] * ((cfg.n or 4) + 1))
    elif cfg.random_poles is not None:
        poles = PoleSequence.random(
            cfg.random_poles, seed=cfg.seed, max_modulus=cfg.max_modulus
        )
    else:
        raise UsageError("basis needs --poles, --poles zeros, or --random-poles")
    basis = TMBasis(poles)
    grid = circle_grid(cfg.grid_size)
    gram = basis.gram_matrix(grid)
    gram_dev = float(np.max(np.abs(gram - np.eye(basis.size))))
    if cfg.samples is not None:
        samples = np.asarray(cfg.samples, dtype=complex)
    else:
        samples = 0.5 * np.exp(2j * np.pi * (np.arange(8) + 0.5) / 8)
    phi = basis.eval_all(samples)
    rng = np.random.default_rng(cfg.seed)
    radii = 0.8 * np.sqrt(rng.uniform(0, 1, 20))
    angles = rng.uniform(0, 2 * np.pi, 20)
    pairs = radii * np.exp(1j * angles)
    cd_max = 0.0
    for i in range(0, 20, 2):
        cd_max = max(
            cd_max,
            christoffel_darboux_residual(
                basis, basis.size, complex(pairs[i]), complex(pairs[i + 1])
            ),
        )
    if cfg.fmt == "json":
        payload = {
            "poles": [[p.real, p.imag] for p in poles],
            "sample_points": [[z.real, z.imag] for z in samples],
            "phi_values": [
                [[v.real, v.imag] for v in phi[:, j]] for j in range(len(samples))
            ],
            "gram_max_deviation": gram_dev,
            "cd_max_residual": cd_max,
            "grid": cfg.grid_size,
        }
        _emit(cfg, _json_dump(payload))
    else:
        lines = ["record,i,k,re,im"]
        for j, z in enumerate(samples):
            lines.append(f"point,{j},,{_fmt(z.real)},{_fmt(z.imag)}")
            for k in range(basis.size):
                v = phi[k, j]
                lines.append(f"phi,{j},{k},{_fmt(v.real)},{_fmt(v.imag)}")
        lines.append(f"gram_max_deviation,,,{_fmt(gram_dev)},0")
        lines.append(f"cd_max_residual,,,{_fmt(cd_max)},0")
        _emit(cfg, "\n".join(lines) + "\n")
    return EXIT_OK


def _resolve_order(cfg: RunConfig) -> PoleSequence:
    """Free poles for approximate/oracle: explicit list wins, then random count,
    then --n (drawing n - alpha random poles)."""
    if cfg.n is not None and cfg.n < cfg.alpha:
        raise OrderTooSmall(f"n = {cfg.n} is smaller than alpha = {cfg.alpha}")
    if cfg.poles is not None:
        return PoleSequence(cfg.poles)
    if cfg.poles_keyword == "zeros":
        count = (cfg.n - cfg.alpha) if cfg.n is not None else 1
        return PoleSequence([0j] * count)
    if cfg.random_poles is not None:
        return PoleSequence.random(
            cfg.random_poles, seed=cfg.seed, max_modulus=cfg.max_modulus
        )
    if cfg.n is not None:
        return PoleSequence.random(
            cfg.n - cfg.alpha, seed=cfg.seed, max_modulus=cfg.max_modulus
        )
    raise UsageError("give --poles, --random-poles, or --n")


def cmd_approximate(cfg: RunConfig) -> int:
    spec = KernelSpec(cfg.alpha, cfg.w)
    free = _resolve_order(cfg)
    report = build_error_report(spec, free)
    if report.degenerate_w_zero:
        approx_dict = {
            "alpha": spec.alpha,
            "w": [0.0, 0.0],
            "free_poles": [[p.real, p.imag] for p in free],
            "note": "degenerate kernel: the approximant is identically 1",
        }
        interp_rows = []
    else:
        approx = report.approximant
        approx_dict = approx.to_json_dict()
        residuals = report.interp_residuals
        interp_rows = []
        for m, a in enumerate(approx.basis.poles):
            s = approx.basis.poles.multiplicity_in_prefix(m)
            target = interpolation_target(spec, a, s)
            interp_rows.append(
                {
                    "m": m,
                    "pole": [a.real, a.imag],
                    "multiplicity": s,
                    "target": [target.real, target.imag],
                    "residual": residuals[m],
                }
            )
    if cfg.fmt == "json":
        payload = {
            "approximant": approx_dict,
            "error_report": report.to_json_dict(),
            "interpolation_residuals": interp_rows,
        }
        _emit(cfg, _json_dump(payload))
    else:
        lines = [report.CSV_HEADER, report.csv_row()]
        _emit(cfg, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig) -> int:
    alphas = cfg.alphas if cfg.alphas is not None else [cfg.alpha]
    ns = cfg.ns if cfg.ns is not None else ([cfg.n] if cfg.n is not None else [])
    ws = cfg.ws if cfg.ws is not None else [cfg.w]
    points = sorted(
        ((a, n, w) for a in alphas for n in ns for w in ws),
        key=lambda p: (p[0], p[1], abs(p[2])),
    )
    header = "alpha,n,w_re,w_im,mu_quad,mu_closed,nu_grid,nu_closed,max_interp_residual,error"
    lines = [header]
    rows_failed = 0
    for index, (alpha, n, w) in enumerate(points):
        try:
            spec = KernelSpec(alpha, w)
            free = _free_poles_for(cfg, n - alpha, salt=index)
            report = build_error_report(spec, free)
            cells = [str(alpha), str(n)]
            cells += [
                _fmt(v)
                for v in (
                    w.real,
                    w.imag,
                    report.mu_quadrature,
                    report.mu_closed_form,
                    report.nu_grid,
                    report.nu_closed_form,
                    report.max_interp_residual,
                )
            ]
            cells.append("")
            lines.append(",".join(cells))
        except (DiskratError, UsageError, ValueError) as exc:
            rows_failed += 1
            message = str(exc).replace(",", ";").replace("\n", " ")
            lines.append(
                f"{alpha},{n},{_fmt(w.real)},{_fmt(w.imag)},,,,,,{message}"
            )
    _emit(cfg, "\n".join(lines) + "\n")
    return EXIT_ACCEPTANCE if rows_failed else EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    try:
        results = run_checks(only=cfg.only, tolerances=cfg.tolerances)
    except ValueError as exc:
        raise UsageError(str(exc))
    for result in results:
        sys.stdout.write(result.line() + "\n")
    verdict = verdict_dict(results)
    all_passed = all(r.passed for r in results)
    sys.stdout.write(
        ("all checks passed" if all_passed else "SOME CHECKS FAILED") + "\n"
    )
    if cfg.out:
        Path(cfg.out).write_text(_json_dump(verdict))
    return EXIT_OK if all_passed else EXIT_ACCEPTANCE


def cmd_oracle(cfg: RunConfig) -> int:
    spec = KernelSpec(cfg.alpha, cfg.w)
    free = _resolve_order(cfg)
    basis = TMBasis(free.with_trailing(spec.w, spec.alpha + 1))
    problem = LeastSquaresProblem.build(spec, basis, circle_grid(cfg.grid_size))
    lsq = lsq_minimize(problem)
    scan = uniform_competitor_scan(
        spec, basis, trials=cfg.trials, seed=cfg.seed, grid=circle_grid(cfg.grid_size)
    )
    payload = {"lsq": lsq.to_json_dict(), "scan": scan.to_json_dict()}
    if spec.alpha == 0 and len(free) == 0:
        payload["exhaustive"] = small_instance_exhaustive(spec).to_json_dict()
    _emit(cfg, _json_dump(payload))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="diskrat",
        description="Orthonormal rational systems and best fixed-pole kernel approximation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("basis", "evaluate the orthonormal system, its Gram matrix, and the kernel identity"),
        ("approximate", "build an approximant and its error report"),
        ("sweep", "tabulate error reports over an (alpha, n, w) lattice"),
        ("verify", "run the verification suite"),
        ("oracle", "run the least-squares and competitor-scan oracles"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--alpha", type=int, default=None)
        p.add_argument("--w", default=None, help='kernel point as "re,im"')
        p.add_argument("--poles", default=None,
                       help='semicolon-separated "re,im" pairs, or "zeros"')
        p.add_argument("--random-poles", dest="random_poles", type=int, default=None,
                       help="draw this many random free poles")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--max-modulus", dest="max_modulus", type=float, default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--grid", type=int, default=None,
                       help="grid size (power of two >= 256)")
        p.add_argument("--out", default=None)
        p.add_argument("--format", default=None, choices=("csv", "json"))
        p.add_argument("--tol", action="append", default=None, metavar="NAME=VALUE",
                       help="tolerance override, repeatable")
        if name == "basis":
            p.add_argument("--samples", default=None,
                           help='evaluation points as semicolon-separated "re,im" pairs')
        if name == "verify":
            p.add_argument("--only", default=None,
                           help=f"comma list from: {','.join(ALL_CHECK_NAMES)}")
        if name == "oracle":
            p.add_argument("--trials", type=int, default=None)
        if name == "sweep":
            p.add_argument("--alphas", default=None, help='"0,1,2" or "0:3"')
            p.add_argument("--ns", default=None, help='"0,1,2" or "0:5"')
            p.add_argument("--ws", default=None,
                           help='semicolon-separated "re,im" kernel points')
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config_from_args(args)
        handler = {
            "basis": cmd_basis,
            "approximate": cmd_approximate,
            "sweep": cmd_sweep,
            "verify": cmd_verify,
            "oracle": cmd_oracle,
        }[cfg.command]
        return handler(cfg)
    except (UsageError, OrderTooSmall) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except DiskratError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ACCEPTANCE
    except Exception as exc:  # pragma: no cover - defensive
        sys.stderr.write(f"internal error: {exc!r}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
