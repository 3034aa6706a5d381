"""Command-line front end.

Subcommands: basis, approximate, sweep, verify, oracle.  Every option is
declared once, in OPTIONS, together with the subcommands that read it.  It is
accepted as a flag or as a key of a JSON config file, flags overriding file
values; a flag or key that the subcommand does not read is a usage error.
Complex numbers are entered as "re,im" pairs.  Exit codes: 0 success, 1 usage
error, 2 numerical-acceptance failure, 3 internal error.

All CSV cells carry 17 significant digits (round-trippable doubles) and all
outputs are byte-deterministic given (config, seed).
"""

from __future__ import annotations

import argparse
import cmath
import errno
import functools
import json
import math
import os
import re
import stat
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .bergman_approx import ErrorReport, build_approximant, build_error_report, csv_cell
from .circlequad import (
    EPS_BOUNDARY,
    MAX_NODES,
    circle_grid,
    json_complex,
    random_disk_points,
    require_in_disk,
)
from .errors import DiskratError, InvalidSelection, OrderTooSmall, PointNotInDisk
from .kernels import KernelSpec
from .oracle import (
    LeastSquaresProblem,
    lsq_minimize,
    small_instance_exhaustive,
    uniform_competitor_scan,
)
from .tm_basis import (
    MAX_FUNCTIONS,
    PIECE_NODES,
    PoleSequence,
    TMBasis,
    christoffel_darboux_residual,
)
from .verify import ALL_CHECK_NAMES, run_checks, verdict_dict

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ACCEPTANCE = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


def _not_bool(value):
    """value itself, unless it is a JSON boolean, which Python would take
    as the number 0 or 1."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {json.dumps(value)}")
    return value


def parse_complex(value) -> complex:
    """Parse "re,im" (or a bare real part), a JSON [re, im] pair or a JSON
    number into a complex number."""
    if isinstance(value, str):
        parts = value.split(",")
    else:
        parts = value if isinstance(value, (list, tuple)) else [value]
    try:
        if len(parts) in (1, 2):
            return complex(*(float(_not_bool(part)) for part in parts))
    except (TypeError, ValueError):
        pass
    raise UsageError(f"cannot parse complex number from {value!r}; expected re,im")


def parse_pole_list(value) -> list[complex]:
    """Semicolon- or whitespace-separated "re,im" pairs, or a JSON list of
    points; "zeros" is accepted as a generator keyword handled by the caller."""
    if isinstance(value, str):
        value = [s for chunk in value.split(";") for s in chunk.split()]
    return [parse_complex(item) for item in value]


def parse_int_list(text: str) -> list[int]:
    """Comma list "0,1,2" or range "a:b" (inclusive)."""
    text = str(text)
    if ":" in text:
        lo, hi = text.split(":")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",") if s]


# Converters take a flag's text or a config-file value and return the checked
# value; _config_from_args reports what they raise as a usage error.


def _point(value) -> complex:
    return require_in_disk(parse_complex(value))


def _points(value) -> list[complex]:
    return [require_in_disk(z) for z in parse_pole_list(value)]


def _samples(value) -> list[complex]:
    """Evaluation points of the closed disk, where every phi_k is finite:
    its poles 1/conj(a) lie outside."""
    points = parse_pole_list(value)
    for z in points:
        if not cmath.isfinite(z) or abs(z) > 1.0:
            raise ValueError(f"sample point {z!r} is not a finite point with |z| <= 1")
    return points


def _poles(value):
    if isinstance(value, str) and value.strip() == "zeros":
        return "zeros"
    return _points(value)


def _at_least(minimum: int) -> Callable:
    def convert(value) -> int:
        number = int(_not_bool(value))
        if number < minimum or (not isinstance(value, str) and number != value):
            raise ValueError(f"expected an integer >= {minimum}, got {value!r}")
        return number

    return convert


_natural = _at_least(0)


def _count(value, extra: int = 1) -> int:
    """A count asking for itself plus `extra` basis functions: at most MAX_FUNCTIONS."""
    number = _natural(value)
    if number + extra > MAX_FUNCTIONS:
        raise ValueError(
            f"{number} asks for {number + extra} basis functions, "
            f"more than the {MAX_FUNCTIONS} whose Gram matrix fills the byte cap"
        )
    return number


def _some(values: list) -> list:
    if not values:
        raise ValueError("the list has no value")
    return values


def _counts(value) -> list[int]:
    if isinstance(value, str) and ":" in value:
        for end in value.split(":"):  # a range is checked before it is expanded
            _count(int(end))
    values = parse_int_list(value) if isinstance(value, str) else value
    return _some([_count(n) for n in values])


def _max_modulus(value) -> float:
    modulus = float(_not_bool(value))
    if not 0.0 <= modulus < 1.0 - EPS_BOUNDARY:
        raise ValueError(f"must lie in [0, 1 - {EPS_BOUNDARY:g}), got {modulus!r}")
    return modulus


def _grid_size(value) -> int:
    size = _natural(value)
    if not 256 <= size <= MAX_NODES or size & (size - 1):
        raise ValueError(f"grid size must be a power of two in [256, {MAX_NODES}], got {size}")
    return size


def _format(value) -> str:
    if value not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {value!r}")
    return value


def _path(value) -> str:
    """value itself, if it is a string: a config file's number, boolean,
    null or list is no file name."""
    if not isinstance(value, str):
        raise ValueError(f"expected a file name, got {json.dumps(value)}")
    return value


def _names(value) -> list[str]:
    return [s for s in value.split(",") if s] if isinstance(value, str) else list(value)


def _tolerances(value) -> dict[str, float]:
    if isinstance(value, str):
        name, sep, number = value.partition("=")
        if not sep:
            raise ValueError(f"expected NAME=VALUE, got {value!r}")
        value = {name: number}
    bounds = {name: float(_not_bool(number)) for name, number in dict(value).items()}
    for name, bound in bounds.items():
        if not math.isfinite(bound):
            raise ValueError(f"the bound of {name} must be finite, got {bound!r}")
    return bounds


class Option(NamedTuple):
    flag: str
    key: str  # config-file key, and the attribute the subcommands read
    convert: Callable
    commands: tuple[str, ...]
    default: object = None
    help: str | None = None


_KERNEL = ("approximate", "sweep", "oracle")
_POLES = ("basis", *_KERNEL)
_ALL = ("verify", *_POLES)

OPTIONS = (
    Option("--alpha", "alpha", _count, _KERNEL, 0),
    Option("--w", "w", _point, _KERNEL, 0j, 'kernel point as "re,im"'),
    Option("--poles", "poles", _poles, _POLES, None,
           'semicolon-separated "re,im" pairs, or "zeros"'),
    Option("--random-poles", "random_poles", _natural,
           ("basis", "approximate", "oracle"), None, "draw this many random free poles"),
    Option("--seed", "seed", _natural, _POLES, 0),
    Option("--max-modulus", "max_modulus", _max_modulus, _POLES, 0.85),
    Option("--n", "n", _count, _POLES),
    Option("--grid", "grid", _grid_size, ("basis", "oracle"), PIECE_NODES,
           f"grid size (power of two, 256 to {MAX_NODES})"),
    Option("--samples", "samples", _samples, ("basis",), None,
           'evaluation points with |z| <= 1 as semicolon-separated "re,im" pairs'),
    Option("--format", "format", _format, ("basis", "approximate", "sweep"), None,
           "csv or json (sweep: csv only)"),
    Option("--out", "out", _path, _ALL),
    Option("--only", "only", _names, ("verify",), None,
           f"comma list from: {','.join(ALL_CHECK_NAMES)}"),
    Option("--tol", "tolerances", _tolerances, ("verify",), None,
           "tolerance override NAME=VALUE, repeatable"),
    Option("--trials", "trials", _at_least(1), ("oracle",), 100),
    Option("--alphas", "alphas", _counts, ("sweep",), None, '"0,1,2" or "0:3"'),
    Option("--ns", "ns", _counts, ("sweep",), None, '"0,1,2" or "0:5"'),
    Option("--ws", "ws", lambda value: _some(_points(value)), ("sweep",), None,
           'semicolon-separated "re,im" kernel points'),
)


def _load_config_file(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    return data


def _config_from_args(args: argparse.Namespace) -> SimpleNamespace:
    """The options the subcommand reads: defaults, then config-file values,
    then flags, each through its converter.  Tolerances merge by name."""
    options = {opt.key: opt for opt in OPTIONS if args.command in opt.commands}
    cfg = SimpleNamespace(**{key: opt.default for key, opt in options.items()})
    given = list(_load_config_file(args.config).items()) if args.config else []
    given += [(key, value) for key in options for value in getattr(args, key) or ()]
    for key, value in given:
        if key not in options:
            raise UsageError(f"config key {key!r} is not read by {args.command}")
        try:
            value = options[key].convert(value)
        except (UsageError, PointNotInDisk, TypeError, ValueError, OverflowError) as exc:
            raise UsageError(f"{options[key].flag}: {exc}")
        old = getattr(cfg, key)
        setattr(cfg, key, {**old, **value} if isinstance(old, dict) else value)
    return cfg


def _check_order(cfg: SimpleNamespace, n: int):
    if cfg.n is not None and cfg.n != n:
        raise UsageError(f"--n {cfg.n} disagrees with the poles, which give n = {n}")


def _pole_count(cfg: SimpleNamespace, zeros: int, otherwise: int | None,
                extra: int = 0) -> int | None:
    """How many poles basis, approximate and oracle take: as many as --poles
    lists, `zeros` for --poles zeros, --random-poles, else `otherwise` random
    ones (None: no pole source).  --poles and --random-poles together are a
    usage error, and so are poles that, with `extra` more basis functions,
    ask for more than MAX_FUNCTIONS (_count), before any pole is drawn."""
    if cfg.poles is not None and cfg.random_poles is not None:
        raise UsageError("give --poles or --random-poles, not both")
    if cfg.poles == "zeros":
        count = zeros
    elif cfg.poles is not None:
        count = len(cfg.poles)
    else:
        count = otherwise if cfg.random_poles is None else cfg.random_poles
    if count is not None:
        try:
            _count(count, extra)
        except ValueError as exc:
            # a count from --n alone is bounded by --n's own check
            flag = "--poles" if cfg.random_poles is None else "--random-poles"
            raise UsageError(f"{flag}: {exc}")
    return count


def _free_poles_for(cfg: SimpleNamespace, count: int, salt: int = 0) -> PoleSequence:
    """`count` poles from the configured source: zeros, the first of the
    given poles, or a random draw seeded with seed + salt."""
    if count < 0:
        raise OrderTooSmall(f"n smaller than alpha leaves {count} free poles")
    if cfg.poles == "zeros":
        return PoleSequence([0j] * count)
    if cfg.poles is not None:
        if len(cfg.poles) < count:
            raise UsageError(
                f"need {count} poles but only {len(cfg.poles)} were given"
            )
        return PoleSequence(cfg.poles[:count])
    rng = np.random.default_rng(cfg.seed + salt)
    return PoleSequence.random(count, rng, max_modulus=cfg.max_modulus)


def _cannot_write(path: str, exc: OSError) -> UsageError:
    return UsageError(f"cannot write {path}: {exc.strerror or exc}")


def _write_out(path: str, text: str):
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise _cannot_write(path, exc)


def _check_out(path: str):
    """Refuse, as _write_out would, a target whose directory is missing or
    that is a directory, before any work is done; creates nothing."""
    target = Path(path)
    try:
        if not stat.S_ISDIR(os.stat(target.parent).st_mode):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
        if target.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
    except OSError as exc:
        raise _cannot_write(path, exc)


def _emit(cfg: SimpleNamespace, text: str):
    if cfg.out:
        _write_out(cfg.out, text)
    else:
        sys.stdout.write(text)


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def cmd_basis(cfg: SimpleNamespace) -> int:
    count = _pole_count(cfg, (4 if cfg.n is None else cfg.n) + 1, None)
    if count is None:
        raise UsageError("basis needs --poles, --poles zeros, or --random-poles")
    poles = _free_poles_for(cfg, count)
    if len(poles) == 0:
        raise UsageError("a basis needs at least one pole")
    _check_order(cfg, len(poles) - 1)
    basis = TMBasis(poles)
    grid = circle_grid(cfg.grid)
    gram = basis.gram_matrix(grid)
    gram_dev = float(np.max(np.abs(gram - np.eye(basis.size))))
    if cfg.samples is not None:
        samples = np.asarray(cfg.samples, dtype=complex)
    else:
        samples = 0.5 * np.exp(2j * np.pi * (np.arange(8) + 0.5) / 8)
    phi = basis.eval_all(samples)
    pairs = random_disk_points(np.random.default_rng(cfg.seed), 20, 0.8)
    cd_max = christoffel_darboux_residual(basis, basis.size, pairs[0::2], pairs[1::2])
    if cfg.format != "csv":
        payload = {
            "poles": json_complex(poles),
            "sample_points": json_complex(samples),
            "phi_values": json_complex(phi.T),
            "gram_max_deviation": gram_dev,
            "cd_max_residual": cd_max,
            "grid": cfg.grid,
        }
        _emit(cfg, _json_dump(payload))
    else:
        lines = ["record,i,k,re,im"]
        for j, z in enumerate(samples):
            lines.append(f"point,{j},,{csv_cell(z.real)},{csv_cell(z.imag)}")
            for k in range(basis.size):
                v = phi[k, j]
                lines.append(f"phi,{j},{k},{csv_cell(v.real)},{csv_cell(v.imag)}")
        lines.append(f"gram_max_deviation,,,{csv_cell(gram_dev)},0")
        lines.append(f"cd_max_residual,,,{csv_cell(cd_max)},0")
        _emit(cfg, "\n".join(lines) + "\n")
    return EXIT_OK


def _resolve_order(cfg: SimpleNamespace) -> PoleSequence:
    """Free poles for approximate/oracle: an explicit list, zeros, a random
    count, or n - alpha random poles.  A given --n must agree with them."""
    if cfg.n is not None and cfg.n < cfg.alpha:
        raise OrderTooSmall(f"n = {cfg.n} is smaller than alpha = {cfg.alpha}")
    rest = None if cfg.n is None else cfg.n - cfg.alpha
    count = _pole_count(cfg, 1 if rest is None else rest, rest, cfg.alpha + 1)
    if count is None:
        raise UsageError("give --poles, --random-poles, or --n")
    free = _free_poles_for(cfg, count)
    _check_order(cfg, cfg.alpha + len(free))
    return free


def cmd_approximate(cfg: SimpleNamespace) -> int:
    report = build_error_report(KernelSpec(cfg.alpha, cfg.w), _resolve_order(cfg))
    if cfg.format != "csv":
        _emit(cfg, _json_dump(report.payload()))
    else:
        _emit(cfg, "\n".join([report.CSV_HEADER, report.csv_row()]) + "\n")
    return EXIT_OK


def cmd_sweep(cfg: SimpleNamespace) -> int:
    if cfg.format == "json":
        raise UsageError("sweep writes csv only")
    alphas = cfg.alphas if cfg.alphas is not None else [cfg.alpha]
    ns = cfg.ns if cfg.ns is not None else ([cfg.n] if cfg.n is not None else [])
    ws = cfg.ws if cfg.ws is not None else [cfg.w]
    points = sorted(
        ((a, n, w) for a in alphas for n in ns for w in ws),
        key=lambda p: (p[0], p[1], abs(p[2])),
    )
    lines = [",".join(("alpha", "n", "w_re", "w_im", *ErrorReport.VALUE_NAMES, "error"))]
    rows_failed = 0
    for index, (alpha, n, w) in enumerate(points):
        try:
            spec = KernelSpec(alpha, w)
            free = _free_poles_for(cfg, n - alpha, salt=index)
            report = build_error_report(spec, free)
            lines.append(",".join([str(alpha), str(n), *report.csv_cells(), ""]))
        except (DiskratError, UsageError, ValueError) as exc:
            rows_failed += 1
            message = str(exc).replace(",", ";").replace("\n", " ")
            empty = [""] * len(ErrorReport.VALUE_NAMES)
            cells = [str(alpha), str(n), csv_cell(w.real), csv_cell(w.imag), *empty, message]
            lines.append(",".join(cells))
    _emit(cfg, "\n".join(lines) + "\n")
    return EXIT_ACCEPTANCE if rows_failed else EXIT_OK


def cmd_verify(cfg: SimpleNamespace) -> int:
    results = run_checks(only=cfg.only, tolerances=cfg.tolerances)
    for result in results:
        sys.stdout.write(result.line() + "\n")
    verdict = verdict_dict(results)
    all_passed = all(r.passed for r in results)
    sys.stdout.write(
        ("all checks passed" if all_passed else "SOME CHECKS FAILED") + "\n"
    )
    if cfg.out:
        _write_out(cfg.out, _json_dump(verdict))
    return EXIT_OK if all_passed else EXIT_ACCEPTANCE


def cmd_oracle(cfg: SimpleNamespace) -> int:
    spec = KernelSpec(cfg.alpha, cfg.w)
    free = _resolve_order(cfg)
    approx = build_approximant(spec, free)
    grid = circle_grid(cfg.grid)
    lsq = lsq_minimize(LeastSquaresProblem.build(spec, approx.basis, grid))
    scan = uniform_competitor_scan(approx, trials=cfg.trials, seed=cfg.seed, grid=grid)
    payload = {"lsq": lsq.to_json_dict(), "scan": scan.to_json_dict()}
    if spec.alpha == 0 and len(free) == 0:
        payload["exhaustive"] = small_instance_exhaustive(spec).to_json_dict()
    _emit(cfg, _json_dump(payload))
    return EXIT_OK


COMMANDS = {
    "basis": (
        cmd_basis, "evaluate the orthonormal system, its Gram matrix, and the kernel identity"
    ),
    "approximate": (cmd_approximate, "build an approximant and its error report"),
    "sweep": (cmd_sweep, "tabulate error reports over an (alpha, n, w) lattice"),
    "verify": (cmd_verify, "run the verification suite"),
    "oracle": (cmd_oracle, "run the least-squares and competitor-scan oracles"),
}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # "-0.3,0.6" is a value: argparse's own pattern takes only numbers
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise UsageError(message)


@functools.cache
def build_parser() -> _Parser:
    """The parser of every subcommand and its options, built once per
    process: parsing leaves a parser as it found it."""
    parser = _Parser(
        prog="diskrat",
        description="Orthonormal rational systems and best fixed-pole kernel approximation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override its values")
        for opt in OPTIONS:
            if command in opt.commands:
                p.add_argument(opt.flag, dest=opt.key, action="append", help=opt.help)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(argv)
        cfg = _config_from_args(args)
        if cfg.out:
            _check_out(cfg.out)
        return COMMANDS[args.command][0](cfg)
    except (UsageError, OrderTooSmall, InvalidSelection) as exc:
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
