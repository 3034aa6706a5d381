#!/usr/bin/env python3
"""diskrat benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload {verify,approximate,oracle} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The workload is a closed loop: one client in
this process calls ``diskrat.cli.main`` with generated argument lists, the
next call starting when the previous one returns.  Every response passes
through its correctness gate (``workloads.py``).

Both modes run the same fixed number of whole request blocks, derived from
S (see NOMINAL_BLOCK_S), so the operations, and which of them fail, repeat
exactly for a seed whatever the speed of the machine.  ``--trace 0``
reports the end-to-end metrics.  Their times are *scaled* seconds (see
REF_NOMINAL_S), not wall time; the summary also prints the raw wall-time
figures under the names ``verify_s``, ``approx_p50_s`` and so on.
``--trace 1`` wraps every public callable of the library in spans
(``tracing.py``) and reports the per-layer metrics.  Both print a
human-readable summary, write a report (and, traced, the spans) under
``perfbench/out/``, and end with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``failed`` counts every operation that misses its gate.  ``correct`` is
false when one of them lies outside the known-defect regions of
``workloads.py``: known defects show in ``failed``, a new one also in
``correct``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("verify", "approximate", "oracle")
#: BLAS runs single-threaded (at most nproc).
BLAS_THREADS = 1
#: Read by the BLAS libraries when they load, so the run re-executes itself
#: once with them set.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
    "OMP_NUM_THREADS": str(BLAS_THREADS),
    "MKL_NUM_THREADS": str(BLAS_THREADS),
}
#: Wall time of ``reference_s`` on a 2-core x86-64 virtual machine running at
#: full speed.  Such machines share their cores, and there the medians of
#: ten-seed sets of raw wall time moved by up to 34% between sets, so every
#: timed interval is scaled by REF_NOMINAL_S / (reference time measured
#: around it).  Scaled times count work in units of the reference kernel,
#: expressed as seconds at that speed; they are not wall time.  Raw times
#: are printed and kept in the report.
REF_NOMINAL_S = 0.004
#: Fresh interpreters started to measure import time; the median is reported.
SETUP_SAMPLES = 9
#: Raw wall time of one block, untraced, on a 2-core x86-64 virtual machine.
#: A run executes round(seconds / this) blocks, at least MIN_BLOCKS: about
#: --seconds of work there, and the same work on any machine.
NOMINAL_BLOCK_S = {"verify": 10.0, "approximate": 1.5, "oracle": 30.0}
MIN_BLOCKS = {"verify": 2, "approximate": 1, "oracle": 1}
#: The raw wall-time figures printed under the names the workloads give them.
WORKLOAD_NAMES = {
    "verify": {"op_p50": "verify_s"},
    "approximate": {"op_p50": "approx_p50_s", "op_p90": "approx_p90_s", "op_per_s": "approx_per_s"},
    "oracle": {"op_p50": "oracle_p50_s", "trials_per_s": "oracle_trials_per_s"},
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def reference_s() -> float:
    """Wall time of a fixed mix of small numpy array work and interpreted
    arithmetic, like the library's own; about 4 ms at full speed."""
    import numpy as np

    nodes = np.exp(2j * np.pi * np.arange(1024) / 1024)
    started = time.perf_counter()
    acc = 0j
    for k in range(400):
        values = 1.0 / (1.0 - nodes * complex(0.3, 0.0005 * k))
        acc += complex(values.sum())
        for j in range(20):
            acc += j * 0.5
    return time.perf_counter() - started


class Clock:
    """Times an operation in segments of at most SAMPLE_S seconds, with a
    reference measurement between segments (from a SIGALRM timer), and
    scales each segment by the reference times around it.  The reference
    work itself is not counted."""

    SAMPLE_S = 0.25

    def __init__(self):
        self.ref = None
        self.active = False
        self.paused = 0.0  # seconds of reference work inside timed calls
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, *_):
        if self.active:
            self.active = False  # a tick during the reference work is skipped
            self._segment()
            self.active = True

    def _segment(self):
        now = time.perf_counter()
        elapsed = now - self.started
        ref = reference_s()
        self.raw += elapsed
        self.scaled += elapsed * REF_NOMINAL_S / (0.5 * (self.ref + ref))
        self.ref = ref
        self.started = time.perf_counter()
        self.paused += self.started - now

    def timed(self, fn):
        """Returns fn()'s result, its raw seconds and its seconds scaled to
        full machine speed."""
        if self.ref is None:
            self.ref = reference_s()
        self.raw = self.scaled = 0.0
        self.active = True
        self.started = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_S, self.SAMPLE_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            self.active = False
        self._segment()
        return result, self.raw, self.scaled


def start_interpreter():
    """Seconds from starting a fresh interpreter until ``import diskrat.cli``
    has finished, raw and scaled by reference measurements the new
    interpreter takes right after the import."""
    code = (
        "import diskrat.cli, time; imported = time.perf_counter(); import run; "
        "print(repr(imported), *(repr(run.reference_s()) for _ in range(3)))"
    )
    env = child_env()
    env["PYTHONPATH"] += os.pathsep + str(HERE)
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )
    imported, *refs = (float(x) for x in done.stdout.split())
    raw = imported - started
    return raw, raw * REF_NOMINAL_S / statistics.median(refs)


def call_cli(cli, argv):
    """One operation: returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_pinned": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Run:
    """Counters for one workload run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.failures: list[str] = []
        self.failed_ops: list[int] = []  # operation indices, to compare runs
        self.scan_op = 0.0  # raw competitor-scan seconds of the current operation
        self.scan_raw = 0.0
        self.scan_scaled = 0.0
        self.trials = 0
        self.mix = Counter()
        self.alphas = Counter()
        self.ns = Counter()
        self.blocks = 0

    def fail(self, what: str, known: bool = False):
        self.failed += 1
        self.failed_ops.append(len(self.raw) - 1)
        self.unexpected += not known
        if len(self.failures) < 20:
            self.failures.append(what if len(what) < 400 else what[:200] + " ... " + what[-150:])


def run_op(run: Run, clock: Clock, cli, req, wl, tol, check_names):
    (code, out, err), raw, scaled = clock.timed(lambda: call_cli(cli, req.argv))
    run.raw.append(raw)
    run.scaled.append(scaled)
    run.scan_raw += run.scan_op
    run.scan_scaled += run.scan_op * scaled / raw
    run.scan_op = 0.0
    if run.workload == "verify":
        for name, passed in wl.gate_verify(code, out, check_names):
            run.attempted += 1
            if not passed:
                run.fail(f"verify check {name} (exit {code})")
        return
    run.attempted += 1
    run.alphas[req.alpha] += 1
    run.ns[req.n] += 1
    for key, value in req.tags.items():
        run.mix[f"{key}={value}"] += 1
    for defect in req.defects:
        run.mix[f"known_defect={defect}"] += 1
    try:
        payload = json.loads(out) if code == 0 else None
    except json.JSONDecodeError:
        payload = None
    gate = wl.gate_approximate if run.workload == "approximate" else wl.gate_oracle
    misses = gate(req, code, payload, tol)
    if misses:
        run.mix["missed_gate"] += 1
        for defect in req.defects:
            run.mix[f"missed_gate.known_defect={defect}"] += 1
        label = f"[known defect: {', '.join(req.defects)}] " if req.defects else "[NEW] "
        run.fail(f"{label}{' '.join(req.argv)}: {'; '.join(misses)} {err.strip()}", bool(req.defects))
    if run.workload == "approximate":
        record_approximate_mix(run, req, wl)


def time_scans(cli, clock: Clock, run: Run):
    """Time ``uniform_competitor_scan`` alone, as called by ``cmd_oracle``,
    without the clock's reference work, and count its trials."""
    scan = cli.uniform_competitor_scan

    def timed_scan(*args, **kwargs):
        paused, started = clock.paused, time.perf_counter()
        result = scan(*args, **kwargs)
        run.scan_op += time.perf_counter() - started - (clock.paused - paused)
        run.trials += result.trials
        return result

    cli.uniform_competitor_scan = timed_scan


def record_approximate_mix(run: Run, req, wl):
    """Input properties that decide which code paths a request takes, by the
    library's own rules: expansion grid escalation and long-double mu."""
    from diskrat.expansion import default_grid_size

    if req.w == 0:
        return
    rho = max([abs(req.w)] + [abs(p) for p in req.poles])
    if default_grid_size(req.n, rho) > default_grid_size(req.n):
        run.mix["escalated_grid"] += 1
    if wl.mu_min(req.alpha, req.w, req.poles) < 1e-9:
        run.mix["extended_mu"] += 1


def per_layer(tracer, grid_counts) -> dict:
    """Every per-layer metric as name -> (value, unit)."""
    from diskrat.verify import CHECK_GROUPS

    calls, busy, counts = tracer.calls, tracer.busy, tracer.counts
    m = {}

    def span(name, with_calls=True):
        if with_calls:
            m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.s"] = (busy[name], "s")

    def share(name, part, whole):
        m[name] = (counts[part] / calls[whole] if calls[whole] else 0.0, "ratio")

    span("cli.main")
    m["cli.main.self_s"] = (tracer.self_time["cli.main"], "s")
    for names, _ in CHECK_GROUPS:
        m[f"verify.{names[0]}.s"] = (busy[f"verify.{names[0]}"], "s")
    span("oracle.lsq_build")
    m["oracle.lsq_minimize.s"] = (busy["oracle.lsq_minimize"], "s")
    m["oracle.lsq.condition_max"] = (tracer.maxima["oracle.lsq.condition_max"], "ratio")
    span("oracle.scan")
    m["oracle.scan.trials"] = (counts["oracle.scan.trials"], "count")
    span("oracle.exhaustive")
    for name in ("build_approximant", "build_error_report", "mu_functional"):
        span(f"bergman_approx.{name}")
    share("bergman_approx.mu_functional.extended_share",
          "bergman_approx.mu_functional.extended", "bergman_approx.mu_functional")
    span("bergman_approx.nu_functional")
    span("bergman_approx.nu_refine", with_calls=False)
    m["bergman_approx.nu_refine.evals"] = (counts["bergman_approx.nu_refine.evals"], "count")
    span("bergman_approx.interpolation_residuals")
    m["bergman_approx.competitor_function.calls"] = (calls["bergman_approx.competitor_function"], "count")
    span("expansion.expand_kernel")
    m["expansion.expand_kernel.nodes"] = (counts["expansion.expand_kernel.nodes"], "count")
    share("expansion.expand_kernel.escalated_share",
          "expansion.expand_kernel.escalated", "expansion.expand_kernel")
    span("expansion.expand_function")
    span("kernels.bergman")
    span("kernels.cauchy_power")
    span("tm_basis.eval_all")
    m["tm_basis.eval_all.points"] = (counts["tm_basis.eval_all.points"], "count")
    m["tm_basis.eval_all.scalar_calls"] = (counts["tm_basis.eval_all.scalar_calls"], "count")
    m["tm_basis.design_matrix.calls"] = (calls["tm_basis.design_matrix"], "count")
    m["tm_basis.design_matrix.bytes"] = (counts["tm_basis.design_matrix.bytes"], "B")
    span("circlequad.sample_on_nodes")
    m["circlequad.sample_on_nodes.points"] = (counts["circlequad.sample_on_nodes.points"], "count")
    span("circlequad.derivative_at")
    m["circlequad.derivative_at.nodes"] = (counts["circlequad.derivative_at.nodes"], "count")
    for name, value in grid_counts().items():
        m[name] = (value, "count")
    return m


def main(argv=None) -> int:
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.environ.update(PINNED_ENV)
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve())] + sys.argv[1:])
    args = parse_args(argv)
    if not (SRC / "diskrat" / "cli.py").is_file():
        sys.stderr.write(f"error: no diskrat sources under {SRC}\n")
        return 2
    if args.seconds <= 0:
        sys.stderr.write("error: --seconds must be positive\n")
        return 2

    clock = Clock()
    setup = [start_interpreter() for _ in range(SETUP_SAMPLES)]
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import diskrat
    import diskrat.cli as cli
    from diskrat.verify import ALL_CHECK_NAMES, DEFAULT_TOLERANCES

    import workloads as wl

    if Path(diskrat.__file__).resolve().parent != SRC / "diskrat":
        sys.stderr.write(f"error: imported diskrat from {diskrat.__file__}\n")
        return 2

    if args.trace:
        from tracing import Tracer, install

        tracer = Tracer()
        grid_counts = install(tracer)

    run = Run(args.workload)
    time_scans(cli, clock, run)
    blocks = wl.BLOCKS[args.workload](args.seed)
    block_count = max(MIN_BLOCKS[args.workload], round(args.seconds / NOMINAL_BLOCK_S[args.workload]))
    started = time.perf_counter()
    for _ in range(block_count):
        for req in next(blocks):
            if args.trace:
                tracer.request = len(run.raw)
            run_op(run, clock, cli, req, wl, DEFAULT_TOLERANCES, ALL_CHECK_NAMES)
        run.blocks += 1
    wall = time.perf_counter() - started

    ops = len(run.scaled)
    lat = sorted(run.scaled)
    values = {
        "setup_s": (statistics.median(s for _, s in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "op_p50_scaled_s": (statistics.median(lat), "s"),
        "op_p90_scaled_s": (percentile(lat, 0.9), "s"),
        "ops_per_scaled_s": (ops / sum(lat), "1/s"),
    }
    raw = sorted(run.raw)
    wall_figures = {
        "op_p50": statistics.median(raw),
        "op_p90": percentile(raw, 0.9),
        "op_per_s": ops / sum(raw),
        "trials_per_s": run.trials / run.scan_raw if run.scan_raw else 0.0,
    }
    named = {name: wall_figures[k] for k, name in WORKLOAD_NAMES[args.workload].items()}
    beyond_p90 = sum(1 for x in lat if x > values["op_p90_scaled_s"][0])
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blocks": run.blocks,
        "operations": ops,
        "wall_s": wall,
        "samples_beyond_p90": beyond_p90,
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_outside_known_defects": run.unexpected,
        "fail_share": run.failed / run.attempted,
        "failures": run.failures,
        "failed_ops": run.failed_ops,
        "setup_raw_s": [r for r, _ in setup],
        "setup_scaled_s": [s for _, s in setup],
        "latencies_raw_s": run.raw,
        "latencies_scaled_s": run.scaled,
        "environment": environment(),
        "end_to_end_scaled": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
        "wall_time": named,
    }
    if args.workload == "verify":
        report["note"] = "verify inputs are pinned by the check registry's seeds; --seed does not change them"
    else:
        report["mix"] = {key: count / ops for key, count in sorted(run.mix.items())}
        report["alpha_counts"] = dict(sorted(run.alphas.items()))
        report["n_counts"] = dict(sorted(run.ns.items()))
    if args.workload == "oracle":
        report["competitor_scan"] = {"trials": run.trials, "raw_s": run.scan_raw, "scaled_s": run.scan_scaled}
    metrics = values
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics = per_layer(tracer, grid_counts)
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        report["spans"] = tracer.write(OUT / f"{stem}-spans.jsonl.gz")
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str) + "\n")

    env = report["environment"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {ops} operations "
          f"in {run.blocks} blocks, {wall:.1f} s; python {env['python']}, numpy {env['numpy']}, "
          f"{env['blas']}, blas threads {env['blas_threads']}, nproc {env['nproc']}")
    if args.workload == "verify":
        print(report["note"])
    else:
        print("mix " + ", ".join(f"{k} {v:.3f}" for k, v in report["mix"].items()))
    print(f"fail_share {report['fail_share']:.6g} ratio ({run.failed}/{run.attempted}; "
          f"{run.unexpected} outside the known-defect regions)")
    for failure in run.failures:
        print(f"FAILED {failure}")
    label = "traced " if args.trace else ""
    print(f"{label}wall time: " + ", ".join(
        f"{name} {value:.6g} {'1/s' if name.endswith('per_s') else 's'}" for name, value in named.items()))
    print(f"{label}scaled (seconds at the reference speed, not wall time): " + ", ".join(
        f"{name} {value:.6g} {unit}" for name, (value, unit) in values.items()))
    print(f"raw setup {statistics.median(r for r, _ in setup):.6g} s; "
          f"op_p90_scaled_s has {beyond_p90} of {ops} samples beyond it")
    if args.workload == "oracle":
        print(f"competitor scans: {run.trials} trials in {run.scan_raw:.6g} s wall, "
              f"{run.trials / run.scan_scaled:.6g} trials per scaled s")
    if args.trace:
        print(f"{report['spans']} spans in perfbench/out/{stem}-spans.jsonl.gz")
    print(json.dumps({
        "correct": run.unexpected == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
