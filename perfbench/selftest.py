#!/usr/bin/env python3
"""Self-test of the benchmark harness (about two minutes).

    python3 perfbench/selftest.py

1. A tiny run of each workload passes its gate, apart from requests in
   the known-defect regions, which count in ``failed``.
2. Perturbed mu, nu, residual, LSQ-minimum and verify values are rejected,
   and a request in a known-defect region is tagged and still gated.
3. Two traced tiny runs with the same seed give identical per-layer counts
   and the same numbers of attempted and failed operations.
4. Without the library sources the benchmark exits non-zero and prints no
   result.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import diskrat.cli as cli  # noqa: E402
from diskrat.verify import ALL_CHECK_NAMES, DEFAULT_TOLERANCES as TOL  # noqa: E402

import workloads as wl  # noqa: E402
from run import OUT, WORKLOADS, call_cli  # noqa: E402

#: Per-layer units that are counts and must repeat exactly for a seed.
COUNT_UNITS = ("count", "B")
failures = []


def check(condition: bool, message: str):
    print(("ok   " if condition else "FAIL ") + message, flush=True)
    if not condition:
        failures.append(message)


def bench(workload: str, seed: int, trace: int, cwd=ROOT, script=HERE / "run.py"):
    done = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    return done.returncode, result, done.stdout + done.stderr


def tiny_runs():
    for workload in WORKLOADS:
        code, result, text = bench(workload, 7, 0)
        check(code == 0 and result is not None and result["correct"],
              f"tiny {workload} run passes its gate"
              + (f" ({result['failed']} known-defect misses)" if result else ""))
        if code or result is None or not result["correct"]:
            print(text[-3000:])


def perturbations():
    block = next(wl.approximate_blocks(3))
    req = next(r for r in block
               if r.tags["class"] == "interior" and r.tags["poles"] == "random" and not r.defects)
    code, out, _ = call_cli(cli, req.argv)
    payload = json.loads(out)
    check(wl.gate_approximate(req, code, payload, TOL) == [], "approximate response passes as is")

    def rejected(mutate, what):
        bad = copy.deepcopy(payload)
        mutate(bad)
        check(wl.gate_approximate(req, code, bad, TOL) != [], f"perturbed {what} is rejected")

    def scale(key, factor):
        return lambda p: p["error_report"].update({key: p["error_report"][key] * factor})

    rejected(scale("mu_quad", 1 + 10 * TOL["quadratic_exactness"]), "mu")
    rejected(scale("nu_grid", 1 + 10 * TOL["uniform_exactness"]), "nu")
    rejected(scale("mu_closed", 1.001), "closed-form mu")

    def bump_residual(p):
        row = p["interpolation_residuals"][-1]
        row["residual"] = 10 * TOL["interpolation"] * max(1.0, abs(complex(*row["target"])))

    rejected(bump_residual, "interpolation residual")
    check(wl.gate_approximate(req, 2, None, TOL) != [], "non-zero exit is rejected")

    zero = next(r for r in block if r.tags["class"] == "w_zero")
    code, out, _ = call_cli(cli, zero.argv)
    payload_zero = json.loads(out)
    check(wl.gate_approximate(zero, code, payload_zero, TOL) == [], "w = 0 response passes as is")
    payload_zero["error_report"]["nu_grid"] = 1e-300
    check(wl.gate_approximate(zero, code, payload_zero, TOL) != [], "w = 0 with a non-zero value is rejected")

    rng = np.random.default_rng(5)
    oracle_req = wl._oracle_request(rng, 1, 2, 4096, 1)
    code, out, _ = call_cli(cli, oracle_req.argv)
    payload = json.loads(out)
    check(wl.gate_oracle(oracle_req, code, payload, TOL) == [], "oracle response passes as is")
    payload["lsq"]["minimum"] *= 1 + 10 * TOL["oracle_equivalence"]
    check(wl.gate_oracle(oracle_req, code, payload, TOL) != [], "perturbed LSQ minimum is rejected")

    zeros = wl.Request(["approximate", "--alpha", "1", "--w=0.4,0.55", "--poles=zeros", "--n", "20"],
                       1, 0.4 + 0.55j, [0j] * 19)
    zeros.defects = wl.known_defects("approximate", zeros.alpha, zeros.w, zeros.poles)
    code, out, _ = call_cli(cli, zeros.argv)
    misses = wl.gate_approximate(zeros, code, json.loads(out) if code == 0 else None, TOL)
    check("repeated_pole" in zeros.defects and misses != [],
          f"19 zero poles are a known defect and miss the gate ({'; '.join(misses)})")

    lines = "\n".join(f"PASS {name}: value=0 bound=1" for name in ALL_CHECK_NAMES)
    check(all(ok for _, ok in wl.gate_verify(0, lines, ALL_CHECK_NAMES)), "18 PASS lines pass")
    failed = lines.replace("PASS boundary_nu", "FAIL boundary_nu")
    check(sum(not ok for _, ok in wl.gate_verify(2, failed, ALL_CHECK_NAMES)) >= 1,
          "a FAIL line is rejected")


def repeatable_counts():
    for workload in WORKLOADS:
        runs = [bench(workload, 11, 1) for _ in range(2)]
        counts = []
        for code, result, text in runs:
            if code or result is None:
                print(text[-3000:])
                counts.append(None)
                continue
            counts.append({k: v["value"] for k, v in result["metrics"].items() if v["unit"] in COUNT_UNITS})
            counts[-1].update(attempted=result["attempted"], failed=result["failed"])
        check(counts[0] is not None and counts[0] == counts[1],
              f"traced {workload} counts, attempted and failed repeat for a seed "
              f"({len(counts[0] or {})} counts)")


def bare_checkout():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench" / path.name)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, _, text = bench("approximate", 1, 0, cwd=bare, script=bare / "perfbench" / "run.py")
    check(code != 0 and '"correct"' not in text, "without the sources the run exits non-zero and prints no result")
    shutil.rmtree(bare)


def main() -> int:
    OUT.mkdir(exist_ok=True)
    perturbations()
    bare_checkout()
    tiny_runs()
    repeatable_counts()
    print("selftest " + ("passed" if not failures else f"FAILED: {len(failures)}"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
