"""The library names the benchmark harness traces and patches still exist."""

import json
import os
import subprocess
import sys
from pathlib import Path

import diskrat.cli

ROOT = Path(__file__).resolve().parents[1]


def run_traced(code: str) -> subprocess.CompletedProcess:
    # install() patches the library for the whole process, so run it apart
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


def test_tracer_installs_on_every_traced_name():
    done = run_traced("import tracing; tracing.install(tracing.Tracer())")
    assert done.returncode == 0, done.stderr


TRACED_REQUESTS = """
import contextlib, io, json, sys
import tracing
from diskrat import cli

tracer = tracing.Tracer()
tracing.install(tracer)
runs = []
for argv in (
    ["approximate", "--alpha", "1", "--w", "0.5,0.2", "--poles", "0.3,0;0,-0.4"],
    ["oracle", "--w", "0.6,0", "--poles", "0.2,0.1", "--trials", "6"],
):
    evals = tracer.counts["bergman_approx.nu_refine.evals"]
    spans = tracer.calls["bergman_approx.nu_refine"]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    runs.append({
        "code": code,
        "spans": tracer.calls["bergman_approx.nu_refine"] - spans,
        "evals": tracer.counts["bergman_approx.nu_refine.evals"] - evals,
    })
print(json.dumps(runs))
"""


def test_traced_requests_count_the_nu_refinement():
    # The benchmark counts nu_refine.evals by wrapping the first positional
    # argument of bergman_approx._golden_max; a caller passing f by keyword
    # would break that counter.
    done = run_traced(TRACED_REQUESTS)
    assert done.returncode == 0, done.stderr
    approximate, oracle = json.loads(done.stdout.splitlines()[-1])
    assert approximate["code"] == 0 and oracle["code"] == 0
    assert approximate["spans"] > 0 and oracle["spans"] > 0
    assert oracle["evals"] > 0


TRACED_MU = """
import contextlib, io, json
import tracing
from diskrat import cli

tracer = tracing.Tracer()
tracing.install(tracer)
runs = []
for argv in (
    ["approximate", "--alpha", "1", "--w", "0.5,0.2", "--poles", "0.3,0;0,-0.4"],
    ["approximate", "--w", "0.1,0", "--poles", "0,0;0,0;0,0;0,0;0,0"],
):
    calls = tracer.calls["bergman_approx.mu_functional"]
    extended = tracer.counts["bergman_approx.mu_functional.extended"]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    runs.append({
        "code": code,
        "calls": tracer.calls["bergman_approx.mu_functional"] - calls,
        "extended": tracer.counts["bergman_approx.mu_functional.extended"] - extended,
    })
print(json.dumps(runs))
"""


def test_traced_requests_count_long_double_mu():
    # The benchmark's mu_functional.extended_share reads the extended flag
    # from the keyword arguments of each mu_functional call.  mu_min is
    # 2.6e-2 in the first request, so mu is taken in doubles, and 1.0e-12 in
    # the second, which takes it in long double.
    done = run_traced(TRACED_MU)
    assert done.returncode == 0, done.stderr
    doubles, long_double = json.loads(done.stdout.splitlines()[-1])
    assert doubles == {"code": 0, "calls": 1, "extended": 0}
    assert long_double == {"code": 0, "calls": 1, "extended": 1}


def test_scan_is_patchable_on_the_cli_module():
    assert callable(diskrat.cli.uniform_competitor_scan)
