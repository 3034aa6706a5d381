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


TRACED_LAYERS = """
import contextlib, io, json
import tracing
from diskrat import cli

names = ["kernels.bergman", "kernels.cauchy_power", "bergman_approx.mu_functional",
         "bergman_approx.nu_functional", "tm_basis.design_matrix"]
tracer = tracing.Tracer()
tracing.install(tracer)
runs = []
for argv in (
    ["approximate", "--alpha", "1", "--w", "0.5,0.2", "--poles", "0.3,0;0,-0.4"],
    ["oracle", "--w", "0.6,0", "--poles", "0.2,0.1", "--trials", "6"],
):
    before = [tracer.calls[name] for name in names]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    runs.append([code] + [tracer.calls[name] - b for name, b in zip(names, before)])
print(json.dumps(runs))
"""


def test_traced_requests_keep_their_per_layer_call_counts():
    # [exit code, kernels.bergman, kernels.cauchy_power, mu_functional,
    # nu_functional, design_matrix] per request.  bergman and cauchy_power
    # share one private power: neither counts a call of the other.
    done = run_traced(TRACED_LAYERS)
    assert done.returncode == 0, done.stderr
    approximate, oracle = json.loads(done.stdout.splitlines()[-1])
    assert approximate == [0, 1, 1, 1, 1, 0]
    assert oracle == [0, 1, 5, 0, 1, 1]


FAILING_HYPOTHESIS_PROBE = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_a_failing_property(x):
    assert x < 10


def test_a_later_test():
    pass
"""


def test_a_failing_hypothesis_test_is_reported_not_an_internal_error(tmp_path):
    # Hypothesis's failure report imports libcst, which warns that
    # mypy_extensions.TypedDict is deprecated; the project's warning filter
    # must not turn that warning into an error inside pytest itself.
    probe = tmp_path / "test_probe.py"
    probe.write_text(FAILING_HYPOTHESIS_PROBE)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout


def test_scan_is_patchable_on_the_cli_module():
    assert callable(diskrat.cli.uniform_competitor_scan)
