"""The library names the benchmark harness traces and patches still exist,
every name the package declares public, README.md names or the source's
docstrings and comments name resolves, no grid is made past the node cap,
and one function refuses non-finite samples."""

import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import tokenize
from pathlib import Path

import numpy as np
import pytest

import diskrat
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
    ["approximate", "--alpha", "2", "--w", "0.7,0.7", "--poles", "0.3,0"],
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
    # would break that counter.  The oracle's scan refines only the bracket
    # of its optimum, which is flat to rounding and takes no step; the last
    # request's approximant takes steps.
    done = run_traced(TRACED_REQUESTS)
    assert done.returncode == 0, done.stderr
    runs = json.loads(done.stdout.splitlines()[-1])
    assert [run["code"] for run in runs] == [0, 0, 0]
    assert all(run["spans"] > 0 for run in runs)
    assert runs[2]["evals"] > 0


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
    ["oracle", "--w", "0.6,0", "--poles", "0.2,0.1", "--trials", "6", "--grid", "16384"],
    ["approximate", "--alpha", "2", "--w", "0.99,0", "--poles", "0.3,0;0,-0.4"],
    ["approximate", "--w", "0.1,0", "--poles", "0,0;0,0;0,0;0,0;0,0"],
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
    # share one private power: neither counts a call of the other.  The
    # grid passes call neither: they raise the kernel from the reciprocal
    # of the multiplier they form once per part (kernels.reciprocal_power).
    # Each nu call samples cauchy_power once at its brackets after the grid
    # pass.  The oracle's least-squares target samples bergman once, and its
    # scan (nu_minimum, not nu_functional) samples cauchy_power once at its
    # first block's brackets; its one refined bracket, the optimum's, takes
    # no step, and no other block is scored in full.  The least-squares
    # oracle calls design_matrix twice: its Gram stores the design, and it
    # then reads that stored design back through design_matrix.  The last
    # two requests take mu on 2^15 nodes near the circle (|w| = 0.99), where
    # it reads R from nu's pass, and in long double (mu_min 1.0e-12), where
    # it sums its own: each still makes one mu and one nu call.
    done = run_traced(TRACED_LAYERS)
    assert done.returncode == 0, done.stderr
    approximate, oracle, oracle_16384, boundary, long_double = json.loads(
        done.stdout.splitlines()[-1]
    )
    assert approximate == [0, 0, 1, 1, 1, 0]
    assert oracle == [0, 1, 1, 0, 0, 2]
    assert oracle_16384 == [0, 1, 1, 0, 0, 2]
    assert boundary == [0, 0, 1, 1, 1, 0]
    assert long_double == [0, 0, 1, 1, 1, 0]


TRACED_STORE = """
import contextlib, io, json
import numpy as np
import tracing
from diskrat import cli
from diskrat.tm_basis import TMBasis

tracer = tracing.Tracer()
tracing.install(tracer)
traced = TMBasis.eval_all
results = []

def eval_all(self, z, count=None):
    result = traced(self, z, count)
    stored = [design for _, design in self._designs.values()]
    results.append(any(np.shares_memory(result, design) for design in stored))
    return result

designed = TMBasis.design_matrix
evaluations = []

def design_matrix(self, grid):
    before = len(results)
    design = designed(self, grid)
    evaluations.append(len(results) - before)
    return design

TMBasis.eval_all = eval_all
TMBasis.design_matrix = design_matrix
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["oracle", "--w", "0.6,0", "--poles", "0.2,0.1", "--trials", "6"])
print(json.dumps({"code": code, "calls": tracer.calls["tm_basis.eval_all"],
                  "designs": tracer.calls["tm_basis.design_matrix"], "views": sum(results),
                  "evaluations": evaluations}))
"""


def test_traced_eval_all_points_are_evaluated_points():
    # tm_basis.eval_all.points adds up the size of every eval_all result.
    # The oracle request stores a design matrix; no eval_all result may be
    # a view of it, or the counter would count points never evaluated.  Its
    # Gram evaluates and stores the design, and the least-squares problem
    # reads it back through design_matrix, which evaluates nothing then.
    done = run_traced(TRACED_STORE)
    assert done.returncode == 0, done.stderr
    run = json.loads(done.stdout.splitlines()[-1])
    assert run["code"] == 0 and run["designs"] == 2
    assert run["evaluations"] == [1, 0]
    assert run["calls"] > 0
    assert run["views"] == 0


TRACED_BASIS = """
import contextlib, io, json
import tracing
from diskrat import cli

tracer = tracing.Tracer()
tracing.install(tracer)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["basis", "--poles", "0.3,0;0,-0.4;0.3,0", "--grid", "2048"])
print(json.dumps({"code": code, "calls": tracer.calls["tm_basis.design_matrix"],
                  "bytes": tracer.counts["tm_basis.design_matrix.bytes"]}))
"""


def test_traced_gram_counts_its_stored_design_matrix():
    # basis takes the Gram of its 3 functions on 2048 nodes; the design
    # matrix it stores goes through design_matrix, the store's one writer,
    # so the tracer counts it: 2048 nodes by 3 functions, 16 bytes each
    done = run_traced(TRACED_BASIS)
    assert done.returncode == 0, done.stderr
    run = json.loads(done.stdout.splitlines()[-1])
    assert run == {"code": 0, "calls": 1, "bytes": 2048 * 3 * 16}


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


def benchmark_workloads():
    """perfbench/workloads.py, read as a module of its own."""
    spec = importlib.util.spec_from_file_location(
        "benchmark_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_the_screened_scan_prints_the_bytes_of_the_full_scan(capsys, monkeypatch):
    # The first oracle block of benchmark seed 3001, once as it runs and
    # once with the scan's minimum taken over nu_functional of every trial.
    block = next(benchmark_workloads().oracle_blocks(3001))
    assert len(block) == 8

    def every_trial(spec, basis, rows, grid):
        values = diskrat.bergman_approx.nu_functional(spec, basis, rows, grid)
        index = int(np.argmin(values))
        return index, float(values[index])

    runs = []
    for scored in ("screened", "full"):
        if scored == "full":
            monkeypatch.setattr(diskrat.oracle, "nu_minimum", every_trial)
        for request in block:
            code = diskrat.cli.main(list(request.argv))
            runs.append((scored, code, capsys.readouterr().out))
    screened, full = runs[: len(block)], runs[len(block) :]
    assert [run[1:] for run in screened] == [run[1:] for run in full]
    assert all(code == 0 and '"scan"' in out for _, code, out in screened)


def test_scan_is_patchable_on_the_cli_module():
    assert callable(diskrat.cli.uniform_competitor_scan)


def test_a_pooled_verify_runs_blas_on_one_thread_and_restores_it():
    # read through the benchmark's own reader of the OpenBLAS count, in a
    # fresh interpreter, since the count is set for the whole process; a
    # stand-in whole group and a stand-in group of two shares, which makes
    # the pool form, report the largest count they ran with, in the worker
    # and in this process
    code = (
        "import json, run, diskrat.verify as v\n"
        "v._usable_cpus = lambda: 2\n"
        "reads = lambda name: lambda: [(name, 0.0, {'blas': run.blas_threads()})]\n"
        "names = ['orthonormality', 'christoffel_darboux']\n"
        "v.CHECK_GROUPS = [((name,), reads(name)) for name in names]\n"
        "v._SPLIT[v.CHECK_GROUPS[1][1]] = (\n"
        "    2, lambda share, shares: run.blas_threads(),\n"
        "    lambda counts: [(names[1], 0.0, {'blas': max(counts)})])\n"
        "before = run.blas_threads()\n"
        "during = [result.detail['blas'] for result in v.run_checks(only=names)]\n"
        "print(json.dumps([before, during, run.blas_threads()]))\n"
    )
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="2")
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    before, during, after = json.loads(done.stdout)
    if before is None:
        pytest.skip("numpy does not run on OpenBLAS here")
    assert (before, during, after) == (2, [1, 1], 2)


def test_every_name_in_a_module_all_resolves():
    modules = [importlib.import_module(f"diskrat.{info.name}")
               for info in pkgutil.iter_modules(diskrat.__path__)]
    declared = [module for module in modules if hasattr(module, "__all__")]
    assert declared
    for module in declared:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def library_owners() -> dict:
    """The package, its modules and the classes they define, by name: the
    first part of a library name in README.md."""
    modules = {info.name: importlib.import_module(f"diskrat.{info.name}")
               for info in pkgutil.iter_modules(diskrat.__path__)}
    classes = {name: value for module in modules.values() for name, value in vars(module).items()
               if isinstance(value, type) and value.__module__.startswith("diskrat.")}
    return {"diskrat": diskrat, **modules, **classes}


def resolves(owner, path: list[str]) -> bool:
    """Whether the attribute names of path lead from owner to something:
    an attribute, or at the end a dataclass field, which a class has no
    attribute for unless it has a default."""
    for at, name in enumerate(path):
        if hasattr(owner, name):
            owner = getattr(owner, name)
        else:
            fields = getattr(owner, "__dataclass_fields__", {})
            return at == len(path) - 1 and name in fields
    return True


def test_every_readme_library_name_resolves():
    # a backticked dotted name, a call's arguments dropped, whose first
    # part is the package, a module or a class of it: `tm_basis.X`,
    # `TMBasis.X(grid)`, `LsqResult.minimum`
    owners = library_owners()
    text = (ROOT / "README.md").read_text()
    names = {name for name in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)(?:\([^`]*\))?`", text)
             if name.split(".")[0] in owners}
    assert {"TMBasis.eval_chunks", "tm_basis.PIECE_NODES", "LsqResult.minimum"} <= names
    stale = sorted(name for name in names
                   if not resolves(owners[name.split(".")[0]], name.split(".")[1:]))
    assert not stale


def test_every_library_name_in_the_source_text_resolves():
    # the rule above, applied to the docstrings, other strings and comments
    # of the package's modules, where names stand unquoted: `TMBasis.eval_sum`
    owners = library_owners()
    names = set()
    for path in sorted((ROOT / "src" / "diskrat").glob("*.py")):
        with path.open() as source:
            for token in tokenize.generate_tokens(source.readline):
                if token.type in (tokenize.COMMENT, tokenize.STRING):
                    names.update(
                        (path.name, name)
                        for name in re.findall(r"(?<![\w.])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+",
                                               token.string)
                        if name.split(".")[0] in owners
                    )
    assert {"TMBasis.eval_sum", "tm_basis.MAX_DESIGN_BYTES"} <= {name for _, name in names}
    stale = sorted((file, name) for file, name in names
                   if not resolves(owners[name.split(".")[0]], name.split(".")[1:]))
    assert not stale


def calls_of(name: str, node: ast.AST, scope: str | None = None):
    """(function, line) of every call of `name`, plain or as an attribute,
    under node; function is the innermost def around the call, or None."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = node.name
    if isinstance(node, ast.Call):
        if getattr(node.func, "id", None) == name or getattr(node.func, "attr", None) == name:
            yield scope, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from calls_of(name, child, scope)


def test_no_grid_bypasses_the_cap():
    # circle_grid checks the node cap, so it is the one caller of the node
    # builder and the one maker of grids
    calls = [
        (path.name, scope, line)
        for path in sorted((ROOT / "src" / "diskrat").glob("*.py"))
        for scope, line in calls_of("_circle_nodes", ast.parse(path.read_text()))
    ]
    assert [(name, scope) for name, scope, _ in calls] == [("circlequad.py", "circle_grid")], calls


def test_non_finite_samples_are_refused_in_one_place():
    # circlequad.require_finite names the first non-finite node for every
    # quadrature and grid pass
    calls = [
        (path.name, scope)
        for path in sorted((ROOT / "src" / "diskrat").glob("*.py"))
        for scope, _ in calls_of("NonFiniteIntegrand", ast.parse(path.read_text()))
    ]
    assert calls == [("circlequad.py", "require_finite")], calls


def test_grid_passes_have_one_finiteness_rule():
    # every grid pass, one row or a batch, is checked by its reduction in
    # the walk that forms it: no pass scans K or R before reducing
    tree = ast.parse((ROOT / "src" / "diskrat" / "bergman_approx.py").read_text())
    scopes = [scope for scope, _ in calls_of("require_finite", tree)]
    assert scopes and set(scopes) == {"_walk"}, scopes


def test_star_import_is_clean():
    namespace = {}
    exec("from diskrat import *", namespace)
    assert "KernelSpec" in namespace and "run_checks" in namespace


def readme_command_lines() -> list[str]:
    """The lines of README's "Command line" block, without their comments."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].strip() for line in block.splitlines() if line.strip()]


@pytest.mark.parametrize("line", readme_command_lines())
def test_every_readme_example_exits_as_the_readme_says(capsys, tmp_path, line):
    words = shlex.split(line)
    assert words[0] == "diskrat"
    argv = words[1:]
    if "--out" in argv:
        at = argv.index("--out") + 1
        argv[at] = str(tmp_path / argv[at])
    # the README gives the sweep example's failed rows, and the --tol line
    # forces a failure; every other example succeeds
    expected = 2 if argv[0] == "sweep" or "--tol" in argv else 0
    code = diskrat.cli.main(argv)
    captured = capsys.readouterr()
    assert code == expected, captured.err
    assert captured.out or "--out" in argv
    if "--out" in argv:
        assert (tmp_path / Path(argv[at]).name).is_file()
