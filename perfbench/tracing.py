"""Spans around the public callables of every diskrat module, recorded from
outside the library.

``install(tracer)`` replaces each traced callable in every namespace that
holds it: modules that did ``from .x import name`` keep their own binding, so
patching only the defining module would miss their calls.  Methods are
patched on their class, and ``verify.CHECK_GROUPS`` entries are replaced in
place because the registry holds direct references.

A span is (name, start, end, parent span, request id).  Spans live in flat
arrays in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import gzip
import importlib
from array import array
from collections import defaultdict
from time import perf_counter

MODULES = ("circlequad", "tm_basis", "kernels", "expansion", "bergman_approx", "oracle", "verify", "cli")


class Tracer:
    """Span store plus per-name call counts, busy time, self time and the
    counters the wrappers record."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._child_time = array("d")
        self._stack: list[int] = []
        self._depth: list[int] = []
        self.request = -1
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)  # outermost spans of a name only
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def active(self, name: str) -> bool:
        return self._depth[self._ids[name]] > 0

    def wrap(self, name: str, fn, on_return=None, on_call=None):
        """Return fn wrapped in a span.  on_call(args, kwargs) may rewrite
        the arguments; on_return(args, kwargs, result) records counts."""
        nid = self._name_id(name)
        depth = self._depth
        stack = self._stack

        def traced(*args, **kwargs):
            if on_call is not None:
                args, kwargs = on_call(args, kwargs)
            index = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_request.append(self.request)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self._child_time.append(0.0)
            stack.append(index)
            depth[nid] += 1
            self.span_start[index] = start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                depth[nid] -= 1
                stack.pop()
                self._close(index, nid, start, end)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, index: int, nid: int, start: float, end: float):
        duration = end - start
        self.span_end[index] = end
        name = self.names[nid]
        self.calls[name] += 1
        self.self_time[name] += duration - self._child_time[index]
        if self._depth[nid] == 0:
            self.busy[name] += duration
        parent = self.span_parent[index]
        if parent >= 0:
            self._child_time[parent] += duration

    def write(self, path) -> int:
        """Write every span as one JSON line to a gzip file; return the count."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as out:
            for i in range(len(self.span_start)):
                out.write(
                    f'{{"id":{i},"name":"{names[self.span_name[i]]}",'
                    f'"start":{self.span_start[i]:.9f},"end":{self.span_end[i]:.9f},'
                    f'"parent":{self.span_parent[i]},"request":{self.span_request[i]}}}\n'
                )
        return len(self.span_start)


def _replace_everywhere(modules, original, replacement):
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer):
    """Wrap the traced callables of every diskrat module.  Returns a function
    that reads the grid-cache counters at the end of the run."""
    mods = {name: importlib.import_module(f"diskrat.{name}") for name in MODULES}
    everywhere = list(mods.values()) + [importlib.import_module("diskrat")]
    cq, tb, kn, ex = mods["circlequad"], mods["tm_basis"], mods["kernels"], mods["expansion"]
    ba, orc, ver, cli = mods["bergman_approx"], mods["oracle"], mods["verify"], mods["cli"]
    count = tracer.counts

    def function(name, owner, attr, on_return=None, on_call=None):
        original = getattr(owner, attr)
        _replace_everywhere(everywhere, original, tracer.wrap(name, original, on_return, on_call))

    def method(name, cls, attr, on_return=None):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), on_return))

    # circlequad
    def sampled(args, kwargs, result):
        points = len(args[1]) if len(args) > 1 else len(kwargs["nodes"])
        count["circlequad.sample_on_nodes.points"] += points
        if tracer.active("circlequad.derivative_at"):
            count["circlequad.derivative_at.nodes"] += points

    function("circlequad.derivative_at", cq, "derivative_at")
    function("circlequad.sample_on_nodes", cq, "sample_on_nodes", sampled)

    # tm_basis
    def evaluated(args, kwargs, result):
        count["tm_basis.eval_all.points"] += result.size
        z = args[1] if len(args) > 1 else kwargs["z"]
        if getattr(z, "ndim", 0) == 0:
            count["tm_basis.eval_all.scalar_calls"] += 1

    def designed(args, kwargs, result):
        count["tm_basis.design_matrix.bytes"] += result.nbytes

    method("tm_basis.eval_all", tb.TMBasis, "eval_all", evaluated)
    method("tm_basis.design_matrix", tb.TMBasis, "design_matrix", designed)

    # kernels
    method("kernels.bergman", kn.KernelSpec, "bergman")
    method("kernels.cauchy_power", kn.KernelSpec, "cauchy_power")

    # expansion
    def expanded(args, kwargs, result):
        basis = args[1] if len(args) > 1 else kwargs["basis"]
        count["expansion.expand_kernel.nodes"] += result.grid_size
        if result.grid_size > ex.default_grid_size(basis.max_index):
            count["expansion.expand_kernel.escalated"] += 1

    function("expansion.expand_function", ex, "expand_function")
    function("expansion.expand_kernel", ex, "expand_kernel", expanded)

    # bergman_approx
    def mu_called(args, kwargs, result):
        if kwargs.get("extended", args[3] if len(args) > 3 else False):
            count["bergman_approx.mu_functional.extended"] += 1

    def count_evals(args, kwargs):
        f = args[0]

        def counted(t):
            count["bergman_approx.nu_refine.evals"] += 1
            return f(t)

        return (counted,) + args[1:], kwargs

    for attr in ("build_approximant", "build_error_report", "nu_functional", "competitor_function"):
        function(f"bergman_approx.{attr}", ba, attr)
    function("bergman_approx.mu_functional", ba, "mu_functional", mu_called)
    function("bergman_approx.nu_refine", ba, "_golden_max", on_call=count_evals)
    method("bergman_approx.interpolation_residuals", ba.Approximant, "interpolation_residuals")

    # oracle
    def lsq_built(args, kwargs, result):
        key = "oracle.lsq.condition_max"
        tracer.maxima[key] = max(tracer.maxima[key], result.condition)

    def scanned(args, kwargs, result):
        count["oracle.scan.trials"] += result.trials

    build = orc.LeastSquaresProblem.__dict__["build"].__func__
    orc.LeastSquaresProblem.build = classmethod(tracer.wrap("oracle.lsq_build", build, lsq_built))
    function("oracle.lsq_minimize", orc, "lsq_minimize")
    function("oracle.scan", orc, "uniform_competitor_scan", scanned)
    function("oracle.exhaustive", orc, "small_instance_exhaustive")

    # verify: one span per check group, named after its first check
    for i, (names, group) in enumerate(ver.CHECK_GROUPS):
        ver.CHECK_GROUPS[i] = (names, tracer.wrap(f"verify.{names[0]}", group))

    # cli
    function("cli.main", cli, "main")

    grid_cache = cq.circle_grid
    before = grid_cache.cache_info()

    def grid_counts() -> dict:
        after = grid_cache.cache_info()
        return {
            "circlequad.circle_grid.hits": after.hits - before.hits,
            "circlequad.circle_grid.misses": after.misses - before.misses,
        }

    return grid_counts
