"""The library names the benchmark harness traces and patches still exist."""

import os
import subprocess
import sys
from pathlib import Path

import diskrat.cli

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_every_traced_name():
    # install() patches the library for the whole process, so run it apart
    code = "import tracing; tracing.install(tracing.Tracer())"
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr


def test_scan_is_patchable_on_the_cli_module():
    assert callable(diskrat.cli.uniform_competitor_scan)
