import argparse
import cmath
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import diskrat.bergman_approx
import diskrat.circlequad
import diskrat.cli
import diskrat.tm_basis
import diskrat.verify
from diskrat import Approximant, ErrorReport, KernelSpec, errors
from diskrat.circlequad import EPS_BOUNDARY
from diskrat.cli import (
    COMMANDS,
    OPTIONS,
    UsageError,
    build_parser,
    main,
    parse_complex,
    parse_int_list,
    parse_pole_list,
)
from diskrat.errors import NonFiniteIntegrand
from diskrat.verify import ALL_CHECK_NAMES, CHECK_GROUPS, CheckResult, run_checks, verdict_dict


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def never_build_a_basis(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a basis was built")

    monkeypatch.setattr(diskrat.tm_basis.TMBasis, "__init__", never)


def grid_sizes(monkeypatch) -> list[int]:
    """The node counts every module of the package asks circle_grid for."""
    sizes, make = [], diskrat.circlequad.circle_grid

    def spy(node_count, extended=False):
        sizes.append(node_count)
        return make(node_count, extended=extended)

    for name, module in list(sys.modules.items()):
        if name.startswith("diskrat.") and getattr(module, "circle_grid", None) is make:
            monkeypatch.setattr(module, "circle_grid", spy)
    return sizes


class TestParsing:
    def test_complex_pairs(self):
        assert parse_complex("0.5,0") == 0.5
        assert parse_complex("-0.3,0.2") == complex(-0.3, 0.2)
        assert parse_complex("0.7") == 0.7
        from diskrat.cli import UsageError

        with pytest.raises(UsageError):
            parse_complex("abc")

    def test_pole_lists(self):
        assert parse_pole_list("0.3,0;0,-0.4") == [0.3, -0.4j]
        assert parse_pole_list("0.3,0 0,-0.4") == [0.3, -0.4j]

    def test_int_lists(self):
        assert parse_int_list("0,1,2") == [0, 1, 2]
        assert parse_int_list("0:5") == [0, 1, 2, 3, 4, 5]


class TestApproximate:
    def test_spot_values_in_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "approximate", "--alpha", "0", "--w", "0.5,0", "--poles", "0,0"
        )
        assert code == 0
        payload = json.loads(out)
        report = payload["error_report"]
        assert report["mu_closed"] == pytest.approx(4.0 / 27.0, rel=1e-12)
        assert report["nu_closed"] == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert report["mu_quad"] == pytest.approx(report["mu_closed"], rel=1e-10)
        assert payload["interpolation_residuals"][0]["residual"] < 1e-8

    def test_builds_once(self, capsys, monkeypatch):
        calls = {"build": 0, "residuals": 0}
        build = diskrat.bergman_approx.build_approximant
        residuals = diskrat.bergman_approx.Approximant.interpolation_residuals

        def counted_build(*args, **kwargs):
            calls["build"] += 1
            return build(*args, **kwargs)

        def counted_residuals(self):
            calls["residuals"] += 1
            return residuals(self)

        monkeypatch.setattr(diskrat.bergman_approx, "build_approximant", counted_build)
        monkeypatch.setattr(
            diskrat.bergman_approx.Approximant, "interpolation_residuals", counted_residuals
        )
        code, out, _ = run_cli(
            capsys, "approximate", "--alpha", "1", "--w", "0.4,0.1", "--poles", "0.3,0"
        )
        assert code == 0
        assert calls == {"build": 1, "residuals": 1}
        payload = json.loads(out)
        assert len(payload["interpolation_residuals"]) == 3
        assert payload["error_report"]["max_interp_residual"] == max(
            row["residual"] for row in payload["interpolation_residuals"]
        )

    def test_each_target_is_taken_once(self, capsys, monkeypatch):
        calls = []
        target = diskrat.bergman_approx.interpolation_target

        def counted_target(*args):
            calls.append(args[1:])
            return target(*args)

        monkeypatch.setattr(diskrat.bergman_approx, "interpolation_target", counted_target)
        code, out, _ = run_cli(
            capsys, "approximate", "--alpha", "1", "--w", "0.4,0.1", "--poles", "0.3,0;0.4,0.1"
        )
        assert code == 0
        w = complex(0.4, 0.1)
        assert calls == [(0.3, 1), (w, 1), (w, 2), (w, 3)]
        rows = json.loads(out)["interpolation_residuals"]
        assert [row["multiplicity"] for row in rows] == [1, 1, 2, 3]
        assert [complex(*row["target"]) for row in rows] == [target(KernelSpec(1, w), *c) for c in calls]

    @pytest.mark.parametrize("alpha,w,count", [(0, "0.1,0", 8), (0, "0.1,0", 12), (3, "0.6,0", 20)])
    def test_highly_repeated_zero_pole_exits_0(self, capsys, alpha, w, count):
        # the Cauchy-formula quadrature at these poles does not settle within
        # 2^16 nodes
        code, out, err = run_cli(
            capsys, "approximate", "--alpha", str(alpha), "--w", w,
            "--poles", "zeros", "--n", str(alpha + count),
        )
        assert code == 0, err
        rows = json.loads(out)["interpolation_residuals"]
        assert len(rows) == alpha + count + 1
        assert max(r["residual"] / max(1.0, abs(complex(*r["target"]))) for r in rows) < 1e-13

    def test_every_row_reports_its_rounding_scale(self, capsys):
        code, out, _ = run_cli(
            capsys, "approximate", "--alpha", "1", "--w", "0.4,0.1", "--poles", "0.3,0;0.3,0;0,-0.2"
        )
        assert code == 0
        rows = json.loads(out)["interpolation_residuals"]
        assert len(rows) == 5
        assert all(set(r) == {"m", "pole", "multiplicity", "target", "residual", "rounding_scale"}
                   for r in rows)
        assert all(r["rounding_scale"] > 0 for r in rows)

    def test_rounding_scale_covers_a_high_multiplicity_miss(self, capsys):
        # 24 poles at 0.7: the Taylor convolution cancels terms far larger
        # than its result, and the residual misses the 1e-8 gate by rounding
        code, out, _ = run_cli(
            capsys, "approximate", "--alpha", "0", "--w", "0.3,0", "--poles", ";".join(["0.7,0"] * 24)
        )
        assert code == 0
        rows = json.loads(out)["interpolation_residuals"]
        worst = max(rows, key=lambda r: r["residual"] / max(1.0, abs(complex(*r["target"]))))
        assert worst["multiplicity"] == 24
        assert worst["residual"] > 1e-8 * max(1.0, abs(complex(*worst["target"])))
        assert worst["rounding_scale"] >= worst["residual"]

    def test_degenerate_w_all_zero_fields(self, capsys):
        code, out, _ = run_cli(
            capsys, "approximate", "--alpha", "1", "--w", "0,0", "--poles", "0.3,0"
        )
        assert code == 0
        report = json.loads(out)["error_report"]
        for key in ("mu_quad", "mu_closed", "nu_grid", "nu_closed", "max_interp_residual"):
            assert report[key] == 0.0

    def test_degenerate_w_keeps_its_signed_zero_in_both_blocks(self, capsys):
        code, out, _ = run_cli(capsys, "approximate", "--w", "0,-0", "--poles", "0.3,0")
        assert code == 0
        payload = json.loads(out)
        # 0.0 == -0.0, so compare the written pairs
        approximant_w = json.dumps(payload["approximant"]["w"])
        assert approximant_w == json.dumps(payload["error_report"]["w"]) == "[0.0, -0.0]"

    def test_random_poles_ratio(self, capsys):
        code, out, _ = run_cli(
            capsys, "approximate", "--alpha", "2", "--w", "0.4,0.1",
            "--n", "6", "--seed", "3",
        )
        assert code == 0
        report = json.loads(out)["error_report"]
        ratio = report["mu_quad"] / report["mu_closed"]
        assert 1 - 1e-10 < ratio < 1 + 1e-10

    def test_order_too_small_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "approximate", "--alpha", "2", "--w", "0.4,0", "--n", "1"
        )
        assert code == 1
        assert "smaller than alpha" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "approximate", "--alpha", "0", "--w", "0.5,0",
            "--poles", "0,0", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,alpha,w_re")
        assert len(lines) == 2


class TestSweep:
    def test_zero_pole_column_matches_closed_form(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--alphas", "0", "--ns", "0:5", "--ws", "0.5,0",
            "--poles", "zeros", "--format", "csv", "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert len(lines) == 7
        first = lines[1].split(",")
        assert float(first[5]) == pytest.approx(0.25 / 0.421875, rel=1e-12)
        closed = [float(line.split(",")[5]) for line in lines[1:]]
        for a, b in zip(closed, closed[1:]):
            assert b / a == pytest.approx(0.25, rel=1e-10)  # |w|^2 contraction

    def test_empty_lattice_header_only(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--alphas", "0", "--ws", "0.5,0")
        assert code == 0
        assert out.strip().splitlines() == [
            "alpha,n,w_re,w_im,mu_quad,mu_closed,nu_grid,nu_closed,max_interp_residual,error"
        ]

    @pytest.mark.parametrize(
        "flag, lattice",
        [
            ("--ns", ["--alphas", "0", "--ns", "5:2", "--ws", "0.5,0;0,0"]),
            ("--ns", ["--alphas", "0", "--ns", ",", "--ws", "0.5,0;0,0"]),
            ("--alphas", ["--alphas", "", "--ns", "2", "--ws", "0.5,0"]),
            ("--ws", ["--alphas", "0", "--ns", "2", "--ws", ""]),
        ],
        ids=["reversed-range", "comma", "alphas", "ws"],
    )
    def test_a_list_of_no_value_is_a_usage_error(self, capsys, flag, lattice):
        code, out, err = run_cli(capsys, "sweep", *lattice, "--poles", "zeros")
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {flag}: ")

    def test_an_empty_config_list_is_a_usage_error(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alphas": [0], "ns": [], "ws": [[0.5, 0.0]]}))
        code, out, err = run_cli(capsys, "sweep", "--config", str(config), "--poles", "zeros")
        assert code == 1
        assert out == ""
        assert err.startswith("error: --ns: ")

    def test_partial_failure_sets_exit_code(self, capsys):
        # n=0 with alpha=1 leaves a negative free-pole count on that row
        code, out, _ = run_cli(
            capsys, "sweep", "--alphas", "0,1", "--ns", "0", "--ws", "0.5,0",
            "--poles", "zeros",
        )
        assert code == 2
        lines = out.strip().splitlines()
        assert len(lines) == 3
        bad = [line for line in lines[1:] if line.split(",")[-1]]
        assert len(bad) == 1

    def test_readme_example_fails_only_where_n_is_below_alpha(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--alphas", "0:3", "--ns", "0:8", "--ws", "0.1,0;0.5,0",
            "--poles", "zeros", "--format", "csv", "--out", str(out_file),
        )
        assert code == 2
        rows = [line.split(",") for line in out_file.read_text().splitlines()[1:]]
        assert len(rows) == 72
        failed = [(int(r[0]), int(r[1])) for r in rows if r[-1]]
        assert len(failed) == 12
        assert all(n < alpha for alpha, n in failed)
        # an 8-fold zero pole, where the Cauchy-formula quadrature never settles
        (eightfold,) = [r for r in rows if r[:3] == ["0", "8", "0.10000000000000001"]]
        assert eightfold[-1] == ""
        assert float(eightfold[8]) < 1e-13

    def test_byte_determinism(self, capsys, tmp_path):
        args = (
            "sweep", "--alphas", "0,1", "--ns", "1:4", "--ws", "0.5,0;0,0.3",
            "--seed", "9", "--format", "csv",
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, *args, "--out", str(a))[0] == 0
        assert run_cli(capsys, *args, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_cells_are_round_trippable(self, capsys, tmp_path):
        out_file = tmp_path / "cells.csv"
        run_cli(
            capsys, "sweep", "--alphas", "0", "--ns", "1", "--ws", "0.5,0",
            "--poles", "zeros", "--out", str(out_file),
        )
        cells = out_file.read_text().strip().splitlines()[1].split(",")
        mu_closed = float(cells[5])
        assert f"{mu_closed:.17g}" == cells[5]


class TestBasis:
    def test_monomial_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "basis", "--poles", "0,0;0,0;0,0;0,0;0,0"
        )
        assert code == 0
        payload = json.loads(out)
        z = complex(*payload["sample_points"][0])
        values = [complex(re, im) for re, im in payload["phi_values"][0]]
        for k, v in enumerate(values):
            assert v == pytest.approx(z**k, abs=1e-14)
        assert payload["gram_max_deviation"] < 1e-12
        assert payload["cd_max_residual"] < 1e-12

    def test_random_poles(self, capsys):
        code, out, _ = run_cli(
            capsys, "basis", "--random-poles", "6", "--seed", "7"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["gram_max_deviation"] < 1e-12
        assert payload["cd_max_residual"] < 1e-12

    def test_requested_sample_points(self, capsys):
        code, out, _ = run_cli(
            capsys, "basis", "--poles", "0,0;0,0", "--samples", "0.2,0.1;-0.3,0",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["sample_points"] == [[0.2, 0.1], [-0.3, 0.0]]
        z = complex(0.2, 0.1)
        assert complex(*payload["phi_values"][0][1]) == pytest.approx(z, abs=1e-14)

    def test_missing_poles_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "basis")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("samples", ["nan,0", "inf,0", "2,0"])
    def test_samples_outside_the_closed_disk_are_usage_errors(self, capsys, samples):
        # 2 is the reflected pole 1/conj(0.5); non-finite points are no JSON
        code, out, err = run_cli(capsys, "basis", "--poles", "0.5,0", "--samples", samples)
        assert (code, out) == (1, "")
        assert "--samples" in err

    def test_samples_on_the_circle_are_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "basis", "--poles", "0.5,0", "--samples", "1,0;0,-1")
        assert code == 0
        values = json.loads(out)["phi_values"]
        assert np.isfinite(values).all()


class TestVerify:
    def test_out_keeps_each_detail_but_the_timing(self, capsys, tmp_path):
        only = "orthonormality,boundary_mu,degenerate_w_zero,competitor_scan"
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code, _, _ = run_cli(capsys, "verify", "--only", only, "--out", str(path))
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        verdict = json.loads(paths[0].read_text())
        assert sorted(verdict) == sorted(only.split(","))
        assert verdict["orthonormality"]["detail"] == {"sequences": 20, "grid": 4096}
        assert verdict["competitor_scan"]["detail"] == {"trials": 100, "seeds": [42, 43, 44]}
        assert len(verdict["boundary_mu"]["detail"]["escalated_grids"]) == 2
        assert verdict["degenerate_w_zero"]["detail"]["report"]["degenerate_w_zero"] is True
        assert all("group_seconds" not in entry["detail"] for entry in verdict.values())

    def test_only_interpolation(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--only", "interpolation")
        assert code == 0
        assert "PASS interpolation" in out
        assert "orthonormality" not in out

    def test_injected_tolerance_fails_cleanly(self, capsys, tmp_path):
        verdict_file = tmp_path / "verdict.json"
        code, out, _ = run_cli(
            capsys, "verify", "--only", "interpolation",
            "--tol", "interpolation=1e-20", "--out", str(verdict_file),
        )
        assert code == 2
        assert "FAIL interpolation" in out
        verdict = json.loads(verdict_file.read_text())
        assert verdict["interpolation"]["pass"] is False
        assert verdict["interpolation"]["bound"] == 1e-20

    @pytest.mark.parametrize("bound", ["inf", "nan", "-inf"])
    def test_non_finite_tolerance_is_usage_error(self, capsys, bound):
        code, out, err = run_cli(
            capsys, "verify", "--only", "interpolation", "--tol", f"interpolation={bound}"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: --tol: the bound of interpolation must be finite")

    def test_interpolation_check_does_not_use_the_taylor_route(
        self, capsys, tmp_path, monkeypatch
    ):
        approximant = diskrat.bergman_approx.Approximant

        def zero_derivatives(self):
            zeros = np.zeros(self.n + 1)
            return zeros.astype(complex), zeros

        monkeypatch.setattr(approximant, "interpolation_residuals", lambda self: [0.0] * (self.n + 1))
        monkeypatch.setattr(approximant, "pole_derivatives", property(zero_derivatives))
        verdict_file = tmp_path / "verdict.json"
        code, _, _ = run_cli(
            capsys, "verify", "--only", "interpolation", "--out", str(verdict_file)
        )
        assert code == 0
        # the value of the Cauchy-formula quadrature on the closed form
        assert json.loads(verdict_file.read_text())["interpolation"]["value"] == (
            2.1316282072803006e-14
        )

    def test_competitor_membership_fails_off_the_class(self, capsys, monkeypatch):
        # conj(z), which is 1/z on the circle, is not analytic in the disk, so
        # no partial fraction of the competitor class can absorb it
        approximant = diskrat.bergman_approx.Approximant
        evaluate = approximant.eval
        monkeypatch.setattr(
            approximant, "eval", lambda self, z: evaluate(self, z) + 1e-6 * np.conj(z)
        )
        code, out, _ = run_cli(capsys, "verify", "--only", "competitor_membership")
        assert code == 2
        assert "FAIL competitor_membership" in out

    def test_check_result_holds_python_scalars(self):
        result = CheckResult("x", np.bool_(True), np.float64(0.5), np.float64(1.0))
        assert type(result.passed) is bool
        assert type(result.value) is float and type(result.bound) is float
        assert json.dumps({"pass": result.passed}) == '{"pass": true}'

    def test_unknown_check_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--only", "nonexistent_check")
        assert code == 1
        assert "unknown" in err

    @pytest.mark.parametrize("only", ["", ",", []], ids=["empty", "comma", "config"])
    def test_empty_selection_is_usage_error(self, capsys, tmp_path, monkeypatch, only):
        def no_check():
            raise AssertionError("a check ran")

        monkeypatch.setattr(
            diskrat.verify, "CHECK_GROUPS", [(names, no_check) for names, _ in CHECK_GROUPS]
        )
        if isinstance(only, list):
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps({"only": only}))
            argv = ["verify", "--config", str(config)]
        else:
            argv = ["verify", "--only", only]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "no check selected" in err
        with pytest.raises(ValueError, match="no check selected"):
            run_checks(only=[])


def measured_in_process() -> dict:
    """{check: [value, detail]} from calling each registry group in this
    process, in registry order: the serial route's measurements."""
    return {
        name: [float(value), detail]
        for _, group in CHECK_GROUPS
        for name, value, detail in group()
    }


def measured_by_run_checks(only=None) -> dict:
    return {
        name: [entry["value"], entry["detail"]]
        for name, entry in verdict_dict(run_checks(only=only)).items()
    }


def fork_spy(monkeypatch) -> list[int]:
    """Counts the forks of this process; each warns in the parent, as
    Python 3.12+ does beside a BLAS thread, which the pool must not turn
    into an error."""
    forks, fork = [], os.fork

    def spy():
        forks.append(1)
        pid = fork()
        if pid:
            warnings.warn(
                f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may "
                "lead to deadlocks in the child.",
                DeprecationWarning,
            )
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return forks


class TestVerifyWorkers:
    """run_checks spreads its groups, and the quadratic lattice in
    interleaved shares, over a fork pool; the verdict is the serial one."""

    @pytest.fixture(scope="class")
    def serial(self):
        return measured_in_process()

    @pytest.mark.parametrize(
        "only",
        [None, ["quadratic_exactness"], ["orthonormality", "oracle_routes", "boundary_nu"]],
        ids=["all", "quadratic", "mixed"],
    )
    def test_the_pool_verdict_is_the_serial_one(self, monkeypatch, serial, only):
        monkeypatch.setattr(diskrat.verify, "_usable_cpus", lambda: 2)
        forks = fork_spy(monkeypatch)
        expected = {name: serial[name] for name in (only or ALL_CHECK_NAMES)}
        got = measured_by_run_checks(only)
        assert json.dumps(got) == json.dumps(expected)
        assert len(forks) == 1  # this process and one worker
        assert multiprocessing.active_children() == []

    def test_one_usable_cpu_forks_nothing(self, monkeypatch, serial):
        monkeypatch.setattr(diskrat.verify, "_usable_cpus", lambda: 1)
        forks = fork_spy(monkeypatch)
        only = ["orthonormality", "oracle_routes"]
        got = measured_by_run_checks(only)
        assert json.dumps(got) == json.dumps({name: serial[name] for name in only})
        assert forks == []

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_group_error_reaches_the_caller(self, capsys, monkeypatch, cpus):
        def fails():
            raise NonFiniteIntegrand(7, 1 + 2j)

        groups = list(CHECK_GROUPS)
        groups[0] = (groups[0][0], fails)
        monkeypatch.setattr(diskrat.verify, "CHECK_GROUPS", groups)
        monkeypatch.setattr(diskrat.verify, "_usable_cpus", lambda: cpus)
        forks = fork_spy(monkeypatch)
        only = ["orthonormality", "christoffel_darboux"]
        with pytest.raises(NonFiniteIntegrand) as raised:
            run_checks(only=only)
        assert str(raised.value) == "integrand is non-finite at node index 7: (1+2j)"
        assert (raised.value.node_index, raised.value.value) == (7, 1 + 2j)
        assert len(forks) == (1 if cpus == 2 else 0)
        assert multiprocessing.active_children() == []
        code, out, err = run_cli(capsys, "verify", "--only", ",".join(only))
        assert (code, out, err) == (2, "", "error: integrand is non-finite at node index 7: (1+2j)\n")
        assert multiprocessing.active_children() == []

    @staticmethod
    def split_registry(monkeypatch, whole_seconds=0.0):
        """A registry of one whole group, which sleeps `whole_seconds`, and
        one group split into 16 shares; each task reports the process it
        ran in.  Returns run_checks' quadratic detail: [share, pid] pairs."""

        def whole():
            time.sleep(whole_seconds)
            return [("orthonormality", 0.0, {"pid": os.getpid()})]

        def split():
            raise AssertionError("a split group runs through its shares")

        def combine(partials):
            return [("quadratic_exactness", 0.0, {"ran": partials})]

        groups = [(("orthonormality",), whole), (("quadratic_exactness",), split)]
        monkeypatch.setattr(diskrat.verify, "CHECK_GROUPS", groups)
        monkeypatch.setitem(
            diskrat.verify._SPLIT, split, (16, lambda share, shares: [share, os.getpid()], combine)
        )
        monkeypatch.setattr(diskrat.verify, "_usable_cpus", lambda: 2)
        results = run_checks(only=["orthonormality", "quadratic_exactness"])
        assert multiprocessing.active_children() == []
        return results[1].detail["ran"]

    def test_this_process_runs_the_last_shares(self, monkeypatch):
        # 17 tasks on two processes: this one keeps round(17 * 1.1 / 2) = 9,
        # the last shares; the worker gets the whole group and shares 0-6
        ran = self.split_registry(monkeypatch)
        assert [share for share, _ in ran] == list(range(16))
        assert {pid for _, pid in ran[7:]} == {os.getpid()}

    def test_this_process_takes_over_what_a_slow_worker_has_not_started(self, monkeypatch):
        ran = self.split_registry(monkeypatch, whole_seconds=0.5)
        assert [share for share, _ in ran] == list(range(16))
        assert ran[6][1] == os.getpid()

    def test_importing_the_cli_loads_no_pool_module(self):
        code = (
            "import sys, diskrat.cli; "
            "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(diskrat.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"


def test_every_library_error_survives_pickling():
    special = {errors.NonFiniteIntegrand: (5, 1 + 2j), errors.IllConditioned: (3.5e17,)}
    classes = [
        cls for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.DiskratError)
    ]
    assert {errors.DiskratError, *special} <= set(classes)
    for cls in classes:
        error = cls(*special.get(cls, ("a message",)))
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is cls
        assert str(copy) == str(error)
        assert vars(copy) == vars(error)


@pytest.mark.parametrize(
    "argv",
    [
        ["approximate", "--alpha", "0", "--w", "0.5,0", "--n", "1"],
        ["verify", "--only", "orthonormality"],
    ],
)
@pytest.mark.parametrize("target", ["missing/x.json", "."])
def test_unwritable_out_is_a_usage_error(capsys, tmp_path, argv, target):
    path = tmp_path / target
    code, _, err = run_cli(capsys, *argv, "--out", str(path))
    assert code == 1
    assert f"error: cannot write {path}" in err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["basis", "--poles", "0.3,0;0,-0.4"],
        ["approximate", "--alpha", "1", "--w", "0.5,0", "--n", "12"],
        ["sweep", "--alphas", "0:3", "--ns", "4:12", "--ws", "0.1,0;0.5,0", "--poles", "zeros"],
        ["verify"],
        ["oracle", "--alpha", "1", "--w", "0.5,0", "--n", "30", "--grid", "65536"],
    ],
)
@pytest.mark.parametrize("target", ["missing/x.json", "."])
def test_every_command_checks_its_out_target_before_any_work(
    capsys, monkeypatch, tmp_path, argv, target
):
    def work(*args, **kwargs):
        raise AssertionError("the numerical layer was reached")

    for name in ("build_error_report", "run_checks", "build_approximant", "TMBasis"):
        monkeypatch.setattr(diskrat.cli, name, work)
    path = tmp_path / target
    code, out, err = run_cli(capsys, *argv, "--out", str(path))
    assert code == 1
    assert out == ""
    assert f"error: cannot write {path}" in err
    assert [p.name for p in tmp_path.iterdir()] == []


@pytest.mark.parametrize(
    "target, message",
    [
        ("missing/x.json", "cannot write"),
        (".", "cannot write"),
        ("kept.txt/x.json", "cannot write"),
        ("kept.txt", "checks ran"),
        ("new.json", "checks ran"),
    ],
)
def test_verify_checks_its_out_target_before_the_checks(
    capsys, monkeypatch, tmp_path, target, message
):
    def checks_ran(**kwargs):
        raise ValueError("checks ran")

    monkeypatch.setattr(diskrat.cli, "run_checks", checks_ran)
    (tmp_path / "kept.txt").write_text("kept")
    path = tmp_path / target
    code, out, err = run_cli(capsys, "verify", "--out", str(path))
    assert code == 1
    assert out == ""
    assert f"error: {message}" in err
    # nothing is created or truncated before the checks have run
    assert [p.name for p in tmp_path.iterdir()] == ["kept.txt"]
    assert (tmp_path / "kept.txt").read_text() == "kept"


@pytest.mark.parametrize(
    "argv",
    [
        ["--alpha", "140", "--w", "0.5,0", "--poles", "0,0"],
        ["--alpha", "170", "--w", "0.5,0", "--poles", "0,0"],
        ["--w", "0.5,0", "--poles", "zeros", "--n", "172"],
        ["--alpha", "10", "--w", "0.5,0", "--poles", "zeros", "--n", "175"],
    ],
)
def test_interpolation_rows_past_the_double_range_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, "approximate", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: interpolation row ")


def test_the_taylor_table_of_the_rows_stops_at_order_171(capsys, monkeypatch):
    orders, taylor = [], diskrat.tm_basis.TMBasis.taylor

    def spy(self, w, order):
        orders.append(order)
        return taylor(self, w, order)

    monkeypatch.setattr(diskrat.tm_basis.TMBasis, "taylor", spy)
    code, out, err = run_cli(
        capsys, "approximate", "--w", "0.5,0", "--poles", "zeros", "--n", "2400"
    )
    assert (code, out) == (2, "")
    # the line that the whole table, of order 2399, gives
    assert err == (
        "error: interpolation row 171 (pole 0j, multiplicity 172) leaves the double range: "
        "value (inf+nanj), target (nan+nanj), rounding scale inf\n"
    )
    assert max(orders) == 171


def test_sweep_reports_a_row_past_the_double_range_in_its_cell(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--alphas", "0", "--ns", "1,172", "--ws", "0.5,0", "--poles", "zeros"
    )
    assert code == 2
    rows = out.splitlines()
    assert rows[1].endswith(",")
    assert ",,,,,,interpolation row 171 " in rows[2]


@pytest.mark.parametrize(
    "argv",
    [
        ["approximate", "--alpha", "100", "--w", "0.99,0", "--poles", "0,0"],
        ["approximate", "--alpha", "60", "--w", "0.999,0", "--poles", "0,0"],
        ["approximate", "--alpha", "150", "--w", "0.999,0", "--poles", "0,0"],
        ["oracle", "--alpha", "150", "--w", "0.999,0", "--poles", "0,0"],
        ["approximate", "--alpha", "80", "--w", "0,0.999", "--poles", "0.9,0;0.9,0"],
        ["approximate", "--alpha", "110", "--w", "0.999,0", "--poles", "0.999,0"],
    ],
)
def test_a_refusal_past_the_double_range_is_one_line_and_no_warning(capsys, argv):
    # pytest turns every warning into an error, which main reports as an
    # internal error (exit 3): an overflow on the way must stay silent
    code, out, err = run_cli(capsys, *argv)
    assert code == 2, err
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


_ALPHA_REFUSAL = (
    "alpha {} is above 170: the interpolation row of multiplicity alpha + 1 at w "
    "would carry alpha! beyond the double range"
)


@pytest.mark.parametrize(
    "command, alpha, w",
    [
        ("approximate", "171", "0.5,0"),
        ("approximate", "800", "0.5,0"),
        ("approximate", "4095", "0.5,0"),
        # the approximant's row at w multiplies by alpha!, whatever w is
        ("oracle", "171", "0.5,0"),
        ("oracle", "300", "0.5,0"),
        ("oracle", "1100", "0.5,0"),
        ("oracle", "4095", "0.5,0"),
        ("oracle", "171", "0,0"),
    ],
)
def test_an_alpha_past_the_factorial_range_is_refused_before_building(
    capsys, monkeypatch, command, alpha, w
):
    never_build_a_basis(monkeypatch)
    code, out, err = run_cli(
        capsys, command, "--alpha", alpha, "--w", w, "--poles", "0,0"
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {_ALPHA_REFUSAL.format(alpha)}\n"


def test_sweep_reports_an_alpha_past_the_factorial_range_in_its_cell(capsys, monkeypatch):
    never_build_a_basis(monkeypatch)
    code, out, _ = run_cli(
        capsys, "sweep", "--alphas", "171,800", "--ns", "801", "--ws", "0.5,0",
        "--poles", "zeros",
    )
    assert code == 2
    rows = out.splitlines()[1:]
    assert [row.split(",")[-1] for row in rows] == [
        _ALPHA_REFUSAL.format(171), _ALPHA_REFUSAL.format(800)
    ]


def test_an_alpha_past_the_factorial_range_at_w_zero_gives_zeros(capsys):
    code, out, err = run_cli(
        capsys, "approximate", "--alpha", "800", "--w", "0,0", "--poles", "0,0"
    )
    assert code == 0, err
    report = json.loads(out)["error_report"]
    assert report["degenerate_w_zero"]
    assert [report[name] for name in ErrorReport.VALUE_NAMES] == [0.0] * 5


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["approximate", "--n", "2"], "--w", "-0.3,0.6"),
        (["approximate", "--n", "2"], "--w", "-.3,0.6"),
        (["approximate", "--w", "0.5,0"], "--poles", "-0.3,0;-.2,0.1"),
        (["basis"], "--poles", "-0.3,0"),
        (["sweep", "--ns", "1", "--poles", "zeros"], "--ws", "-0.3,0;0.1,0"),
    ],
)
def test_a_negative_value_after_a_space_is_the_value_after_an_equals_sign(
    capsys, argv, flag, value
):
    joined = run_cli(capsys, *argv, f"{flag}={value}")
    assert joined[0] == 0
    assert run_cli(capsys, *argv, flag, value) == joined


@pytest.mark.parametrize("argv", [["approximate", "--w"], ["approximate", "--w", "--n", "2"]])
def test_an_option_after_a_flag_is_still_no_value(capsys, argv):
    assert run_cli(capsys, *argv) == (1, "", "error: argument --w: expected one argument\n")


_HUGE = "100000000000000000000"


@pytest.mark.parametrize(
    "argv",
    [
        ["approximate", "--w=0.5,0", "--n", _HUGE],
        ["approximate", "--w=0.5,0", "--random-poles", _HUGE],
        ["approximate", "--alpha", _HUGE, "--w=0.5,0", "--poles", "0,0"],
        ["oracle", "--n", _HUGE],
        ["basis", "--random-poles", _HUGE],
        ["approximate", "--w=0.5,0", "--n", "1000000"],
        ["basis", "--random-poles", "65536", "--grid", "256"],
        ["basis", "--poles", "zeros", "--n", "4096"],
        ["sweep", "--ns", "1,4096"],
        ["sweep", "--alphas", _HUGE, "--ns", "1"],
    ],
)
def test_a_count_past_the_gram_cap_is_refused_before_anything_is_built(
    capsys, monkeypatch, argv
):
    def never(*args, **kwargs):
        raise AssertionError("built")

    monkeypatch.setattr(diskrat.circlequad.CircleGrid, "__init__", never)
    monkeypatch.setattr(diskrat.tm_basis.PoleSequence, "__init__", never)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1, err
    assert out == ""
    assert "basis functions, more than the 4096 whose Gram matrix fills the byte cap" in err


@pytest.mark.parametrize("flag", ["--ns", "--alphas"])
def test_a_range_is_checked_by_its_ends_before_it_is_expanded(capsys, monkeypatch, flag):
    def never(text):
        raise AssertionError(f"expanded {text}")

    monkeypatch.setattr(diskrat.cli, "parse_int_list", never)
    code, out, err = run_cli(capsys, "sweep", flag, "0:1000000000000")
    assert code == 1, err
    assert out == ""
    assert err.startswith(f"error: {flag}: 1000000000000 asks for 1000000000001 basis functions")


def test_the_count_bound_admits_exactly_max_functions(capsys, monkeypatch):
    monkeypatch.setattr(diskrat.cli, "MAX_FUNCTIONS", 3)
    for argv, code in [
        (["basis", "--random-poles", "3"], 0),
        (["basis", "--random-poles", "4"], 1),
        (["basis", "--poles", "zeros", "--n", "2"], 0),
        (["basis", "--poles", "zeros", "--n", "3"], 1),
        (["approximate", "--alpha", "2", "--w", "0.5,0", "--n", "2"], 0),
        (["approximate", "--alpha", "3", "--w", "0.5,0", "--n", "3"], 1),
        (["sweep", "--ns", "0:2", "--ws", "0.5,0", "--poles", "zeros"], 0),
        (["sweep", "--ns", "0:3", "--ws", "0.5,0", "--poles", "zeros"], 1),
    ]:
        assert run_cli(capsys, *argv)[0] == code, argv


def test_a_gram_over_the_cap_exits_2_before_its_product(capsys, monkeypatch):
    # 300 functions on 256 nodes: the design (1.23 MB) fits a cap that its
    # conjugate and the Gram (2.67 MB) do not
    size = (256 + 300) * 300 * 16
    monkeypatch.setattr(diskrat.tm_basis, "MAX_DESIGN_BYTES", size - 1)
    code, out, err = run_cli(capsys, "basis", "--random-poles", "300", "--grid", "256")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: inner products of 300 functions with 300 vectors need {size}")


def test_large_requests_are_refused_first_or_pass_under_the_cap(capsys, monkeypatch):
    # With the cap scaled down to 4 MiB, every large request is either
    # refused before it allocates past the cap or runs its single-row grid
    # passes (a few arrays of 2^14 nodes each) within it.  Many simple poles
    # are refused by the interpolation rows, whose basis evaluation at the
    # simple poles is m x m; runs of equal poles evaluate no block and pass,
    # and so do poles that recur after others: the nested sum keeps at most
    # a few of their reciprocals and forms the others again.
    cap = 2**22
    monkeypatch.setattr(diskrat.tm_basis, "MAX_DESIGN_BYTES", cap)
    distinct = [complex(0.05 * k, 0.6 - 0.04 * k) for k in range(15)]

    def poles(values):
        return ";".join(f"{p.real!r},{p.imag!r}" for p in values)

    runs = poles([p for p in distinct for _ in range(10)])
    interleaved = poles(distinct * 10)
    cases = [
        (["approximate", "--w", "0.5,0", "--random-poles", "600", "--seed", "1"], 2,
         "error: an evaluation of 601 points by 601 functions needs 5779216 bytes"),
        (["sweep", "--ns", "600", "--ws", "0.5,0", "--seed", "1"], 2,
         "an evaluation of 601 points by 601 functions needs 5779216 bytes"),
        (["approximate", "--w", "0.5,0.1", "--poles", runs], 0, ""),
        (["sweep", "--ns", "150", "--ws", "0.5,0.1", "--poles", runs], 0, ""),
        (["approximate", "--w", "0.5,0.1", "--poles", interleaved], 0, ""),
    ]
    for argv, code, message in cases:
        tracemalloc.start()
        try:
            got, out, err = run_cli(capsys, *argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == code, argv
        assert message in (out if argv[0] == "sweep" else err), argv
        assert peak < cap, argv


class TestErrorRowLiterals:
    def test_approximate_csv_header(self, capsys):
        code, out, _ = run_cli(
            capsys, "approximate", "--w", "0.5,0", "--poles", "0,0", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[0] == (
            "n,alpha,w_re,w_im,mu_quad,mu_closed,nu_grid,nu_closed,max_interp_residual"
        )

    def test_sweep_failure_row_has_five_empty_cells(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--alphas", "0,1", "--ns", "0", "--ws", "0.5,0", "--poles", "zeros"
        )
        assert code == 2
        header, _, failed = out.splitlines()
        assert header == (
            "alpha,n,w_re,w_im,mu_quad,mu_closed,nu_grid,nu_closed,max_interp_residual,error"
        )
        assert failed == "1,0,0.5,0,,,,,,n smaller than alpha leaves -1 free poles"

    @pytest.mark.parametrize("w", ["0.5,0.2", "0,0"])
    def test_error_report_json_keys(self, capsys, w):
        code, out, _ = run_cli(capsys, "approximate", "--w", w, "--poles", "0.3,0")
        assert code == 0
        assert sorted(json.loads(out)["error_report"]) == [
            "alpha", "degenerate_w_zero", "free_pole_matches_w", "free_poles",
            "max_interp_residual", "mu_closed", "mu_quad", "n", "nu_closed", "nu_grid", "w",
        ]


def test_oracle_refuses_a_trial_schedule_over_the_cap(capsys):
    code, out, err = run_cli(
        capsys, "oracle", "--w", "0.5,0", "--poles", "0.1,0", "--trials", "10000000000000"
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: a competitor schedule of 10000000000000 trials")
    assert "Traceback" not in err and err.count("\n") == 1


class TestOracleCommand:
    def test_report_structure(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--alpha", "0", "--w", "0.5,0", "--poles", "0,0",
            "--trials", "10", "--seed", "5",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["scan"]["min_nu"] >= payload["scan"]["closed_form"] - 1e-9
        assert payload["lsq"]["condition"] < 1 + 1e-8


class TestConfigHandling:
    def test_config_file_with_flag_override(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "alpha": 1,
            "w": [0.5, 0.0],
            "poles": [[0.0, 0.0]],
        }))
        code, out, _ = run_cli(
            capsys, "approximate", "--config", str(config), "--alpha", "0"
        )
        assert code == 0
        report = json.loads(out)["error_report"]
        assert report["alpha"] == 0  # flag wins over file
        assert report["mu_closed"] == pytest.approx(4.0 / 27.0, rel=1e-12)

    def test_bad_grid_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "oracle", "--alpha", "0", "--w", "0.5,0",
            "--poles", "0,0", "--grid", "1000",
        )
        assert code == 1
        assert "power of two" in err

    def test_bad_w_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys, "approximate", "--alpha", "0", "--w", "1.5,0", "--poles", "0,0"
        )
        assert code == 1

    @pytest.mark.parametrize(
        "w, poles",
        [("nan,0", "0,0"), ("0.9999999999,0", "0,0"), ("0.5,0", "nan,0"), ("0.5,0", "0,1")],
    )
    def test_points_outside_library_disk_are_usage_errors(self, capsys, w, poles):
        code, _, err = run_cli(capsys, "approximate", "--w", w, "--poles", poles)
        assert code == 1
        assert "not strictly inside the unit disk" in err

    def test_grid_past_the_cap_is_an_acceptance_failure(self, capsys, monkeypatch):
        # |w| = 1 - 1e-8 passes the disk rule but would need a 2^35-node grid,
        # refused where it is made: before anything is allocated or the rows
        def no_huge_grid(self, node_count, extended=False):
            raise AssertionError(f"allocating a grid of {node_count} nodes")

        def no_rows(self):
            raise AssertionError("the rows were computed")

        monkeypatch.setattr(diskrat.circlequad.CircleGrid, "__init__", no_huge_grid)
        monkeypatch.setattr(Approximant, "pole_derivatives", property(no_rows))
        code, out, err = run_cli(capsys, "approximate", "--w", "0.99999999,0", "--poles", "0,0")
        assert code == 2
        assert out == ""
        assert "34359738368 nodes, more than the cap of 1048576" in err

    @pytest.mark.parametrize("w", ["0.99999999,0", "0.9998,0"])
    def test_oracle_near_the_circle_runs_on_its_own_grid(self, capsys, monkeypatch, w):
        # the mu grid of the approximant, 2^35 or 2^21 nodes, is never made
        sizes = grid_sizes(monkeypatch)
        code, out, err = run_cli(capsys, "oracle", "--grid", "4096", "--w", w, "--poles", "0,0")
        assert code == 0, err
        scan = json.loads(out)["scan"]
        assert scan["min_nu"] == pytest.approx(scan["closed_form"], rel=1e-11)
        assert sizes and max(sizes) == 4096

    def test_design_past_the_cap_is_an_acceptance_failure(self, capsys):
        # 65536 nodes by 301 functions in complex doubles: 316 MB
        code, out, err = run_cli(
            capsys, "oracle", "--w", "0.5,0", "--poles", "zeros", "--n", "300", "--grid", "65536"
        )
        assert code == 2
        assert out == ""
        assert "needs 315621376 bytes, more than the cap of 268435456" in err

    @pytest.mark.parametrize("ws", ["nan,0", "0.5,0;0.9999999999,0"])
    def test_sweep_points_outside_library_disk_are_usage_errors(self, capsys, ws):
        code, _, err = run_cli(
            capsys, "sweep", "--alphas", "0", "--ns", "1", "--ws", ws, "--poles", "zeros"
        )
        assert code == 1
        assert "not strictly inside the unit disk" in err

    def test_bad_format_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "basis", "--poles", "0,0", "--format", "xml"
        )
        assert code == 1


class TestOptionTable:
    ACCEPTED = {
        "basis": "poles random-poles seed max-modulus n grid samples format out",
        "approximate": "alpha w poles random-poles seed max-modulus n format out",
        "sweep": "alpha w poles seed max-modulus n alphas ns ws out format",
        "verify": "only tol out",
        "oracle": "alpha w poles random-poles seed max-modulus n grid trials out",
    }

    def test_each_subcommand_declares_exactly_what_it_reads(self):
        sub = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        total = 0
        for command, names in self.ACCEPTED.items():
            expected = {f"--{name}" for name in names.split()} | {"--config"}
            actions = sub.choices[command]._actions
            flags = {s for a in actions for s in a.option_strings} - {"-h", "--help"}
            assert flags == expected, command
            total += len(flags)
        assert total == 47

    @pytest.mark.parametrize(
        "argv",
        [
            ["approximate", "--w", "0.5,0", "--poles", "0,0", "--grid", "1024"],
            ["approximate", "--w", "0.5,0", "--poles", "0,0", "--tol", "interpolation=1e-30"],
            ["sweep", "--alphas", "0", "--ns", "1", "--ws", "0.5,0", "--poles", "zeros",
             "--format", "json"],
            ["sweep", "--alphas", "0", "--ns", "1", "--ws", "0.5,0", "--random-poles", "3"],
            ["oracle", "--w", "0.5,0", "--poles", "0,0", "--trials", "5", "--format", "csv"],
            ["verify", "--w", "0.3,0", "--grid", "256"],
        ],
    )
    def test_flag_the_subcommand_does_not_read_is_a_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "error:" in err

    def test_config_key_the_subcommand_does_not_read_is_a_usage_error(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"w": [0.5, 0.0], "poles": [[0.0, 0.0]], "grid": 1024}))
        code, out, err = run_cli(capsys, "approximate", "--config", str(config))
        assert code == 1
        assert out == ""
        assert "'grid' is not read by approximate" in err

    def test_non_integral_config_count_is_a_usage_error(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"w": [0.5, 0.0], "poles": "zeros", "n": 2.9}))
        code, out, err = run_cli(capsys, "approximate", "--config", str(config))
        assert code == 1
        assert out == ""
        assert "2.9" in err

    # every numeric config key, with a JSON boolean where a number goes:
    # (command, key, value built from the boolean)
    BOOLEAN_VALUES = [
        ("approximate", "alpha", lambda b: b),
        ("approximate", "w", lambda b: b),
        ("approximate", "w", lambda b: [b, b]),
        ("approximate", "w", lambda b: [0.5, b]),
        ("approximate", "poles", lambda b: [b]),
        ("approximate", "poles", lambda b: [[0.1, b]]),
        ("approximate", "random_poles", lambda b: b),
        ("approximate", "seed", lambda b: b),
        ("approximate", "max_modulus", lambda b: b),
        ("approximate", "n", lambda b: b),
        ("oracle", "grid", lambda b: b),
        ("oracle", "trials", lambda b: b),
        ("basis", "samples", lambda b: [[b, 0.0]]),
        ("sweep", "alphas", lambda b: [0, b]),
        ("sweep", "ns", lambda b: [b]),
        ("sweep", "ws", lambda b: [[0.5, b]]),
        ("verify", "tolerances", lambda b: {"orthonormality": b}),
    ]

    def test_the_boolean_cases_cover_every_numeric_key(self):
        numeric = {opt.key for opt in OPTIONS} - {"format", "out", "only"}
        assert {key for _, key, _ in self.BOOLEAN_VALUES} == numeric

    @pytest.mark.parametrize("boolean", [True, False])
    @pytest.mark.parametrize("command, key, build", BOOLEAN_VALUES,
                             ids=[f"{key}-{i}" for i, (_, key, _) in enumerate(BOOLEAN_VALUES)])
    def test_a_boolean_config_number_is_a_usage_error(self, capsys, tmp_path, command, key,
                                                       build, boolean):
        # Python takes true and false as 1 and 0; a config file must not
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: build(boolean)}))
        code, out, err = run_cli(capsys, command, "--config", str(config))
        assert code == 1
        assert out == ""
        flag = next(opt.flag for opt in OPTIONS if opt.key == key)
        assert f"{flag}:" in err

    def test_a_boolean_alpha_no_longer_runs(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alpha": True, "w": [0.5, 0], "n": 2}))
        code, out, err = run_cli(capsys, "approximate", "--config", str(config))
        assert (code, out) == (1, "")
        assert "--alpha: expected a number, got true" in err
        config.write_text(json.dumps({"alpha": 1, "w": [0.5, 0], "n": 2}))
        assert run_cli(capsys, "approximate", "--config", str(config))[0] == 0

    @pytest.mark.parametrize("command", ["verify", "approximate"])
    @pytest.mark.parametrize("value", [True, False, 7, 1.5, None, ["a"], {"a": "b"}],
                             ids=["true", "false", "int", "float", "null", "list", "object"])
    def test_a_config_out_that_is_not_a_string_is_a_usage_error(self, capsys, tmp_path,
                                                                  monkeypatch, command, value):
        # str(value) would name a file True, 7, None or ['a'] and exit 0
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"out": value}))
        code, out, err = run_cli(capsys, command, "--config", str(config))
        assert (code, out) == (1, "")
        assert f"--out: expected a file name, got {json.dumps(value)}" in err
        assert [path.name for path in tmp_path.iterdir()] == ["config.json"]

    def test_a_config_out_string_names_the_output_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"out": "report.json", "w": [0.5, 0], "poles": [[0, 0]]}))
        code, out, _ = run_cli(capsys, "approximate", "--config", str(config))
        assert (code, out) == (0, "")
        assert json.loads((tmp_path / "report.json").read_text())["error_report"]["n"] == 1

    def test_config_tolerances_merge_with_flags(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"only": "interpolation", "tolerances": {"orthonormality": 1}})
        )
        verdict_file = tmp_path / "verdict.json"
        code, _, _ = run_cli(
            capsys, "verify", "--config", str(config), "--tol", "interpolation=1e-20",
            "--out", str(verdict_file),
        )
        assert code == 2
        assert json.loads(verdict_file.read_text())["interpolation"]["bound"] == 1e-20

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "--w", "0.5,0", "--poles", "0,0", "--trials", "0"],
            ["approximate", "--w", "0.5,0", "--random-poles", "-1"],
            ["basis", "--random-poles", "0"],
            ["approximate", "--w", "0.5,0", "--n", "3", "--max-modulus", "1.5"],
            ["approximate", "--w", "0.5,0", "--n", "3", "--max-modulus", "-0.1"],
            ["oracle", "--w", "0.5,0", "--poles", "0,0", "--grid", str(2**21)],
            ["basis", "--poles", "0,0", "--grid", str(2**40)],
            ["approximate", "--w", "0.5,0", "--poles", "0.1,0", "--n", "5"],
            ["approximate", "--w", "0.5,0", "--random-poles", "2", "--n", "5"],
            ["basis", "--poles", "0,0;0.3,0", "--n", "4"],
            ["basis", "--poles", "zeros", "--random-poles", "3"],
            ["approximate", "--w", "0.5,0", "--poles", "0.2,0", "--random-poles", "3"],
            ["oracle", "--w", "0.5,0", "--poles", "zeros", "--random-poles", "3"],
        ],
    )
    def test_out_of_range_or_inconsistent_input_is_a_usage_error(
        self, capsys, monkeypatch, argv
    ):
        def no_grid(self, node_count, extended=False):
            raise AssertionError(f"allocating a grid of {node_count} nodes")

        monkeypatch.setattr(diskrat.circlequad.CircleGrid, "__init__", no_grid)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, err
        assert out == ""

    @pytest.mark.parametrize("n", [0, 2])
    def test_basis_zeros_builds_n_plus_one_poles(self, capsys, n):
        code, out, _ = run_cli(capsys, "basis", "--poles", "zeros", "--n", str(n))
        assert code == 0
        assert json.loads(out)["poles"] == [[0.0, 0.0]] * (n + 1)


class TestCachedParser:
    def test_one_parser_per_process(self, capsys):
        parser = build_parser()
        for argv in (
            ["basis", "--poles", "0,0"],
            ["approximate", "--w", "0.5,0", "--poles", "0,0"],
            ["basis", "--poles", "0.3,0;0,0"],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 0, err
            assert json.loads(out)
        assert build_parser() is parser
        assert build_parser.cache_info().currsize == 1

    def test_a_usage_error_leaves_the_parser_usable(self, capsys):
        good = ["approximate", "--w", "0.5,0", "--poles", "0,0"]
        first = run_cli(capsys, *good)
        for bad in (good + ["--grid", "1024"], good + ["--w"], ["approximate", "--n", "x"]):
            code, out, err = run_cli(capsys, *bad)
            assert code == 1 and out == "" and err.startswith("error:")
            assert run_cli(capsys, *good) == first

    @pytest.mark.parametrize(
        "argv",
        [
            ["approximate", "--grid", "1024"],
            ["approximate", "--w"],
            ["approximate", "--w", "--n", "2"],
            ["frobnicate"],
            [],
            ["verify", "approximate", "--w", "0.5,0"],
        ],
    )
    def test_error_messages_are_those_of_a_fresh_parser(self, capsys, argv):
        with pytest.raises(UsageError) as fresh:
            build_parser.__wrapped__().parse_args(argv)
        for _ in range(2):
            assert run_cli(capsys, *argv) == (1, "", f"error: {fresh.value}\n")

    @pytest.mark.parametrize("argv", [["--help"], ["approximate", "--help"], ["verify", "-h"]])
    def test_help_is_that_of_a_fresh_parser(self, capsys, argv):
        with pytest.raises(SystemExit):
            build_parser.__wrapped__().parse_args(argv)
        fresh = capsys.readouterr().out
        assert fresh.startswith(f"usage: diskrat {' '.join(argv[:-1])}".rstrip())
        for _ in range(2):
            with pytest.raises(SystemExit) as done:
                main(list(argv))
            assert done.value.code == 0
            assert capsys.readouterr().out == fresh


# Values for any flag: well-formed ones (orders and counts at most 12, so
# each run is fast) and malformed ones.
_TOKENS = (
    "0", "1", "3", "12", "0:2", "0.5,0", "0,-0.3", "0.3,0;0,0.2", "zeros", "csv",
    "json", "256", "interpolation", "interpolation=1e-20", "0.99,0",
    "nan,0", "1e400,0", "-1", "0.5,0,0", "", "100000000000000000000",
)
# --out and --config name files, which other tests cover
_FLAGS = {
    command: [opt.flag for opt in OPTIONS if command in opt.commands and opt.flag != "--out"]
    for command in COMMANDS
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command]
    if command == "verify":
        argv += ["--only", "christoffel_darboux"]  # a drawn --only replaces it
    for _ in range(draw(st.integers(0, 4))):
        argv += [draw(st.sampled_from(_FLAGS[command])), draw(st.sampled_from(_TOKENS))]
    return argv


def _reject_constant(name):
    raise ValueError(f"{name} in JSON output")


# run_cli reads and clears what capsys captured, so one fixture serves all
# examples
@settings(
    max_examples=80, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(_argv())
def test_exit_code_contract(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code in (0, 1, 2), (argv, err)
    if code == 1:
        assert out == ""
        assert err.startswith("error:")
    if out.startswith("{"):
        json.loads(out, parse_constant=_reject_constant)


#: The largest modulus the disk rule admits, with room for the rounding of
#: a point's "re,im" text.
_EDGE = 1.0 - 1.001 * EPS_BOUNDARY


@st.composite
def _disk_text(draw):
    modulus = draw(st.one_of(st.sampled_from([0.0, 0.5, 0.999, 1.0 - 1e-6, _EDGE]),
                             st.floats(0.0, _EDGE)))
    z = cmath.rect(modulus, draw(st.floats(0.0, 2.0 * cmath.pi)))
    return f"{z.real!r},{z.imag!r}"


@st.composite
def _extreme_request(draw):
    """approximate, sweep or oracle at any alpha the parser admits, with the
    kernel point and one to three free poles anywhere the disk rule admits."""
    command = draw(st.sampled_from(["approximate", "sweep", "oracle"]))
    alpha = draw(st.one_of(st.integers(0, 3), st.integers(165, 175), st.integers(0, 4095)))
    w = draw(_disk_text())
    poles = ";".join(draw(st.lists(_disk_text(), min_size=1, max_size=3)))
    if command == "sweep":
        n = str(alpha + poles.count(";") + 1)
        return ["sweep", "--alphas", str(alpha), "--ns", n, f"--ws={w}", f"--poles={poles}"]
    argv = [command, "--alpha", str(alpha), f"--w={w}", f"--poles={poles}"]
    return argv + (["--grid", "256", "--trials", "2"] if command == "oracle" else [])


@settings(
    max_examples=40, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(_extreme_request())
def test_the_admitted_extremes_exit_0_or_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code in (0, 2), (argv, err)
    if code == 2 and argv[0] == "sweep":
        # the refusal is the row's error cell
        assert err == "" and out.splitlines()[1].split(",")[-1]
    elif code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
