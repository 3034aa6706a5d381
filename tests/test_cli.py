import argparse
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import diskrat.bergman_approx
import diskrat.circlequad
from diskrat import KernelSpec
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
from diskrat.verify import CheckResult


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        ["--alpha", "171", "--w", "0.5,0", "--poles", "0,0"],
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


def test_sweep_reports_a_row_past_the_double_range_in_its_cell(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--alphas", "0", "--ns", "1,172", "--ws", "0.5,0", "--poles", "zeros"
    )
    assert code == 2
    rows = out.splitlines()
    assert rows[1].endswith(",")
    assert ",,,,,,interpolation row 171 " in rows[2]


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
        # |w| = 1 - 1e-8 passes the disk rule but would need a 2^35-node grid
        def no_huge_grid(self, node_count, extended=False):
            raise AssertionError(f"allocating a grid of {node_count} nodes")

        monkeypatch.setattr(diskrat.circlequad.CircleGrid, "__init__", no_huge_grid)
        code, out, err = run_cli(capsys, "approximate", "--w", "0.99999999,0", "--poles", "0,0")
        assert code == 2
        assert out == ""
        assert "34359738368 nodes, more than the cap of 1048576" in err

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
    "nan,0", "1e400,0", "-1", "0.5,0,0", "",
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
