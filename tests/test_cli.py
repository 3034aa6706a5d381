import argparse
import json

import numpy as np
import pytest

import diskrat.bergman_approx
import diskrat.circlequad
from diskrat.cli import build_parser, main, parse_complex, parse_int_list, parse_pole_list
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


class TestVerify:
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

    def test_check_result_holds_python_scalars(self):
        result = CheckResult("x", np.bool_(True), np.float64(0.5), np.float64(1.0))
        assert type(result.passed) is bool
        assert type(result.value) is float and type(result.bound) is float
        assert json.dumps({"pass": result.passed}) == '{"pass": true}'

    def test_unknown_check_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--only", "nonexistent_check")
        assert code == 1
        assert "unknown" in err


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
