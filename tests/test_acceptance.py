"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line for its criterion (visible with -s or in
captured output).  The underlying measurements come from the same named-check
registry the `verify` command runs, executed once per session here.
"""

import json
import time

import pytest

from diskrat import KernelSpec, PoleSequence, mu_min_closed_form, nu_min_closed_form
from diskrat.cli import main
from diskrat.verify import run_checks, verdict_dict


@pytest.fixture(scope="module")
def suite():
    started = time.perf_counter()
    results = run_checks()
    elapsed = time.perf_counter() - started
    return {"by_name": {r.name: r for r in results}, "seconds": elapsed,
            "results": results}


def _report(criterion: str, results) -> None:
    ok = all(r.passed for r in results)
    worst = "; ".join(f"{r.name}={r.value:.3e}<{r.bound:.0e}" for r in results)
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {worst}")
    assert ok, f"{criterion} failed: {worst}"


def test_criterion_1_orthonormality(suite):
    result = suite["by_name"]["orthonormality"]
    _report("criterion 1 (orthonormality, 20 seeded sequences, n<=20)", [result])
    assert result.bound == 1e-12
    assert result.detail["group_seconds"] < 5.0


def test_criterion_2_christoffel_darboux(suite):
    result = suite["by_name"]["christoffel_darboux"]
    _report("criterion 2 (reproducing-kernel identity, 100 pairs/sequence)", [result])
    assert result.bound == 1e-12
    assert result.detail["group_seconds"] < 2.0


def test_criterion_3_quadratic_exactness(suite):
    result = suite["by_name"]["quadratic_exactness"]
    _report("criterion 3 (quadratic minimum lattice, rel 1e-10)", [result])
    assert result.bound == 1e-10
    assert result.detail["group_seconds"] < 60.0
    # spot value: alpha=0, n=1, free pole 0, w=0.5
    spot = mu_min_closed_form(KernelSpec(0, 0.5), PoleSequence([0j]))
    assert spot == pytest.approx(4.0 / 27.0, rel=1e-14)


def test_criterion_4_oracle_equivalence(suite):
    results = [suite["by_name"]["oracle_equivalence"], suite["by_name"]["oracle_routes"]]
    _report("criterion 4 (least-squares oracle, rel 1e-8; routes 1e-9)", results)
    assert results[0].bound == 1e-8
    assert results[1].bound == 1e-9


def test_criterion_5_uniform_exactness(suite):
    results = [
        suite["by_name"]["uniform_exactness"],
        suite["by_name"]["equimodularity"],
        suite["by_name"]["competitor_scan"],
    ]
    _report("criterion 5 (uniform minimum, equimodularity, scans)", results)
    assert results[0].bound == 1e-6
    assert results[1].bound == 1e-9
    assert results[2].bound == 1e-9
    assert results[0].detail["group_seconds"] < 30.0
    spot = nu_min_closed_form(KernelSpec(0, 0.5), PoleSequence([0j]))
    assert spot == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_criterion_6_closed_form_and_interpolation(suite):
    results = [
        suite["by_name"]["approximant_closed_form"],
        suite["by_name"]["interpolation"],
        suite["by_name"]["competitor_membership"],
    ]
    _report(
        "criterion 6 (closed form 1e-12; interpolation residuals 1e-8; "
        "competitor class 1e-12)",
        results,
    )
    assert results[0].bound == 1e-12
    assert results[1].bound == 1e-8
    assert results[2].bound == 1e-12


def test_criterion_7_remainder_identity(suite):
    results = [suite["by_name"]["remainder_identity"], suite["by_name"]["remainder_modulus"]]
    _report("criterion 7 (two-sided remainder 1e-10; |J| rel 1e-10)", results)
    assert results[0].bound == 1e-10
    assert results[1].bound == 1e-10
    # the phase-aligned comparison is reported as a diagnostic
    assert results[1].detail["phase_aligned_residual"] < 1e-9


def test_criterion_8_quadratic_uniform_bound(suite):
    result = suite["by_name"]["quadratic_uniform_bound"]
    _report("criterion 8 (mu*(1-|w|^2) <= nu^2 + 1e-12, 100 competitors)", [result])
    assert result.bound == 1e-12


def test_criterion_9_parseval_gap(suite):
    result = suite["by_name"]["parseval_gap"]
    _report("criterion 9 (Parseval gap within 1e-10)", [result])
    assert result.bound == 1e-10


def test_criterion_10_degenerate_and_boundary(suite):
    results = [
        suite["by_name"]["degenerate_w_zero"],
        suite["by_name"]["boundary_mu"],
        suite["by_name"]["boundary_nu"],
        suite["by_name"]["boundary_rejection"],
    ]
    _report("criterion 10 (w=0 exact zeros; |w|=0.95 relaxed; rejection)", results)
    assert suite["by_name"]["degenerate_w_zero"].value == 0.0
    assert suite["by_name"]["boundary_mu"].bound == 1e-8
    assert suite["by_name"]["boundary_nu"].bound == 1e-5
    # grids were escalated automatically for |w| = 0.95
    assert all(g > 4096 for g in suite["by_name"]["boundary_mu"].detail["escalated_grids"])


def test_criterion_11_end_to_end_verify(suite, capsys, tmp_path):
    # full-suite runtime budget, library route (already measured once)
    assert suite["seconds"] < 180.0
    # cmd_verify end to end, twice, byte-deterministic verdicts and stdout
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    code_a = main(["verify", "--out", str(out_a)])
    stdout_a = capsys.readouterr().out
    code_b = main(["verify", "--out", str(out_b)])
    stdout_b = capsys.readouterr().out
    assert code_a == 0 and code_b == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert stdout_a == stdout_b
    verdict = json.loads(out_a.read_text())
    assert all(entry["pass"] for entry in verdict.values())
    # library verdict agrees with the CLI verdict
    assert verdict == verdict_dict(suite["results"])
    print("PASS criterion 11 (cmd_verify end-to-end, deterministic, "
          f"{suite['seconds']:.1f}s library run)")
