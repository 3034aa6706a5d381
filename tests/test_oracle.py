import json
import tracemalloc

import numpy as np
import pytest

from diskrat import (
    DesignTooLarge,
    IllConditioned,
    KernelSpec,
    LeastSquaresProblem,
    PoleSequence,
    TMBasis,
    build_approximant,
    circle_grid,
    lsq_minimize,
    mu_functional,
    mu_min_closed_form,
    nu_functional,
    nu_min_closed_form,
    small_instance_exhaustive,
    uniform_competitor_scan,
)
from diskrat import oracle, tm_basis
from diskrat.bergman_approx import extended_mu
from diskrat.circlequad import sample_on_nodes
from diskrat.expansion import expand_function
from diskrat.tm_basis import PIECE_NODES, inner_products

GRID = circle_grid(4096)


class TestLeastSquares:
    def test_reproduces_basis_element(self):
        spec = KernelSpec(0, 0.5)
        basis = TMBasis([0.5, 0.3])
        problem = LeastSquaresProblem.build(spec, basis, GRID)
        # overwrite the target with phi_0 itself
        problem.target = basis.eval_all(GRID, count=1)[0]
        result = lsq_minimize(problem)
        assert abs(result.coefficients[0] - 1.0) < 1e-12
        assert abs(result.coefficients[1]) < 1e-12
        assert result.minimum < 1e-24

    def test_trailing_w_basis_matches_closed_form(self):
        spec = KernelSpec(0, 0.5)
        free = PoleSequence([0j])
        approx = build_approximant(spec, free)
        problem = LeastSquaresProblem.build(spec, approx.basis, GRID)
        result = lsq_minimize(problem)
        assert np.max(np.abs(result.coefficients - approx.coefficients)) < 1e-10
        closed = mu_min_closed_form(spec, free)
        assert abs(result.minimum - closed) / closed < 1e-8

    def test_all_zero_poles_minimum_is_series_tail(self):
        # oracle: tail of the squared binomial series, summed until it stops
        # changing in double precision
        spec = KernelSpec(0, 0.5)
        basis = TMBasis([0j, 0j])
        tail = 0.0
        k = 2
        while True:
            term = (k + 1) ** 2 * 0.25**k
            if term < 1e-18:
                break
            tail += term
            k += 1
        result = lsq_minimize(LeastSquaresProblem.build(spec, basis, GRID))
        assert abs(result.minimum - tail) / tail < 1e-12

    def test_inner_products_match_closed_form_coefficients(self):
        # the quadrature route of the oracle against the reproducing-property
        # coefficients of the approximant: two independent routes
        spec = KernelSpec(2, 0.6 - 0.2j)
        free = PoleSequence.random(5, np.random.default_rng(71), max_modulus=0.85)
        approx = build_approximant(spec, free)
        result = lsq_minimize(LeastSquaresProblem.build(spec, approx.basis, GRID))
        gap = np.max(np.abs(result.inner_coefficients - approx.coefficients))
        assert gap < 1e-12 * np.max(np.abs(approx.coefficients))

    def test_two_routes_agree(self):
        spec = KernelSpec(2, 0.6 - 0.2j)
        free = PoleSequence.random(4, np.random.default_rng(5), max_modulus=0.8)
        basis = TMBasis(free.with_trailing(spec.w, 3))
        result = lsq_minimize(LeastSquaresProblem.build(spec, basis, GRID))
        assert result.route_gap < 1e-9
        assert result.orthogonality_residual < 1e-10
        assert result.condition < 1.0 + 1e-8

    def test_extended_residual_rescues_tiny_minimum(self):
        # the solution row scored by mu_functional in long double, as
        # verify's quadratic group scores it; the double residual of the
        # solve misses the closed form by 7e-12 relative here
        spec = KernelSpec(2, 0.1)
        free = PoleSequence.random(6, np.random.default_rng(11), max_modulus=0.6)
        basis = TMBasis(free.with_trailing(spec.w, 3))
        closed = mu_min_closed_form(spec, free)
        assert extended_mu(closed)
        result = lsq_minimize(LeastSquaresProblem.build(spec, basis, GRID))
        minimum = mu_functional(spec, basis, result.coefficients, GRID, extended=True)
        assert abs(minimum - closed) / closed < 1e-9

    def test_normal_matrix_is_the_conjugate_gram(self):
        # 4 poles, one repeated: the normal-equations matrix is the basis's
        # Gram conjugated, byte for byte, and so the inner products of the
        # design with itself, which it was taken as before
        spec = KernelSpec(1, 0.4 - 0.2j)
        basis = TMBasis(PoleSequence([0.3, 0.3, -0.5j, 0.6 + 0.1j]))
        problem = LeastSquaresProblem.build(spec, basis, GRID)
        design = basis.design_matrix(GRID)
        assert problem.design is design
        assert problem.gram.tobytes() == np.conj(basis.gram_matrix(GRID)).tobytes()
        assert problem.gram.tobytes() == inner_products(design, design).tobytes()

    def test_rank_deficiency_raises(self):
        spec = KernelSpec(0, 0.5)
        free = PoleSequence.random(15, np.random.default_rng(2), max_modulus=0.8)
        basis = TMBasis(free.with_trailing(spec.w, 1))
        # 16 columns cannot be independent on 8 nodes
        problem = LeastSquaresProblem.build(spec, basis, circle_grid(8))
        with pytest.raises(IllConditioned) as err:
            lsq_minimize(problem)
        assert err.value.condition > 1e8 or not np.isfinite(err.value.condition)


def inner_product_bases():
    """Random, all-zero and repeated poles, each for a random kernel."""
    rng = np.random.default_rng(1801)
    repeated = PoleSequence.random(2, rng, max_modulus=0.8)
    poles = {
        "random": PoleSequence.random(9, rng, max_modulus=0.9),
        "zeros": PoleSequence([0j] * 7),
        "repeated": PoleSequence([repeated[0]] * 4 + [repeated[1]] * 5),
    }
    spec = KernelSpec(1, 0.45 - 0.3j)
    return [pytest.param(spec, TMBasis(p), id=name) for name, p in poles.items()]


class TestInnerProducts:
    """The one discrete inner product against the four spellings it replaced,
    each copied here: the basis's Gram, the oracle's normal-equations matrix
    and right-hand side, and its orthogonality residual.  Equal values are
    compared; the conjugate of an exact zero may flip its sign."""

    @pytest.mark.parametrize("nodes", [1024, 4096, 16384, 2**16])
    @pytest.mark.parametrize("spec, basis", inner_product_bases())
    def test_every_spelling_keeps_its_values(self, spec, basis, nodes):
        grid = circle_grid(nodes)
        design = basis.design_matrix(grid)
        weight = 1.0 / len(grid)
        old_gram = (design.T @ np.conj(design)) * weight
        assert np.array_equal(basis.gram_matrix(grid), old_gram)
        problem = LeastSquaresProblem.build(spec, basis, grid)
        old_normal = np.conj(old_gram)
        assert np.array_equal(problem.gram, old_normal)
        assert problem.condition == float(np.linalg.cond(old_normal))
        old_rhs = (np.conj(design).T @ problem.target) * weight
        old_solution = np.linalg.solve(old_normal, old_rhs)
        old_residual = problem.target - design @ old_solution
        old_orthogonality = float(np.max(np.abs((np.conj(design).T @ old_residual) * weight)))
        result = lsq_minimize(problem)
        assert np.array_equal(result.inner_coefficients, old_rhs)
        assert np.array_equal(result.coefficients, old_solution)
        assert result.orthogonality_residual == old_orthogonality
        assert np.array_equal(inner_products(design, old_residual),
                              (np.conj(design).T @ old_residual) * weight)
        expansion = expand_function(spec.bergman, basis, grid)
        values = sample_on_nodes(spec.bergman, grid)
        assert np.array_equal(expansion.coefficients, (np.conj(design).T @ values) * weight)

    @pytest.mark.parametrize("nodes", [2048, 16384])
    def test_one_vector_keeps_the_signs_of_exact_zeros(self, nodes):
        # monomials against a kernel at w = 0 on a symmetric grid: some inner
        # products have an imaginary part of exactly 0.0, which BLAS sums to
        # +0.0 and a conjugated result would print as -0.0
        design = TMBasis(PoleSequence([0j] * 9)).design_matrix(circle_grid(nodes))
        values = sample_on_nodes(KernelSpec(0, 0j).bergman, circle_grid(nodes))
        got = inner_products(design, values)
        want = (np.conj(design).T @ values) * (1.0 / nodes)
        assert np.any(want.imag == 0.0)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))
        assert np.array_equal(np.signbit(got.real), np.signbit(want.real))

    @pytest.mark.parametrize("gram", [True, False], ids=["gram", "vector"])
    def test_a_result_over_the_cap_is_refused_before_the_product(self, monkeypatch, gram):
        # 300 functions on 256 nodes, one piece: the Gram (1.44 MB) with the
        # conjugated design (1.23 MB), or one vector's result with its
        # conjugate, are counted
        grid = circle_grid(256)
        design = TMBasis(PoleSequence.random(300, np.random.default_rng(5))).design_matrix(grid)
        values = design if gram else np.ones(256, dtype=complex)
        size = (256 * (300 if gram else 1) + 300 * (300 if gram else 1)) * 16
        monkeypatch.setattr(tm_basis, "MAX_DESIGN_BYTES", size - 1)
        tracemalloc.start()
        try:
            with pytest.raises(DesignTooLarge, match=f"need {size} bytes"):
                inner_products(design, values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        monkeypatch.setattr(tm_basis, "MAX_DESIGN_BYTES", size)
        assert np.array_equal(
            inner_products(design, values), (np.conj(design).T @ values) * (1.0 / 256)
        )

    def test_an_oversized_gram_is_refused_before_the_design_is_built(self, monkeypatch):
        # the design of 300 functions on 256 nodes (1.23 MB) fits a cap that
        # its conjugate and the Gram (2.67 MB together) do not: neither the
        # basis's Gram nor the least-squares problem evaluates the design
        size = (256 * 300 + 300 * 300) * 16
        monkeypatch.setattr(tm_basis, "MAX_DESIGN_BYTES", size - 1)
        basis = TMBasis(PoleSequence.random(300, np.random.default_rng(5)))
        grid = circle_grid(256)
        tracemalloc.start()
        try:
            for build in (basis.gram_matrix, lambda grid: LeastSquaresProblem.build(
                    KernelSpec(0, 0.5), basis, grid)):
                with pytest.raises(DesignTooLarge, match=f"need {size} bytes"):
                    build(grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert basis._designs == {}

    @pytest.mark.parametrize("nodes", [16384, 2**15])
    def test_a_design_at_the_cap_builds_its_gram_within_one_piece_more(self, monkeypatch, nodes):
        # A design of 37 functions exactly at a scaled cap: its Gram
        # conjugates one piece of 9 to 10 (2^14 nodes) or 4 to 5 columns
        # (2^15) at a time, so the cap and the widest piece hold it, with
        # the Gram and a few hundred bytes.  A cap one byte short of the
        # piece and the Gram refuses it first.
        grid = circle_grid(nodes)
        basis = TMBasis(PoleSequence.random(37, np.random.default_rng(9), max_modulus=0.9))
        design_bytes = nodes * 37 * 16
        piece = nodes * (10 if nodes == 16384 else 5) * 16
        gram = 37 * 37 * 16
        monkeypatch.setattr(tm_basis, "MAX_DESIGN_BYTES", design_bytes)
        tracemalloc.start()
        try:
            design = basis.design_matrix(grid)
            tracemalloc.reset_peak()  # from the stored design on
            got = basis.gram_matrix(grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, (design.T @ np.conj(design)) * (1.0 / nodes))
        assert design.nbytes == design_bytes
        assert peak <= tm_basis.MAX_DESIGN_BYTES + piece + 2 * gram
        monkeypatch.setattr(tm_basis, "MAX_DESIGN_BYTES", piece + gram - 1)
        with pytest.raises(DesignTooLarge, match=f"need {piece + gram} bytes"):
            basis.gram_matrix(grid)

    def test_max_functions_is_the_side_of_a_gram_at_the_cap(self):
        # a Gram of MAX_FUNCTIONS fills the cap, so inner_products, which
        # counts a conjugated piece beside it, refuses it on any grid
        assert tm_basis.MAX_FUNCTIONS == 4096
        assert tm_basis.MAX_FUNCTIONS**2 * 16 == tm_basis.MAX_DESIGN_BYTES
        basis = TMBasis(PoleSequence([0j] * tm_basis.MAX_FUNCTIONS))
        with pytest.raises(DesignTooLarge, match="inner products of 4096 functions"):
            basis.gram_matrix(circle_grid(256))


class TestCompetitorScan:
    def test_optimum_included(self):
        approx = build_approximant(KernelSpec(0, 0.5), [0j])
        report = uniform_competitor_scan(approx, trials=1, seed=0)
        assert report.min_nu == pytest.approx(1.0 / 3.0, rel=1e-8)
        assert report.argmin_trial == 0

    def test_seeded_scan_never_beats_closed_form(self):
        approx = build_approximant(KernelSpec(0, 0.5), [0j])
        report = uniform_competitor_scan(approx, trials=100, seed=42)
        assert report.min_nu >= 1.0 / 3.0 - 1e-9
        assert report.closed_form == pytest.approx(1.0 / 3.0)

    def test_byte_determinism(self):
        approx = build_approximant(KernelSpec(1, 0.4j), [0.2])
        a = json.dumps(
            uniform_competitor_scan(approx, trials=25, seed=7).to_json_dict(), sort_keys=True
        )
        b = json.dumps(
            uniform_competitor_scan(approx, trials=25, seed=7).to_json_dict(), sort_keys=True
        )
        assert a == b
        payload = json.loads(a)
        assert payload["seed"] == 7 and payload["trials"] == 25
        assert payload["generator"] == "numpy PCG64"

    def test_scaling_one_coefficient_increases_nu(self):
        spec = KernelSpec(0, 0.5)
        approx = build_approximant(spec, [0j])
        scaled = approx.coefficients.copy()
        scaled[1] *= 1.01
        nu = nu_functional(spec, approx.basis, scaled, circle_grid(4096))
        assert nu > nu_min_closed_form(spec, approx.free_poles) + 1e-5

    @pytest.mark.parametrize(
        "spec, free, seed",
        [
            (KernelSpec(0, 0.5), [0j], 42),
            (KernelSpec(1, 0.4j), [0.2], 43),
            (KernelSpec(2, complex(-0.3, 0.2)), [0.25, -0.3j], 44),
        ],
    )
    def test_verify_scans_keep_their_argmin(self, spec, free, seed):
        # the per-trial scan picked the unperturbed optimum on all three
        approx = build_approximant(spec, free)
        report = uniform_competitor_scan(approx, trials=100, seed=seed)
        assert report.argmin_trial == 0
        assert np.array_equal(report.argmin_coefficients, approx.coefficients)

    def test_trials_validation(self):
        approx = build_approximant(KernelSpec(0, 0.5), [])
        with pytest.raises(ValueError):
            uniform_competitor_scan(approx, trials=0, seed=0)


def test_the_largest_oracle_shape_holds_its_design_and_a_few_pieces():
    # oracle's largest request shape, a stored 16384-node design of 37
    # functions, 9.7 MB.  Building the LSQ problem holds the design beside
    # the working arrays of its evaluation or one conjugated piece of 10
    # columns (2.6 MB) and the Gram; the solve holds conjugate vectors of
    # the nodes; a 100-trial scan holds the product of 37 rows on one
    # 4096-node part of the design, its moduli, kernel and multiplier.  A
    # whole conjugate design or a whole-part product needs four pieces more.
    spec = KernelSpec(2, 0.5 - 0.3j)
    approx = build_approximant(spec, PoleSequence.random(34, np.random.default_rng(4), 0.9))
    grid = circle_grid(16384)
    design = 16384 * 37 * 16
    piece = PIECE_NODES * 37 * 16
    peaks = []
    tracemalloc.start()
    try:
        problem = LeastSquaresProblem.build(spec, approx.basis, grid)
        for step in (lambda: None, lambda: lsq_minimize(problem),
                     lambda: uniform_competitor_scan(approx, 100, 7, grid)):
            tracemalloc.reset_peak()
            step()
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert problem.design.shape == (16384, 37)
    assert peaks[0] < design + 1.5 * piece
    assert peaks[1] < design + 0.5 * piece
    assert peaks[2] < design + 2.5 * piece


def small_settings(monkeypatch, grid_points, quad_nodes, half_width=0.5):
    """Set the exhaustive instance's candidates per axis, half width and
    quadrature nodes."""
    monkeypatch.setattr(oracle, "EXHAUSTIVE_GRID_POINTS", grid_points)
    monkeypatch.setattr(oracle, "EXHAUSTIVE_HALF_WIDTH", half_width)
    monkeypatch.setattr(oracle, "EXHAUSTIVE_QUAD_NODES", quad_nodes)


class TestSmallInstanceExhaustive:
    def test_degenerate_center(self, monkeypatch):
        small_settings(monkeypatch, grid_points=41, quad_nodes=1024)
        report = small_instance_exhaustive(KernelSpec(0, 0j))
        # K = 1 and phi_0 = 1: the optimum is c = 1 with zero error
        assert report.center == pytest.approx(1.0, abs=1e-13)
        assert report.grid_minimum < report.resolution**2

    def test_half_kernel_point(self, monkeypatch):
        small_settings(monkeypatch, grid_points=201, quad_nodes=1024)
        report = small_instance_exhaustive(KernelSpec(0, 0.5))
        assert report.closed_form == pytest.approx(0.25 / 0.421875, rel=1e-15)
        assert abs(report.grid_minimum - report.closed_form) < report.resolution**2

    def test_strong_kernel_point(self, monkeypatch):
        small_settings(monkeypatch, grid_points=201, quad_nodes=1024)
        report = small_instance_exhaustive(KernelSpec(0, 0.8))
        assert report.closed_form == pytest.approx(0.64 / 0.36**3, rel=1e-14)
        assert abs(report.grid_minimum - report.closed_form) < report.resolution**2

    def test_alpha_restriction(self):
        with pytest.raises(ValueError):
            small_instance_exhaustive(KernelSpec(1, 0.5))

    @pytest.mark.parametrize("w", [0.5 + 0.1j, -0.7j])
    def test_matches_brute_force(self, w, monkeypatch):
        spec = KernelSpec(0, w)
        grid = circle_grid(4096)
        small_settings(monkeypatch, grid_points=21, half_width=0.5, quad_nodes=4096)
        report = small_instance_exhaustive(spec)
        # brute force: the error modulus squared averaged over the nodes,
        # for every candidate of the same 21 x 21 square
        kernel = spec.bergman(grid)
        phi0 = np.sqrt(1.0 - abs(w) ** 2) / (1.0 - np.conj(w) * grid)
        center = np.mean(kernel * np.conj(phi0))
        steps = np.linspace(-0.5, 0.5, 21)
        candidates = ((center.real + steps)[:, None] + 1j * (center.imag + steps)[None, :]).ravel()
        mu = np.mean(np.abs(kernel[None, :] - candidates[:, None] * phi0[None, :]) ** 2, axis=1)
        j = int(np.argmin(mu))
        assert report.center == center
        assert report.argmin == candidates[j]
        assert report.grid_minimum == pytest.approx(mu[j], rel=1e-13)
        assert abs(report.grid_minimum - report.closed_form) < report.resolution**2

    def test_report_serializes(self, monkeypatch):
        small_settings(monkeypatch, grid_points=41, quad_nodes=1024)
        report = small_instance_exhaustive(KernelSpec(0, 0.5))
        data = report.to_json_dict()
        assert data["grid_points"] == 41
        assert json.dumps(data)


def hand_written_scan_json(report):
    """ScanReport.to_json_dict as it was written out key by key."""
    return {
        "seed": report.seed,
        "trials": report.trials,
        "min_nu": report.min_nu,
        "argmin_trial": report.argmin_trial,
        "argmin_coefficients": [[c.real, c.imag] for c in report.argmin_coefficients],
        "closed_form": report.closed_form,
        "margin": report.margin,
        "generator": report.generator,
    }


def hand_written_lsq_json(result):
    """LsqResult.to_json_dict as it was written out key by key."""
    return {
        "coefficients": [[c.real, c.imag] for c in result.coefficients],
        "minimum": result.minimum,
        "route_gap": result.route_gap,
        "condition": result.condition,
        "orthogonality_residual": result.orthogonality_residual,
    }


def hand_written_small_instance_json(report):
    """SmallInstanceReport.to_json_dict as it was written out key by key."""
    return {
        "w": [report.w.real, report.w.imag],
        "grid_points": report.grid_points,
        "half_width": report.half_width,
        "resolution": report.resolution,
        "center": [report.center.real, report.center.imag],
        "grid_minimum": report.grid_minimum,
        "argmin": [report.argmin.real, report.argmin.imag],
        "closed_form": report.closed_form,
    }


def dumped(data):
    return json.dumps(data, sort_keys=True, indent=2)


class TestReportJson:
    @pytest.mark.parametrize(
        "spec, free, trials, seed",
        [
            (KernelSpec(0, 0.5), [0j], 100, 42),
            (KernelSpec(2, complex(-0.3, 0.2)), [0.25, -0.3j], 7, 3),
            (KernelSpec(1, -0.4j), [], 1, 0),
        ],
    )
    def test_scan_json_is_the_hand_written_dict(self, spec, free, trials, seed):
        report = uniform_competitor_scan(build_approximant(spec, free), trials, seed)
        data = report.to_json_dict()
        assert data == hand_written_scan_json(report)
        assert dumped(data) == dumped(hand_written_scan_json(report))
        assert all(type(x) is float for pair in data["argmin_coefficients"] for x in pair)

    @pytest.mark.parametrize(
        "spec, free, nodes",
        [
            (KernelSpec(0, 0.5), [0j], 4096),
            (KernelSpec(2, complex(-0.3, 0.2)), [0.25, -0.3j], 1024),
            (KernelSpec(1, -0.4j), [], 16384),
        ],
    )
    def test_lsq_json_is_the_hand_written_dict(self, spec, free, nodes):
        basis = build_approximant(spec, free).basis
        result = lsq_minimize(LeastSquaresProblem.build(spec, basis, circle_grid(nodes)))
        data = result.to_json_dict()
        assert data == hand_written_lsq_json(result)
        assert dumped(data) == dumped(hand_written_lsq_json(result))
        assert list(data) == list(hand_written_lsq_json(result))
        assert all(type(x) is float for pair in data["coefficients"] for x in pair)

    @pytest.mark.parametrize("w", [0.5, complex(0.3, -0.2), 0j, complex(-0.0, -0.6)])
    def test_small_instance_json_is_the_hand_written_dict(self, w, monkeypatch):
        small_settings(monkeypatch, grid_points=41, quad_nodes=1024)
        report = small_instance_exhaustive(KernelSpec(0, w))
        data = report.to_json_dict()
        assert dumped(data) == dumped(hand_written_small_instance_json(report))
        assert list(data) == list(hand_written_small_instance_json(report))
