import json
import tracemalloc

import numpy as np
import pytest

from diskrat import (
    BlaschkeProduct,
    DesignTooLarge,
    IndexOutOfRange,
    KernelSpec,
    PointNotInDisk,
    PoleSequence,
    TMBasis,
    christoffel_darboux_residual,
    circle_grid,
    expand_kernel,
    integrate_circle,
)
from diskrat import tm_basis

GRID = circle_grid(4096)


def random_disk_points(rng, count, max_modulus):
    radii = max_modulus * np.sqrt(rng.uniform(0, 1, count))
    return radii * np.exp(2j * np.pi * rng.uniform(0, 1, count))


class TestPoleSequence:
    def test_multiplicity_bookkeeping(self):
        seq = PoleSequence([0.3, -0.4j, 0.3, 0.3, 0.5])
        assert [seq.multiplicity_in_prefix(m) for m in range(len(seq))] == [1, 1, 2, 3, 1]

    def test_s_nondecreasing_along_equal_runs(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            pool = [0.3, -0.4j, 0.1 + 0.1j]
            seq = PoleSequence(rng.choice(pool, size=8))
            seen = {}
            for m in range(len(seq)):
                s = seq.multiplicity_in_prefix(m)
                a = seq[m]
                assert s == seen.get(a, 0) + 1
                seen[a] = s

    def test_json_round_trip_order_significant(self):
        seq = PoleSequence([0.3, -0.4j, 0.0, 0.3])
        text = json.dumps([[p.real, p.imag] for p in seq])
        again = PoleSequence(complex(*p) for p in json.loads(text))
        assert again == seq
        reordered = PoleSequence([-0.4j, 0.3, 0.0, 0.3])
        assert reordered != seq

    def test_rejects_points_outside_disk(self):
        with pytest.raises(PointNotInDisk):
            PoleSequence([0.3, 1.0 - 1e-10])

    def test_rejects_non_finite_points(self):
        with pytest.raises(PointNotInDisk):
            PoleSequence([complex(np.nan, 0)])
        with pytest.raises(PointNotInDisk):
            PoleSequence([0.3, complex(np.inf, np.nan)])

    def test_random_draw_respects_bounds(self):
        seq = PoleSequence.random(50, np.random.default_rng(3), max_modulus=0.7, min_modulus=0.2)
        moduli = [abs(p) for p in seq]
        assert max(moduli) <= 0.7 + 1e-12
        assert min(moduli) >= 0.2 - 1e-12


class TestTMBasis:
    def test_zero_poles_give_monomials(self):
        basis = TMBasis([0j] * 6)
        rng = np.random.default_rng(1)
        for z in random_disk_points(rng, 10, 0.95):
            values = basis.eval_all(z)
            for k in range(6):
                assert values[k] == pytest.approx(z**k, abs=1e-15)

    def test_first_function_direct_substitution(self):
        basis = TMBasis([0.5])
        assert basis.eval_all(0.0)[0] == pytest.approx(np.sqrt(0.75), abs=1e-15)

    def test_gram_entry_and_full_gram(self):
        basis = TMBasis([0.3, -0.4j, 0.5, 0.2])
        entry = integrate_circle(
            lambda t: basis.eval_all(t)[2] * np.conj(basis.eval_all(t)[3]), GRID
        )
        assert abs(entry) < 1e-12
        gram = basis.gram_matrix(GRID)
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12

    def test_orthonormality_random_sequences(self):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            count = int(rng.integers(2, 21))
            basis = TMBasis(PoleSequence.random(count, rng=rng, max_modulus=0.9))
            gram = basis.gram_matrix(GRID)
            assert np.max(np.abs(gram - np.eye(count))) < 1e-12

    def test_index_out_of_range(self):
        basis = TMBasis([0.3])
        with pytest.raises(IndexOutOfRange):
            basis.eval_all(0.0, count=2)
        with pytest.raises(IndexOutOfRange):
            basis.blaschke(2)

    def test_degree_recurrence(self):
        poles = PoleSequence([0.3, -0.4j, 0.5, 0.2 + 0.1j])
        basis = TMBasis(poles)
        rng = np.random.default_rng(2)
        for z in random_disk_points(rng, 8, 0.9):
            phi = basis.eval_all(z)
            for k in range(3):
                a_k, a_k1 = poles[k], poles[k + 1]
                lhs = (
                    phi[k + 1]
                    * (1 - np.conj(a_k1) * z)
                    / np.sqrt(1 - abs(a_k1) ** 2)
                )
                rhs = (
                    phi[k]
                    * (1 - np.conj(a_k) * z)
                    / np.sqrt(1 - abs(a_k) ** 2)
                    * (-abs(a_k) / a_k)
                    * (z - a_k)
                    / (1 - np.conj(a_k) * z)
                )
                assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_functions_analytic_inside_disk(self):
        # no poles inside: values stay bounded on a dense disk sample
        basis = TMBasis([0.9, -0.85j, 0.8])
        rng = np.random.default_rng(3)
        values = basis.eval_all(random_disk_points(rng, 200, 0.999))
        assert np.all(np.isfinite(values))


class TestBlaschke:
    def test_degree_zero_is_one(self):
        b = BlaschkeProduct([])
        for z in (0.0, 0.5j, 1.0, -0.9):
            assert b(z) == pytest.approx(1.0)

    def test_zero_at_pole(self):
        b = BlaschkeProduct([0.5])
        assert abs(b(0.5)) < 1e-15

    def test_unimodular_on_circle(self):
        b = BlaschkeProduct([0.3, -0.4j])
        z = np.exp(1j * np.pi / 7)
        assert abs(abs(b(z)) - 1.0) < 1e-14
        grid = circle_grid(512)
        assert np.max(np.abs(np.abs(b(grid.nodes)) - 1.0)) < 1e-13

    def test_contractive_inside(self):
        b = BlaschkeProduct([0.3, -0.4j, 0.6])
        rng = np.random.default_rng(4)
        for z in random_disk_points(rng, 50, 0.99):
            assert abs(b(z)) < 1.0

    def test_tau_must_be_unimodular(self):
        with pytest.raises(ValueError):
            BlaschkeProduct([0.3], tau=2.0)

    def test_tm_phase_convention(self):
        assert BlaschkeProduct([0j, 0j]).tm_phase() == 1.0
        phase = BlaschkeProduct([0.5j]).tm_phase()
        assert abs(phase - (-abs(0.5j) / 0.5j)) < 1e-15
        assert abs(abs(phase) - 1.0) < 1e-15

    def test_factor_polynomials(self):
        b = BlaschkeProduct([0.3, -0.4j])
        z = 0.2 + 0.1j
        numerator = (0.3 - z) * (-0.4j - z)
        denominator = (1 - 0.3 * z) * (1 - np.conj(-0.4j) * z)
        # B = tau * (-1)^k * numerator / denominator
        assert b(z) == pytest.approx(numerator / denominator)


class TestChristoffelDarboux:
    def test_origin_identity(self):
        # at z = zeta = 0 the identity reads (1 - |a_0|^2) + |a_0|^2 = 1
        basis = TMBasis([0.6])
        assert christoffel_darboux_residual(basis, 1, 0.0, 0.0) < 1e-15

    def test_all_zero_poles_is_geometric_truncation(self):
        basis = TMBasis([0j, 0j, 0j])
        z, zeta = 0.2, 0.5j
        assert christoffel_darboux_residual(basis, 3, z, zeta) < 1e-14
        # independent oracle: the truncated geometric series identity
        q = np.conj(z) * zeta
        lhs = sum(q**k for k in range(3)) + q**3 / (1 - q)
        assert lhs == pytest.approx(1.0 / (1.0 - q), abs=1e-15)

    def test_random_poles_random_points(self):
        basis = TMBasis([0.6, 0.1 + 0.7j, -0.5])
        rng = np.random.default_rng(5)
        zs = random_disk_points(rng, 30, 0.8)
        zetas = random_disk_points(rng, 30, 0.8)
        for z, zeta in zip(zs, zetas):
            for n in range(1, 4):
                assert christoffel_darboux_residual(basis, n, z, zeta) < 1e-12

    def test_arrays_of_pairs_match_the_pairwise_maximum(self):
        basis = TMBasis([0.6, 0.1 + 0.7j, -0.5, 0j])
        rng = np.random.default_rng(6)
        zs = random_disk_points(rng, 40, 0.8)
        zetas = random_disk_points(rng, 40, 0.8)
        for n in range(1, 5):
            batched = christoffel_darboux_residual(basis, n, zs, zetas)
            pairwise = max(
                christoffel_darboux_residual(basis, n, z, zeta) for z, zeta in zip(zs, zetas)
            )
            assert abs(batched - pairwise) < 1e-15

    @pytest.mark.parametrize("bad", [1.0, np.nan, 1.0 - 1e-10])
    def test_every_point_of_an_array_is_checked(self, bad):
        basis = TMBasis([0.3])
        with pytest.raises(PointNotInDisk):
            christoffel_darboux_residual(basis, 1, [0.1, bad], [0.2, 0.3])
        with pytest.raises(PointNotInDisk):
            christoffel_darboux_residual(basis, 1, [0.1, 0.2], [bad, 0.3])

    def test_phase_freedom(self):
        basis = TMBasis([0.6, 0.1 + 0.7j, -0.5])
        z, zeta = 0.3 - 0.2j, -0.1 + 0.4j
        base = christoffel_darboux_residual(basis, 3, z, zeta)
        injected = christoffel_darboux_residual(
            basis, 3, z, zeta, tau=np.exp(0.9j)
        )
        assert abs(base - injected) < 1e-14

    def test_n_range_validation(self):
        basis = TMBasis([0.3])
        with pytest.raises(IndexOutOfRange):
            christoffel_darboux_residual(basis, 0, 0.1, 0.2)
        with pytest.raises(IndexOutOfRange):
            christoffel_darboux_residual(basis, 2, 0.1, 0.2)


def per_k_reference(poles, k, z):
    """phi_k(z) written out: sqrt(1 - |a_k|^2) / (1 - conj(a_k) z) times the
    product of (-|a_j|/a_j) (z - a_j) / (1 - conj(a_j) z) over j < k (z at a
    zero pole), in the operation order of a running product."""
    z = np.asarray(z)
    running = np.ones(z.shape, dtype=np.result_type(z, np.complex128))
    for a in poles[:k]:
        factor = z if a == 0 else (-abs(a) / a) * (z - a) / (1.0 - np.conj(a) * z)
        running = running * factor
    a = poles[k]
    return np.sqrt(1.0 - abs(a) ** 2) / (1.0 - np.conj(a) * z) * running


RECURRENCE_POLES = {
    "random": list(PoleSequence.random(9, np.random.default_rng(31), max_modulus=0.9)),
    "zeros": [0j] * 6,
    "repeated": [0.3, 0.3, -0.4j, 0j, 0j, 0.3, 0.5 + 0.2j, 0.5 + 0.2j, 0.5 + 0.2j],
}


class TestRecurrence:
    @pytest.mark.parametrize("kind", sorted(RECURRENCE_POLES))
    @pytest.mark.parametrize("extended", [False, True])
    @pytest.mark.parametrize("shape", ["scalar", "1d", "2d"])
    def test_matches_per_k_formula(self, kind, extended, shape):
        poles = RECURRENCE_POLES[kind]
        basis = TMBasis(poles)
        nodes = circle_grid(64, extended=extended).nodes
        rng = np.random.default_rng(41)
        inside = random_disk_points(rng, 64, 0.95).astype(nodes.dtype)
        points = np.concatenate([nodes, inside])
        z = {"scalar": points[3], "1d": points, "2d": points.reshape(8, 16)}[shape]
        values = basis.eval_all(z)
        assert values.shape == (len(poles),) + np.shape(z)
        assert values.dtype == np.result_type(z, np.complex128)
        # numpy scalar arithmetic rounds differently from its array loops, so
        # the reference runs on arrays too
        zz = np.atleast_1d(z)
        for k in range(len(poles)):
            reference = per_k_reference(poles, k, zz).reshape(np.shape(z))
            assert np.array_equal(values[k], reference)

    def test_count_prefix(self):
        basis = TMBasis(RECURRENCE_POLES["repeated"])
        z = circle_grid(32).nodes
        assert np.array_equal(basis.eval_all(z, count=4), basis.eval_all(z)[:4])
        assert basis.eval_all(z, count=0).shape == (0, 32)
        with pytest.raises(IndexOutOfRange):
            basis.eval_all(z, count=10)


class TestDesignMemo:
    def test_second_call_returns_stored_read_only_matrix(self):
        basis = TMBasis([0.3, -0.4j, 0.3])
        grid = circle_grid(256)
        first = basis.design_matrix(grid)
        assert first is basis.design_matrix(grid)
        assert not first.flags.writeable
        assert np.array_equal(first, basis.eval_all(grid.nodes.copy()).T)
        assert np.shares_memory(basis.design_matrix(grid, count=2), first)
        assert np.array_equal(basis.design_matrix(grid, count=2), first[:, :2])
        with pytest.raises(IndexOutOfRange):
            basis.design_matrix(grid, count=4)

    def test_eval_all_on_stored_nodes_does_not_evaluate(self):
        basis = TMBasis([0.3, -0.4j, 0.3])
        grid = circle_grid(256)
        design = basis.design_matrix(grid)
        for count in (None, 2):
            values = basis.eval_all(grid.nodes, count=count)
            assert np.shares_memory(values, design)
            assert not values.flags.writeable
            assert np.array_equal(values, design[:, : count or 3].T)

    def test_partial_sum_leaves_no_entry(self):
        spec = KernelSpec(1, 0.4)
        basis = TMBasis([0.2, 0.4, 0.4])
        grid = circle_grid(512)
        expand_kernel(spec, basis).partial_sum(3, grid.nodes)
        first = basis.eval_all(grid.nodes)
        assert first.flags.writeable
        assert not np.shares_memory(first, basis.eval_all(grid.nodes))

    def test_writeable_copy_of_nodes_is_evaluated_fresh(self):
        basis = TMBasis([0.3, -0.4j, 0.3])
        grid = circle_grid(256)
        design = basis.design_matrix(grid)
        nodes = grid.nodes.copy()
        values = basis.eval_all(nodes)
        assert not np.shares_memory(values, design)
        assert np.array_equal(values, design.T)

    def test_entries_are_per_basis_and_per_grid(self):
        grid = circle_grid(256)
        one, two = TMBasis([0.3]), TMBasis([0.3])
        assert not np.shares_memory(one.design_matrix(grid), two.design_matrix(grid))
        long_grid = circle_grid(256, extended=True)
        assert one.design_matrix(long_grid).dtype == np.clongdouble
        assert one.design_matrix(grid).dtype == np.complex128


class TestDesignBound:
    def test_over_the_cap_raises_before_allocating(self):
        grid = circle_grid(2**16)
        basis = TMBasis([0j] * 4000)  # 2^16 nodes by 4000 functions: 4.2 GB
        tracemalloc.start()
        try:
            with pytest.raises(DesignTooLarge, match="4194304000 bytes"):
                basis.design_matrix(grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_cap_counts_the_bytes_of_the_grid_dtype(self, monkeypatch):
        monkeypatch.setattr(tm_basis, "MAX_DESIGN_BYTES", 256 * 3 * 16)
        basis = TMBasis([0.3, -0.4j, 0.3])
        assert basis.design_matrix(circle_grid(256)).nbytes == 256 * 3 * 16
        long_grid = circle_grid(256, extended=True)
        if np.dtype(np.clongdouble).itemsize > 16:
            with pytest.raises(DesignTooLarge):
                basis.design_matrix(long_grid)
        with pytest.raises(DesignTooLarge):
            TMBasis([0.3] * 4).design_matrix(circle_grid(256))
