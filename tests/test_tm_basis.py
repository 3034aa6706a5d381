import cmath
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert seq.multiplicities == (1, 1, 2, 3, 1)

    def test_multiplicities_count_each_prefix(self):
        rng = np.random.default_rng(12)
        pool = [0.3, -0.4j, 0j, complex(0.3, -0.0)]
        seq = PoleSequence(rng.choice(pool, size=40))
        points = seq.points
        assert seq.multiplicities == tuple(
            sum(p == a for p in points[: m + 1]) for m, a in enumerate(points)
        )

    def test_s_nondecreasing_along_equal_runs(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            pool = [0.3, -0.4j, 0.1 + 0.1j]
            seq = PoleSequence(rng.choice(pool, size=8))
            seen = {}
            for a, s in zip(seq, seq.multiplicities):
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

    def test_subnormal_pole_keeps_a_unimodular_phase(self):
        # |a| of a subnormal a keeps few bits; the factor -|a|/a must still
        # have modulus 1, so phi_k agree in modulus with a zero pole's
        tiny = complex(-1.76253170323e-313, 1.35810002245e-313)
        z = np.exp(2j * np.pi * np.arange(8) / 8)
        phi = TMBasis([tiny, 0.3]).eval_all(z)
        reference = TMBasis([0j, 0.3]).eval_all(z)
        assert np.max(np.abs(np.abs(phi) - np.abs(reference))) < 1e-15

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

    def test_factor_polynomials(self):
        b = BlaschkeProduct([0.3, -0.4j])
        z = 0.2 + 0.1j
        numerator = (0.3 - z) * (-0.4j - z)
        denominator = (1 - 0.3 * z) * (1 - np.conj(-0.4j) * z)
        # B = tau * (-1)^k * numerator / denominator
        assert b(z) == pytest.approx(numerator / denominator)


@st.composite
def _disk_point(draw, low, high):
    modulus = draw(st.floats(low, high))
    return cmath.rect(modulus, draw(st.floats(0.0, 2.0 * math.pi)))


@st.composite
def _pole_sequence(draw):
    """One to 21 poles drawn with repeats from zero and up to four disk
    points of modulus at most 0.9."""
    pool = [0j] + draw(st.lists(_disk_point(0.0, 0.9), min_size=1, max_size=4))
    return PoleSequence(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=21)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_pole_sequence())
def test_discrete_gram_is_the_identity(poles):
    basis = TMBasis(poles)
    gram = basis.gram_matrix(GRID)
    assert np.max(np.abs(gram - np.eye(len(poles)))) <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    _pole_sequence(),
    st.lists(st.tuples(_disk_point(0.0, 0.8), _disk_point(0.0, 0.8)), min_size=1, max_size=8),
)
def test_reproducing_kernel_identity(poles, pairs):
    basis = TMBasis(poles)
    zs, zetas = zip(*pairs)
    for n in range(1, len(poles) + 1):
        assert christoffel_darboux_residual(basis, n, zs, zetas) < 1e-12


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


class TestNodeChunks:
    @pytest.mark.parametrize(
        "size, extended", [(2**15, False), (2**16, False), (2**15, True)]
    )
    def test_each_chunk_rounds_as_the_whole_grid(self, size, extended):
        # The grid passes evaluate the basis NODE_CHUNK nodes at a time and
        # must give the bits of a whole-grid evaluation.  numpy's temporary
        # elision rounds arrays under 256 KiB differently; if a numpy upgrade
        # moves that threshold, this fails before any output drifts.
        basis = TMBasis(RECURRENCE_POLES["repeated"])
        nodes = circle_grid(size, extended=extended).nodes
        whole = basis.eval_all(nodes)
        for start in range(0, size, tm_basis.NODE_CHUNK):
            part = slice(start, start + tm_basis.NODE_CHUNK)
            assert np.array_equal(basis.eval_all(nodes[part]), whole[:, part])

    def test_long_arrays_go_in_chunks(self):
        basis = TMBasis([0.3, -0.4j, 0.3])
        nodes = circle_grid(2**15).nodes
        parts = list(basis.eval_chunks(nodes, count=2))
        chunk = tm_basis.NODE_CHUNK
        assert [part for part, _ in parts] == [slice(0, chunk), slice(chunk, 2 * chunk)]
        for part, phi in parts:
            assert np.array_equal(phi, basis.eval_all(nodes[part], count=2))

    @pytest.mark.parametrize("z", [0.3 + 0.1j, np.zeros((2, 3)), circle_grid(2**14).nodes])
    def test_other_arrays_are_one_part(self, z):
        basis = TMBasis([0.3, -0.4j, 0.3])
        ((part, phi),) = basis.eval_chunks(z)
        assert part is Ellipsis
        assert np.array_equal(phi, basis.eval_all(z))

    @pytest.mark.parametrize("size", [2**14, 2**15])
    def test_stored_design_matrices_are_sliced_not_evaluated(self, size, monkeypatch):
        basis = TMBasis([0.3, -0.4j, 0.3])
        grid = circle_grid(size)
        design = basis.design_matrix(grid)
        real_eval = TMBasis.eval_all

        def eval_all(self, z, count=None):
            assert z is grid.nodes, "a chunk was evaluated again"
            return real_eval(self, z, count)

        monkeypatch.setattr(TMBasis, "eval_all", eval_all)
        for count in (None, 2):
            parts = list(basis.eval_chunks(grid.nodes, count))
            assert len(parts) == size // tm_basis.NODE_CHUNK
            for part, phi in parts:
                assert np.shares_memory(phi, design)
                assert not phi.flags.writeable
                assert np.array_equal(phi, design[part, : count or 3].T)


class TestDesignMemo:
    def test_second_call_returns_stored_read_only_matrix(self):
        basis = TMBasis([0.3, -0.4j, 0.3])
        grid = circle_grid(256)
        first = basis.design_matrix(grid)
        assert first is basis.design_matrix(grid)
        assert not first.flags.writeable
        assert np.array_equal(first, basis.eval_all(grid.nodes.copy()).T)

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

    def test_every_evaluation_is_bounded(self):
        nodes = circle_grid(2**16).nodes
        basis = TMBasis([0j] * 257)  # 2^16 points by 257 functions: 2^28 + 2^20 bytes
        tracemalloc.start()
        try:
            with pytest.raises(DesignTooLarge, match="269484032 bytes"):
                basis.eval_all(nodes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_cap_counts_the_bytes_of_the_grid_dtype(self, monkeypatch):
        monkeypatch.setattr(tm_basis, "MAX_DESIGN_BYTES", 256 * 3 * 16)
        basis = TMBasis([0.3, -0.4j, 0.5])
        assert basis.design_matrix(circle_grid(256)).nbytes == 256 * 3 * 16
        long_grid = circle_grid(256, extended=True)
        if np.dtype(np.clongdouble).itemsize > 16:
            with pytest.raises(DesignTooLarge):
                basis.design_matrix(long_grid)
        with pytest.raises(DesignTooLarge):
            TMBasis([0.3] * 4).design_matrix(circle_grid(256))

    @pytest.mark.parametrize(
        "poles, kept",
        [
            ([0.3, -0.4j] * 3, 1),
            ([0.3, -0.4j, 0.5 + 0.2j] * 2, 2),
            ([0j, 0.3, 0.3, 0j, 0j], 0),  # a zero pole keeps no arrays
            ([0.3] * 3 + [-0.4j] * 3, 0),  # nor does a run of equal poles
        ],
    )
    def test_kept_pairs_count_toward_the_cap(self, poles, kept, monkeypatch):
        # A pole's (scale, factor) pair, two arrays of the points' size, is
        # kept through the steps of other poles until its last occurrence.
        nodes = circle_grid(256).nodes
        basis = TMBasis(poles)
        size = 256 * (len(poles) + 2 * kept) * 16
        monkeypatch.setattr(tm_basis, "MAX_DESIGN_BYTES", size - 1)
        tracemalloc.start()
        try:
            with pytest.raises(DesignTooLarge, match=f"needs {size} bytes"):
                basis.eval_all(nodes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 16
        monkeypatch.setattr(tm_basis, "MAX_DESIGN_BYTES", size)
        assert same_bits(basis.eval_all(nodes), adjacent_only_eval_all(poles, nodes))


def adjacent_only_eval_all(poles, z, count=None):
    """The recurrence of TMBasis.eval_all as it was when a pole's
    (scale, factor) pair was reused only by the poles right after it: a
    non-adjacent repeat forms its pair again, from its own constants."""
    count = len(poles) if count is None else count
    z = np.asarray(z)
    zz = np.atleast_1d(z)
    out = np.empty((count,) + zz.shape, dtype=np.result_type(zz, np.complex128))
    running = np.ones(zz.shape, dtype=out.dtype)
    previous = None
    for k in range(count):
        a = complex(poles[k])
        if a != previous:
            if a == 0:
                scale, factor = None, zz
            else:
                denominator = 1.0 - a.conjugate() * zz
                scale = math.sqrt(1.0 - abs(a) ** 2) / denominator
                factor = tm_basis._phase(a) * (zz - a) / denominator
            previous = a
        out[k] = running if scale is None else scale * running
        if k + 1 < count:
            running = running * factor
    return out[:, 0] if z.ndim == 0 else out


def same_bits(a, b) -> bool:
    """Equal values with equal signs of zero, in both parts.  Long double
    arrays are compared by value: their padding bytes are undefined."""
    return a.shape == b.shape and a.dtype == b.dtype and all(
        np.array_equal(f(a), f(b))
        for f in (np.real, np.imag, lambda v: np.signbit(v.real), lambda v: np.signbit(v.imag))
    )


W = 0.3 - 0.4j
PAIR_POLES = {
    "non_adjacent": [0.5 + 0.2j, 0.3j, 0.5 + 0.2j, -0.4, 0.3j, 0.5 + 0.2j, 0.1 - 0.6j, -0.4],
    "interleaved_zeros": [0j, 0.5 + 0.2j, 0j, 0.5 + 0.2j, 0j, 0.7, 0j, 0.7, 0.7],
    # the full sequence of an approximant whose free poles include w = 0.3 - 0.4i
    "free_pole_at_w": list(PoleSequence([W, 0.2, W, 0.6j]).with_trailing(W, 3)),
    # equal poles, and the same pair, whatever the sign of a zero part
    "signed_zeros": [
        complex(0.5, 0.0), 0.2j, complex(0.5, -0.0), complex(-0.0, 0.3),
        complex(0.0, 0.3), complex(-0.4, -0.0), 0.1, complex(-0.4, 0.0),
    ],
}


def pair_points():
    rng = np.random.default_rng(43)
    on_axis = np.array([1.0, -1.0, 0.5, -0.3, 0.0, 0.4j], dtype=complex)
    return {
        "2^14 nodes": circle_grid(2**14).nodes,
        "4096 nodes": circle_grid(4096).nodes,
        "25 points": np.concatenate([on_axis, random_disk_points(rng, 19, 0.95)]),
        "scalar": np.complex128(0.3 - 0.2j),
        "4096 long double nodes": circle_grid(4096, extended=True).nodes,
    }


class TestPairReuse:
    @pytest.mark.parametrize("points", sorted(pair_points()))
    @pytest.mark.parametrize("kind", sorted(PAIR_POLES))
    def test_bit_for_bit_the_adjacent_only_recurrence(self, kind, points):
        # eval_all keeps a pole's pair across other poles; the recurrence
        # that formed it again at each non-adjacent repeat gives the same bits
        poles = PAIR_POLES[kind]
        z = pair_points()[points]
        basis = TMBasis(poles)
        for count in (len(poles), len(poles) - 2, 3, 1):
            assert same_bits(basis.eval_all(z, count), adjacent_only_eval_all(poles, z, count))
