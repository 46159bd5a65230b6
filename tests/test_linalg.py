import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsep import linalg, states
from qsep.config import RANK_TOL
from qsep.exceptions import ConvergenceError

IDENTITY_PERM = (0, 1, 2, 3, 4, 5)


def compose_perms(pi, sigma) -> tuple:
    """Composition pi o sigma acting as (pi o sigma)[k] = pi[sigma[k]]."""
    return tuple(pi[sigma[k]] for k in range(len(sigma)))


def rank_with_tolerance(a, tol: float = RANK_TOL) -> int:
    """Count of eigenvalues of a Hermitian matrix with |value| > tol."""
    return int(np.sum(np.abs(linalg.hermitian_eigenvalues(a)) > tol))


def random_hermitian(rng, n, batch=None):
    shape = (n, n) if batch is None else (batch, n, n)
    m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return (m + np.conj(np.swapaxes(m, -1, -2))) / 2


class TestHermitianEigenvalues:
    def test_uniform_identity(self):
        vals = linalg.hermitian_eigenvalues(np.eye(8) / 8)
        assert np.allclose(vals, np.full(8, 1 / 8), atol=1e-14)

    def test_pure_ghz_spectrum(self):
        # (3 + 21g - 3w)/24 = 1 at g=1 and seven zeros
        from qsep import states

        rho = states.build_rho(states.SimplexPoint(1.0, 0.0))
        vals = linalg.hermitian_eigenvalues(rho)
        assert abs(vals[0] - 1.0) < 1e-12
        assert np.all(np.abs(vals[1:]) < 1e-12)

    def test_interior_point_closed_forms(self):
        from qsep import states

        g, w = 0.3, 0.4
        rho = states.build_rho(states.SimplexPoint(g, w))
        vals = linalg.hermitian_eigenvalues(rho)
        expected = np.sort(
            [(3 + 21 * g - 3 * w) / 24, (3 - 3 * g + 21 * w) / 24]
            + [(3 - 3 * g - 3 * w) / 24] * 6
        )[::-1]
        assert np.max(np.abs(vals - expected)) < 1e-13

    def test_matches_lapack_on_random_batch(self):
        rng = np.random.default_rng(7)
        for n in (2, 4, 8, 16):
            h = random_hermitian(rng, n, batch=20)
            mine = linalg.hermitian_eigenvalues(h)
            ref = np.sort(np.linalg.eigvalsh(h), axis=-1)[:, ::-1]
            assert np.max(np.abs(mine - ref)) < 1e-12

    def test_rejects_non_hermitian(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="not Hermitian"):
            linalg.hermitian_eigenvalues(a)

    def test_eigenvalue_sum_equals_trace(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(rng, 8, batch=50)
        vals = linalg.hermitian_eigenvalues(h)
        traces = np.einsum("bii->b", h).real
        assert np.max(np.abs(vals.sum(axis=1) - traces)) < 1e-10

    def test_sweep_cap_reported(self, monkeypatch):
        rng = np.random.default_rng(21)
        h = random_hermitian(rng, 8)
        monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 1)
        with pytest.raises(ConvergenceError, match="off-diagonal"):
            linalg.jacobi_eigh(h)

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="cap"):
            linalg.jacobi_eigh(np.eye(65))


def lattice(resolution):
    n = resolution
    i = np.concatenate([np.full(n + 1 - k, k) for k in range(n + 1)])
    j = np.concatenate([np.arange(n + 1 - k) for k in range(n + 1)])
    return i / n, j / n


def assorted_hermitian(rng, n):
    """A random Hermitian matrix of one of the kinds that stress Jacobi:
    dense, tiny or huge scale, diagonal, rank one, or zero."""
    kind = rng.integers(5)
    if kind == 0:
        return random_hermitian(rng, n) * 10.0 ** rng.uniform(-12, 3)
    if kind == 1:
        return np.diag(rng.normal(size=n)).astype(complex)
    if kind == 2:
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        return np.outer(v, np.conj(v)) / np.vdot(v, v).real
    if kind == 3:
        return np.zeros((n, n), dtype=complex)
    return random_hermitian(rng, n)


class TestEigh:
    def test_sorted_non_increasing(self):
        rng = np.random.default_rng(1)
        vals = linalg.eigh(random_hermitian(rng, 8, batch=30))
        assert vals.shape == (30, 8)
        assert np.all(np.diff(vals, axis=-1) <= 0.0)

    def test_matches_jacobi_reference(self):
        rng = np.random.default_rng(2)
        h = random_hermitian(rng, 8, batch=40)
        assert np.max(np.abs(linalg.eigh(h) - linalg.jacobi_eigh(h))) < 1e-12

    def test_template_families_match_jacobi(self):
        g, w = lattice(20)
        for matrices in (
            states.build_rho_grid(g, w),
            linalg.permute_indices(states.build_rho_grid(g, w), linalg.TRANSPOSE_1_PERM),
            states.REDUCTION_1I23_BLOCKS.family(states.evaluate_forms(g, w)),
        ):
            assert not np.any(matrices.imag)
            diff = np.abs(linalg.eigh(matrices) - linalg.jacobi_eigh(matrices))
            assert np.max(diff) < 1e-12

    def test_vectors_diagonalize(self):
        rng = np.random.default_rng(4)
        h = random_hermitian(rng, 6, batch=5)
        vals, vecs = linalg.eigh(h, vectors=True)
        rebuilt = (vecs * vals[:, None, :]) @ np.conj(np.swapaxes(vecs, -1, -2))
        assert np.max(np.abs(rebuilt - h)) < 1e-12

    def test_non_finite_input_is_convergence_error(self):
        h = np.eye(4)
        h[1, 1] = np.nan
        with pytest.raises(ConvergenceError, match="LAPACK"):
            linalg.eigh(h)

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="cap"):
            linalg.eigh(np.eye(65))


class TestJacobiReference:
    def test_converges_on_reshuffle_222_gram_batch(self):
        # the whole R = 50 batch used to drive converged members into
        # subnormal off-diagonals and end in "worst off-diagonal norm nan"
        m = linalg.permute_indices(states.build_rho_grid(*lattice(50)), linalg.RESHUFFLE_23_PERM)
        gram = m @ np.conj(np.swapaxes(m, -1, -2))
        vals = linalg.jacobi_eigh(gram)
        ref = np.linalg.eigvalsh(gram)[:, ::-1]
        assert np.max(np.abs(vals - ref)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 8),
        size=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_spectrum_independent_of_batch(self, n, size, seed, data):
        rng = np.random.default_rng(seed)
        batch = np.stack([assorted_hermitian(rng, n) for _ in range(size)])
        k = data.draw(st.integers(0, size - 1))
        for solver in (linalg.jacobi_eigh, linalg.eigh):
            assert np.array_equal(solver(batch)[k], solver(batch[k])), solver.__name__


class TestSingularValues:
    def test_zero_matrix(self):
        assert np.all(linalg.singular_values(np.zeros((4, 16))) == 0.0)

    def test_white_noise_reshuffle(self):
        from qsep import states

        r = states.reshuffle_24_matrix(states.build_rho(states.SimplexPoint(0.0, 0.0)))
        svs = linalg.singular_values(r)
        expected = np.array([1 / (2 * np.sqrt(2)), 0.0, 0.0, 0.0])
        assert np.max(np.abs(svs - expected)) < 1e-12

    def test_pure_ghz_reshuffle(self):
        from qsep import states

        r = states.reshuffle_24_matrix(states.build_rho(states.SimplexPoint(1.0, 0.0)))
        assert np.max(np.abs(linalg.singular_values(r) - 0.5)) < 1e-12

    def test_adjoint_invariance(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(4, 16)) + 1j * rng.normal(size=(4, 16))
        s1 = linalg.singular_values(a)
        s2 = linalg.singular_values(np.conj(a.T))
        assert np.max(np.abs(s1 - s2)) < 1e-12

    def test_matches_lapack(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(linalg.singular_values(a) - ref)) < 1e-11


class TestTraceNorm:
    def test_density_matrix_is_one(self):
        from qsep import states

        for g, w in ((0.0, 0.0), (0.3, 0.2), (1.0, 0.0)):
            rho = states.build_rho(states.SimplexPoint(g, w))
            assert abs(linalg.trace_norm(rho) - 1.0) < 1e-12

    def test_reshuffle_222_white_noise(self):
        from qsep import states

        rho = states.build_rho(states.SimplexPoint(0.0, 0.0))
        r = linalg.permute_indices(rho, linalg.RESHUFFLE_23_PERM)
        assert abs(linalg.trace_norm(r) - 0.5) < 1e-12

    def test_reshuffle_222_pure_ghz(self):
        from qsep import states

        rho = states.build_rho(states.SimplexPoint(1.0, 0.0))
        r = linalg.permute_indices(rho, linalg.RESHUFFLE_23_PERM)
        assert abs(linalg.trace_norm(r) - 2.0) < 1e-12

    def test_rank_one_unit_norm_is_one(self):
        rng = np.random.default_rng(17)
        u = rng.normal(size=8) + 1j * rng.normal(size=8)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        a = np.outer(u / np.linalg.norm(u), np.conj(v / np.linalg.norm(v)))
        assert abs(linalg.trace_norm(a) - 1.0) < 1e-14

    def test_invariant_under_permutations(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        base = linalg.trace_norm(a)
        for _ in range(5):
            pu = rng.permutation(8)
            pv = rng.permutation(8)
            assert abs(linalg.trace_norm(a[np.ix_(pu, pv)]) - base) < 1e-11


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(linalg.psd_sqrt(np.eye(4)), np.eye(4), atol=1e-13)

    def test_diagonal(self):
        b = linalg.psd_sqrt(np.diag([4.0, 1.0, 0.0, 0.0]))
        assert np.allclose(b, np.diag([2.0, 1.0, 0.0, 0.0]), atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(17)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        a = m @ np.conj(m.T)
        b = linalg.psd_sqrt(a)
        assert np.max(np.abs(b @ b - a)) < 1e-9
        assert linalg.hermiticity_defect(b) < 1e-12

    def test_marginal_round_trip(self):
        from qsep import states

        rho23 = states.MARGINAL_23_BLOCKS.family(states.evaluate_forms([0.0], [1.0]))[0]
        b = linalg.psd_sqrt(rho23)
        assert np.max(np.abs(b @ b - rho23)) < 1e-9

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="not PSD"):
            linalg.psd_sqrt(np.diag([1.0, -1e-6]))


class TestRank:
    def test_full_rank_interior(self):
        from qsep import states

        rho = states.build_rho(states.SimplexPoint(0.3, 0.4))
        assert rank_with_tolerance(rho) == 8

    def test_pure_ghz(self):
        from qsep import states

        rho = states.build_rho(states.SimplexPoint(1.0, 0.0))
        assert rank_with_tolerance(rho) == 1

    def test_ghz_w_mixture(self):
        from qsep import states

        rho = states.build_rho(states.SimplexPoint(0.5, 0.5))
        assert rank_with_tolerance(rho) == 2


class TestPermuteIndices:
    def test_identity(self):
        from qsep import states

        rho = states.build_rho(states.SimplexPoint(0.2, 0.2))
        assert np.array_equal(linalg.permute_indices(rho, IDENTITY_PERM), rho)

    def test_transpose_first_matches_pattern(self):
        from qsep import states

        p = states.SimplexPoint(0.25, 0.35)
        dt, gt, wt = states.renormalized_weights(p.g, p.w)
        pt = linalg.permute_indices(states.build_rho(p), linalg.TRANSPOSE_1_PERM)
        # the published rho^T1: rho's diagonal, gt at (3, 4), wt at (0, 5), (0, 6), (1, 2)
        pattern = np.diag([dt + gt, dt + wt, dt + wt, dt, dt + wt, dt, dt, dt + gt])
        pattern[3, 4] = pattern[4, 3] = gt
        for i, j in ((0, 5), (0, 6), (1, 2)):
            pattern[i, j] = pattern[j, i] = wt
        assert np.max(np.abs(pt - pattern)) < 1e-14

    def test_reshuffle_23_matches_pattern(self):
        from qsep import states

        p = states.SimplexPoint(0.15, 0.45)
        dt, gt, wt = states.renormalized_weights(p.g, p.w)
        rp = linalg.permute_indices(states.build_rho(p), linalg.RESHUFFLE_23_PERM)
        # [R'(rho)]_{ijj',i'kk'} = rho_{ijk,i'j'k'}, entry by entry
        pattern = np.zeros((8, 8))
        for (i, j), value in {
            (0, 0): dt + gt, (0, 3): dt + wt, (0, 6): wt, (1, 2): wt, (1, 5): gt,
            (2, 1): wt, (2, 4): wt, (3, 0): dt + wt, (3, 3): dt, (4, 1): wt,
            (4, 4): dt + wt, (4, 7): dt, (5, 0): wt, (6, 2): gt, (7, 4): dt, (7, 7): dt + gt,
        }.items():
            pattern[i, j] = value
        assert np.max(np.abs(rp - pattern)) < 1e-14

    def test_batch_equals_each_member(self):
        rng = np.random.default_rng(29)
        batch = rng.normal(size=(5, 8, 8)) + 1j * rng.normal(size=(5, 8, 8))
        for perm in (linalg.TRANSPOSE_1_PERM, linalg.RESHUFFLE_23_PERM, tuple(rng.permutation(6))):
            whole = linalg.permute_indices(batch, perm)
            for k in range(batch.shape[0]):
                assert np.array_equal(whole[k], linalg.permute_indices(batch[k], perm))

    def test_composition(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        for _ in range(10):
            pi = tuple(rng.permutation(6))
            sigma = tuple(rng.permutation(6))
            left = linalg.permute_indices(linalg.permute_indices(a, sigma), pi)
            right = linalg.permute_indices(a, compose_perms(pi, sigma))
            assert np.array_equal(left, right)

    def test_keeps_real_input_real_and_complex_input_complex(self):
        rng = np.random.default_rng(31)
        real = rng.normal(size=(3, 8, 8))
        for perm in (IDENTITY_PERM, linalg.TRANSPOSE_1_PERM, linalg.RESHUFFLE_23_PERM):
            assert linalg.permute_indices(real, perm).dtype == np.float64
            assert linalg.permute_indices(real[0], perm).dtype == np.float64
            as_complex = linalg.permute_indices(real.astype(np.complex128), perm)
            assert as_complex.dtype == np.complex128
            assert np.array_equal(as_complex.real, linalg.permute_indices(real, perm))
        assert linalg.permute_indices(np.eye(8, dtype=int), IDENTITY_PERM).dtype == np.float64

    def test_rejects_malformed(self):
        with pytest.raises(ValueError, match="permutation"):
            linalg.permute_indices(np.eye(8), (0, 0, 1, 2, 3, 4))
        with pytest.raises(ValueError, match="8x8"):
            linalg.permute_indices(np.eye(4), IDENTITY_PERM)


ALL_LAYOUTS = tuple(states.FAMILIES)


def simplex_cells(count, seed):
    rng = np.random.default_rng(seed)
    u, v = rng.random(count), rng.random(count)
    flip = u + v > 1.0
    return np.where(flip, 1.0 - u, u), np.where(flip, 1.0 - v, v)


def spectra(layout, g, w):
    """The block spectra of ``layout`` at (g, w) from a pass of its own."""
    (values,) = linalg.block_spectra((layout,), states.evaluate_forms(g, w))
    return values


def with_row(layout, entry, shift):
    """``layout`` built again with ``shift`` added to the row of its entry ``[i, j]``."""
    table = layout.table.copy()
    table[entry[0] * layout.shape[1] + entry[1]] += shift
    return dataclasses.replace(layout, table=table)


def probe(shape, blocks, **kwargs):
    """The layout of a family whose entries are all 0."""
    n = shape[0] * shape[1]
    return linalg.BlockLayout("probe", shape, blocks, np.zeros((n, 3), dtype=np.int64),
                              np.zeros(n, dtype=np.intp), **kwargs)


class TestBlockSpectra:
    def test_nonzero_off_block_row_fails_at_build_naming_matrix_and_entry(self):
        # [5, 6] couples the 1x1 blocks {5} and {6}; the table is checked when the layout
        # is built, so no pass reads an entry outside its blocks
        with pytest.raises(ValueError, match=r"^rho: entry \[5, 6\] lies outside every block "
                                             r"but is not 0: its row is \[0, 0, 1\]$"):
            with_row(states.RHO_BLOCKS, (5, 6), (0, 0, 1))
        for layout in ALL_LAYOUTS:  # each declared table, built again, passes
            dataclasses.replace(layout)

    def test_asymmetric_block_of_a_singular_value_layout_raises(self):
        # R'(rho)[0, 3], in the first 3x3 block, with a row of its own: the block is no
        # longer symmetric, and the layout refuses the table
        with pytest.raises(ValueError, match=r"^R'\(rho\) .*: entry \[0, 3\] differs from its "
                                             r"mirror in a symmetric block"):
            with_row(states.RESHUFFLE_23_BLOCKS, (0, 3), (1, 0, 0))

    def test_each_cell_keeps_its_bits_in_any_batch(self):
        # alone, in a batch of 64 and in a 4,096-cell chunk, for every family
        g, w = simplex_cells(4096, 17)
        for layout in ALL_LAYOUTS:
            chunk = spectra(layout, g, w)
            assert chunk.shape == (4096, layout.width)
            small = spectra(layout, g[:64], w[:64])
            assert small.tobytes() == chunk[:64].tobytes(), layout.name
            for k in (0, 5, 63):
                one = spectra(layout, g[k:k + 1], w[k:k + 1])
                assert one.tobytes() == chunk[k:k + 1].tobytes(), layout.name

    def test_a_familys_values_do_not_depend_on_the_other_families_of_its_pass(self, monkeypatch):
        # (1e-320, 1.0), whose rho (0, 7) block is [[5e-321, 5e-321], [5e-321, 5e-321]],
        # sends its kernel step into dsyevd's scaling branch, shared there with thousands of
        # other problems; no step boundary of the pooled problems falls on a family's edge
        g, w = simplex_cells(5000, 23)
        g, w = np.concatenate([[1e-320, 0.0, 1.0, 0.0], g]), np.concatenate([[1.0, 0.0, 0.0, 1.0], w])
        step = linalg._KERNEL_STEP
        problems = sum(layout.problems.shape[1] for layout in ALL_LAYOUTS) * g.size
        assert problems > step and all(k % g.size for k in range(step, problems, step))
        scaled = []
        real = linalg._dsyevd_2x2
        monkeypatch.setattr(linalg, "_dsyevd_2x2", lambda a, b, c: (
            scaled.append(a.size) if np.any(a == 5e-321) else None) or real(a, b, c))
        pooled = linalg.block_spectra(ALL_LAYOUTS, states.evaluate_forms(g, w))
        assert scaled == [step]
        for layout, values in zip(ALL_LAYOUTS, pooled):
            assert values.tobytes() == spectra(layout, g, w).tobytes(), layout.name

    def test_layout_rejects_a_non_square_singular_block_of_three_rows_or_one_column(self):
        # one row takes a norm and two rows one rotation; nothing else has a kernel
        for shape, rows, cols in (((3, 6), (0, 1, 2), range(6)), ((2, 1), (0, 1), (0,))):
            with pytest.raises(ValueError, match=r"^probe: a non-square singular-value block has "
                                                 r"one row, or two rows and more columns"):
                probe(shape, ((rows, tuple(cols)),), singular=True)

    def test_reshuffle_matches_full_matrix_lapack_svd_on_the_r400_lattice(self):
        g, w = lattice(400)
        forms = states.evaluate_forms(g, w)
        values = np.sort(spectra(states.RESHUFFLE_24_BLOCKS, g, w), axis=-1)[:, ::-1]
        full = np.linalg.svd(states.RESHUFFLE_24_BLOCKS.family(forms), compute_uv=False)
        assert np.max(np.abs(values - full)) <= 1e-15

    def test_layout_rejects_overlapping_or_non_square_eigenvalue_blocks(self):
        with pytest.raises(ValueError, match="overlap"):
            probe((3, 3), (((0, 1), (0, 1)), ((1, 2), (1, 2))))
        with pytest.raises(ValueError, match="rows == columns"):
            probe((3, 3), (((0, 1), (1, 2)),))
        with pytest.raises(ValueError, match="no 3x3 block"):
            probe((4, 4), (((0, 1), (0, 1)), ((2, 3), (2, 3))), mirrors=((0, 1),))

    def test_split_blocks_match_lapack_on_the_whole_block(self):
        # the mirror split against eigvalsh of the 3x3 block it replaces
        g, w = simplex_cells(500, 4)
        split_families = set()
        forms = states.evaluate_forms(g, w)
        for layout in ALL_LAYOUTS:
            values = spectra(layout, g, w)
            matrices = layout.family(forms).reshape(g.size, -1)
            start = 0  # the first output slot of each block
            for rows, cols in layout.blocks:
                if len(rows) == 3 and any(set(m) <= set(rows) for m in layout.mirrors):
                    block = np.array(rows)
                    flat = (block[:, None] * layout.shape[1] + block).reshape(-1)
                    full = np.linalg.eigvalsh(matrices[:, flat].reshape(-1, 3, 3))
                    split = np.sort(values[:, start:start + 3], axis=-1)
                    assert np.max(np.abs(split - full)) <= 4 * np.finfo(float).eps, layout.name
                    split_families.add(layout)
                start += min(len(rows), len(cols))
        assert split_families == {layout for layout in ALL_LAYOUTS if layout.mirrors}


ROW_PAIRS = ("random", "equal rows", "orthogonal rows", "equal norms", "rank one", "zero")


def row_pairs(kind, n, count, rng):
    """``count`` 2 x n blocks, shape (count, 2, n), whose rows are of the given kind."""
    r1 = rng.normal(size=(count, n))
    if kind == "random":
        r2 = rng.normal(size=(count, n))
    elif kind == "equal rows":
        r2 = r1.copy()
    elif kind == "orthogonal rows":  # disjoint supports: r1.r2 is exactly 0
        r2 = rng.normal(size=(count, n))
        r1[:, n // 2:], r2[:, :n // 2] = 0.0, 0.0
    elif kind == "equal norms":  # |r1| == |r2| exactly, r1.r2 != 0 unless the signs cancel
        r2 = r1 * rng.choice([-1.0, 1.0], size=(count, n))
    elif kind == "rank one":
        r2 = r1 * rng.normal(size=(count, 1))
    else:
        r1 = r2 = np.zeros((count, n))
    return np.stack([r1, r2], axis=1)


def rotation(blocks):
    """``linalg.two_row_singular_values`` of (count, 2, n) blocks, as (count, 2)."""
    return linalg.two_row_singular_values(np.transpose(blocks, (2, 1, 0))).T


class TestTwoRowSingularValues:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(ROW_PAIRS), st.integers(2, 8), st.integers(-300, 300),
           st.integers(-300, 300), st.integers(0, 2**32 - 1))
    def test_matches_lapack_to_a_few_ulps_of_the_largest(self, kind, n, first, second, seed):
        # each row scaled on its own, from 1e-300 to 1e300
        blocks = row_pairs(kind, n, 20, np.random.default_rng(seed))
        blocks *= np.array([10.0**first, 10.0**second])[:, None]
        ref = np.linalg.svd(blocks, compute_uv=False)
        found = rotation(blocks)
        assert np.all(np.abs(found - ref) <= 10 * np.spacing(ref[:, :1])), kind
        assert np.all(found[:, 0] >= found[:, 1])

    def test_edge_cases(self):
        ones = np.ones((1, 2, 6))
        assert rotation(ones).tolist() == [[np.sqrt(12.0), 0.0]]  # equal rows: rank one
        orthogonal = np.array([[[1.0, 1.0], [1.0, -1.0]]])  # a == b and c == 0
        assert rotation(orthogonal).tolist() == [[np.sqrt(2.0), np.sqrt(2.0)]]
        assert rotation(np.zeros((3, 2, 6))).tolist() == [[0.0, 0.0]] * 3
        # huge, tiny and subnormal blocks keep their values
        for scale in (1e300, 1e-300, 5e-324):
            found, ref = rotation(ones * scale)[0], np.linalg.svd(ones[0] * scale, compute_uv=False)
            assert np.all(np.abs(found - ref) <= 10 * np.spacing(ref[0])), scale

    def test_each_block_keeps_its_bits_in_any_batch(self):
        blocks = row_pairs("random", 6, 5000, np.random.default_rng(8))
        whole = rotation(blocks)
        for k in (0, 17, 4999):
            assert rotation(blocks[k:k + 1]).tobytes() == whole[k:k + 1].tobytes()

    def test_keeps_batch_axes(self):
        columns = np.random.default_rng(2).normal(size=(6, 2, 3, 4))
        found = linalg.two_row_singular_values(columns)
        assert found.shape == (2, 3, 4)
        assert found[:, 1, 2].tolist() == linalg.two_row_singular_values(columns[:, :, 1, 2]).tolist()


def lapack_2x2(a, b, c):
    m = np.stack([np.stack([a, b], axis=-1), np.stack([b, c], axis=-1)], axis=-2)
    return np.linalg.eigvalsh(m)


def assert_within_2_ulps(a, b, c):
    low, high = linalg.eigvalsh_2x2(a, b, c)
    ref = lapack_2x2(a, b, c)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.abs(c))
    # ulps of the largest entry; np.spacing(0.0) is the smallest subnormal
    tol = 2 * np.spacing(scale)
    assert np.all(np.abs(low - ref[..., 0]) <= tol) and np.all(np.abs(high - ref[..., 1]) <= tol)
    assert np.all(low <= high)
    return low, high, ref


class TestEigvalsh2x2:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.tuples(*[st.floats(-1e300, 1e300, allow_nan=False, allow_subnormal=True)] * 3),
        min_size=1, max_size=40,
    ))
    def test_matches_lapack_to_2_ulps_of_the_largest_entry(self, entries):
        a, b, c = (np.array(x) for x in zip(*entries))
        assert_within_2_ulps(a, b, c)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-300, 300), st.integers(0, 2**32 - 1))
    def test_matches_lapack_at_any_scale(self, exponent, seed):
        a, b, c = np.random.default_rng(seed).normal(size=(3, 50)) * 10.0**exponent
        assert_within_2_ulps(a, b, c)

    def test_edge_cases(self):
        rng = np.random.default_rng(11)
        x, y = rng.random(200), rng.random(200)
        cases = {
            "zero off-diagonal": (x, 0.0 * x, y),
            "equal diagonals": (x, y, x),
            "a + c = 0": (x, y, -x),
            "1e-300 scale": (x * 1e-300, y * 1e-300, (x - y) * 1e-300),
            "subnormal off-diagonal": (x, np.full(200, 5e-324) * rng.integers(1, 1000, 200), y),
            "zero matrix": (0.0 * x, 0.0 * x, 0.0 * x),
        }
        for name, (a, b, c) in cases.items():
            low, high, ref = assert_within_2_ulps(a, b, c)
            assert np.all(np.isfinite(low)) and np.all(np.isfinite(high)), name
        low, high = linalg.eigvalsh_2x2(np.array([0.0]), np.array([0.0]), np.array([0.0]))
        assert low[0] == high[0] == 0.0

    def test_keeps_the_shape_and_each_problem_is_independent(self):
        a, b, c = np.random.default_rng(3).normal(size=(3, 9000, 4))
        low, high = linalg.eigvalsh_2x2(a, b, c)
        assert low.shape == high.shape == (9000, 4)
        one_low, one_high = linalg.eigvalsh_2x2(a[8191:8192], b[8191:8192], c[8191:8192])
        assert one_low.tobytes() == low[8191:8192].tobytes()
        assert one_high.tobytes() == high[8191:8192].tobytes()
