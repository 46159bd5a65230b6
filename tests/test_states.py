import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsep import linalg, states
from qsep.states import SimplexPoint


def at(builder, p):
    """A batch builder's matrix at one point: the builder on a batch of one."""
    return builder(np.array([p.g]), np.array([p.w]))[0]


def partial_transpose_1(p):
    return linalg.permute_indices(states.build_rho(p), linalg.TRANSPOSE_1_PERM)


def reduction_matrices(p):
    return at(states.reduction_i123_grid, p), at(states.reduction_1i23_grid, p)


QUBIT_PERMUTATIONS = (
    (0, 1, 2),
    (0, 2, 1),
    (1, 0, 2),
    (1, 2, 0),
    (2, 0, 1),
    (2, 1, 0),
)


def permute_qubits(rho: np.ndarray, qperm) -> np.ndarray:
    """Conjugate an 8x8 operator by the permutation sending qubit k to slot qperm[k]."""
    full = tuple(qperm) + tuple(3 + k for k in qperm)
    return linalg.permute_indices(rho, full)


def _rho_map(perm):
    return lambda g, w: linalg.permute_indices(states.build_rho_grid(g, w), perm)


# every matrix family the criteria diagonalize: its declared block layout, and a builder
# of its full matrices written here, independently of the layout's own map
BLOCK_FAMILIES = {
    states.RHO_BLOCKS: states.build_rho_grid,
    states.TRANSPOSE_1_BLOCKS: _rho_map(linalg.TRANSPOSE_1_PERM),
    states.RESHUFFLE_23_BLOCKS: _rho_map(linalg.RESHUFFLE_23_PERM),
    states.MARGINAL_23_BLOCKS: states.marginal_23_grid,
    states.MARGINAL_1_BLOCKS: states.marginal_1_grid,
    states.REDUCTION_I123_BLOCKS: states.reduction_i123_grid,
    states.REDUCTION_1I23_BLOCKS: states.reduction_1i23_grid,
    states.RESHUFFLE_24_BLOCKS: lambda g, w: states.reshuffle_24_matrix(states.build_rho_grid(g, w)),
}


def seeded_and_edge_cells(count=500, seed=9):
    """Seeded interior cells, then the three edges and the three vertices."""
    rng = np.random.default_rng(seed)
    u, v = rng.random(count), rng.random(count)
    flip = u + v > 1.0
    t = np.linspace(0.0, 1.0, 41)
    g = np.concatenate([np.where(flip, 1.0 - u, u), t, 0.0 * t, t, [0.0, 1.0, 0.0]])
    w = np.concatenate([np.where(flip, 1.0 - v, v), 0.0 * t, t, 1.0 - t, [0.0, 0.0, 1.0]])
    return g, w


def support_components(support):
    """Connected components of a rows x columns support pattern, as (rows, columns) sets;
    an all-zero column forms no component."""
    rows, cols = support.shape
    parent = list(range(rows + cols))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, j in zip(*np.nonzero(support)):
        parent[root(int(i))] = root(rows + int(j))
    members: dict[int, list[int]] = {}
    for x in range(rows + cols):
        members.setdefault(root(x), []).append(x)
    return {
        (frozenset(x for x in m if x < rows), frozenset(x - rows for x in m if x >= rows))
        for m in members.values() if m[0] < rows
    }


def simplex_grid(n=20):
    pts = []
    for i in range(n + 1):
        for j in range(n + 1 - i):
            pts.append(SimplexPoint(i / n, j / n))
    return pts


class TestSimplexPoint:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SimplexPoint(-0.1, 0.2)

    def test_rejects_overweight(self):
        with pytest.raises(ValueError):
            SimplexPoint(0.7, 0.4)

    def test_derived_weights(self):
        p = SimplexPoint(0.2, 0.3)
        assert abs(p.d - 0.5) < 1e-15
        dt, gt, wt = states.renormalized_weights(p.g, p.w)
        assert abs(dt - 0.0625) < 1e-15
        assert abs(gt - 0.1) < 1e-15
        assert abs(wt - 0.1) < 1e-15


class TestBuildRho:
    def test_white_noise(self):
        rho = states.build_rho(SimplexPoint(0.0, 0.0))
        assert np.allclose(rho, np.eye(8) / 8, atol=1e-15)

    def test_pure_ghz(self):
        rho = states.build_rho(SimplexPoint(1.0, 0.0))
        ghz = states.ghz_vector()
        assert np.max(np.abs(rho - np.outer(ghz, ghz.conj()))) < 1e-15

    def test_pptes_point_scaled_integers(self):
        rho = states.build_rho(SimplexPoint(0.2, 0.2))
        assert np.max(np.abs(rho * 120 - states.PPTES_NUMERATOR)) < 1e-13

    def test_template_equals_mixture_path(self):
        for p in simplex_grid(12):
            a = states.build_rho(p)
            b = at(states.build_rho_mixture_grid, p)
            assert np.max(np.abs(a - b)) < 1e-15

    def test_trace_one_hermitian(self):
        for p in simplex_grid(8):
            rho = states.build_rho(p)
            assert abs(np.trace(rho).real - 1.0) < 1e-12
            assert linalg.hermiticity_defect(rho) == 0.0

    def test_permutation_invariance(self):
        p = SimplexPoint(0.23, 0.41)
        rho = states.build_rho(p)
        for qperm in QUBIT_PERMUTATIONS:
            assert np.max(np.abs(permute_qubits(rho, qperm) - rho)) < 1e-15

    def test_every_cut_has_the_spectrum_of_the_1_23_cut(self):
        # the symmetry that lets rho^T1 stand for all three bipartite cuts
        rng = np.random.default_rng(11)
        g, w = rng.random(64), rng.random(64)
        flip = g + w > 1.0
        g[flip], w[flip] = 1.0 - g[flip], 1.0 - w[flip]
        g, w = np.append(g, [0.0, 0.3, 1.0 / 3.0, 0.0]), np.append(w, [0.0, 0.0, 0.0, 1.0])
        rho = states.build_rho_grid(g, w)
        closed = states.closed_form_spectra_grid(g, w)["rho_t1"]
        rho_t1 = linalg.permute_indices(rho, linalg.TRANSPOSE_1_PERM)
        transposes = [  # on qubit 2, on qubit 3
            linalg.permute_indices(rho, perm) for perm in ((0, 4, 2, 3, 1, 5), (0, 1, 5, 3, 4, 2))
        ]
        transposes += [permute_qubits(rho_t1, qperm) for qperm in QUBIT_PERMUTATIONS]
        for matrices in transposes:
            assert np.max(np.abs(linalg.eigh(matrices) - closed)) < 1e-13

    def test_every_cut_has_the_reduction_and_reshuffle_spectra_of_the_1_23_cut(self):
        # the k|rest cut built directly: qubit k traced out and the identity put back in its
        # place, and the reshuffle with qubit k as the first party
        rng = np.random.default_rng(12)
        g, w = rng.random(64), rng.random(64)
        flip = g + w > 1.0
        g[flip], w[flip] = 1.0 - g[flip], 1.0 - w[flip]
        g, w = np.append(g, [0.0, 0.3, 1.0 / 3.0, 0.0]), np.append(w, [0.0, 0.0, 0.0, 1.0])
        rho = states.build_rho_grid(g, w)
        tensor = rho.reshape((-1,) + (2,) * 6)
        eye2 = np.eye(2)
        expected = (
            linalg.eigh(states.reduction_i123_grid(g, w)),
            linalg.eigh(states.reduction_1i23_grid(g, w)),
            linalg.singular_values(states.reshuffle_24_matrix(rho)),
        )
        for k in (1, 2):  # qubit 2 and qubit 3, as 0-based tensor axes
            rest = [q for q in range(3) if q != k]
            # qubit k first, then the other two, on both sides
            order = [0, 1 + k, 1 + rest[0], 1 + rest[1], 4 + k, 4 + rest[0], 4 + rest[1]]
            moved = tensor.transpose(order)
            rho_rest = np.einsum("nkabkcd->nabcd", moved)  # qubit k traced out
            rho_k = np.einsum("niabjab->nij", moved)  # the other two traced out
            i_rest = np.einsum("ij,nabcd->niabjcd", eye2, rho_rest)
            k_i = np.einsum("nij,ac,bd->niabjcd", rho_k, eye2, eye2)
            back = np.argsort(order)  # the moved axes back in qubit order
            reductions = [(m.transpose(back).reshape(-1, 8, 8) - rho) for m in (i_rest, k_i)]
            reshuffle = moved.reshape(-1, 2, 4, 2, 4).swapaxes(2, 3).reshape(-1, 4, 16)
            found = (linalg.eigh(reductions[0]), linalg.eigh(reductions[1]),
                     linalg.singular_values(reshuffle))
            for value, want in zip(found, expected):
                assert np.max(np.abs(value - want)) < 1e-13, k


class TestMarginals:
    def test_white_noise(self):
        p = SimplexPoint(0.0, 0.0)
        rho23, rho1 = at(states.marginal_23_grid, p), at(states.marginal_1_grid, p)
        assert np.allclose(rho23, np.eye(4) / 4, atol=1e-15)
        assert np.allclose(rho1, np.eye(2) / 2, atol=1e-15)

    def test_ghz_marginal_diagonal(self):
        rho23 = at(states.marginal_23_grid, SimplexPoint(1.0, 0.0))
        assert np.max(np.abs(rho23 - np.diag(np.diag(rho23)))) < 1e-15

    def test_w_state_one_qubit_marginal(self):
        rho1 = at(states.marginal_1_grid, SimplexPoint(0.0, 1.0))
        assert np.allclose(rho1, np.diag([2 / 3, 1 / 3]), atol=1e-15)

    def test_templates_equal_generic_maps_of_the_mixture(self):
        points = simplex_grid(12)
        g, w = np.array([p.g for p in points]), np.array([p.w for p in points])
        mixture = states.build_rho_mixture_grid(g, w)
        rho23, rho1 = states.partial_trace_1(mixture), states.partial_trace_23(mixture)
        pairs = (
            (states.marginal_23_grid(g, w), rho23),
            (states.marginal_1_grid(g, w), rho1),
            (states.reduction_i123_grid(g, w), np.kron(np.eye(2)[None], rho23) - mixture),
            (states.reduction_1i23_grid(g, w), np.kron(rho1, np.eye(4)[None]) - mixture),
        )
        for template, generic in pairs:
            assert np.max(np.abs(template - generic)) <= states.TEMPLATE_TOL


class TestTemplateDtypes:
    SUM_BUILT = (
        states.build_rho_grid, states.marginal_23_grid, states.marginal_1_grid,
        states.reduction_i123_grid, states.reduction_1i23_grid,
    )

    def test_sum_built_templates_are_float64(self):
        g, w = np.array([0.0, 0.2, 0.5]), np.array([0.0, 0.2, 0.5])
        for build in self.SUM_BUILT:
            assert build(g, w).dtype == np.float64, build.__name__
        assert states.build_rho(SimplexPoint(0.2, 0.2)).dtype == np.float64

    def test_independent_mixture_stays_complex(self):
        assert states.build_rho_mixture_grid([0.2], [0.2]).dtype == np.complex128


class TestBlockLayouts:
    def test_families_is_the_one_list_of_layouts(self):
        declared = {value for value in vars(states).values() if isinstance(value, linalg.BlockLayout)}
        assert declared == set(states.FAMILIES)
        assert set(BLOCK_FAMILIES) == set(states.FAMILIES)
        closed = set(states.closed_form_spectra_grid(np.array([0.2]), np.array([0.2])))
        assert {key for key in states.FAMILIES.values() if key is not None} <= closed

    def test_family_builds_the_full_matrices_through_the_layout_map(self):
        g, w = seeded_and_edge_cells()
        for layout, build in BLOCK_FAMILIES.items():
            built = layout.family((layout.template or states.build_rho_grid)(g, w))
            assert np.array_equal(built, build(g, w)), layout.name

    def test_each_layout_is_the_components_of_its_support(self):
        g, w = seeded_and_edge_cells()
        for layout, build in BLOCK_FAMILIES.items():
            support = np.any(build(g, w) != 0.0, axis=0)
            declared = {(frozenset(r), frozenset(c)) for r, c in layout.blocks}
            assert support_components(support) == declared, layout.name

    @given(
        st.one_of(
            st.sampled_from([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1 / 3, 0.0), (0.2, 0.0),
                             (2 / 13, 3 / 13), (0.2, 0.2)]),
            st.tuples(st.floats(0.0, 1.0), st.sampled_from([0.0])),
            st.tuples(st.sampled_from([0.0]), st.floats(0.0, 1.0)),
            st.floats(0.0, 1.0).map(lambda t: (t, 1.0 - t)),
            st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(
                lambda p: p if p[0] + p[1] <= 1.0 else (1.0 - p[0], 1.0 - p[1])),
        )
    )
    def test_block_spectra_match_full_lapack(self, point):
        g, w = np.array([point[0]]), np.array([point[1]])
        for layout, build in BLOCK_FAMILIES.items():
            matrices = build(g, w)
            spectra = linalg.block_spectra(layout, (layout.template or states.build_rho_grid)(g, w), g, w)
            blocks = np.sort(spectra, axis=-1)[:, ::-1]
            full = linalg.singular_values(matrices) if layout.singular else linalg.eigh(matrices)
            assert np.max(np.abs(blocks - full)) <= linalg.BLOCK_TOL, (layout.name, point)

    def test_each_layout_reads_its_family_from_its_template(self):
        # the composed index maps gather exactly the entries of the built family
        g, w = seeded_and_edge_cells()
        for layout, build in BLOCK_FAMILIES.items():
            source = (layout.template or states.build_rho_grid)(g, w)
            gathered = source.reshape(g.size, -1)[:, layout.index]
            assert np.array_equal(gathered, build(g, w).reshape(g.size, -1)), layout.name


class TestGenericMaps:
    def test_batch_equals_each_member(self):
        rng = np.random.default_rng(5)
        batch = rng.normal(size=(6, 8, 8)) + 1j * rng.normal(size=(6, 8, 8))
        for fn in (states.partial_trace_1, states.partial_trace_23, states.reshuffle_24_matrix):
            whole = fn(batch)
            for k in range(batch.shape[0]):
                assert np.array_equal(whole[k], fn(batch[k])), fn.__name__

    def test_reject_non_8x8(self):
        for fn in (states.partial_trace_1, states.partial_trace_23, states.reshuffle_24_matrix):
            with pytest.raises(ValueError, match="8x8"):
                fn(np.eye(4))


class TestDerivedMatrices:
    def test_pt_white_noise_fixed(self):
        pt = partial_transpose_1(SimplexPoint(0.0, 0.0))
        assert np.allclose(pt, np.eye(8) / 8, atol=1e-15)

    def test_pt_ghz_min_eigenvalue(self):
        pt = partial_transpose_1(SimplexPoint(1.0, 0.0))
        vals = linalg.hermitian_eigenvalues(pt)
        assert abs(vals[-1] + 0.5) < 1e-12

    def test_pt_pptes_point_psd(self):
        pt = partial_transpose_1(SimplexPoint(0.2, 0.2))
        vals = linalg.hermitian_eigenvalues(pt)
        assert vals[-1] >= -1e-12

    def test_reduction_white_noise(self):
        first, second = reduction_matrices(SimplexPoint(0.0, 0.0))
        assert np.allclose(first, np.eye(8) / 8, atol=1e-15)
        assert np.allclose(second, 3 * np.eye(8) / 8, atol=1e-15)

    def test_reduction_first_spectrum_equals_pt(self):
        p = SimplexPoint(0.3, 0.3)
        first, _ = reduction_matrices(p)
        pt = partial_transpose_1(p)
        v1 = linalg.hermitian_eigenvalues(first)
        v2 = linalg.hermitian_eigenvalues(pt)
        assert np.max(np.abs(v1 - v2)) < 1e-12

    def test_reduction_second_negative_at_w(self):
        _, second = reduction_matrices(SimplexPoint(0.0, 1.0))
        vals = linalg.hermitian_eigenvalues(second)
        assert abs(vals[-1] + np.sqrt(2) / 3) < 1e-12

    def test_reshuffle_24_white_noise_rows(self):
        r = states.reshuffle_24_matrix(states.build_rho(SimplexPoint(0.0, 0.0)))
        expected = np.zeros((4, 16))
        expected[0, [0, 5, 10, 15]] = 1 / 8
        expected[3, [0, 5, 10, 15]] = 1 / 8
        assert np.max(np.abs(r - expected)) < 1e-15

    def test_reshuffle_24_entry_energy(self):
        for p in (SimplexPoint(0.3, 0.1), SimplexPoint(0.1, 0.6)):
            rho = states.build_rho(p)
            r = states.reshuffle_24_matrix(rho)
            assert abs(np.sum(np.abs(r) ** 2) - np.trace(rho @ rho).real) < 1e-14

    def test_reshuffle_222_pure_ghz_entries(self):
        rho = states.build_rho(SimplexPoint(1.0, 0.0))
        r = linalg.permute_indices(rho, linalg.RESHUFFLE_23_PERM)
        mags = np.abs(r)
        assert np.count_nonzero(mags > 1e-15) == 4
        assert np.allclose(mags[mags > 1e-15], 0.5, atol=1e-15)

    def test_reshuffle_222_preserves_entry_multiset(self):
        p = SimplexPoint(0.25, 0.3)
        rho = states.build_rho(p)
        r = linalg.permute_indices(rho, linalg.RESHUFFLE_23_PERM)
        assert np.allclose(np.sort(np.abs(r).ravel()), np.sort(np.abs(rho).ravel()), atol=1e-15)


def spectra_at(p):
    return {k: v[0] for k, v in states.closed_form_spectra_grid([p.g], [p.w]).items()}


class TestClosedFormSpectra:
    def test_white_noise_uniform(self):
        spects = spectra_at(SimplexPoint(0.0, 0.0))
        assert np.allclose(spects["rho"], np.full(8, 1 / 8), atol=1e-15)

    def test_pt_boundary_point_on_w_axis(self):
        w = (24 * np.sqrt(2) - 9) / 119
        spects = spectra_at(SimplexPoint(0.0, w))
        assert abs(spects["rho_t1"][-1]) < 1e-15

    def test_conc23_pure_w(self):
        spects = spectra_at(SimplexPoint(0.0, 1.0))
        expected = np.array([4 / 9, 0.0, 0.0, 0.0])
        assert np.max(np.abs(spects["conc23"] - expected)) < 1e-15

    def test_all_match_jacobi_on_grid(self):
        for p in simplex_grid(10):
            spects = spectra_at(p)
            pairs = [
                ("rho", states.build_rho(p)),
                ("rho23", at(states.marginal_23_grid, p)),
                ("rho1", at(states.marginal_1_grid, p)),
                ("rho_t1", partial_transpose_1(p)),
                ("red1_i23", reduction_matrices(p)[1]),
            ]
            for key, matrix in pairs:
                numeric = linalg.hermitian_eigenvalues(matrix)
                assert np.max(np.abs(numeric - spects[key])) < 1e-12, (key, p)
            first, _ = reduction_matrices(p)
            numeric = linalg.hermitian_eigenvalues(first)
            assert np.max(np.abs(numeric - spects["rho_t1"])) < 1e-12


class TestExampleStates:
    def test_class21_npt(self):
        rho = states.example_states("class21")
        assert abs(np.trace(rho).real - 1.0) < 1e-15
        pt = linalg.permute_indices(rho, linalg.TRANSPOSE_1_PERM)
        vals = linalg.hermitian_eigenvalues(pt)
        assert vals[-1] < -1e-6

    def test_class28_a1_and_a2_pt_psd(self):
        for a in (1.0, 2.0, 5.0):
            rho = states.example_states("class28", a=a)
            assert abs(np.trace(rho).real - 1.0) < 1e-14
            pt = linalg.permute_indices(rho, linalg.TRANSPOSE_1_PERM)
            vals = linalg.hermitian_eigenvalues(pt)
            assert vals[-1] >= -1e-10

    def test_class28_rejects_bad_a(self):
        with pytest.raises(ValueError):
            states.example_states("class28", a=0.0)
        with pytest.raises(ValueError):
            states.example_states("class28")

    def test_pptes_equals_family_point(self):
        rho = states.example_states("pptes")
        family = states.build_rho(SimplexPoint(0.2, 0.2))
        assert np.max(np.abs(rho - family)) < 1e-15

    def test_unknown_selector(self):
        with pytest.raises(ValueError):
            states.example_states("bogus")
