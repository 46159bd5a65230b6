import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsep import linalg, states
from qsep.exceptions import ConsistencyError
from qsep.states import SimplexPoint


def at(builder, p):
    """A batch builder's matrix at one point: the builder on a batch of one."""
    return builder(np.array([p.g]), np.array([p.w]))[0]


def family_of(layout):
    """A batch builder of ``layout``'s full matrices, gathered from the evaluated forms."""
    return lambda g, w: layout.family(states.evaluate_forms(g, w))


def partial_transpose_1(p):
    return linalg.permute_indices(states.build_rho(p), linalg.TRANSPOSE_1_PERM)


def reduction_matrices(p):
    return (at(family_of(states.REDUCTION_I123_BLOCKS), p),
            at(family_of(states.REDUCTION_1I23_BLOCKS), p))


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


# each sum-built family from the independent mixture, spelled out here: the second
# construction of the family its table gives
GENERIC_MAPS = {
    states.MARGINAL_23_BLOCKS: states.partial_trace_1,
    states.MARGINAL_1_BLOCKS: states.partial_trace_23,
    states.REDUCTION_I123_BLOCKS: lambda m: np.kron(np.eye(2)[None], states.partial_trace_1(m)) - m,
    states.REDUCTION_1I23_BLOCKS: lambda m: np.kron(states.partial_trace_23(m), np.eye(4)[None]) - m,
}


def _of_mixture(generic):
    return lambda g, w: generic(states.build_rho_mixture_grid(g, w))


# every family's map of an 8x8 operator, spelled out here: the identity for rho, the index
# maps and the generic maps of the sum-built families
MAPS = {
    states.RHO_BLOCKS: lambda m: m,
    states.TRANSPOSE_1_BLOCKS: lambda m: linalg.permute_indices(m, linalg.TRANSPOSE_1_PERM),
    **GENERIC_MAPS,
    states.RESHUFFLE_24_BLOCKS: states.reshuffle_24_matrix,
    states.RESHUFFLE_23_BLOCKS: lambda m: linalg.permute_indices(m, linalg.RESHUFFLE_23_PERM),
}


# every matrix family the criteria diagonalize: its declared block layout, and a builder
# of its full matrices written here, independently of the layout's own map and numbers: rho
# and the index maps of it, and the sum-built families from the independent mixture
BLOCK_FAMILIES = {
    states.RHO_BLOCKS: states.build_rho_grid,
    states.TRANSPOSE_1_BLOCKS: _rho_map(linalg.TRANSPOSE_1_PERM),
    states.RESHUFFLE_23_BLOCKS: _rho_map(linalg.RESHUFFLE_23_PERM),
    **{layout: _of_mixture(generic) for layout, generic in GENERIC_MAPS.items()},
    states.RESHUFFLE_24_BLOCKS: lambda g, w: states.reshuffle_24_matrix(states.build_rho_grid(g, w)),
}
# the families built from the mixture, matched to the map tolerance, not bit for bit
FROM_MIXTURE = set(GENERIC_MAPS)


def assert_builds(layout, built, expected):
    """``built`` equals ``expected``: exactly, or to the map tolerance for a family built
    from the mixture."""
    if layout in FROM_MIXTURE:
        assert np.max(np.abs(built - expected)) <= states.MAP_TOL, layout.name
    else:
        assert np.array_equal(built, expected), layout.name


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
        forms = states.evaluate_forms(g, w)
        expected = (
            linalg.eigh(states.REDUCTION_I123_BLOCKS.family(forms)),
            linalg.eigh(states.REDUCTION_1I23_BLOCKS.family(forms)),
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
        rho23, rho1 = at(family_of(states.MARGINAL_23_BLOCKS), p), at(family_of(states.MARGINAL_1_BLOCKS), p)
        assert np.allclose(rho23, np.eye(4) / 4, atol=1e-15)
        assert np.allclose(rho1, np.eye(2) / 2, atol=1e-15)

    def test_ghz_marginal_diagonal(self):
        rho23 = at(family_of(states.MARGINAL_23_BLOCKS), SimplexPoint(1.0, 0.0))
        assert np.max(np.abs(rho23 - np.diag(np.diag(rho23)))) < 1e-15

    def test_w_state_one_qubit_marginal(self):
        rho1 = at(family_of(states.MARGINAL_1_BLOCKS), SimplexPoint(0.0, 1.0))
        assert np.allclose(rho1, np.diag([2 / 3, 1 / 3]), atol=1e-15)

    def test_templates_equal_generic_maps_of_the_mixture(self):
        points = simplex_grid(12)
        g, w = np.array([p.g for p in points]), np.array([p.w for p in points])
        mixture = states.build_rho_mixture_grid(g, w)
        forms = states.evaluate_forms(g, w)
        for layout, generic in GENERIC_MAPS.items():
            assert np.max(np.abs(layout.family(forms) - generic(mixture))) <= states.MAP_TOL

    def test_each_sum_built_layout_declares_its_generic_map(self):
        # every layout declares its map (verify's "vs map of the mixture" lines), the
        # sum-built ones' a generic map, and each is the map spelled out here
        assert set(MAPS) == set(states.FAMILIES) and set(GENERIC_MAPS) <= set(MAPS)
        g, w = seeded_and_edge_cells()
        mixture = states.build_rho_mixture_grid(g, w)
        for layout, spelled_out in MAPS.items():
            assert np.array_equal(layout.map(mixture), spelled_out(mixture)), layout.name


class TestTemplateDtypes:
    def test_sum_built_templates_are_float64(self):
        # rho and every family gathered from the evaluated forms, C-contiguous as a dense
        # build gives them (a BLAS product sums in an order that depends on the layout)
        g, w = np.array([0.0, 0.2, 0.5]), np.array([0.0, 0.2, 0.5])
        forms = states.evaluate_forms(g, w)
        assert forms.dtype == np.float64 and forms.shape == (len(states.FORMS), 3)
        for layout in states.FAMILIES:
            matrices = layout.family(forms)
            assert matrices.dtype == np.float64 and matrices.flags.c_contiguous, layout.name
        assert states.build_rho(SimplexPoint(0.2, 0.2)).dtype == np.float64

    def test_independent_mixture_stays_complex(self):
        assert states.build_rho_mixture_grid([0.2], [0.2]).dtype == np.complex128


class TestForms:
    def test_each_form_is_its_sum_written_out(self):
        # cd (d/8) + cg (g/2) + cw (w/3) in Python floats, left to right over the nonzero
        # terms with +-x for a coefficient of +-1, bit for bit and sign of zero included:
        # the order that keeps every family's entries as their dense sums gave them
        g, w = seeded_and_edge_cells(count=50)
        g, w = np.append(g, 1e-320), np.append(w, 1.0)
        forms = states.evaluate_forms(g, w)
        assert forms.shape == (len(states.FORMS), g.size)
        rows = [tuple(row) for row in states.FORMS.tolist()]
        assert rows[0] == (0, 0, 0) and len(set(rows)) == len(rows)
        for n in range(g.size):
            d = max(1.0 - float(g[n]) - float(w[n]), 0.0)
            weights = (d / 8.0, float(g[n]) / 2.0, float(w[n]) / 3.0)
            for k, row in enumerate(states.FORMS.tolist()):
                total = None
                for c, x in zip(row, weights):
                    if c:
                        term = x if c == 1 else -x if c == -1 else c * x
                        total = term if total is None else total + term
                want = np.float64(0.0 if total is None else total)
                assert forms[k, n].tobytes() == want.tobytes(), (row, g[n], w[n])

    def test_a_non_finite_weight_names_its_cell(self):
        with pytest.raises(ConsistencyError, match=r"^entry forms at \(g=0\.3, w=inf\): not finite$"):
            states.evaluate_forms([0.1, 0.3], [0.2, np.inf])


class TestBlockLayouts:
    def test_families_is_the_one_list_of_layouts(self):
        declared = {value for value in vars(states).values() if isinstance(value, linalg.BlockLayout)}
        assert declared == set(states.FAMILIES)
        assert set(BLOCK_FAMILIES) == set(states.FAMILIES)
        closed = set(states.closed_form_spectra_grid(np.array([0.2]), np.array([0.2])))
        assert len(set(states.FAMILIES)) == len(states.FAMILIES)
        assert {layout.closed for layout in states.FAMILIES} - {None} <= closed
        # R'(rho), which feeds perm222, is the one family without a closed form
        assert {layout for layout in states.FAMILIES if layout.closed is None} == {states.RESHUFFLE_23_BLOCKS}

    def test_family_builds_the_full_matrices_through_the_layout_map(self):
        g, w = seeded_and_edge_cells()
        forms = states.evaluate_forms(g, w)
        for layout, build in BLOCK_FAMILIES.items():
            assert_builds(layout, layout.family(forms), build(g, w))

    def test_each_layout_is_the_components_of_its_support(self):
        # each layout's blocks, in order of their first row, read the entries of the
        # connected components of its independently built family's support; a split block
        # reads them with its rows reordered, its mirror pair first
        g, w = seeded_and_edge_cells()
        for layout, build in BLOCK_FAMILIES.items():
            support = np.any(build(g, w) != 0.0, axis=0)
            index = layout.form_index
            components = sorted(support_components(support), key=lambda block: min(block[0]))
            assert len(layout.blocks) == len(components), layout.name
            for (rows, cols), (method, forms) in zip(components, layout.blocks):
                entries = index[np.ix_(sorted(rows), sorted(cols))]
                if method == "split":
                    assert sorted(forms.ravel()) == sorted(entries.ravel()), layout.name
                else:
                    assert np.array_equal(forms, entries), layout.name

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
        passed = linalg.block_spectra(tuple(BLOCK_FAMILIES), states.evaluate_forms(g, w))
        for (layout, build), spectra in zip(BLOCK_FAMILIES.items(), passed):
            matrices = build(g, w)
            blocks = np.sort(spectra, axis=-1)[:, ::-1]
            full = linalg.singular_values(matrices) if layout.singular else linalg.eigh(matrices)
            assert np.max(np.abs(blocks - full)) <= linalg.BLOCK_TOL, (layout.name, point)

    def test_each_layout_reads_its_family_from_its_template(self):
        # each entry's form number reads the row of its family's table, the map spelled out
        # here of each coefficient plane of rho's entry table: in integers, row for row
        for layout, build in MAPS.items():
            table = np.moveaxis(build(states.RHO_ENTRIES), 0, -1)
            assert layout.form_index.shape == table.shape[:2], layout.name
            assert np.array_equal(states.FORMS[layout.form_index], table), layout.name


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
                ("rho23", at(family_of(states.MARGINAL_23_BLOCKS), p)),
                ("rho1", at(family_of(states.MARGINAL_1_BLOCKS), p)),
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
