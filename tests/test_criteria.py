import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from qsep import bipartite, criteria, linalg, states, tripartite
from qsep.config import MARGINAL_BAND
from qsep.exceptions import ConsistencyError, ConvergenceError

G = np.array([0.0, 0.2, 0.1, 0.6, 0.3])
W = np.array([0.0, 0.0, 0.7, 0.1, 0.3])


class TestEvaluate:
    def test_records_a_finite_deviation_and_a_batch_cell_for_every_check(self):
        batch = criteria.Batch(G, W)
        margins, deviations = batch.evaluate(criteria.IDS), batch.deviations
        assert set(margins) == set(criteria.IDS)
        # one spectral check per matrix, one per matrix-element or trace family member
        assert {"Spect(rho)", "Spect(rho^T1)", "Spect(rho^1 (x) I - rho)",
                "reshuffling singular values", "gs2_w matrix elements",
                "gs3 member gs3_offdiag", "witness w_w1 trace"} <= set(deviations)
        cells = set(zip(G.tolist(), W.tolist()))
        for name, (deviation, g, w) in deviations.items():
            assert math.isfinite(deviation) and 0.0 <= deviation <= criteria.SPECTRUM_TOL, name
            assert (g, w) in cells, name

    @staticmethod
    def deviations(ids):
        batch = criteria.Batch(G, W)
        batch.evaluate(ids)
        return batch.deviations

    # qsep verify prints its registry lines in this order
    RECORD_ORDER = [
        "Spect(rho)", "Spect(rho^23)", "Spect(rho^1)", "majorization rho^1 sign",
        "majorization rho^23 sign", "Spect(rho^T1)", "ppt sign", "Spect(I (x) rho^23 - rho)",
        "Spect(rho^1 (x) I - rho)", "reduction sign", "reshuffling singular values",
        "su2_set1 sign", "su283_set1 sign", "su3_set1 sign", "su2_set2 sign", "su283_set2 sign",
        "su3_set2 sign", "su2_set3 sign", "su283_set3 sign", "su3_set3 sign",
        "huber_ghz swap forms", "huber_w swap forms", "gs2_ghz matrix elements", "gs2_w matrix elements",
        *(f"gs3 member gs3_six_{ms}" for ms in ("000777", "123456", "012477", "003567", "011667",
                                                  "001677", "112467", "013566")),
        *(f"gs3 member gs3_four_{ms}" for ms in ("0077", "2345", "0167", "1247", "0356")),
        "gs3 member gs3_offdiag", "witness w_ghz trace", "witness w_w1 trace", "witness w_w2 trace",
    ]

    def test_records_every_check_in_a_fixed_order(self):
        assert list(self.deviations(criteria.IDS)) == self.RECORD_ORDER
        # a selection records its checks in the same relative order, whatever order names it
        spin = [cid for cid in criteria.IDS if cid.startswith("su")]
        assert list(self.deviations(spin[::-1])) == [n for n in self.RECORD_ORDER if n.startswith("su")]

    def test_records_only_the_checks_it_ran(self):
        assert set(self.deviations(("ppt",))) == {"Spect(rho^T1)", "ppt sign"}
        assert set(self.deviations(("entropy_rho1_a2", "su2_set1"))) == {
            "Spect(rho)", "Spect(rho^23)", "Spect(rho^1)", "su2_set1 sign"}
        assert set(self.deviations(("huber_w_k3",))) == {"huber_w swap forms"}

    # perm222 has no closed form yet (the ROADMAP item "A closed form for perm222"); its
    # second path is verify's "block spectra vs full LAPACK" line
    WITHOUT_A_CHECK = {"perm222"}

    @pytest.mark.parametrize("cid", criteria.IDS)
    def test_every_criterion_alone_records_a_check(self, cid):
        assert (self.deviations((cid,)) == {}) == (cid in self.WITHOUT_A_CHECK), cid

    @pytest.mark.parametrize("cid", criteria.IDS)
    def test_every_criterion_alone_fails_on_a_nan_weight(self, cid):
        # every failure names the cell, the block path's at the evaluation of its forms
        with pytest.raises((ConsistencyError, ConvergenceError), match=r"at \(g=nan, w=0\.1\)"):
            criteria.margins([0.2, math.nan], [0.1, 0.1], (cid,))

    # each case is refused by SimplexPoint's rule before any check runs
    def test_weights_of_two_lengths_are_refused(self):
        with pytest.raises(ValueError, match=r"shapes \(2,\) and \(1,\)"):
            criteria.margins([0.1, 0.2], [0.1], ("ppt",))

    def test_weights_off_the_simplex_are_refused(self):
        with pytest.raises(ValueError, match=r"simplex weights at \(g=0\.5, w=0\.7\)"):
            criteria.margins([0.2, 0.5], [0.1, 0.7], ("ppt",))

    def test_negative_weight_is_refused_not_a_failed_check(self):
        with pytest.raises(ValueError, match=r"simplex weights at \(g=-0\.3, w=0\.2\)"):
            criteria.margins([-0.3], [0.2], ("gs3",))

    def test_empty_batch_is_refused(self):
        with pytest.raises(ValueError, match=r"shapes \(0,\) and \(0,\)"):
            criteria.Batch([], [])

    def test_two_dimensional_weights_are_refused(self):
        with pytest.raises(ValueError, match=r"1-d"):
            criteria.margins([[0.1, 0.2]], [[0.1, 0.2]], ("ppt",))

    def test_weights_within_the_slack_pass_as_simplex_points_do(self):
        g, w = [-1e-12, 0.5], [0.5, 0.5 + 5e-13]
        assert criteria.Batch(g, w).g.tolist() == g
        for point in zip(g, w):
            states.SimplexPoint(*point)

    def test_margins_is_evaluate_without_deviations(self):
        margins = criteria.margins(G, W, criteria.IDS)
        evaluated = criteria.Batch(G, W).evaluate(criteria.IDS)
        for cid in criteria.IDS:
            assert margins[cid].tobytes() == evaluated[cid].tobytes(), cid

    def test_failing_check_is_recorded_with_its_worst_cell(self):
        batch = criteria.Batch(G, W)
        closed = np.zeros(G.size)
        closed[3] = 1e-9
        with pytest.raises(ConsistencyError, match=r"^probe at \(g=0\.6, w=0\.1\)"):
            batch.check_close(np.zeros(G.size), closed, "probe", criteria.ELEMENT_TOL)
        assert batch.deviations["probe"] == (1e-9, 0.6, 0.1)

    def test_sign_check_records_the_largest_disagreement_within_the_band(self):
        batch = criteria.Batch(G, W)
        numeric = np.array([0.5, 0.0, 3e-10, -6e-10, 2.0])
        closed = np.array([0.1, -0.2, -1e-3, 4e-10, -1e-12])
        batch.check_signs(numeric, closed, "probe")
        assert batch.deviations["probe sign"] == (4e-10, 0.6, 0.1)
        batch.check_signs(closed, closed, "same")
        assert batch.deviations["same sign"] == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("bad, closed", [(-2e-9, 1.0), (math.nan, 1.0), (1.0, math.nan)])
    def test_sign_check_past_the_band_or_on_a_nan_raises_naming_the_cell(self, bad, closed):
        batch = criteria.Batch(G, W)
        numeric, closed_forms = np.ones(G.size), np.ones(G.size)
        numeric[2], closed_forms[2] = bad, closed
        with pytest.raises(ConsistencyError, match=(
            r"^probe sign at \(g=0\.1, w=0\.7\): numeric margin .* vs closed form "
        )):
            batch.check_signs(numeric, closed_forms, "probe")
        worst = batch.deviations["probe sign"][0]
        assert math.isnan(worst) or worst > MARGINAL_BAND

    def test_check_past_its_tolerance_raises_naming_check_and_cell(self, monkeypatch):
        real = bipartite.reshuffle24_closed_singular_values
        monkeypatch.setattr(
            bipartite, "reshuffle24_closed_singular_values", lambda g, w: real(g, w) + 1e-9
        )
        with pytest.raises(ConsistencyError, match=r"^reshuffling singular values at \(g="):
            criteria.margins(G, W, ("resh24",))


class TestConcurrence:
    def test_records_its_two_checks_and_only_when_read(self):
        batch = criteria.Batch(G, W)
        batch.evaluate(criteria.IDS)
        assert not {"spectrum[conc23]", "concurrence closed vs numeric"} & set(batch.deviations)
        numeric, closed = batch.concurrence
        assert batch.concurrence is batch.concurrence  # computed once
        assert batch.deviations["spectrum[conc23]"][0] <= criteria.SPECTRUM_TOL
        assert batch.deviations["concurrence closed vs numeric"][0] <= criteria.CONCURRENCE_TOL
        assert numeric.shape == closed.shape == G.shape


class TestRegistry:
    def test_spin_and_swap_rows_follow_perm222_in_order(self):
        b, i, f = criteria.BISEP, criteria.INTERSECTION, criteria.FULLSEP
        spin = [(f"su{tag}_set{k}", f"su{tag}", excl, criteria.SPIN_KIND)
                for tag, excl in (("2", b), ("283", i), ("3", f)) for k in (1, 2, 3)]
        swap = [(f"huber_{tag}_k{k}", "huber", excl, criteria.SWAP_KIND)
                for tag in ("ghz", "w") for k, excl in ((2, b), (3, f))]
        start = criteria.IDS.index("perm222") + 1
        rows = [(c.id, c.group, c.excludes, c.kind) for c in criteria.REGISTRY[start:start + 13]]
        assert rows == spin + swap
        assert criteria.IDS[start + 13] == "gs2_ghz"


class TestOneCriterionGrids:
    def test_one_setting_or_vector_gives_the_registry_margins(self):
        # the public one-criterion grids run the stacked passes on one setting or one vector
        margins = criteria.margins(G, W, criteria.IDS)
        for cid, (idx, level) in criteria.SPIN.items():
            assert tripartite.su_margins_grid(G, W, idx, level).tobytes() == margins[cid].tobytes(), cid
        for cid, (tag, k) in criteria.SWAP.items():
            assert tripartite.huber_margins_grid(G, W, tag, k).tobytes() == margins[cid].tobytes(), cid


class TestSwapForms:
    def test_each_detection_vector_evaluates_its_four_distinct_forms_once(self, monkeypatch):
        calls = []
        real = np.einsum
        monkeypatch.setattr(np, "einsum", lambda *a, **k: calls.append((a[0], a[2].shape)) or real(*a, **k))
        criteria.margins(G, W, criteria.GROUPS["huber"])
        assert calls == [("an,kab,bn->kn", (4, 3, 3))] * 2  # one einsum per vector

    def test_a_complement_reads_the_form_of_its_qubit(self):
        for tag in ("ghz", "w"):
            forms = tripartite.huber_forms_grid(G, W, tag)
            for subset, single in (((2, 3), (1,)), ((1, 3), (2,)), ((1, 2), (3,))):
                assert forms[subset] is forms[single]

    def test_forms_match_the_products_of_matrix_entries(self):
        # the two paths, and the explicit 64-dimensional swap expectations
        rho = states.build_rho_grid(G, W)
        for tag, phi in (("ghz", tripartite.phi_ghz()), ("w", tripartite.phi_w())):
            forms = tripartite.huber_forms_grid(G, W, tag)
            elements = tripartite.huber_element_forms(rho, tag)
            assert set(forms) == set(elements)
            for n in range(G.size):
                rr = np.kron(rho[n], rho[n])
                for key, value in forms.items():
                    bra = phi if key == ("tot",) else tripartite.swap_operator(key) @ phi
                    ket = tripartite.swap_operator((1, 2, 3) if key == ("tot",) else key) @ phi
                    explicit = float(np.real(np.conj(bra) @ (rr @ ket)))
                    assert abs(value[n] - explicit) < 1e-15, (tag, key, n)
                    assert abs(elements[key][n] - explicit) < 1e-15, (tag, key, n)

    def test_broken_forms_fail_naming_the_vector_and_cell(self, monkeypatch):
        real = tripartite.huber_element_forms

        def broken(rho, tag):
            forms = real(rho, tag)
            forms[(2, 3)] = forms[(2, 3)] + np.where(np.arange(G.size) == 3, 1e-9, 0.0)
            return forms

        monkeypatch.setattr(tripartite, "huber_element_forms", broken)
        with pytest.raises(ConsistencyError, match=r"^huber_w swap forms at \(g=0\.6, w=0\.1\)"):
            criteria.margins(G, W, ("huber_w_k2",))


def with_row(layout, entry, shift):
    """``layout`` built again with ``shift`` added to the row of its entry ``[i, j]``."""
    table = layout.table.copy()
    table[entry[0] * layout.shape[1] + entry[1]] += shift
    return dataclasses.replace(layout, table=table)


class TestBlockZeroPattern:
    def test_table_with_a_nonzero_off_block_row_names_family_and_entry(self):
        # [3, 5] couples the 1x1 blocks {3} and {5}: the layout refuses the table when it is
        # built, so no batch ever reads the entry
        with pytest.raises(ValueError, match=(
            r"^rho\^1 \(x\) I - rho: entry \[3, 5\] lies outside every block but is not 0: "
            r"its row is \[0, 1, 0\]$"
        )):
            with_row(states.REDUCTION_1I23_BLOCKS, (3, 5), (0, 1, 0))


# a row of one entry of a mirror equality changed, in each family that splits a block
MIRROR_ROWS = [
    (states.RHO_BLOCKS, (2, 2), r"^rho: entry \[2, 2\] differs from its mirror \[1, 1\]"),
    (states.TRANSPOSE_1_BLOCKS, (6, 0), r"^rho\^T1: entry \[6, 0\] differs from its mirror \[5, 0\]"),
    (states.REDUCTION_I123_BLOCKS, (4, 2),
     r"^I \(x\) rho\^23 - rho: entry \[4, 2\] differs from its mirror \[4, 1\]"),
    (states.REDUCTION_1I23_BLOCKS, (2, 2),
     r"^rho\^1 \(x\) I - rho: entry \[2, 2\] differs from its mirror \[1, 1\]"),
]


class TestSpectralPass:
    @pytest.mark.parametrize("layout, entry, message", MIRROR_ROWS,
                             ids=["rho", "rho_t1", "red_i123", "red_1i23"])
    def test_unequal_mirror_rows_name_family_and_entry(self, layout, entry, message):
        with pytest.raises(ValueError, match=message):
            with_row(layout, entry, (0, 0, 1))

    @pytest.mark.parametrize("count", [1, 4096])
    def test_all_criteria_make_one_call_per_spectral_method(self, monkeypatch, count):
        # LAPACK: one eigvalsh call (R'(rho)) and no SVD (R(rho)'s 2x6 block takes one
        # rotation); the 2x2 kernel: one call for the 2x2 problems of all six families that
        # have a 2x2 block or a split 3x3 block
        calls = []
        for module, name in ((np.linalg, "eigvalsh"), (np.linalg, "svd"), (linalg, "eigvalsh_2x2")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a, real=real, name=name, **k: calls.append(name) or real(*a, **k))
        rng = np.random.default_rng(count)
        u, v = rng.random(count), rng.random(count)
        g, w = np.where(u + v > 1.0, 1.0 - u, u), np.where(u + v > 1.0, 1.0 - v, v)
        criteria.margins(g, w, criteria.IDS)
        with_2x2 = [layout for layout in states.FAMILIES
                    if layout.mirrors or any(len(r) == len(c) == 2 for r, c in layout.blocks)]
        assert len(with_2x2) == 6
        assert sorted(calls) == ["eigvalsh", "eigvalsh_2x2"]

    # the families whose block spectra each spectral group reads, the expectation its rows'
    # ``reads`` are checked against; the other groups read none
    READS = {
        "maj": {states.RHO_BLOCKS, states.MARGINAL_23_BLOCKS, states.MARGINAL_1_BLOCKS},
        "entropy": {states.RHO_BLOCKS, states.MARGINAL_23_BLOCKS, states.MARGINAL_1_BLOCKS},
        "ppt": {states.TRANSPOSE_1_BLOCKS},
        "reduction": {states.TRANSPOSE_1_BLOCKS, states.REDUCTION_I123_BLOCKS,
                      states.REDUCTION_1I23_BLOCKS},
        "resh24": {states.RESHUFFLE_24_BLOCKS},
        "perm222": {states.RESHUFFLE_23_BLOCKS},
    }

    @pytest.mark.parametrize("selection", ["all", *criteria.GROUPS])
    def test_each_family_is_diagonalized_once_and_only_if_read(self, monkeypatch, selection):
        # one pass over the families read, in FAMILIES order, and none if nothing is read
        seen = []
        real = linalg.block_spectra
        monkeypatch.setattr(linalg, "block_spectra", lambda layouts, *a: (
            seen.append([layout.name for layout in layouts]) or real(layouts, *a)))
        ids = criteria.IDS if selection == "all" else criteria.GROUPS[selection]
        criteria.margins(G, W, ids)
        read = set(states.FAMILIES) if selection == "all" else self.READS.get(selection, set())
        assert seen == ([[layout.name for layout in states.FAMILIES if layout in read]] if read else [])
        assert {layout for cid in ids for layout in criteria.BY_ID[cid].reads} == read

    def test_a_chunk_of_all_peaks_under_10_mb(self):
        # cells 8192-12287 of R = 385: about 8.6 MB, set by gs3 on top of what the batch
        # keeps (its margins, spectra, closed forms, forms and rho); the block pass, which
        # gathers every family from the forms, peaks at about 4.3 MB
        n = 385
        i, j = np.nonzero(np.add.outer(np.arange(n + 1), np.arange(n + 1)) <= n)
        g, w = i[8192:12288] / n, j[8192:12288] / n
        criteria.margins(g, w, criteria.IDS)  # the caches each first call fills
        tracemalloc.start()
        try:
            criteria.margins(g, w, criteria.IDS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10e6, peak

    def test_a_cells_margins_do_not_depend_on_batch_or_selection(self):
        # every criterion alone and every group alone, on the chunk and at single cells of it
        rng = np.random.default_rng(8)
        u, v = rng.random(4096), rng.random(4096)
        g, w = np.where(u + v > 1.0, 1.0 - u, u), np.where(u + v > 1.0, 1.0 - v, v)
        chunk = criteria.margins(g, w, criteria.IDS)
        for ids in [(cid,) for cid in criteria.IDS] + list(criteria.GROUPS.values()):
            alone = criteria.margins(g, w, ids)
            cells = [criteria.margins(g[k:k + 1], w[k:k + 1], ids) for k in (0, 1234, 4095)]
            for cid in ids:
                assert alone[cid].tobytes() == chunk[cid].tobytes(), (ids, cid)
                for k, cell in zip((0, 1234, 4095), cells):
                    assert cell[cid].tobytes() == chunk[cid][k:k + 1].tobytes(), (ids, cid, k)
