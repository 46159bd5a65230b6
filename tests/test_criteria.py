import math

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

    def test_records_only_the_checks_it_ran(self):
        assert set(self.deviations(("ppt",))) == {"Spect(rho^T1)", "ppt sign"}
        assert set(self.deviations(("entropy_rho1_a2", "su2_set1"))) == {
            "Spect(rho)", "Spect(rho^23)", "Spect(rho^1)", "su2_set1 sign"}
        assert set(self.deviations(("huber_w_k3",))) == {"huber_w swap forms"}

    # perm222 has no closed form yet (ROADMAP item 2); its second path is verify's
    # "block spectra vs full LAPACK" line
    WITHOUT_A_CHECK = {"perm222"}

    @pytest.mark.parametrize("cid", criteria.IDS)
    def test_every_criterion_alone_records_a_check(self, cid):
        assert (self.deviations((cid,)) == {}) == (cid in self.WITHOUT_A_CHECK), cid

    @pytest.mark.parametrize("cid", criteria.IDS)
    def test_every_criterion_alone_fails_on_a_nan_weight(self, cid):
        with pytest.raises((ConsistencyError, ConvergenceError)):
            criteria.margins([0.2, math.nan], [0.1, 0.1], (cid,))

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


class TestSwapForms:
    def test_each_detection_vector_evaluates_its_four_distinct_forms_once(self, monkeypatch):
        calls = []
        real = np.einsum
        monkeypatch.setattr(np, "einsum", lambda *a, **k: calls.append(a[0]) or real(*a, **k))
        criteria.margins(G, W, criteria.GROUPS["huber"])
        assert calls.count("an,ab,bn->n") == 8

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


class TestBlockZeroPattern:
    def test_template_with_a_nonzero_off_block_entry_names_matrix_and_cell(self, monkeypatch):
        real = criteria.Batch.source

        def broken(batch, layout):
            m = real(batch, layout)
            if layout.template is states.reduction_1i23_grid:
                m[2, 3, 5] = m[2, 5, 3] = 1e-300  # couples the 1x1 blocks {3} and {5}
            return m

        monkeypatch.setattr(criteria.Batch, "source", broken)
        with pytest.raises(ConsistencyError, match=(
            r"^rho\^1 \(x\) I - rho at \(g=0\.1, w=0\.7\): entry \[3, 5\] lies outside"
        )):
            criteria.margins(G, W, ("reduction",))
        # the other families do not read that template
        criteria.margins(G, W, ("ppt", "maj_rho1", "perm222"))


class TestSpectralPass:
    # a template, broken where each layout that reads it gets its source; rho is read by
    # the four families whose template is None
    @pytest.mark.parametrize("template, entries, value, ids, message", [
        (states.build_rho_grid, [(2, 2)], "ulp", ("maj_rho1",),
         r"^rho at \(g=0\.6, w=0\.1\): entry \[2, 2\] differs from its mirror \[1, 1\]"),
        (states.build_rho_grid, [(2, 4), (4, 2)], "nan", ("ppt",),
         r"^rho\^T1 at \(g=0\.6, w=0\.1\): entry \[6, 0\] differs from its mirror \[5, 0\]"),
        (states.reduction_i123_grid, [(4, 2), (2, 4)], "ulp", ("reduction",),
         r"^I \(x\) rho\^23 - rho at \(g=0\.6, w=0\.1\): entry \[4, 2\] differs from its "
         r"mirror \[4, 1\]"),
        (states.reduction_1i23_grid, [(2, 2)], "nan", ("reduction",),
         r"^rho\^1 \(x\) I - rho at \(g=0\.6, w=0\.1\): entry \[2, 2\] differs from its "
         r"mirror \[1, 1\]"),
    ])
    def test_broken_mirror_entry_names_family_cell_and_entry(
            self, monkeypatch, template, entries, value, ids, message):
        real = criteria.Batch.source

        def broken(batch, layout):
            m = real(batch, layout)
            if (layout.template or states.build_rho_grid) is template:
                m = m.copy()  # the batch keeps rho
                for i, j in entries:
                    m[3, i, j] = math.nan if value == "nan" else np.nextafter(m[3, i, j], 1.0)
            return m

        monkeypatch.setattr(criteria.Batch, "source", broken)
        with pytest.raises(ConsistencyError, match=message):
            criteria.margins(G, W, ids)

    @pytest.mark.parametrize("count", [1, 4096])
    def test_all_criteria_make_one_call_per_spectral_method(self, monkeypatch, count):
        # LAPACK: one eigvalsh call (R'(rho)) and one SVD (R(rho)); the 2x2 kernel: one call
        # per family that has a 2x2 block or a split 3x3 block
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
        assert sorted(calls) == ["eigvalsh"] + ["eigvalsh_2x2"] * len(with_2x2) + ["svd"]

    # the families whose block spectra each spectral group reads; the other groups read none
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
        seen = []
        real = linalg.block_spectra
        monkeypatch.setattr(linalg, "block_spectra",
                            lambda layout, *a: seen.append(layout.name) or real(layout, *a))
        ids = criteria.IDS if selection == "all" else criteria.GROUPS[selection]
        criteria.margins(G, W, ids)
        read = set(states.FAMILIES) if selection == "all" else self.READS.get(selection, set())
        assert sorted(seen) == sorted(layout.name for layout in read)

    def test_a_cells_margins_do_not_depend_on_batch_or_selection(self):
        rng = np.random.default_rng(8)
        u, v = rng.random(4096), rng.random(4096)
        g, w = np.where(u + v > 1.0, 1.0 - u, u), np.where(u + v > 1.0, 1.0 - v, v)
        chunk = criteria.margins(g, w, criteria.IDS)
        spectral = ("maj_rho1", "maj_rho23", "ppt", "reduction", "resh24", "perm222")
        for k in (0, 1234, 4095):
            for cid in spectral:
                alone = criteria.margins(g[k:k + 1], w[k:k + 1], (cid,))[cid]
                assert alone.tobytes() == chunk[cid][k:k + 1].tobytes(), (cid, k)
        ppt_only = criteria.margins(g, w, ("ppt",))["ppt"]
        assert ppt_only.tobytes() == chunk["ppt"].tobytes()


class TestTemplateDtype:
    def test_complex_templates_give_the_same_margins(self, monkeypatch):
        # LAPACK sees the same real input whether a template is float64 or complex128
        # with a zero imaginary part, so every margin keeps its bytes
        n = 24
        i, j = np.nonzero(np.add.outer(np.arange(n + 1), np.arange(n + 1)) <= n)
        g, w = i / n, j / n
        real = criteria.margins(g, w, criteria.IDS)
        build_rho, source = states.build_rho_grid, criteria.Batch.source
        monkeypatch.setattr(states, "build_rho_grid",
                            lambda g, w: build_rho(g, w).astype(np.complex128))
        monkeypatch.setattr(criteria.Batch, "source",
                            lambda batch, layout: source(batch, layout).astype(np.complex128))
        assert states.build_rho_grid(G, W).dtype == np.complex128
        assert all(criteria.Batch(G, W).source(layout).dtype == np.complex128
                   for layout in states.FAMILIES)
        complex_ = criteria.margins(g, w, criteria.IDS)
        for cid in criteria.IDS:
            assert complex_[cid].tobytes() == real[cid].tobytes(), cid
