import math

import numpy as np
import pytest

from qsep import bipartite, criteria, states
from qsep.exceptions import ConsistencyError

G = np.array([0.0, 0.2, 0.1, 0.6, 0.3])
W = np.array([0.0, 0.0, 0.7, 0.1, 0.3])


class TestEvaluate:
    def test_records_a_finite_deviation_and_a_batch_cell_for_every_check(self):
        margins, deviations = criteria.evaluate(G, W, criteria.IDS)
        assert set(margins) == set(criteria.IDS)
        # one spectral check per matrix, one per matrix-element or trace family member
        assert {"Spect(rho)", "Spect(rho^T1)", "Spect(rho^1 (x) I - rho)",
                "reshuffling singular values", "gs2_w matrix elements",
                "gs3 member gs3_offdiag", "witness w_w1 trace"} <= set(deviations)
        cells = set(zip(G.tolist(), W.tolist()))
        for name, (deviation, g, w) in deviations.items():
            assert math.isfinite(deviation) and 0.0 <= deviation <= criteria.SPECTRUM_TOL, name
            assert (g, w) in cells, name

    def test_records_only_the_checks_it_ran(self):
        _, deviations = criteria.evaluate(G, W, ("ppt",))
        assert set(deviations) == {"Spect(rho^T1)"}
        _, deviations = criteria.evaluate(G, W, ("entropy_rho1_a2", "su2_set1"))
        assert deviations == {}

    def test_margins_is_evaluate_without_deviations(self):
        margins = criteria.margins(G, W, criteria.IDS)
        evaluated, _ = criteria.evaluate(G, W, criteria.IDS)
        for cid in criteria.IDS:
            assert margins[cid].tobytes() == evaluated[cid].tobytes(), cid

    def test_failing_check_is_recorded_with_its_worst_cell(self):
        batch = criteria._Batch(G, W)
        closed = np.zeros(G.size)
        closed[3] = 1e-9
        with pytest.raises(ConsistencyError, match=r"^probe at \(g=0\.6, w=0\.1\)"):
            batch.assert_close(np.zeros(G.size), closed, "probe", criteria.ELEMENT_TOL)
        assert batch.deviations["probe"] == (1e-9, 0.6, 0.1)

    def test_check_past_its_tolerance_raises_naming_check_and_cell(self, monkeypatch):
        real = bipartite.reshuffle24_closed_singular_values
        monkeypatch.setattr(
            bipartite, "reshuffle24_closed_singular_values", lambda g, w: real(g, w) + 1e-9
        )
        with pytest.raises(ConsistencyError, match=r"^reshuffling singular values at \(g="):
            criteria.evaluate(G, W, ("resh24",))


class TestBlockZeroPattern:
    def test_template_with_a_nonzero_off_block_entry_names_matrix_and_cell(self, monkeypatch):
        real = states.reduction_1i23_grid

        def broken(g, w):
            m = real(g, w)
            m[2, 3, 5] = m[2, 5, 3] = 1e-300  # couples the 1x1 blocks {3} and {5}
            return m

        monkeypatch.setattr(states, "reduction_1i23_grid", broken)
        with pytest.raises(ConsistencyError, match=(
            r"^rho\^1 \(x\) I - rho at \(g=0\.1, w=0\.7\): entry \[3, 5\] lies outside"
        )):
            criteria.evaluate(G, W, ("reduction",))
        # the other families do not read that template
        criteria.evaluate(G, W, ("ppt", "maj_rho1", "perm222"))


class TestTemplateDtype:
    def test_complex_templates_give_the_same_margins(self, monkeypatch):
        # LAPACK sees the same real input whether a template is float64 or complex128
        # with a zero imaginary part, so every margin keeps its bytes
        n = 24
        i, j = np.nonzero(np.add.outer(np.arange(n + 1), np.arange(n + 1)) <= n)
        g, w = i / n, j / n
        real = criteria.margins(g, w, criteria.IDS)
        for name in ("build_rho_grid", "marginal_23_grid", "marginal_1_grid",
                     "reduction_i123_grid", "reduction_1i23_grid"):
            build = getattr(states, name)
            monkeypatch.setattr(
                states, name, lambda g, w, build=build: build(g, w).astype(np.complex128)
            )
        assert states.build_rho_grid(G, W).dtype == np.complex128
        complex_ = criteria.margins(g, w, criteria.IDS)
        for cid in criteria.IDS:
            assert complex_[cid].tobytes() == real[cid].tobytes(), cid
