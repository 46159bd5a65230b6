import math

import numpy as np
import pytest

from qsep import concurrence, criteria, linalg, states
from qsep.config import PSD_TOL
from qsep.exceptions import ConsistencyError
from qsep.states import SimplexPoint


def bell0_vector():
    """Two-qubit Bell state (|00> + |11>)/sqrt(2)."""
    v = np.zeros(4, dtype=np.complex128)
    v[0] = v[3] = 1.0 / math.sqrt(2.0)
    return v


SY2 = np.kron(np.array([[0.0, -1.0j], [1.0j, 0.0]]), np.array([[0.0, -1.0j], [1.0j, 0.0]]))


def spin_flip(omega):
    """(sigma_y (x) sigma_y) conj(omega) (sigma_y (x) sigma_y)."""
    omega = np.asarray(omega, dtype=np.complex128)
    if omega.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {omega.shape}")
    return SY2 @ np.conj(omega) @ SY2


def spin_flip_product_spectrum(omega):
    """Spectrum of wtilde w via the Hermitian similarity sqrt(w) wtilde sqrt(w), sorted
    non-increasing: a reference for the singular-value route of the library."""
    root = linalg.psd_sqrt(omega)
    product = root @ spin_flip(omega) @ root
    product = (product + np.conj(product.T)) / 2.0
    vals = linalg.hermitian_eigenvalues(product)
    worst = float(vals[-1])
    if worst < -PSD_TOL:
        raise ConsistencyError(f"spin-flip product has eigenvalue {worst:.3e} < 0")
    return np.clip(vals, 0.0, None)


def marginal_23(p):
    return states.MARGINAL_23_BLOCKS.family(states.evaluate_forms([p.g], [p.w]))[0]


def batch_concurrence(g, w):
    """(numeric, closed) over weight arrays: the concurrence of one ``criteria.Batch``."""
    return criteria.Batch(g, w).concurrence


def concurrence_at(p):
    """(numeric, closed) at one point: a batch of one."""
    numeric, closed = batch_concurrence(np.array([p.g]), np.array([p.w]))
    return float(numeric[0]), float(closed[0])


def simplex_grid(n=20):
    return [
        SimplexPoint(i / n, j / n)
        for i in range(n + 1)
        for j in range(n + 1 - i)
    ]


class TestSpinFlip:
    def test_maximally_mixed_fixed(self):
        assert np.allclose(spin_flip(np.eye(4) / 4), np.eye(4) / 4, atol=1e-15)

    def test_bell_state_fixed(self):
        bell = bell0_vector()
        proj = np.outer(bell, bell.conj())
        assert np.max(np.abs(spin_flip(proj) - proj)) < 1e-15

    def test_real_matrix_antitranspose_rule(self):
        # for real two-qubit matrices: transpose about the antidiagonal, then
        # negate everything off both diagonals
        rng = np.random.default_rng(4)
        m = rng.normal(size=(4, 4))
        m = (m + m.T) / 2
        flipped = spin_flip(m)
        anti = m[::-1, ::-1].T
        signs = np.ones((4, 4))
        for i in range(4):
            for j in range(4):
                if i != j and i + j != 3:
                    signs[i, j] = -1.0
        assert np.max(np.abs(flipped - anti * signs)) < 1e-12

    def test_product_spectrum_matches_closed_form_at_pure_w(self):
        rho23 = marginal_23(SimplexPoint(0.0, 1.0))
        spect = spin_flip_product_spectrum(rho23)
        expected = states.closed_form_spectra_grid([0.0], [1.0])["conc23"][0]
        assert np.max(np.abs(spect - expected)) < 1e-12


class TestWoottersConcurrence:
    def test_maximally_mixed(self):
        assert concurrence.wootters_concurrence(np.eye(4) / 4) == 0.0

    def test_bell_state(self):
        bell = bell0_vector()
        proj = np.outer(bell, bell.conj())
        assert abs(concurrence.wootters_concurrence(proj) - 1.0) < 1e-12

    def test_pure_w_marginal(self):
        rho23 = marginal_23(SimplexPoint(0.0, 1.0))
        assert abs(concurrence.wootters_concurrence(rho23) - 2.0 / 3.0) < 1e-12

    def test_rejects_non_density(self):
        with pytest.raises(ValueError, match="trace-one"):
            concurrence.wootters_concurrence(np.eye(4))


class TestClosedForm:
    def test_ghz_marginal_separable(self):
        assert concurrence_at(SimplexPoint(1.0, 0.0))[1] == 0.0

    def test_pure_w_maximum(self):
        assert abs(concurrence_at(SimplexPoint(0.0, 1.0))[1] - 2 / 3) < 1e-12

    def test_gate_root_on_w_axis(self):
        root = (-3.0 + math.sqrt(180.0)) / 19.0
        assert abs(float(concurrence.concurrence_gate(0.0, root))) < 1e-12
        eps = 1e-6
        assert concurrence_at(SimplexPoint(0.0, root - eps))[1] == 0.0
        assert concurrence_at(SimplexPoint(0.0, root + eps))[1] > 0.0

    def test_pair_is_numeric_and_closed_form(self):
        for p in (SimplexPoint(0.1, 0.6), SimplexPoint(0.0, 1.0), SimplexPoint(0.3, 0.3)):
            numeric, closed = concurrence_at(p)
            rho23 = marginal_23(p)
            assert numeric == concurrence.wootters_concurrence(rho23)
            assert closed == float(concurrence.concurrence_23_closed(p.g, p.w))

    def test_gate_rejects_a_closed_form_off_by_more_than_1e9(self, monkeypatch):
        real = concurrence.concurrence_23_closed
        p = SimplexPoint(0.0, 1.0)
        monkeypatch.setattr(concurrence, "concurrence_23_closed", lambda g, w: real(g, w) + 0.9e-9)
        concurrence_at(p)
        monkeypatch.setattr(concurrence, "concurrence_23_closed", lambda g, w: real(g, w) + 1.1e-9)
        with pytest.raises(ConsistencyError,
                           match=r"concurrence closed vs numeric at \(g=0\.0, w=1\.0\)"):
            concurrence_at(p)

    def test_gate_names_the_first_failing_cell_of_a_batch(self, monkeypatch):
        # both cells past the gate are off by exactly 2e-9; on a tie the worst is the first
        real = concurrence.concurrence_23_closed
        monkeypatch.setattr(
            concurrence, "concurrence_23_closed", lambda g, w: real(g, w) + 2e-9 * (g > 0.5)
        )
        with pytest.raises(ConsistencyError,
                           match=r"concurrence closed vs numeric at \(g=0\.6, w=0\.1\)"):
            batch_concurrence(np.array([0.1, 0.6, 0.9]), np.array([0.6, 0.1, 0.0]))

    def test_matches_numeric_on_grid(self):
        for p in simplex_grid(15):
            closed = float(concurrence.concurrence_23_closed(p.g, p.w))
            rho23 = marginal_23(p)
            numeric = concurrence.wootters_concurrence(rho23)
            assert abs(closed - numeric) < 1e-9, p

    def test_matches_numeric_on_grid_to_roundoff(self):
        # the lambdas are singular values, not roots of near-zero eigenvalues
        for p in simplex_grid(15):
            closed = float(concurrence.concurrence_23_closed(p.g, p.w))
            rho23 = marginal_23(p)
            assert abs(closed - concurrence.wootters_concurrence(rho23)) < 1e-12, p

    def test_product_spectrum_matches_closed_everywhere(self):
        for p in simplex_grid(12):
            rho23 = marginal_23(p)
            spect = spin_flip_product_spectrum(rho23)
            expected = states.closed_form_spectra_grid([p.g], [p.w])["conc23"][0]
            assert np.max(np.abs(spect - expected)) < 1e-10, p

    def test_batch_equals_batch_of_one_bit_for_bit(self):
        rng = np.random.default_rng(11)
        u, v = rng.random(300), rng.random(300)
        flip = u + v > 1.0
        g = np.concatenate([np.where(flip, 1.0 - u, u), [0.0, 1.0, 0.0, 0.15]])
        w = np.concatenate([np.where(flip, 1.0 - v, v), [0.0, 0.0, 1.0, 0.85]])
        numeric, closed = batch_concurrence(g, w)
        for n in range(g.size):
            one = batch_concurrence(g[n : n + 1], w[n : n + 1])
            assert one[0].tobytes() == numeric[n : n + 1].tobytes(), (g[n], w[n])
            assert one[1].tobytes() == closed[n : n + 1].tobytes(), (g[n], w[n])

    def test_zero_when_top_roots_degenerate(self):
        for p in simplex_grid(12):
            rho23 = marginal_23(p)
            lam = np.sqrt(spin_flip_product_spectrum(rho23))
            if abs(lam[0] - lam[1]) < 1e-9:
                assert concurrence.wootters_concurrence(rho23) <= 1e-9, p
