"""Wootters concurrence of the two-qubit marginal, numeric and closed form.

The lambda values, the square roots of Spect(wtilde w), are taken as the
singular values of R Y conj(R) Y with R = sqrt(w) and Y = sigma_y (x)
sigma_y: that product is sqrt(w) sqrt(wtilde), so no square root of a
near-zero eigenvalue (which would magnify roundoff of 1e-17 to 1e-9) is
ever taken.  The spectrum itself comes from the Hermitian form
sqrt(w) wtilde sqrt(w), which has the same spectrum as wtilde w.
"""

from __future__ import annotations

import numpy as np

from . import linalg, states
from .config import psd_tol
from .exceptions import ConsistencyError
from .states import SimplexPoint

_SY2 = np.kron(
    np.array([[0.0, -1.0j], [1.0j, 0.0]]), np.array([[0.0, -1.0j], [1.0j, 0.0]])
)


def spin_flip(omega: np.ndarray) -> np.ndarray:
    """(sigma_y (x) sigma_y) conj(omega) (sigma_y (x) sigma_y)."""
    omega = np.asarray(omega, dtype=np.complex128)
    if omega.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {omega.shape}")
    return _SY2 @ np.conj(omega) @ _SY2


def spin_flip_product_spectrum(omega: np.ndarray) -> np.ndarray:
    """Spectrum of wtilde w via the Hermitian similarity, sorted non-increasing."""
    root = linalg.psd_sqrt(omega)
    product = root @ spin_flip(omega) @ root
    product = (product + np.conj(product.T)) / 2.0
    vals = linalg.hermitian_eigenvalues(product)
    worst = float(vals[-1])
    if worst < -psd_tol():
        raise ConsistencyError(f"spin-flip product has eigenvalue {worst:.3e} < 0")
    return np.clip(vals, 0.0, None)


def wootters_lambdas(omega: np.ndarray) -> np.ndarray:
    """Roots of Spect(wtilde w), non-increasing, for a 4x4 state or a batch of them."""
    root = linalg.psd_sqrt(omega)
    return linalg.singular_values(root @ _SY2 @ np.conj(root) @ _SY2)


def wootters_concurrence(omega: np.ndarray) -> float:
    """max(0, l1 - l2 - l3 - l4) with l_k the sorted roots of Spect(wtilde w)."""
    omega = np.asarray(omega, dtype=np.complex128)
    linalg.require_hermitian(omega)
    if abs(float(np.trace(omega).real) - 1.0) > 1e-10:
        raise ValueError("concurrence needs a trace-one density matrix")
    lam = wootters_lambdas(omega)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def concurrence_gate(g, w):
    """Sign gate for the closed form: nonnegative where the concurrence is nonzero."""
    g = np.asarray(g, dtype=float)
    w = np.asarray(w, dtype=float)
    return -9 * g**2 + 19 * w**2 + 6 * g * w - 18 * g + 6 * w - 9


def concurrence_23_closed(g, w):
    """Closed-form concurrence of the two-qubit marginal on the family."""
    g = np.asarray(g, dtype=float)
    w = np.asarray(w, dtype=float)
    dt, gt, wt = states.renormalized_weights(g, w)
    value = 2.0 * wt - 2.0 * np.sqrt((2 * dt + gt) * (2 * dt + gt + wt))
    return np.where(concurrence_gate(g, w) >= 0.0, value, 0.0)


def concurrence_23(p: SimplexPoint) -> tuple[float, float]:
    """(numeric, closed form) concurrence of the 2-3 marginal at a point.

    Raises ConsistencyError when the two differ by more than 1e-9.
    """
    closed = float(concurrence_23_closed(p.g, p.w))
    rho23, _ = states.marginals(p)
    numeric = wootters_concurrence(rho23)
    if abs(closed - numeric) > 1e-9:
        raise ConsistencyError(
            f"concurrence at {p}: closed {closed:.12e} vs numeric {numeric:.12e}"
        )
    return numeric, closed

