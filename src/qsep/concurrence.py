"""Wootters concurrence of a two-qubit state, and its closed form on the family's marginal.

The lambda values, the square roots of Spect(wtilde w), are taken as the
singular values of R Y conj(R) Y with R = sqrt(w) and Y = sigma_y (x)
sigma_y: that product is sqrt(w) sqrt(wtilde), so no square root of a
near-zero eigenvalue (which would magnify roundoff of 1e-17 to 1e-9) is
ever taken.  ``criteria.Batch.concurrence`` reads the lambdas of the 2-3
marginal rho^23 of a batch, checks their squares against the closed-form
Spect(wtilde w) and the concurrence against ``concurrence_23_closed``;
``qsep eval`` and ``qsep verify`` read it there.
"""

from __future__ import annotations

import numpy as np

from . import linalg, states

_SY2 = np.kron(
    np.array([[0.0, -1.0j], [1.0j, 0.0]]), np.array([[0.0, -1.0j], [1.0j, 0.0]])
)


def wootters_lambdas(omega: np.ndarray) -> np.ndarray:
    """Roots of Spect(wtilde w), non-increasing, for a 4x4 state or a batch of them."""
    root = linalg.psd_sqrt(omega)
    return linalg.singular_values(root @ _SY2 @ np.conj(root) @ _SY2)


def wootters_concurrence(omega: np.ndarray) -> np.ndarray:
    """max(0, l1 - l2 - l3 - l4) with l_k the sorted roots of Spect(wtilde w),
    for a 4x4 state or a batch of them."""
    omega = np.asarray(omega, dtype=np.complex128)
    linalg.require_hermitian(omega)
    traces = np.einsum("...ii->...", omega).real
    if not np.all(np.abs(traces - 1.0) <= 1e-10):
        raise ValueError("concurrence needs a trace-one density matrix")
    lam = wootters_lambdas(omega)
    return np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])


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
