"""Closed forms and spectrum-to-margin maps of the 1|23-cut criteria.

The criteria are majorization, the Renyi entropies, partial transposition,
reduction and reshuffling.  ``criteria`` evaluates each of them once, over
arrays of weights: it computes the numeric spectra and singular values, turns
them into margins with the maps here, and checks them against the published
closed forms here.

One correction to the printed inequality table for the majorization
criterion: the k=1 partial-sum inequality in the (2/3)w <= g <= w case reads
w <= 3/19 + (9/19) g here.  The printed 3/19 coefficient on g fails against
direct spectral majorization, disagrees with the adjacent cases on both
shared boundaries, and misses the published borderline intersection point
(2/13, 3/13); the 9/19 version passes all three checks.
"""

from __future__ import annotations

import math

import numpy as np

from . import states
from .config import MARGINAL_BAND, RANK_TOL
from .exceptions import ConsistencyError
from .verdict import cell_name, sign_gap

SQRT2 = float(np.sqrt(2.0))

# entropy sweep orders, plus the Hartley and Chebyshev limits
ALPHA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0, 2.0, 3.0, 4.0, 5.0, 10.0, 20.0, math.inf)


def alpha_label(alpha: float) -> str:
    if math.isinf(alpha):
        return "inf"
    return f"{alpha:g}"


# ---------------------------------------------------------------------------
# majorization


def majorization_case_margins(g, w):
    """Closed-form majorization margins (rho1_margin, rho23_margin).

    Evaluates the three nontrivial partial-sum inequalities of the published
    case table; on case boundaries both adjacent rows are evaluated and must
    agree in sign (``sign_gap``), or ConsistencyError names the first such
    cell.  A cell that matches no case row, a NaN weight, stays NaN.
    """
    g = np.atleast_1d(np.asarray(g, dtype=float))
    w = np.atleast_1d(np.asarray(w, dtype=float))
    # (i) and (ii) margins per case row, scaled by 24 like the eigenvalues; a line that
    # several rows share is evaluated once, named by its constant term
    g3, w23, w43 = 3.0 * g, 2.0 / 3.0 * w, 4.0 / 3.0 * w
    eleven, fifth, one = 3.0 / 11.0 - 3.0 / 11.0 * g - w, w - g3 + 3.0 / 5.0, 1.0 - g3 - w
    seventeen, seventh = 9.0 / 17.0 + 3.0 / 17.0 * g - w, w - g3 + 9.0 / 7.0
    # printed as 3/19 g in the second row; see module docstring
    row_i = (eleven, 3.0 / 19.0 + 9.0 / 19.0 * g - w, fifth, fifth)
    row_ii = (one, one, one, eleven)
    row_iii = (seventeen, seventeen, seventh, seventh)
    case_masks = (g <= w23, (w23 <= g) & (g <= w), (w <= g) & (g <= w43), w43 <= g)
    m23 = np.full(g.shape, np.nan)
    m1 = np.full(g.shape, np.nan)
    for mask, mi, mii, miii in zip(case_masks, row_i, row_ii, row_iii):
        m23 = np.where(mask, np.fmin(m23, np.minimum(mi, mii)), m23)
        m1 = np.where(mask, np.fmin(m1, miii), m1)
    # rows sharing a case boundary must agree in sign there
    for a in range(3):
        overlap = np.flatnonzero(case_masks[a] & case_masks[a + 1])
        if overlap.size:
            for rows in (row_i, row_ii, row_iii):
                bad = overlap[~(sign_gap(rows[a][overlap], rows[a + 1][overlap]) <= MARGINAL_BAND)]
                if bad.size:
                    raise ConsistencyError("adjacent majorization case rows disagree on a shared "
                                           f"boundary at {cell_name(g[bad[0]], w[bad[0]])}")
    return m1, m23


def majorization_margins_from_spectra(spectra: dict[str, np.ndarray]):
    """(rho-vs-rho^1, rho-vs-rho^23) margins from descending spectra arrays."""
    sr = spectra["rho"]
    s1 = spectra["rho1"]
    s23 = spectra["rho23"]
    pc = np.cumsum(sr, axis=-1)

    def against(sm):
        qc = np.cumsum(sm, axis=-1)
        pad = np.broadcast_to(qc[..., -1:], pc.shape[:-1] + (pc.shape[-1] - qc.shape[-1],))
        qc_full = np.concatenate([qc, pad], axis=-1)
        # drop the k = n sum, which is identically zero slack
        return (qc_full - pc)[..., :-1].min(axis=-1)

    return against(s1), against(s23)


# ---------------------------------------------------------------------------
# entropy


def _renyi(p: np.ndarray, alpha: float) -> np.ndarray:
    if alpha == 0.0:
        return np.log((p > RANK_TOL).sum(axis=-1).astype(float))
    if alpha == 1.0:
        terms = np.where(p > 0.0, -p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
        return terms.sum(axis=-1)
    if math.isinf(alpha):
        return -np.log(p.max(axis=-1))
    return np.log((p**alpha).sum(axis=-1)) / (1.0 - alpha)


def entropy_margins_from_spectra(spectra: dict[str, np.ndarray], alpha: float):
    """(S_a(rho) - S_a(rho^1), S_a(rho) - S_a(rho^23)) from closed-form spectra,
    with any rounding below zero already clipped to zero."""
    hr = _renyi(spectra["rho"], alpha)
    return hr - _renyi(spectra["rho1"], alpha), hr - _renyi(spectra["rho23"], alpha)


# ---------------------------------------------------------------------------
# partial transposition / reduction


def ppt_closed_margins(g, w):
    """The two positivity quadratics of the partial transpose."""
    g = np.asarray(g, dtype=float)
    w = np.asarray(w, dtype=float)
    q1 = -135 * g**2 - 15 * w**2 - 6 * g * w - 18 * g + 6 * w + 9
    q2 = -27 * g**2 - 119 * w**2 - 18 * g * w + 18 * g - 18 * w + 9
    return q1, q2


def reduction_closed_margins(g, w):
    """The two additional inequalities from rho^1 (x) I - rho."""
    g = np.asarray(g, dtype=float)
    w = np.asarray(w, dtype=float)
    r3 = -63 * g**2 - 7 * w**2 - 54 * g * w - 162 * g + 54 * w + 81
    r4 = 3 * g - (9 + 8 * SQRT2) * w + 9
    return r3, r4


# ---------------------------------------------------------------------------
# reshuffling across 1|23


def reshuffle24_closed_singular_values(g, w) -> np.ndarray:
    """The four closed-form singular values of R(rho), sorted non-increasing."""
    g = np.asarray(g, dtype=float)
    w = np.asarray(w, dtype=float)
    dt, gt, wt = states.renormalized_weights(g, w)
    d2, d3, g2, w2 = dt**2, dt**3, gt**2, wt**2  # each power once
    p1 = 16 * d2 + 4 * g2 + 10 * w2 + 8 * dt * gt + 12 * dt * wt
    p2 = (
        64 * dt**4 + 9 * wt**4 + 64 * d3 * gt + 96 * d3 * wt + 12 * dt * wt**3
        + 16 * d2 * g2 + 40 * d2 * w2 + 4 * g2 * w2
        + 80 * d2 * gt * wt + 16 * dt * g2 * wt + 24 * dt * gt * w2
    )
    root = 2.0 * np.sqrt(p2)
    s_plus = np.sqrt(np.maximum(p1 + root, 0.0)) / 2.0
    s_minus = np.sqrt(np.maximum(p1 - root, 0.0)) / 2.0
    s_pair = np.sqrt(g2 + 2 * w2)
    svs = np.stack([s_plus, s_minus, s_pair, s_pair], axis=-1)
    svs.sort(axis=-1)
    return svs[..., ::-1]
