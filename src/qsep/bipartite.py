"""Closed forms and spectrum-to-margin maps of the 1|23-cut criteria.

The criteria are majorization, the Renyi entropies, partial transposition,
reduction and reshuffling.  ``criteria`` evaluates each of them once, over
arrays of weights: it computes the numeric spectra and singular values,
checks them against ``states.closed_form_spectra_grid``, turns them into
margins with the maps here, and checks the signs of the margins against the
published closed forms here.

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


def entropy_values(closed: dict[str, np.ndarray]) -> np.ndarray:
    """The (9, cells) array of the distinct eigenvalues the entropy margins read, from the
    ``states.closed_form_spectra_grid`` table ``closed``, any rounding below zero clipped to
    zero: rho's three largest (on the simplex its two simple values, d/8 + g and d/8 + w in
    either order, then its six-fold d/8), rho^1's two and rho^23's four, non-increasing."""
    # a C-ordered first block makes the result C-ordered, as entropy_margins' row reads want
    rho = np.ascontiguousarray(closed["rho"].T[:3])
    values = np.concatenate([rho, closed["rho1"].T, closed["rho23"].T])
    return np.maximum(values, 0.0, out=values)


def _terms(values: np.ndarray, alpha: float) -> np.ndarray:
    """The summands of the order-``alpha`` entropy of each value: its support indicator
    (alpha = 0), its Shannon term (alpha = 1) or its power."""
    if alpha == 0.0:
        return (values > RANK_TOL).astype(float)
    if alpha == 1.0:
        live = values > 0.0
        return np.where(live, -values * np.log(np.where(live, values, 1.0)), 0.0)
    return values**alpha


_ENTROPY_BLOCK = 1024  # orders x cells per step of entropy_margins: one order per step of a chunk


def entropy_margins(values: np.ndarray, alphas) -> dict[float, tuple[np.ndarray, np.ndarray]]:
    """(S_a(rho) - S_a(rho^1), S_a(rho) - S_a(rho^23)) of each order a in ``alphas``, from the
    (9, cells) ``entropy_values`` array.

    Each finite order raises the array once, with its scalar exponent, and
    the sums of a step's orders (as many as fit ``_ENTROPY_BLOCK`` with the
    cells: every order of a point, one of a chunk) are written out together,
    in the order numpy sums the sorted spectra along their last axis, so each
    margin has the bits of that sum: rho's eight terms pairwise, ((p0 + p1) +
    (d + d)) + ((d + d) + (d + d)), with d the six-fold value's term, and the
    two and four terms of rho^1 and rho^23 left to right from +0.0.  On the
    simplex rho's two simple values are its two largest, so rho's terms are
    in its sorted order.
    """
    # S_1 is its sum itself, so it comes last, after the orders whose sums take a log
    finite = sorted((alpha for alpha in alphas if not math.isinf(alpha)), key=lambda alpha: alpha == 1.0)
    step = max(1, _ENTROPY_BLOCK // values.shape[1])
    out = {}
    for first in range(0, len(finite), step):
        orders = finite[first:first + step]
        terms = [_terms(values, alpha) for alpha in orders]
        t = np.stack(terms, axis=1) if len(terms) > 1 else terms[0][:, None]  # (9, orders, cells)
        d = t[2] + t[2]
        h = np.stack([((t[0] + t[1]) + d) + (d + d), (0.0 + t[3]) + t[4],
                      (((0.0 + t[5]) + t[6]) + t[7]) + t[8]], axis=1)  # (orders, 3, cells)
        logged = sum(alpha != 1.0 for alpha in orders)
        np.log(h[:logged], out=h[:logged])
        h[:logged] /= np.array([1.0 - alpha for alpha in orders[:logged]])[:, None, None]
        out.update(zip(orders, zip(h[:, 0] - h[:, 1], h[:, 0] - h[:, 2])))
    for alpha in alphas:
        if math.isinf(alpha):
            h = -np.log(np.stack([values[:3].max(axis=0), values[3:5].max(axis=0), values[5:].max(axis=0)]))
            out[alpha] = (h[0] - h[1], h[0] - h[2])
    return out


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
