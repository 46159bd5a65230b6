"""Bipartite separability criteria across the 1|23 cut.

Each criterion is evaluated twice: numerically from the actual matrices
(LAPACK spectra and singular values) and through the published closed
forms.  The two paths must agree in sign outside the marginality band or a
ConsistencyError is raised.

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

from . import linalg, states
from .config import RANK_TOL
from .exceptions import ConsistencyError
from .states import SimplexPoint
from .verdict import CriterionVerdict, assert_signs_agree, signs_agree

SQRT2 = float(np.sqrt(2.0))

# entropy sweep orders, plus the Hartley and Chebyshev limits
ALPHA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0, 2.0, 3.0, 4.0, 5.0, 10.0, 20.0, math.inf)


def alpha_label(alpha: float) -> str:
    if math.isinf(alpha):
        return "inf"
    return f"{alpha:g}"


# ---------------------------------------------------------------------------
# majorization


def majorizes(p, q, *, slack: float = 1e-12) -> bool:
    """True iff p is majorized by q (p "more disordered"), padded to equal length."""
    return bool(majorization_margin(p, q) >= -slack)


def majorization_margin(p, q) -> float:
    """min_k (sum_k q_desc - sum_k p_desc); nonnegative iff p is majorized by q.

    The k = n partial sum is excluded: both sides equal 1 there, so it would
    pin every margin to zero.
    """
    p = _check_distribution(np.asarray(p, dtype=float))
    q = _check_distribution(np.asarray(q, dtype=float))
    n = max(p.size, q.size)
    p = np.pad(p, (0, n - p.size))
    q = np.pad(q, (0, n - q.size))
    pc = np.cumsum(np.sort(p)[::-1])[:-1]
    qc = np.cumsum(np.sort(q)[::-1])[:-1]
    return float(np.min(qc - pc))


def _check_distribution(p: np.ndarray) -> np.ndarray:
    if np.any(p < -1e-9):
        raise ValueError(f"negative probabilities beyond tolerance: min {p.min():.3e}")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {total}, not 1")
    return np.clip(p, 0.0, None)


def majorization_case_margins(g, w):
    """Closed-form majorization margins (rho1_margin, rho23_margin).

    Evaluates the three nontrivial partial-sum inequalities of the published
    case table; on case boundaries both adjacent rows are evaluated and must
    agree in sign.
    """
    g = np.atleast_1d(np.asarray(g, dtype=float))
    w = np.atleast_1d(np.asarray(w, dtype=float))
    # (i) and (ii) margins per case row, scaled by 24 like the eigenvalues
    row_i = (
        3.0 / 11.0 - 3.0 / 11.0 * g - w,
        3.0 / 19.0 + 9.0 / 19.0 * g - w,  # printed as 3/19 g; see module docstring
        w - 3.0 * g + 3.0 / 5.0,
        w - 3.0 * g + 3.0 / 5.0,
    )
    row_ii = (
        1.0 - 3.0 * g - w,
        1.0 - 3.0 * g - w,
        1.0 - 3.0 * g - w,
        3.0 / 11.0 - 3.0 / 11.0 * g - w,
    )
    row_iii = (
        9.0 / 17.0 + 3.0 / 17.0 * g - w,
        9.0 / 17.0 + 3.0 / 17.0 * g - w,
        w - 3.0 * g + 9.0 / 7.0,
        w - 3.0 * g + 9.0 / 7.0,
    )
    case_masks = (
        g <= 2.0 / 3.0 * w,
        (2.0 / 3.0 * w <= g) & (g <= w),
        (w <= g) & (g <= 4.0 / 3.0 * w),
        4.0 / 3.0 * w <= g,
    )
    m23 = np.full(g.shape, np.inf)
    m1 = np.full(g.shape, np.inf)
    for mask, mi, mii, miii in zip(case_masks, row_i, row_ii, row_iii):
        m23 = np.where(mask, np.minimum(m23, np.minimum(mi, mii)), m23)
        m1 = np.where(mask, np.minimum(m1, miii), m1)
    # rows sharing a case boundary must agree in sign there
    for a in range(3):
        overlap = case_masks[a] & case_masks[a + 1]
        if np.any(overlap):
            for rows in (row_i, row_ii, row_iii):
                if not np.all(signs_agree(rows[a][overlap], rows[a + 1][overlap])):
                    raise ConsistencyError(
                        "adjacent majorization case rows disagree on a shared boundary"
                    )
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
        return np.min((qc_full - pc)[..., :-1], axis=-1)

    return against(s1), against(s23)


def criterion_majorization(p: SimplexPoint) -> tuple[CriterionVerdict, CriterionVerdict]:
    """Majorization criterion across 1|23: (rho-vs-rho^1, rho-vs-rho^23) verdicts."""
    rho = states.build_rho(p)
    rho23, rho1 = states.marginals(p)
    sr = linalg.hermitian_eigenvalues(rho)
    s23 = linalg.hermitian_eigenvalues(rho23)
    s1 = linalg.hermitian_eigenvalues(rho1)
    spectra = {"rho": sr, "rho1": s1, "rho23": s23}
    m1, m23 = majorization_margins_from_spectra(spectra)
    c1, c23 = majorization_case_margins(p.g, p.w)
    assert_signs_agree("majorization rho^1", m1, c1, p.g, p.w)
    assert_signs_agree("majorization rho^23", m23, c23, p.g, p.w)
    kind = "min partial-sum slack"
    return (
        CriterionVerdict.from_margin("maj_rho1", float(m1), kind),
        CriterionVerdict.from_margin("maj_rho23", float(m23), kind),
    )


# ---------------------------------------------------------------------------
# entropy


def renyi_entropy(p, alpha: float) -> float:
    """Renyi entropy of a distribution; alpha 0, 1 and inf take their limits."""
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    p = _check_distribution(np.asarray(p, dtype=float))
    return float(_renyi(p[None, :], alpha)[0])


def _renyi(p: np.ndarray, alpha: float) -> np.ndarray:
    if alpha == 0.0:
        return np.log(np.sum(p > RANK_TOL, axis=-1).astype(float))
    if alpha == 1.0:
        terms = np.where(p > 0.0, -p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
        return np.sum(terms, axis=-1)
    if math.isinf(alpha):
        return -np.log(np.max(p, axis=-1))
    return np.log(np.sum(p**alpha, axis=-1)) / (1.0 - alpha)


def entropy_margins_from_spectra(spectra: dict[str, np.ndarray], alpha: float):
    """(S_a(rho) - S_a(rho^1), S_a(rho) - S_a(rho^23)) from closed-form spectra."""
    sr = np.clip(spectra["rho"], 0.0, None)
    s1 = np.clip(spectra["rho1"], 0.0, None)
    s23 = np.clip(spectra["rho23"], 0.0, None)
    hr = _renyi(sr, alpha)
    return hr - _renyi(s1, alpha), hr - _renyi(s23, alpha)


def criterion_entropy(p: SimplexPoint, alpha: float) -> tuple[CriterionVerdict, CriterionVerdict]:
    """Entropy criterion S_a(rho) >= S_a(marginal), from the closed-form spectra."""
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    spectra = states.closed_form_spectra(p)
    m1, m23 = entropy_margins_from_spectra(spectra, alpha)
    label = alpha_label(alpha)
    kind = "entropy difference"
    return (
        CriterionVerdict.from_margin(f"entropy_rho1_a{label}", float(m1), kind),
        CriterionVerdict.from_margin(f"entropy_rho23_a{label}", float(m23), kind),
    )


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


def criterion_ppt(p: SimplexPoint) -> CriterionVerdict:
    """Peres partial transposition criterion; margin is the smallest eigenvalue."""
    vals = linalg.hermitian_eigenvalues(states.partial_transpose_1(p))
    margin = float(vals[-1])
    q1, q2 = ppt_closed_margins(p.g, p.w)
    assert_signs_agree("PPT", margin, min(float(q1), float(q2)), p.g, p.w)
    return CriterionVerdict.from_margin("ppt", margin, "min eigenvalue of rho^T1")


def criterion_reduction(p: SimplexPoint) -> CriterionVerdict:
    """Reduction criterion; margin is the smallest eigenvalue over both matrices."""
    first, second = states.reduction_matrices(p)
    v1 = linalg.hermitian_eigenvalues(first)
    v2 = linalg.hermitian_eigenvalues(second)
    margin = float(min(v1[-1], v2[-1]))
    q1, q2 = ppt_closed_margins(p.g, p.w)
    r3, r4 = reduction_closed_margins(p.g, p.w)
    closed = min(float(q1), float(q2), float(r3), float(r4))
    assert_signs_agree("reduction", margin, closed, p.g, p.w)
    return CriterionVerdict.from_margin("reduction", margin, "min eigenvalue of reduction maps")


# ---------------------------------------------------------------------------
# reshuffling across 1|23


def reshuffle24_closed_singular_values(g, w) -> np.ndarray:
    """The four closed-form singular values of R(rho), sorted non-increasing."""
    g = np.asarray(g, dtype=float)
    w = np.asarray(w, dtype=float)
    dt, gt, wt = states.renormalized_weights(g, w)
    p1 = 16 * dt**2 + 4 * gt**2 + 10 * wt**2 + 8 * dt * gt + 12 * dt * wt
    p2 = (
        64 * dt**4 + 9 * wt**4 + 64 * dt**3 * gt + 96 * dt**3 * wt + 12 * dt * wt**3
        + 16 * dt**2 * gt**2 + 40 * dt**2 * wt**2 + 4 * gt**2 * wt**2
        + 80 * dt**2 * gt * wt + 16 * dt * gt**2 * wt + 24 * dt * gt * wt**2
    )
    root = 2.0 * np.sqrt(p2)
    s_plus = np.sqrt(np.clip(p1 + root, 0.0, None)) / 2.0
    s_minus = np.sqrt(np.clip(p1 - root, 0.0, None)) / 2.0
    s_pair = np.sqrt(gt**2 + 2 * wt**2)
    svs = np.stack([s_plus, s_minus, s_pair, s_pair], axis=-1)
    return np.sort(svs, axis=-1)[..., ::-1]


def criterion_reshuffling_24(p: SimplexPoint) -> CriterionVerdict:
    """Reshuffling (realignment) criterion; margin is 1 - ||R(rho)||_tr."""
    numeric = linalg.singular_values(states.reshuffle_24(p))
    closed = reshuffle24_closed_singular_values(p.g, p.w)
    defect = float(np.max(np.abs(numeric - closed)))
    if defect > 1e-10:
        raise ConsistencyError(
            f"reshuffling singular values at {p}: closed-form deviation {defect:.3e}"
        )
    margin = float(1.0 - np.sum(numeric))
    return CriterionVerdict.from_margin("resh24", margin, "1 - trace norm")
