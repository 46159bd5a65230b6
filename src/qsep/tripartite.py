"""Genuinely three-partite criteria and the fully-entangled class bounds.

Covers the spin-observable inequalities for biseparability and for the
intersection of the bipartition-separable sets, the two-copy swap criterion,
the matrix-element criteria with their substitution family, the witness
operators, and the GHZ-class triangle bound.  ``criteria`` evaluates them
over arrays of weights.  ``criterion_su`` and ``criterion_huber`` are
independent per-point references: they build explicit three-qubit
observables and 64-dimensional swap operators, and ``qsep verify`` compares
them with the grid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import linalg, states
from .config import MARGINAL_BAND
from .exceptions import ConsistencyError
from .states import SimplexPoint
from .verdict import cell_name, sign_gap

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
ID2 = np.eye(2, dtype=np.complex128)

SETTING_I = (PAULI_X, PAULI_Y, PAULI_Z)
SETTING_II = (PAULI_Y, PAULI_Z, PAULI_X)
SETTING_III = (PAULI_Z, PAULI_X, PAULI_Y)
PUBLISHED_SETTINGS = (SETTING_I, SETTING_II, SETTING_III)

LEVELS = ("2sep", "28cap3", "3sep")
_LEVEL_TAG = {"2sep": "2", "28cap3": "283", "3sep": "3"}
_LEVEL_CAP = {"28cap3": 0.25, "3sep": 1.0 / 16.0}


def validate_triad(triad) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check an orthogonal spin triad to 1e-12: Hermitian, squares to I, anticommuting."""
    if len(triad) != 3:
        raise ValueError("a setting triad needs exactly three observables")
    ops = tuple(np.asarray(t, dtype=np.complex128) for t in triad)
    for op in ops:
        if op.shape != (2, 2):
            raise ValueError("triad observables must be 2x2")
        if linalg.hermiticity_defect(op) > 1e-12:
            raise ValueError("triad observable is not Hermitian")
        if np.max(np.abs(op @ op - ID2)) > 1e-12:
            raise ValueError("triad observable does not square to the identity")
    for a in range(3):
        b = (a + 1) % 3
        if np.max(np.abs(ops[a] @ ops[b] + ops[b] @ ops[a])) > 1e-12:
            raise ValueError("triad observables do not pairwise anticommute")
    return ops


def build_spin_observables(t1, t2, t3) -> dict[str, list[np.ndarray]]:
    """Four sets of three-qubit observables (X_x, Y_x, Z_x, I_x), x = 0..3.

    ``t1`` acts on qubit 1; ``t2`` and ``t3`` enter the two-qubit layer on
    qubits 2 and 3.
    """
    x1, y1, z1 = validate_triad(t1)
    x2, y2, z2 = validate_triad(t2)
    x3, y3, z3 = validate_triad(t3)
    # two sets of two-qubit observables on qubits 2 (x) 3
    x2q = [
        (np.kron(x2, x3) - np.kron(y2, y3)) / 2.0,
        (np.kron(x2, x3) + np.kron(y2, y3)) / 2.0,
    ]
    y2q = [
        (np.kron(y2, x3) + np.kron(x2, y3)) / 2.0,
        (np.kron(y2, x3) - np.kron(x2, y3)) / 2.0,
    ]
    z2q = [
        (np.kron(z2, ID2) + np.kron(ID2, z3)) / 2.0,
        (np.kron(z2, ID2) - np.kron(ID2, z3)) / 2.0,
    ]
    i2q = [
        (np.kron(ID2, ID2) + np.kron(z2, z3)) / 2.0,
        (np.kron(ID2, ID2) - np.kron(z2, z3)) / 2.0,
    ]
    obs = {"X": [None] * 4, "Y": [None] * 4, "Z": [None] * 4, "I": [None] * 4}
    id4 = np.eye(4, dtype=np.complex128)
    for y in (0, 2):
        lvl = y // 2
        obs["X"][y] = (np.kron(x1, x2q[lvl]) - np.kron(y1, y2q[lvl])) / 2.0
        obs["X"][y + 1] = (np.kron(x1, x2q[lvl]) + np.kron(y1, y2q[lvl])) / 2.0
        obs["Y"][y] = (np.kron(y1, x2q[lvl]) + np.kron(x1, y2q[lvl])) / 2.0
        obs["Y"][y + 1] = (np.kron(y1, x2q[lvl]) - np.kron(x1, y2q[lvl])) / 2.0
        obs["Z"][y] = (np.kron(z1, i2q[lvl]) + np.kron(ID2, z2q[lvl])) / 2.0
        obs["Z"][y + 1] = (np.kron(z1, i2q[lvl]) - np.kron(ID2, z2q[lvl])) / 2.0
        obs["I"][y] = (np.kron(ID2, i2q[lvl]) + np.kron(z1, z2q[lvl])) / 2.0
        obs["I"][y + 1] = (np.kron(ID2, i2q[lvl]) - np.kron(z1, z2q[lvl])) / 2.0
    return obs


# the published polynomial of each level, by setting; for 28cap3 and 3sep the cap
# inequality is slack on the whole simplex for these settings
_SU_POLYNOMIALS = {
    "2sep": (
        lambda g, w: -7 * g**2 - 6 * g * w - 15 * w**2 - 18 * g + 6 * w + 9,
        lambda g, w: -9 * g**2 - 5 * w**2 - 12 * w + 9,
        lambda g, w: -(g**2) - 5 * w**2 - 12 * w + 9,
    ),
    "28cap3": (
        lambda g, w: -45 * g**2 - 2 * g * w - 5 * w**2 - 6 * g + 2 * w + 3,
        lambda g, w: -9 * g**2 - 77 * w**2 - 12 * w + 9,
        lambda g, w: -9 * g**2 - 77 * w**2 - 12 * w + 9,
    ),
}
_SU_POLYNOMIALS["3sep"] = _SU_POLYNOMIALS["28cap3"]


def su_closed_margin(g, w, setting_index: int, level: str):
    """Published polynomial margin for Settings I-III (0-indexed)."""
    if level not in _SU_POLYNOMIALS:
        raise ValueError(f"unknown level {level!r}")
    return _SU_POLYNOMIALS[level][setting_index](np.asarray(g, dtype=float), np.asarray(w, dtype=float))


def _published_setting_index(triads) -> int | None:
    sites = [tuple(np.asarray(t, dtype=np.complex128) for t in triad) for triad in triads]
    for idx, setting in enumerate(PUBLISHED_SETTINGS):
        if all(np.array_equal(site[k], setting[k]) for site in sites for k in range(3)):
            return idx
    return None


def su_margins_from_expectations(ex, ey, ez, ei, level: str):
    """Criterion margin from the four expectation quadruples (arrays allowed)."""
    ex, ey, ez, ei = (np.asarray(v, dtype=float) for v in (ex, ey, ez, ei))
    xy = ex**2 + ey**2
    iz = ei**2 - ez**2
    if level == "2sep":
        terms = np.sqrt(np.clip(iz, 0.0, None))
        total = np.sum(terms, axis=0)
        margins = (total - terms) - np.sqrt(xy)
        return np.min(margins, axis=0)
    cap = _LEVEL_CAP[level]
    min_iz = np.min(iz, axis=0)
    gap = min_iz - np.max(xy, axis=0)
    return np.minimum(gap, cap - min_iz)


def criterion_su(p: SimplexPoint, triads, level: str) -> float:
    """Margin of the spin-observable criterion for one of the three separability levels.

    ``triads`` is a (t1, t2, t3) tuple of per-site setting triads.  For the
    three published settings the matching closed-form polynomial is evaluated
    alongside and must agree in sign.
    """
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r}, want one of {LEVELS}")
    obs = build_spin_observables(*triads)
    rho = states.build_rho(p)
    ev = {
        key: np.array([float(np.trace(o @ rho).real) for o in obs[key]])
        for key in ("X", "Y", "Z", "I")
    }
    margin = float(su_margins_from_expectations(ev["X"], ev["Y"], ev["Z"], ev["I"], level))
    idx = _published_setting_index(triads)
    if idx is not None:
        closed = float(su_closed_margin(p.g, p.w, idx, level))
        if not sign_gap(margin, closed) <= MARGINAL_BAND:
            raise ConsistencyError(f"su{_LEVEL_TAG[level]}_set{idx + 1} at {cell_name(p.g, p.w)}: "
                                   f"numeric margin {margin:.3e} vs closed form {closed:.3e}")
    return margin


@functools.cache
def _spin_coefficients(setting_index: int) -> dict[str, np.ndarray]:
    """(identity, GHZ, W) coefficient triple of every observable of one published setting."""
    obs = build_spin_observables(*(PUBLISHED_SETTINGS[setting_index],) * 3)
    ghz = states.ghz_vector()
    wv = states.w_vector()
    return {
        key: np.array(
            [
                [
                    float(np.trace(o).real) / 8.0,
                    float((np.conj(ghz) @ (o @ ghz)).real),
                    float((np.conj(wv) @ (o @ wv)).real),
                ]
                for o in obs[key]
            ]
        )
        for key in ("X", "Y", "Z", "I")
    }


def su_expectations_grid(g, w, setting_index: int) -> dict[str, np.ndarray]:
    """Expectation values of the four observable sets of one published setting,
    by (observable, cell), over weight arrays.

    Expectation values are linear in the mixing weights, so each observable
    contributes a cached coefficient triple (identity, GHZ, W); they are
    identical to per-point traces up to rounding.
    """
    g = np.asarray(g, dtype=float)
    w = np.asarray(w, dtype=float)
    coeffs = _spin_coefficients(setting_index)
    d = np.maximum(1.0 - g - w, 0.0)
    return {
        key: (
            coeffs[key][:, 0][:, None] * d[None, :]
            + coeffs[key][:, 1][:, None] * g[None, :]
            + coeffs[key][:, 2][:, None] * w[None, :]
        )
        for key in coeffs
    }


def su_margins_grid(g, w, setting_index: int, level: str, expectations=None) -> np.ndarray:
    """Criterion margins over weight arrays for one published setting.

    ``expectations`` are the setting's ``su_expectations_grid`` on the same
    weights, computed here when not given; the three levels of a setting
    share them.  ``criteria`` checks the signs against ``su_closed_margin``.
    """
    ev = su_expectations_grid(g, w, setting_index) if expectations is None else expectations
    return su_margins_from_expectations(ev["X"], ev["Y"], ev["Z"], ev["I"], level)


# ---------------------------------------------------------------------------
# two-copy swap criterion


@functools.cache
def _swap_matrix(positions: tuple[int, ...]) -> np.ndarray:
    """Permutation matrix on 6 qubit slots swapping slot a and a+3 for a in positions."""
    dim = 64
    m = np.zeros((dim, dim))
    for src in range(dim):
        bits = [(src >> (5 - k)) & 1 for k in range(6)]
        for a in positions:
            bits[a], bits[a + 3] = bits[a + 3], bits[a]
        dst = 0
        for b in bits:
            dst = (dst << 1) | b
        m[dst, src] = 1.0
    return m


def swap_operator(subsystems: tuple[int, ...]) -> np.ndarray:
    """P_S for S a subset of {1, 2, 3}: swaps those subsystems between copies."""
    key = tuple(sorted(int(a) for a in subsystems))
    if any(a not in (1, 2, 3) for a in key):
        raise ValueError(f"subsystem labels must be in {{1,2,3}}, got {subsystems}")
    return _swap_matrix(tuple(a - 1 for a in key))


BIPARTITE_SPLITS = (((1,), (2, 3)), ((2,), (1, 3)), ((3,), (1, 2)))


def phi_ghz() -> np.ndarray:
    """Detection vector |000111> on the doubled space."""
    v = np.zeros(64, dtype=np.complex128)
    v[0b000111] = 1.0
    return v


def phi_w() -> np.ndarray:
    """Hadamard-rotated detection vector H^(x6) |000111>."""
    h = states.hadamard()
    h6 = h
    for _ in range(5):
        h6 = np.kron(h6, h)
    return h6 @ phi_ghz()


def _require_product_vector(phi: np.ndarray) -> None:
    phi = np.asarray(phi)
    if phi.shape != (64,):
        raise ValueError("detection vector must live on the 64-dimensional doubled space")
    norm = float(np.linalg.norm(phi))
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"detection vector norm is {norm}, not 1")
    tensor = phi.reshape((2,) * 6)
    for site in range(6):
        moved = np.moveaxis(tensor, site, 0).reshape(2, 32)
        marginal = moved @ np.conj(moved.T)
        purity = float(np.trace(marginal @ marginal).real)
        if purity < 1.0 - 1e-10:
            raise ValueError(
                f"detection vector is not a product of single-qubit states "
                f"(site {site} purity {purity:.12f})"
            )


def criterion_huber(p: SimplexPoint, phi: np.ndarray, k: int) -> float:
    """Margin of the two-copy swap criterion for k-separability, k in {2, 3}.

    Left side sqrt(<Phi| rho(x)rho P_tot |Phi>); right side sums the 2k-th
    root products over all k-partite splits.  Everything is evaluated with
    explicit 64x64 swap operators.
    """
    if k not in (2, 3):
        raise ValueError(f"k must be 2 or 3, got {k}")
    phi = np.asarray(phi, dtype=np.complex128)
    _require_product_vector(phi)
    rho = states.build_rho(p).astype(np.complex128)  # one cast, not one per product with phi
    rr = np.kron(rho, rho)
    ptot = swap_operator((1, 2, 3))
    lhs = float(np.sqrt(max(0.0, float(np.real(np.conj(phi) @ (rr @ (ptot @ phi)))))))

    def q(subsys: tuple[int, ...]) -> float:
        shifted = swap_operator(subsys) @ phi
        return max(0.0, float(np.real(np.conj(shifted) @ (rr @ shifted))))

    if k == 2:
        rhs = sum((q(s1) * q(s2)) ** 0.25 for s1, s2 in BIPARTITE_SPLITS)
    else:
        rhs = (q((1,)) * q((2,)) * q((3,))) ** (1.0 / 6.0)
    return float(rhs - lhs)


_HUBER_PHIS = {"ghz": phi_ghz, "w": phi_w}
_SWAP_SUBSETS = ((1,), (2,), (3,), (2, 3), (1, 3), (1, 2))
# swapping a subset or its complement gives one expectation, because rho (x) rho is
# symmetric under exchanging the copies; the complements read their subset's form
_COMPLEMENTS = {(2, 3): (1,), (1, 3): (2,), (1, 2): (3,)}


@functools.cache
def _huber_coefficients(phi_tag: str) -> dict[tuple, np.ndarray]:
    """3x3 weight-bilinear coefficient matrices of every distinct swap expectation.

    rho (x) rho is bilinear in the mixing weights, so each quantity
    <Phi_S| rho(x)rho |Phi_S> (and the left side with P_tot) is a quadratic
    form c^T Q c in c = (d, g, w); the Q are contractions of the explicit
    64-dimensional swap operators and are cached per detection vector.
    """
    phi = _HUBER_PHIS[phi_tag]()
    ghz = states.ghz_vector()
    wv = states.w_vector()
    basis = (
        np.eye(8, dtype=np.complex128) / 8.0,
        np.outer(ghz, np.conj(ghz)),
        np.outer(wv, np.conj(wv)),
    )
    # (bra, ket) of each distinct expectation
    sides = {subset: (swap_operator(subset) @ phi,) * 2 for subset in _SWAP_SUBSETS
             if subset not in _COMPLEMENTS}
    sides[("tot",)] = (phi, swap_operator((1, 2, 3)) @ phi)
    return {
        key: np.array([[np.conj(bra) @ (np.kron(a, b) @ ket) for b in basis] for a in basis])
        for key, (bra, ket) in sides.items()
    }


def huber_forms_grid(g, w, phi_tag: str) -> dict[tuple, np.ndarray]:
    """The seven swap expectations of the named detection vector over weight arrays,
    keyed like ``_huber_coefficients`` and clipped at zero: four quadratic forms, and
    each complement of a single qubit reading that qubit's form."""
    g, w = np.asarray(g, dtype=float), np.asarray(w, dtype=float)
    c = np.stack([np.maximum(1.0 - g - w, 0.0), g, w], axis=0)
    forms = {
        key: np.clip(np.real(np.einsum("an,ab,bn->n", c, q, c)), 0.0, None)
        for key, q in _huber_coefficients(phi_tag).items()
    }
    forms.update({subset: forms[single] for subset, single in _COMPLEMENTS.items()})
    return forms


def huber_margins_grid(g, w, phi_tag: str, k: int, forms=None) -> np.ndarray:
    """Swap-criterion margins over weight arrays for the named detection vector, from
    its ``huber_forms_grid`` on the same weights (``forms``, computed when not given)."""
    if k not in (2, 3):
        raise ValueError(f"k must be 2 or 3, got {k}")
    q = huber_forms_grid(g, w, phi_tag) if forms is None else forms
    lhs = np.sqrt(q[("tot",)])
    if k == 2:
        rhs = sum((q[s1] * q[s2]) ** 0.25 for s1, s2 in BIPARTITE_SPLITS)
    else:
        rhs = (q[(1,)] * q[(2,)] * q[(3,)]) ** (1.0 / 6.0)
    return rhs - lhs


@functools.cache
def _huber_entry_columns(phi_tag: str) -> np.ndarray:
    """Columns that read E_ii (i = 0..7), E_07 and E_70 of E = U rho U off the flattened
    rho; U is the identity for the GHZ vector and H^(x3) for the W vector."""
    u = np.eye(8) if phi_tag == "ghz" else functools.reduce(np.kron, [states.hadamard().real] * 3)
    entries = [(i, i) for i in range(8)] + [(0, 7), (7, 0)]
    columns = np.stack([np.outer(u[i], u[:, j]).reshape(64) for i, j in entries], axis=-1)
    columns.flags.writeable = False  # shared by every call
    return columns


def huber_element_forms(rho: np.ndarray, phi_tag: str) -> dict[tuple, np.ndarray]:
    """The ``huber_forms_grid`` of one density matrix or a batch, from its entries: swapping
    S between the copies of |000>|111> gives |a>|7-a>, so <Phi_S| rho(x)rho |Phi_S> is
    E_aa E_(7-a)(7-a) (``_huber_entry_columns``); the left side is E_07 E_70."""
    e = np.real(rho).reshape(rho.shape[:-2] + (64,)) @ _huber_entry_columns(phi_tag)
    forms = {("tot",): e[..., 8] * e[..., 9]}
    for subset in _SWAP_SUBSETS:
        a = sum(8 >> s for s in subset)  # qubit 1 is the leading bit
        forms[subset] = e[..., a] * e[..., 7 - a]
    return forms


# ---------------------------------------------------------------------------
# matrix-element criteria and the substitution family


# printed right-hand sides of the sixth-order and fourth-order full-separability
# inequalities, as diagonal index multisets (value (prod rho_mm)^(1/len) vs |rho_07|)
GS3_SIXTH = (
    (0, 0, 0, 7, 7, 7),
    (1, 2, 3, 4, 5, 6),
    (0, 1, 2, 4, 7, 7),
    (0, 0, 3, 5, 6, 7),
    (0, 1, 1, 6, 6, 7),
    (0, 0, 1, 6, 7, 7),
    (1, 1, 2, 4, 6, 7),
    (0, 1, 3, 5, 6, 6),
)
GS3_FOURTH = (
    (0, 0, 7, 7),
    (2, 3, 4, 5),
    (0, 1, 6, 7),
    (1, 2, 4, 7),
    (0, 3, 5, 6),
)

# permutation-invariance equivalence classes of the diagonal indices
_INDEX_CLASS = {0: "a", 7: "a", 1: "b", 2: "b", 4: "b", 3: "c", 5: "c", 6: "c"}


def _class_signature(multiset) -> tuple[int, int, int]:
    labels = [_INDEX_CLASS[m] for m in multiset]
    return (labels.count("a"), labels.count("b"), labels.count("c"))


def _w_coherences(rho: np.ndarray) -> np.ndarray:
    return np.abs(rho[..., 1, 2]) + np.abs(rho[..., 1, 4]) + np.abs(rho[..., 2, 4])


def gs2_element_margins(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(GHZ-flavoured, W-flavoured) biseparability margins from the matrix elements of
    one density matrix or a batch."""
    d = np.diagonal(rho.real, axis1=-2, axis2=-1)
    m_ghz = (
        np.sqrt(d[..., 6] * d[..., 1]) + np.sqrt(d[..., 5] * d[..., 2])
        + np.sqrt(d[..., 3] * d[..., 4]) - np.abs(rho[..., 0, 7])
    )
    m_w = (
        np.sqrt(d[..., 0] * d[..., 3]) + np.sqrt(d[..., 0] * d[..., 5])
        + np.sqrt(d[..., 0] * d[..., 6])
        + (d[..., 1] + d[..., 2] + d[..., 4]) / 2.0 - _w_coherences(rho)
    )
    return m_ghz, m_w


def gs2_closed_margins(g, w):
    """(GHZ-flavoured, W-flavoured) biseparability margins in matrix-element units."""
    g = np.asarray(g, dtype=float)
    w = np.asarray(w, dtype=float)
    dt, gt, wt = states.renormalized_weights(g, w)
    m_ghz = 3.0 * np.sqrt(dt * (dt + wt)) - gt
    m_w = 3.0 * (np.sqrt((dt + gt) * dt) + (dt + wt) / 2.0 - wt)
    return m_ghz, m_w


def gs3_closed_margins(g, w) -> dict[str, np.ndarray]:
    """All 14 full-separability margins in matrix-element units, plus the aggregate."""
    g = np.asarray(g, dtype=float)
    w = np.asarray(w, dtype=float)
    dt, gt, wt = states.renormalized_weights(g, w)
    a, b, c = dt + gt, dt + wt, dt
    out: dict[str, np.ndarray] = {}
    for ms in GS3_SIXTH:
        na, nb, nc = _class_signature(ms)
        out[f"gs3_six_{''.join(str(m) for m in ms)}"] = (
            a**na * b**nb * c**nc
        ) ** (1.0 / 6.0) - gt
    for ms in GS3_FOURTH:
        na, nb, nc = _class_signature(ms)
        out[f"gs3_four_{''.join(str(m) for m in ms)}"] = (
            a**na * b**nb * c**nc
        ) ** (1.0 / 4.0) - gt
    out["gs3_offdiag"] = 3.0 * (np.sqrt(a * c) - wt)
    stacked = np.stack(list(out.values()), axis=0)
    out["gs3"] = np.min(stacked, axis=0)
    return out


def gs3_element_margins(rho: np.ndarray) -> dict[str, np.ndarray]:
    """All 14 full-separability margins from the matrix elements of one density
    matrix or a batch, keyed like ``gs3_closed_margins``."""
    d = np.ascontiguousarray(np.diagonal(rho.real, axis1=-2, axis2=-1))  # fast fancy indexing
    corner = np.abs(rho[..., 0, 7])
    out: dict[str, np.ndarray] = {}
    for prefix, family in (("six", GS3_SIXTH), ("four", GS3_FOURTH)):
        # one factor of every member at a time: gathering all factors at once would hold
        # (cells, members, factors) values, 1.6 MB per 4,096 cells
        factors = np.array(family).T
        product = d[..., factors[0]]
        for factor in factors[1:]:
            product *= d[..., factor]
        rhs = product ** (1.0 / len(family[0]))
        for k, ms in enumerate(family):
            out[f"gs3_{prefix}_{''.join(str(m) for m in ms)}"] = rhs[..., k] - corner
    out["gs3_offdiag"] = (
        np.sqrt(d[..., 0] * d[..., 3]) + np.sqrt(d[..., 0] * d[..., 5])
        + np.sqrt(d[..., 0] * d[..., 6]) - _w_coherences(rho)
    )
    return out


# ---------------------------------------------------------------------------
# witnesses and the GHZ-class bounds


def witness_matrices() -> dict[str, np.ndarray]:
    ghz = states.ghz_vector()
    wv = states.w_vector()
    p_ghz = np.outer(ghz, np.conj(ghz))
    p_w = np.outer(wv, np.conj(wv))
    eye = np.eye(8, dtype=np.complex128)
    return {
        "w_ghz": 0.75 * eye - p_ghz,
        "w_w1": (2.0 / 3.0) * eye - p_w,
        "w_w2": 0.5 * eye - p_ghz,
    }


def witness_closed_forms(g, w) -> dict[str, np.ndarray]:
    g = np.asarray(g, dtype=float)
    w = np.asarray(w, dtype=float)
    return {
        "w_ghz": (5.0 - 7.0 * g + w) / 8.0,
        "w_w1": (13.0 + 3.0 * g - 21.0 * w) / 24.0,
        "w_w2": (3.0 - 7.0 * g + w) / 8.0,
    }


@functools.cache
def _witness_columns() -> tuple[tuple[str, ...], np.ndarray]:
    """The witness names and, by (entry, witness), their flattened transposes."""
    matrices = witness_matrices()
    columns = np.stack([m.real.T.reshape(64) for m in matrices.values()], axis=-1)
    columns.flags.writeable = False  # shared by every call
    return tuple(matrices), columns


def witness_traces(rho: np.ndarray) -> dict[str, np.ndarray]:
    """Tr(W rho) for the three witnesses, for one density matrix or a batch."""
    # Tr(W rho) is the flattened rho dotted with the flattened W^T; the witnesses
    # are real symmetric, so the real part of rho gives the whole (real) trace
    names, columns = _witness_columns()
    traces = np.real(rho).reshape(rho.shape[:-2] + (64,)) @ columns
    return {name: traces[..., k] for k, name in enumerate(names)}


G0 = 4.0 * 2.0 ** (1.0 / 3.0) / (3.0 + 4.0 * 2.0 ** (1.0 / 3.0))
GHZ_TANGLE_SLOPE = 3.0 / (4.0 * 2.0 ** (1.0 / 3.0))
GHZ_TRIANGLE = ((3.0 / 7.0, 0.0), (1.0, 0.0), (G0, 1.0 - G0))


def _inside_ghz_triangle(g, w):
    """Whether (g, w) lies in the GHZ_TRIANGLE, its edges included to 1e-12 (arrays allowed)."""
    (ax, ay), (bx, by), (cx, cy) = GHZ_TRIANGLE
    first = (bx - ax) * (w - ay) - (by - ay) * (g - ax) >= -1e-12
    second = (cx - bx) * (w - by) - (cy - by) * (g - bx) >= -1e-12
    third = (ax - cx) * (w - cy) - (ay - cy) * (g - cx) >= -1e-12
    return first & second & third


def slocc_codes(g, w, w_ghz) -> np.ndarray:
    """SLOCC code per cell, indexing ``classify.SLOCC_NAMES``, from the GHZ witness
    value and the zero-tangle bound; raises where the two contradict."""
    g, w, w_ghz = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (g, w, w_ghz))
    not_ghz = (w >= GHZ_TANGLE_SLOPE * g - 1e-15) | ~_inside_ghz_triangle(g, w)
    ghz = w_ghz < 0.0
    clash = np.flatnonzero(ghz & not_ghz)
    if clash.size:
        n = clash[0]
        raise ConsistencyError(
            f"GHZ witness negative at {cell_name(g[n], w[n])} "
            "but the zero-tangle bound excludes GHZ type"
        )
    return np.where(ghz, 0, np.where(not_ghz, 1, 2)).astype(np.int8)


# ---------------------------------------------------------------------------
# random setting search


@dataclass(frozen=True)
class RandomSearchResult:
    margin: float
    samples: int
    seed: int
    reference_margin: float | None
    beats_reference: bool


def _random_triad(rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    frame = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(frame)
    q = q * np.sign(np.diag(r))[None, :]
    axes = q.T  # rows are orthonormal
    paulis = (PAULI_X, PAULI_Y, PAULI_Z)
    return tuple(sum(axes[k, i] * paulis[i] for i in range(3)) for k in range(3))


def random_setting_search(
    p: SimplexPoint, samples: int, seed: int, level: str = "2sep"
) -> RandomSearchResult:
    """Most-violating spin-observable margin over randomly sampled triads.

    Deterministic under a fixed seed.  On the two published axes the best
    sampled margin is compared with the reference setting (Setting I on w=0,
    Setting II on g=0) and flagged if it is strictly more violating; the
    published search never found such settings on the axes.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    best = min(criterion_su(p, tuple(_random_triad(rng) for _ in range(3)), level)
               for _ in range(samples))
    reference = None
    if p.w == 0.0:
        reference = criterion_su(p, (SETTING_I,) * 3, level)
    elif p.g == 0.0:
        reference = criterion_su(p, (SETTING_II,) * 3, level)
    beats = reference is not None and best < reference - 1e-12
    return RandomSearchResult(best, samples, seed, reference, beats)
