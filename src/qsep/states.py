"""The noisy GHZ-W three-qubit mixture and all matrices derived from it.

Basis convention: |ijk> with qubit 1 the most significant bit, so the
row/column index is 4i + 2j + k (indices 0..7).  Matrices are produced from
exact entry templates in the renormalized weights (dt, gt, wt) = (d/8, g/2,
w/3); a generic tensor path reproduces each template and the two are checked
against each other wherever both exist, which pins down the index
conventions once and for all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .exceptions import ConsistencyError

TEMPLATE_TOL = 1e-13
SQRT2 = float(np.sqrt(2.0))


@dataclass(frozen=True)
class SimplexPoint:
    """Mixing weights (g, w); d = 1 - g - w is implied and never stored."""

    g: float
    w: float

    def __post_init__(self):
        g = float(self.g)
        w = float(self.w)
        if not (np.isfinite(g) and np.isfinite(w)):
            raise ValueError(f"non-finite simplex weights g={g}, w={w}")
        if g < -1e-12 or w < -1e-12 or g + w > 1.0 + 1e-12:
            raise ValueError(f"invalid simplex weights g={g}, w={w} (need g,w >= 0, g+w <= 1)")
        object.__setattr__(self, "g", min(max(g, 0.0), 1.0))
        object.__setattr__(self, "w", min(max(w, 0.0), 1.0))

    @property
    def d(self) -> float:
        return max(1.0 - self.g - self.w, 0.0)

    @property
    def dt(self) -> float:
        return self.d / 8.0

    @property
    def gt(self) -> float:
        return self.g / 2.0

    @property
    def wt(self) -> float:
        return self.w / 3.0

    def __str__(self):
        return f"(g={self.g:.12g}, w={self.w:.12g})"


def ghz_vector() -> np.ndarray:
    """(|000> + |111>)/sqrt(2)."""
    v = np.zeros(8, dtype=np.complex128)
    v[0] = v[7] = 1.0 / SQRT2
    return v


def w_vector() -> np.ndarray:
    """(|001> + |010> + |100>)/sqrt(3)."""
    v = np.zeros(8, dtype=np.complex128)
    v[1] = v[2] = v[4] = 1.0 / np.sqrt(3.0)
    return v


def bell0_vector() -> np.ndarray:
    """Two-qubit Bell state (|00> + |11>)/sqrt(2)."""
    v = np.zeros(4, dtype=np.complex128)
    v[0] = v[3] = 1.0 / SQRT2
    return v


def hadamard() -> np.ndarray:
    return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / SQRT2


# ---------------------------------------------------------------------------
# grid builders: every template takes arrays of weights and returns a batch.
# Scalars in, single matrix out is handled by the thin wrappers further down.


def renormalized_weights(g, w):
    """(d/8, g/2, w/3) over arrays; d clamped at 0 against edge roundoff."""
    g = np.asarray(g, dtype=float)
    w = np.asarray(w, dtype=float)
    d = np.maximum(1.0 - g - w, 0.0)
    return d / 8.0, g / 2.0, w / 3.0


_weights = renormalized_weights


def build_rho_grid(g, w) -> np.ndarray:
    dt, gt, wt = _weights(g, w)
    n = dt.shape[0]
    m = np.zeros((n, 8, 8), dtype=np.complex128)
    for i, val in enumerate((dt + gt, dt + wt, dt + wt, dt, dt + wt, dt, dt, dt + gt)):
        m[:, i, i] = val
    m[:, 0, 7] = m[:, 7, 0] = gt
    for i, j in ((1, 2), (1, 4), (2, 4)):
        m[:, i, j] = m[:, j, i] = wt
    return m


def build_rho_mixture_grid(g, w) -> np.ndarray:
    """Independent construction d/8 I + g |GHZ><GHZ| + w |W><W| over weight arrays."""
    g = np.asarray(g, dtype=float)[:, None, None]
    w = np.asarray(w, dtype=float)[:, None, None]
    ghz = ghz_vector()
    wv = w_vector()
    return (
        np.maximum(1.0 - g - w, 0.0) / 8.0 * np.eye(8, dtype=np.complex128)
        + g * np.outer(ghz, np.conj(ghz))
        + w * np.outer(wv, np.conj(wv))
    )


def partial_transpose_1_grid(g, w) -> np.ndarray:
    dt, gt, wt = _weights(g, w)
    n = dt.shape[0]
    m = np.zeros((n, 8, 8), dtype=np.complex128)
    for i, val in enumerate((dt + gt, dt + wt, dt + wt, dt, dt + wt, dt, dt, dt + gt)):
        m[:, i, i] = val
    m[:, 3, 4] = m[:, 4, 3] = gt
    for i, j in ((0, 5), (0, 6), (1, 2)):
        m[:, i, j] = m[:, j, i] = wt
    return m


def marginal_23_grid(g, w) -> np.ndarray:
    dt, gt, wt = _weights(g, w)
    n = dt.shape[0]
    m = np.zeros((n, 4, 4), dtype=np.complex128)
    for i, val in enumerate((2 * dt + gt + wt, 2 * dt + wt, 2 * dt + wt, 2 * dt + gt)):
        m[:, i, i] = val
    m[:, 1, 2] = m[:, 2, 1] = wt
    return m


def marginal_1_grid(g, w) -> np.ndarray:
    dt, gt, wt = _weights(g, w)
    n = dt.shape[0]
    m = np.zeros((n, 2, 2), dtype=np.complex128)
    m[:, 0, 0] = 4 * dt + gt + 2 * wt
    m[:, 1, 1] = 4 * dt + gt + wt
    return m


def reduction_i123_grid(g, w) -> np.ndarray:
    """I^1 (x) rho^23 - rho."""
    dt, gt, wt = _weights(g, w)
    n = dt.shape[0]
    m = np.zeros((n, 8, 8), dtype=np.complex128)
    for i, val in enumerate((dt + wt, dt, dt, dt + gt, dt + gt, dt + wt, dt + wt, dt)):
        m[:, i, i] = val
    m[:, 0, 7] = m[:, 7, 0] = -gt
    m[:, 1, 4] = m[:, 4, 1] = -wt
    m[:, 2, 4] = m[:, 4, 2] = -wt
    m[:, 5, 6] = m[:, 6, 5] = wt
    return m


def reduction_1i23_grid(g, w) -> np.ndarray:
    """rho^1 (x) I^23 - rho."""
    dt, gt, wt = _weights(g, w)
    n = dt.shape[0]
    m = np.zeros((n, 8, 8), dtype=np.complex128)
    diag = (
        3 * dt + 2 * wt,
        3 * dt + gt + wt,
        3 * dt + gt + wt,
        3 * dt + gt + 2 * wt,
        3 * dt + gt,
        3 * dt + gt + wt,
        3 * dt + gt + wt,
        3 * dt + wt,
    )
    for i, val in enumerate(diag):
        m[:, i, i] = val
    m[:, 0, 7] = m[:, 7, 0] = -gt
    for i, j in ((1, 2), (1, 4), (2, 4)):
        m[:, i, j] = m[:, j, i] = -wt
    return m


def reshuffle_24_grid(g, w) -> np.ndarray:
    """1|23-cut reshuffling [R(rho)]_{ii',jj'} = rho_{ij,i'j'}, shape (n, 4, 16)."""
    dt, gt, wt = _weights(g, w)
    n = dt.shape[0]
    m = np.zeros((n, 4, 16), dtype=np.complex128)
    m[:, 0, 0] = dt + gt
    m[:, 0, 5] = m[:, 0, 10] = dt + wt
    m[:, 0, 6] = m[:, 0, 9] = wt
    m[:, 0, 15] = dt
    m[:, 1, 3] = gt
    m[:, 1, 4] = m[:, 1, 8] = wt
    m[:, 2, 1] = m[:, 2, 2] = wt
    m[:, 2, 12] = gt
    m[:, 3, 0] = dt + wt
    m[:, 3, 5] = m[:, 3, 10] = dt
    m[:, 3, 15] = dt + gt
    return m


def reshuffle_222_grid(g, w) -> np.ndarray:
    """2-3 reshuffling [R'(rho)]_{ijj',i'kk'} = rho_{ijk,i'j'k'}, shape (n, 8, 8)."""
    dt, gt, wt = _weights(g, w)
    n = dt.shape[0]
    m = np.zeros((n, 8, 8), dtype=np.complex128)
    m[:, 0, 0] = dt + gt
    m[:, 0, 3] = dt + wt
    m[:, 0, 6] = wt
    m[:, 1, 2] = wt
    m[:, 1, 5] = gt
    m[:, 2, 1] = m[:, 2, 4] = wt
    m[:, 3, 0] = dt + wt
    m[:, 3, 3] = dt
    m[:, 4, 1] = wt
    m[:, 4, 4] = dt + wt
    m[:, 4, 7] = dt
    m[:, 5, 0] = wt
    m[:, 6, 2] = gt
    m[:, 7, 4] = dt
    m[:, 7, 7] = dt + gt
    return m


def closed_form_spectra_grid(g, w) -> dict[str, np.ndarray]:
    """The published closed-form spectra, each sorted non-increasing.

    Keys: rho, rho23, rho1, rho_t1 (= spectrum of I^1 (x) rho^23 - rho as
    well), red1_i23 (rho^1 (x) I - rho), conc23 (spin-flip product of the
    two-qubit marginal).
    """
    dt, gt, wt = _weights(g, w)

    def desc(cols):
        return np.sort(np.stack(cols, axis=-1), axis=-1)[..., ::-1]

    six = np.broadcast_to(dt[..., None], dt.shape + (6,))
    rho = desc([dt + 2 * gt, dt + 3 * wt] + [six[..., k] for k in range(6)])
    rho23 = desc([2 * dt + 2 * wt, 2 * dt + gt + wt, 2 * dt + gt, 2 * dt])
    rho1 = desc([4 * dt + gt + 2 * wt, 4 * dt + gt + wt])
    r1 = np.sqrt(4 * gt**2 + wt**2) / 2
    r2 = np.sqrt(gt**2 + 8 * wt**2) / 2
    rho_t1 = desc(
        [dt + wt / 2 + r1, dt + wt / 2 - r1, dt + gt / 2 + r2, dt + gt / 2 - r2,
         dt + gt, dt + 2 * wt, dt, dt]
    )
    red = desc(
        [3 * dt + 1.5 * wt + r1, 3 * dt + 1.5 * wt - r1,
         3 * dt + gt + SQRT2 * wt, 3 * dt + gt - SQRT2 * wt,
         3 * dt + gt + 2 * wt, 3 * dt + gt + 2 * wt,
         3 * dt + gt + wt, 3 * dt + gt + wt]
    )
    pair = (2 * dt + gt) * (2 * dt + gt + wt)
    conc23 = desc([4 * (dt + wt) ** 2, pair, pair, 4 * dt**2])
    return {
        "rho": rho,
        "rho23": rho23,
        "rho1": rho1,
        "rho_t1": rho_t1,
        "red1_i23": red,
        "conc23": conc23,
    }


# ---------------------------------------------------------------------------
# scalar API


def _single(grid_fn, p: SimplexPoint) -> np.ndarray:
    return grid_fn(np.array([p.g]), np.array([p.w]))[0]


def build_rho(p: SimplexPoint) -> np.ndarray:
    """8x8 density matrix of the mixture, from the exact entry template."""
    return _single(build_rho_grid, p)


def build_rho_mixture(p: SimplexPoint) -> np.ndarray:
    """Independent construction d/8 I + g |GHZ><GHZ| + w |W><W|."""
    return _single(build_rho_mixture_grid, p)


def partial_trace_1(rho: np.ndarray) -> np.ndarray:
    """Trace out qubit 1 of an 8x8 operator -> 4x4."""
    t = rho.reshape(2, 4, 2, 4)
    return t[0, :, 0, :] + t[1, :, 1, :]


def partial_trace_23(rho: np.ndarray) -> np.ndarray:
    """Trace out qubits 2 and 3 of an 8x8 operator -> 2x2."""
    t = rho.reshape(2, 4, 2, 4)
    return np.einsum("ikjk->ij", t)


def _check_template(generic: np.ndarray, template: np.ndarray, what: str) -> np.ndarray:
    defect = float(np.max(np.abs(generic - template)))
    if defect > TEMPLATE_TOL:
        raise ConsistencyError(f"{what}: generic path deviates from template by {defect:.3e}")
    return template


def marginals(p: SimplexPoint) -> tuple[np.ndarray, np.ndarray]:
    """(rho^23, rho^1) by generic partial trace, checked against the templates."""
    rho = build_rho(p)
    rho23 = _check_template(partial_trace_1(rho), _single(marginal_23_grid, p), "rho^23")
    rho1 = _check_template(partial_trace_23(rho), _single(marginal_1_grid, p), "rho^1")
    return rho23, rho1


def partial_transpose_1(p: SimplexPoint) -> np.ndarray:
    """rho^T1, by index permutation, checked against the published pattern."""
    generic = linalg.permute_indices(build_rho(p), linalg.TRANSPOSE_1_PERM)
    return _check_template(generic, _single(partial_transpose_1_grid, p), "rho^T1")


def reduction_matrices(p: SimplexPoint) -> tuple[np.ndarray, np.ndarray]:
    """(I^1 (x) rho^23 - rho, rho^1 (x) I^23 - rho), checked against patterns."""
    rho = build_rho(p)
    rho23, rho1 = marginals(p)
    first = _check_template(
        np.kron(np.eye(2), rho23) - rho, _single(reduction_i123_grid, p), "I (x) rho^23 - rho"
    )
    second = _check_template(
        np.kron(rho1, np.eye(4)) - rho, _single(reduction_1i23_grid, p), "rho^1 (x) I - rho"
    )
    return first, second


def reshuffle_24_matrix(rho: np.ndarray) -> np.ndarray:
    """Generic 1|23 reshuffle of any 8x8 operator -> 4x16."""
    t = rho.reshape(2, 4, 2, 4)
    return t.transpose(0, 2, 1, 3).reshape(4, 16)


def reshuffle_24(p: SimplexPoint) -> np.ndarray:
    generic = reshuffle_24_matrix(build_rho(p))
    return _check_template(generic, _single(reshuffle_24_grid, p), "R(rho)")


def reshuffle_222_matrix(rho: np.ndarray) -> np.ndarray:
    """Generic 2-3 reshuffle of any 8x8 operator."""
    return linalg.permute_indices(rho, linalg.RESHUFFLE_23_PERM)


def reshuffle_222(p: SimplexPoint) -> np.ndarray:
    generic = reshuffle_222_matrix(build_rho(p))
    return _check_template(generic, _single(reshuffle_222_grid, p), "R'(rho)")


# ---------------------------------------------------------------------------
# published example states


def _class21_matrix() -> np.ndarray:
    m = np.zeros((8, 8))
    m[0, 0] = 3.0
    for k in (3, 5, 6):
        m[k, k] = 1.0
        m[0, k] = m[k, 0] = 1.0
    return m / 6.0


def _class28_matrix(a: float) -> np.ndarray:
    m = np.zeros((8, 8))
    m[0, 0] = m[7, 7] = m[0, 7] = m[7, 0] = 1.0
    for k in (1, 2, 4):
        m[k, k] = a
    for k in (3, 5, 6):
        m[k, k] = 1.0 / a
    return m / (2.0 + 3.0 * (a + 1.0 / a))


PPTES_NUMERATOR = np.array(
    [
        [21, 0, 0, 0, 0, 0, 0, 12],
        [0, 17, 8, 0, 8, 0, 0, 0],
        [0, 8, 17, 0, 8, 0, 0, 0],
        [0, 0, 0, 9, 0, 0, 0, 0],
        [0, 8, 8, 0, 17, 0, 0, 0],
        [0, 0, 0, 0, 0, 9, 0, 0],
        [0, 0, 0, 0, 0, 0, 9, 0],
        [12, 0, 0, 0, 0, 0, 0, 21],
    ],
    dtype=float,
)


def example_states(which: str, a: float | None = None) -> np.ndarray:
    """Published example density matrices: class21, class28 (needs a > 0), pptes."""
    which = which.lower()
    if which == "class21":
        return _class21_matrix().astype(np.complex128)
    if which == "class28":
        if a is None:
            raise ValueError("class28 needs the parameter a")
        a = float(a)
        if a <= 0:
            raise ValueError(f"class28 requires a > 0, got a={a}")
        return _class28_matrix(a).astype(np.complex128)
    if which == "pptes":
        return (PPTES_NUMERATOR / 120.0).astype(np.complex128)
    raise ValueError(f"unknown example state {which!r} (want class21, class28 or pptes)")


QUBIT_PERMUTATIONS = (
    (0, 1, 2),
    (0, 2, 1),
    (1, 0, 2),
    (1, 2, 0),
    (2, 0, 1),
    (2, 1, 0),
)


def permute_qubits(rho: np.ndarray, qperm) -> np.ndarray:
    """Conjugate an 8x8 operator by the permutation sending qubit k to slot qperm[k]."""
    full = tuple(qperm) + tuple(3 + k for k in qperm)
    return linalg.permute_indices(rho, full)
