"""The noisy GHZ-W three-qubit mixture and all matrices derived from it.

Basis convention: |ijk> with qubit 1 the most significant bit, so the
row/column index is 4i + 2j + k (indices 0..7).  rho and the matrices built
from sums of its entries (the marginals and the two reduction maps) come from
exact entry templates in the renormalized weights (d/8, g/2, w/3), over
arrays of weights; every entry is real, so the templates are float64.
Matrices that only move entries of rho (rho^T1 and the reshuffles) are
never built for the criteria: their block layouts gather their entries from
the rho template through the generic index maps, applied to rho's flat
indices.
``qsep verify`` checks every sum-built template against the generic maps of
the independently built mixture, which pins down the index conventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg

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


def hadamard() -> np.ndarray:
    return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / SQRT2


# ---------------------------------------------------------------------------
# entry templates: each takes arrays of weights and returns a batch


def renormalized_weights(g, w):
    """(d/8, g/2, w/3) over arrays; d clamped at 0 against edge roundoff."""
    g = np.asarray(g, dtype=float)
    w = np.asarray(w, dtype=float)
    d = np.maximum(1.0 - g - w, 0.0)
    return d / 8.0, g / 2.0, w / 3.0


def build_rho_grid(g, w) -> np.ndarray:
    dt, gt, wt = renormalized_weights(g, w)
    n = dt.shape[0]
    m = np.zeros((n, 8, 8))
    for i, val in enumerate((dt + gt, dt + wt, dt + wt, dt, dt + wt, dt, dt, dt + gt)):
        m[:, i, i] = val
    m[:, 0, 7] = m[:, 7, 0] = gt
    for i, j in ((1, 2), (1, 4), (2, 4)):
        m[:, i, j] = m[:, j, i] = wt
    return m


def _hermitian(name: str, template, n: int, *index_sets, mirrors=()) -> linalg.BlockLayout:
    """Eigenvalue layout of the n x n ``template`` (None: rho itself): each index set is one
    diagonal block."""
    return linalg.BlockLayout(name, (n, n), tuple((s, s) for s in index_sets), mirrors=mirrors,
                              template=template)


def _moved_from_rho(name: str, shape, blocks, source_map, **kwargs) -> linalg.BlockLayout:
    """Layout of a family that only moves entries of rho: ``source_map`` (a map of 8x8
    matrices) builds it from rho, and its blocks are gathered from rho."""
    return linalg.BlockLayout(name, shape, blocks, source_shape=(8, 8),
                              source_map=source_map, **kwargs)


# block layouts of rho and of the two index maps of it that the criteria diagonalize,
# rho^T1 and R'(rho) (``linalg.permute_indices``); a mirror pair (p, q) of a 3x3 block,
# B_pp == B_qq and B_pr == B_qr, splits it into one eigenvalue and a 2x2 block
RHO_BLOCKS = _hermitian("rho", None, 8, (0, 7), (1, 2, 4), (3,), (5,), (6,),
                        mirrors=((1, 2),))
TRANSPOSE_1_BLOCKS = _moved_from_rho(
    "rho^T1", (8, 8), tuple((s, s) for s in ((0, 5, 6), (1, 2), (3, 4), (7,))),
    lambda m: linalg.permute_indices(m, linalg.TRANSPOSE_1_PERM), mirrors=((5, 6),),
)
# R'(rho): three exactly symmetric blocks, so the singular values are |eigenvalues|
RESHUFFLE_23_BLOCKS = _moved_from_rho(
    "R'(rho) (2-3 reshuffle)", (8, 8),
    (((0, 3, 5), (0, 3, 6)), ((1, 6), (2, 5)), ((2, 4, 7), (1, 4, 7))),
    lambda m: linalg.permute_indices(m, linalg.RESHUFFLE_23_PERM), singular=True,
)


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


def marginal_23_grid(g, w) -> np.ndarray:
    dt, gt, wt = renormalized_weights(g, w)
    n = dt.shape[0]
    m = np.zeros((n, 4, 4))
    for i, val in enumerate((2 * dt + gt + wt, 2 * dt + wt, 2 * dt + wt, 2 * dt + gt)):
        m[:, i, i] = val
    m[:, 1, 2] = m[:, 2, 1] = wt
    return m


MARGINAL_23_BLOCKS = _hermitian("rho^23", marginal_23_grid, 4, (1, 2), (0,), (3,))


def marginal_1_grid(g, w) -> np.ndarray:
    dt, gt, wt = renormalized_weights(g, w)
    n = dt.shape[0]
    m = np.zeros((n, 2, 2))
    m[:, 0, 0] = 4 * dt + gt + 2 * wt
    m[:, 1, 1] = 4 * dt + gt + wt
    return m


MARGINAL_1_BLOCKS = _hermitian("rho^1", marginal_1_grid, 2, (0,), (1,))


def reduction_i123_grid(g, w) -> np.ndarray:
    """I^1 (x) rho^23 - rho."""
    dt, gt, wt = renormalized_weights(g, w)
    n = dt.shape[0]
    m = np.zeros((n, 8, 8))
    for i, val in enumerate((dt + wt, dt, dt, dt + gt, dt + gt, dt + wt, dt + wt, dt)):
        m[:, i, i] = val
    m[:, 0, 7] = m[:, 7, 0] = -gt
    m[:, 1, 4] = m[:, 4, 1] = -wt
    m[:, 2, 4] = m[:, 4, 2] = -wt
    m[:, 5, 6] = m[:, 6, 5] = wt
    return m


REDUCTION_I123_BLOCKS = _hermitian("I (x) rho^23 - rho", reduction_i123_grid, 8,
                                   (0, 7), (1, 2, 4), (3,), (5, 6), mirrors=((1, 2),))


def reduction_1i23_grid(g, w) -> np.ndarray:
    """rho^1 (x) I^23 - rho."""
    dt, gt, wt = renormalized_weights(g, w)
    n = dt.shape[0]
    m = np.zeros((n, 8, 8))
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


REDUCTION_1I23_BLOCKS = _hermitian("rho^1 (x) I - rho", reduction_1i23_grid, 8,
                                   (0, 7), (1, 2, 4), (3,), (5,), (6,), mirrors=((1, 2),))


def closed_form_spectra_grid(g, w) -> dict[str, np.ndarray]:
    """The published closed-form spectra, each sorted non-increasing.

    Keys: rho, rho23, rho1, rho_t1 (= spectrum of I^1 (x) rho^23 - rho as
    well), red1_i23 (rho^1 (x) I - rho), conc23 (spin-flip product of the
    two-qubit marginal).
    """
    dt, gt, wt = renormalized_weights(g, w)

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
# one point, and the generic maps of any 8x8 operator or batch of them


def build_rho(p: SimplexPoint) -> np.ndarray:
    """8x8 density matrix of the mixture: the template on a batch of one."""
    return build_rho_grid(np.array([p.g]), np.array([p.w]))[0]


def _split_1_23(rho) -> np.ndarray:
    """View (..., 8, 8) operators as (..., 2, 4, 2, 4): qubit 1 against qubits 2-3."""
    rho = np.asarray(rho)
    if rho.shape[-2:] != (8, 8):
        raise ValueError(f"expected 8x8 matrices, got shape {rho.shape}")
    return rho.reshape(rho.shape[:-2] + (2, 4, 2, 4))


def partial_trace_1(rho) -> np.ndarray:
    """Trace out qubit 1 of 8x8 operators -> 4x4."""
    t = _split_1_23(rho)
    return t[..., 0, :, 0, :] + t[..., 1, :, 1, :]


def partial_trace_23(rho) -> np.ndarray:
    """Trace out qubits 2 and 3 of 8x8 operators -> 2x2."""
    return np.einsum("...ikjk->...ij", _split_1_23(rho))


def reshuffle_24_matrix(rho) -> np.ndarray:
    """1|23-cut reshuffle [R(rho)]_{ii',jj'} = rho_{ij,i'j'} of 8x8 operators -> 4x16."""
    t = _split_1_23(rho)
    return np.swapaxes(t, -3, -2).reshape(t.shape[:-4] + (4, 16))


# R(rho): one 2x6 block and two one-row blocks; columns 7, 11, 13 and 14 are zero
RESHUFFLE_24_BLOCKS = _moved_from_rho(
    "R(rho) (1|23 reshuffle)", (4, 16),
    (((0, 3), (0, 5, 6, 9, 10, 15)), ((1,), (3, 4, 8)), ((2,), (1, 2, 12))),
    reshuffle_24_matrix, singular=True,
)

# every matrix family the criteria diagonalize, in ``qsep verify``'s order, with the key of
# ``closed_form_spectra_grid`` its spectra are checked against (None for the reshuffles)
FAMILIES: dict[linalg.BlockLayout, str | None] = {
    RHO_BLOCKS: "rho",
    TRANSPOSE_1_BLOCKS: "rho_t1",
    MARGINAL_23_BLOCKS: "rho23",
    MARGINAL_1_BLOCKS: "rho1",
    REDUCTION_I123_BLOCKS: "rho_t1",
    REDUCTION_1I23_BLOCKS: "red1_i23",
    RESHUFFLE_24_BLOCKS: None,
    RESHUFFLE_23_BLOCKS: None,
}


# ---------------------------------------------------------------------------
# published example states


def _class21_matrix() -> np.ndarray:
    m = np.zeros((8, 8))
    m[0, 0] = 3.0
    for k in (3, 5, 6):
        m[k, k] = 1.0
        m[0, k] = m[k, 0] = 1.0
    return m / 6.0


def class28_normaliser(a) -> float:
    """2 + 3(a + 1/a), the trace of the class28 numerator; ValueError unless a is finite
    and positive and the normaliser is finite."""
    a = float(a)
    if not (math.isfinite(a) and a > 0.0):
        raise ValueError(f"class28 requires a finite a > 0, got a={a}")
    scale = 2.0 + 3.0 * (a + 1.0 / a)
    if not math.isfinite(scale):
        raise ValueError(f"class28 normaliser 2 + 3(a + 1/a) overflows at a={a}")
    return scale


def _class28_matrix(a: float) -> np.ndarray:
    scale = class28_normaliser(a)
    m = np.zeros((8, 8))
    m[0, 0] = m[7, 7] = m[0, 7] = m[7, 0] = 1.0
    for k in (1, 2, 4):
        m[k, k] = a
    for k in (3, 5, 6):
        m[k, k] = 1.0 / a
    return m / scale


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
    """Published example density matrices: class21, class28 (needs a finite a > 0 with a
    finite ``class28_normaliser``), pptes."""
    which = which.lower()
    if which == "class21":
        return _class21_matrix().astype(np.complex128)
    if which == "class28":
        if a is None:
            raise ValueError("class28 needs the parameter a")
        return _class28_matrix(float(a)).astype(np.complex128)
    if which == "pptes":
        return (PPTES_NUMERATOR / 120.0).astype(np.complex128)
    raise ValueError(f"unknown example state {which!r} (want class21, class28 or pptes)")

