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
Each sum-built layout declares its ``mixture_map``, the generic maps of the
independently built mixture; ``qsep verify`` checks the template against it,
which pins down the index conventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .verdict import cell_name

TEMPLATE_TOL = 1e-13
SQRT2 = float(np.sqrt(2.0))
WEIGHT_SLACK = 1e-12  # how far past the simplex a weight may lie, for roundoff


def simplex_weights(g, w) -> tuple[np.ndarray, np.ndarray]:
    """``g`` and ``w`` as float arrays; ValueError unless they are 1-d, of one length and
    hold a cell, or naming the first cell off the simplex g, w >= 0, g + w <= 1 (each to
    WEIGHT_SLACK).  A NaN passes, so that the checks it reaches fail on it."""
    g, w = np.asarray(g, dtype=float), np.asarray(w, dtype=float)
    if g.ndim != 1 or g.shape != w.shape or g.size == 0:
        raise ValueError(f"expected two 1-d weight arrays of one length, holding a cell; "
                         f"got shapes {g.shape} and {w.shape}")
    bad = (g < -WEIGHT_SLACK) | (w < -WEIGHT_SLACK) | (g + w > 1.0 + WEIGHT_SLACK)
    if bad.any():
        n = int(np.argmax(bad))
        raise ValueError(f"invalid simplex weights at {cell_name(g[n], w[n])} "
                         f"(need g, w >= 0, g + w <= 1)")
    return g, w


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
        simplex_weights([g], [w])
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
# the independent mixture, and the generic maps of any 8x8 operator or batch of them


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


# ---------------------------------------------------------------------------
# entry templates, each with its block layout: each takes arrays of weights and returns a batch


def renormalized_weights(g, w):
    """(d/8, g/2, w/3) over arrays; d clamped at 0 against edge roundoff."""
    g = np.asarray(g, dtype=float)
    w = np.asarray(w, dtype=float)
    d = np.maximum(1.0 - g - w, 0.0)
    return d / 8.0, g / 2.0, w / 3.0


def _symmetric(diagonal, pairs) -> np.ndarray:
    """A batch of symmetric matrices from weight arrays: one in ``diagonal`` per diagonal
    entry, and each (i, j, value) of ``pairs`` at [i, j] and [j, i]; the rest is 0."""
    m = np.zeros((len(diagonal[0]), len(diagonal), len(diagonal)))
    for k, value in enumerate(diagonal):
        m[:, k, k] = value
    for i, j, value in pairs:
        m[:, i, j] = m[:, j, i] = value
    return m


def build_rho_grid(g, w) -> np.ndarray:
    dt, gt, wt = renormalized_weights(g, w)
    a, b = dt + gt, dt + wt
    return _symmetric((a, b, b, dt, b, dt, dt, a), ((0, 7, gt), (1, 2, wt), (1, 4, wt), (2, 4, wt)))


def build_rho(p: SimplexPoint) -> np.ndarray:
    """8x8 density matrix of the mixture: the template on a batch of one."""
    return build_rho_grid(np.array([p.g]), np.array([p.w]))[0]


def _hermitian(name: str, template, n: int, *index_sets, **kwargs) -> linalg.BlockLayout:
    """Eigenvalue layout of the n x n ``template`` (None: rho itself): each index set is one
    diagonal block."""
    return linalg.BlockLayout(name, (n, n), tuple((s, s) for s in index_sets), template=template,
                              **kwargs)


def _moved_from_rho(name: str, shape, blocks, source_map, **kwargs) -> linalg.BlockLayout:
    """Layout of a family that only moves entries of rho: ``source_map`` (a map of 8x8
    matrices) builds it from rho, and its blocks are gathered from rho."""
    return linalg.BlockLayout(name, shape, blocks, source_shape=(8, 8),
                              source_map=source_map, **kwargs)


# block layouts of rho and of the three index maps of it that the criteria diagonalize,
# rho^T1, R'(rho) (``linalg.permute_indices``) and R(rho), each with the key of
# ``closed_form_spectra_grid`` its spectra are checked against (none for the reshuffles);
# a mirror pair (p, q) of a 3x3 block, B_pp == B_qq and B_pr == B_qr, splits it into one
# eigenvalue and a 2x2 block
RHO_BLOCKS = _hermitian("rho", None, 8, (0, 7), (1, 2, 4), (3,), (5,), (6,),
                        mirrors=((1, 2),), closed="rho")
TRANSPOSE_1_BLOCKS = _moved_from_rho(
    "rho^T1", (8, 8), tuple((s, s) for s in ((0, 5, 6), (1, 2), (3, 4), (7,))),
    lambda m: linalg.permute_indices(m, linalg.TRANSPOSE_1_PERM), mirrors=((5, 6),),
    closed="rho_t1",
)
# R'(rho): three exactly symmetric blocks, so the singular values are |eigenvalues|
RESHUFFLE_23_BLOCKS = _moved_from_rho(
    "R'(rho) (2-3 reshuffle)", (8, 8),
    (((0, 3, 5), (0, 3, 6)), ((1, 6), (2, 5)), ((2, 4, 7), (1, 4, 7))),
    lambda m: linalg.permute_indices(m, linalg.RESHUFFLE_23_PERM), singular=True,
)
# R(rho): one 2x6 block and two one-row blocks; columns 7, 11, 13 and 14 are zero
RESHUFFLE_24_BLOCKS = _moved_from_rho(
    "R(rho) (1|23 reshuffle)", (4, 16),
    (((0, 3), (0, 5, 6, 9, 10, 15)), ((1,), (3, 4, 8)), ((2,), (1, 2, 12))),
    reshuffle_24_matrix, singular=True,
)


def marginal_23_grid(g, w) -> np.ndarray:
    dt, gt, wt = renormalized_weights(g, w)
    b = 2 * dt + wt
    return _symmetric((2 * dt + gt + wt, b, b, 2 * dt + gt), ((1, 2, wt),))


MARGINAL_23_BLOCKS = _hermitian("rho^23", marginal_23_grid, 4, (1, 2), (0,), (3,),
                                closed="rho23", mixture_map=partial_trace_1)


def marginal_1_grid(g, w) -> np.ndarray:
    dt, gt, wt = renormalized_weights(g, w)
    return _symmetric((4 * dt + gt + 2 * wt, 4 * dt + gt + wt), ())


MARGINAL_1_BLOCKS = _hermitian("rho^1", marginal_1_grid, 2, (0,), (1,),
                               closed="rho1", mixture_map=partial_trace_23)


def reduction_i123_grid(g, w) -> np.ndarray:
    """I^1 (x) rho^23 - rho."""
    dt, gt, wt = renormalized_weights(g, w)
    a, b = dt + wt, dt + gt
    return _symmetric((a, dt, dt, b, b, a, a, dt), ((0, 7, -gt), (1, 4, -wt), (2, 4, -wt), (5, 6, wt)))


REDUCTION_I123_BLOCKS = _hermitian(
    "I (x) rho^23 - rho", reduction_i123_grid, 8, (0, 7), (1, 2, 4), (3,), (5, 6),
    mirrors=((1, 2),), closed="rho_t1",
    mixture_map=lambda m: np.kron(np.eye(2)[None], partial_trace_1(m)) - m,
)


def reduction_1i23_grid(g, w) -> np.ndarray:
    """rho^1 (x) I^23 - rho."""
    dt, gt, wt = renormalized_weights(g, w)
    a = 3 * dt + gt + wt
    return _symmetric((3 * dt + 2 * wt, a, a, 3 * dt + gt + 2 * wt, 3 * dt + gt, a, a, 3 * dt + wt),
                      ((0, 7, -gt), (1, 2, -wt), (1, 4, -wt), (2, 4, -wt)))


REDUCTION_1I23_BLOCKS = _hermitian(
    "rho^1 (x) I - rho", reduction_1i23_grid, 8, (0, 7), (1, 2, 4), (3,), (5,), (6,),
    mirrors=((1, 2),), closed="red1_i23",
    mixture_map=lambda m: np.kron(partial_trace_23(m), np.eye(4)[None]) - m,
)

# every matrix family the criteria diagonalize, in ``qsep verify``'s order
FAMILIES: tuple[linalg.BlockLayout, ...] = (
    RHO_BLOCKS, TRANSPOSE_1_BLOCKS, MARGINAL_23_BLOCKS, MARGINAL_1_BLOCKS,
    REDUCTION_I123_BLOCKS, REDUCTION_1I23_BLOCKS, RESHUFFLE_24_BLOCKS, RESHUFFLE_23_BLOCKS,
)


def closed_form_spectra_grid(g, w) -> dict[str, np.ndarray]:
    """The published closed-form spectra, each sorted non-increasing.

    Keys: rho, rho23, rho1, rho_t1 (= spectrum of I^1 (x) rho^23 - rho as
    well), red1_i23 (rho^1 (x) I - rho), conc23 (spin-flip product of the
    two-qubit marginal).
    """
    dt, gt, wt = renormalized_weights(g, w)

    def desc(cols):
        values = np.array(cols).T.copy()  # (..., value), C-contiguous as np.stack gives it
        values.sort(axis=-1)
        return values[..., ::-1]

    # a partial sum that several values share is formed once, in its order of operations
    d2, d3, g2, w2 = 2 * dt, 3 * dt, gt**2, wt**2
    d2g, d3g, d4g = d2 + gt, d3 + gt, 4 * dt + gt
    d2gw, d3gw, d3gww = d2g + wt, d3g + wt, d3g + 2 * wt
    rho = desc([dt + 2 * gt, dt + 3 * wt] + [dt] * 6)
    rho23 = desc([d2 + 2 * wt, d2gw, d2g, d2])
    rho1 = desc([d4g + 2 * wt, d4g + wt])
    r1 = np.sqrt(4 * g2 + w2) / 2
    r2 = np.sqrt(g2 + 8 * w2) / 2
    half_w, half_g, red_w = dt + wt / 2, dt + gt / 2, d3 + 1.5 * wt
    rho_t1 = desc([half_w + r1, half_w - r1, half_g + r2, half_g - r2, dt + gt, dt + 2 * wt, dt, dt])
    red = desc([red_w + r1, red_w - r1, d3g + SQRT2 * wt, d3g - SQRT2 * wt, d3gww, d3gww, d3gw, d3gw])
    pair = d2g * d2gw
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

