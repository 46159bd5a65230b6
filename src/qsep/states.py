"""The noisy GHZ-W three-qubit mixture and all matrices derived from it.

Basis convention: |ijk> with qubit 1 the most significant bit, so the
row/column index is 4i + 2j + k (indices 0..7).  Every entry of rho, and of
each matrix the criteria diagonalize, is an integer form cd (d/8) + cg (g/2)
+ cw (w/3) of the renormalized weights.  ``RHO_ENTRIES`` declares rho's
table of them once.  Each family is declared by one map of 8x8 operators
(``BlockLayout.map``): the identity for rho, an index map for the families
that only move entries of rho (rho^T1 and the reshuffles), a generic map for
the sum-built ones (the marginals and the two reduction maps).  Its table is
that map of rho's, exact in integers, and its layout keeps only the numbers
of the table's rows in ``FORMS``, the distinct forms of all the tables.
``evaluate_forms`` evaluates them over arrays of weights, once per batch:
every family, rho included, is gathered from that one float64 array
(``BlockLayout.family``).  ``qsep verify`` checks every family against the
same map of the independently built mixture, which pins down the index
conventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .exceptions import ConsistencyError
from .verdict import cell_name

MAP_TOL = 1e-13  # each family against its map of the independent mixture
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
        # + 0.0 stores a zero weight as +0.0: max(-0.0, 0.0) is -0.0
        object.__setattr__(self, "g", min(max(g, 0.0), 1.0) + 0.0)
        object.__setattr__(self, "w", min(max(w, 0.0), 1.0) + 0.0)

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
# entry tables: every family's entries as integer forms in the renormalized weights


def renormalized_weights(g, w):
    """(d/8, g/2, w/3) over arrays; d clamped at 0 against edge roundoff."""
    g = np.asarray(g, dtype=float)
    w = np.asarray(w, dtype=float)
    d = np.maximum(1.0 - g - w, 0.0)
    return d / 8.0, g / 2.0, w / 3.0


# rho's entry table: entry [i, j] of rho is cd (d/8) + cg (g/2) + cw (w/3), its row
# (cd, cg, cw), held as the three coefficient planes so that a map of 8x8 matrices derives
# a family's table from it: d/8 I, g/2 on the GHZ support |000>, |111> and w/3 on the W
# support |001>, |010>, |100>
_GHZ_SUPPORT = np.array([1, 0, 0, 0, 0, 0, 0, 1])
_W_SUPPORT = np.array([0, 1, 1, 0, 1, 0, 0, 0])
RHO_ENTRIES = np.stack([np.eye(8, dtype=int), np.outer(_GHZ_SUPPORT, _GHZ_SUPPORT),
                        np.outer(_W_SUPPORT, _W_SUPPORT)])


def _families() -> tuple[tuple[linalg.BlockLayout, ...], np.ndarray]:
    """Every matrix family the criteria diagonalize, in ``qsep verify``'s order, and
    ``FORMS``: each distinct row of their tables, numbered in order of first use from the
    zero form, 0.  Each layout's ``form_index`` holds the numbers of its entries' rows."""
    numbers = {(0, 0, 0): 0}

    def layout(name: str, family_map, **kwargs) -> linalg.BlockLayout:
        """Layout of the family ``family_map(rho)``: its table is that map of rho's, exact in
        integers, numbered into ``FORMS``, and ``family_map`` is its map of the mixture."""
        table = np.moveaxis(np.asarray(family_map(RHO_ENTRIES)), 0, -1)  # (rows, columns, 3)
        rows = table.reshape(-1, 3).astype(np.int64)
        if not np.array_equal(rows, table.reshape(-1, 3)):
            raise ValueError(f"{name}: its map does not give integer rows")
        form_index = [numbers.setdefault(tuple(row), len(numbers)) for row in rows.tolist()]
        return linalg.BlockLayout(name, np.reshape(form_index, table.shape[:2]), family_map, **kwargs)

    families = (
        # rho and the three index maps of it that the criteria diagonalize, rho^T1, R'(rho)
        # (``linalg.permute_indices``) and R(rho), each with the key of
        # ``closed_form_spectra_grid`` its spectra are checked against (none for R'(rho));
        # each layout derives its blocks and mirror pairs from its form numbers
        layout("rho", lambda m: m, closed="rho"),
        layout("rho^T1", lambda m: linalg.permute_indices(m, linalg.TRANSPOSE_1_PERM), closed="rho_t1"),
        # the sum-built families: the generic maps of an 8x8 operator that build them
        layout("rho^23", partial_trace_1, closed="rho23"),
        layout("rho^1", partial_trace_23, closed="rho1"),
        layout("I (x) rho^23 - rho", lambda m: np.kron(np.eye(2)[None], partial_trace_1(m)) - m,
               closed="rho_t1"),
        layout("rho^1 (x) I - rho", lambda m: np.kron(partial_trace_23(m), np.eye(4)[None]) - m,
               closed="red1_i23"),
        # the two reshuffles, whose singular values the criteria read
        layout("R(rho) (1|23 reshuffle)", reshuffle_24_matrix, singular=True, closed="resh24"),
        layout("R'(rho) (2-3 reshuffle)", lambda m: linalg.permute_indices(m, linalg.RESHUFFLE_23_PERM),
               singular=True),
    )
    return families, np.array(list(numbers), dtype=np.int64)


FAMILIES, FORMS = _families()
(RHO_BLOCKS, TRANSPOSE_1_BLOCKS, MARGINAL_23_BLOCKS, MARGINAL_1_BLOCKS,
 REDUCTION_I123_BLOCKS, REDUCTION_1I23_BLOCKS, RESHUFFLE_24_BLOCKS, RESHUFFLE_23_BLOCKS) = FAMILIES


def evaluate_forms(g, w) -> np.ndarray:
    """Every form of ``FORMS`` over weight arrays, as a (forms, cells) array.

    Each is cd (d/8) + cg (g/2) + cw (w/3) summed left to right over its nonzero
    terms, a term of coefficient +-1 taken as +-x, not multiplied: the operations
    of the sum written out, so the zero form is +0.0 and a -1 term keeps the sign
    of a zero.  ConsistencyError names the first cell with a non-finite form.
    """
    weights = renormalized_weights(g, w)
    out = np.zeros((len(FORMS), weights[0].size))
    for row, form in zip(out, FORMS.tolist()):
        terms = [x if c == 1 else -x if c == -1 else c * x for c, x in zip(form, weights) if c]
        if terms:
            row[...] = sum(terms[1:], terms[0])
    bad = ~np.isfinite(out).all(axis=0)
    if bad.any():
        n = int(np.argmax(bad))
        g, w = np.asarray(g, dtype=float), np.asarray(w, dtype=float)
        raise ConsistencyError(f"entry forms at {cell_name(g[n], w[n])}: not finite")
    return out


def build_rho_grid(g, w) -> np.ndarray:
    """rho over weight arrays, gathered from the evaluated forms of its table."""
    return RHO_BLOCKS.family(evaluate_forms(g, w))


def build_rho(p: SimplexPoint) -> np.ndarray:
    """8x8 density matrix of the mixture: ``build_rho_grid`` on a batch of one."""
    return build_rho_grid(np.array([p.g]), np.array([p.w]))[0]


def closed_form_spectra_grid(g, w) -> dict[str, np.ndarray]:
    """The published closed-form spectra, each sorted non-increasing.

    Keys: rho, rho23, rho1, rho_t1 (= spectrum of I^1 (x) rho^23 - rho as
    well), red1_i23 (rho^1 (x) I - rho), resh24 (the singular values of R(rho)),
    conc23 (spin-flip product of the two-qubit marginal).
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
    # R(rho): sqrt((p1 +- 2 sqrt(p2)) / 4) and the pair sqrt(g2 + 2 w2), each power once
    dd, ddd = dt**2, dt**3
    p1 = 16 * dd + 4 * g2 + 10 * w2 + 8 * dt * gt + 12 * dt * wt
    p2 = (
        64 * dt**4 + 9 * wt**4 + 64 * ddd * gt + 96 * ddd * wt + 12 * dt * wt**3
        + 16 * dd * g2 + 40 * dd * w2 + 4 * g2 * w2
        + 80 * dd * gt * wt + 16 * dt * g2 * wt + 24 * dt * gt * w2
    )
    root = 2.0 * np.sqrt(p2)
    s_pair = np.sqrt(g2 + 2 * w2)
    resh24 = desc([np.sqrt(np.maximum(p1 + root, 0.0)) / 2.0,
                   np.sqrt(np.maximum(p1 - root, 0.0)) / 2.0, s_pair, s_pair])
    return {
        "rho": rho,
        "rho23": rho23,
        "rho1": rho1,
        "rho_t1": rho_t1,
        "red1_i23": red,
        "resh24": resh24,
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

