"""Dense complex matrix arithmetic and spectral routines for dimension <= 64.

Spectra come from LAPACK.  The criteria read ``block_spectra``, which
diagonalizes a batch of one matrix family block by block, along the fixed
layout (``BlockLayout``) declared with the family's template, with one
LAPACK call per block shape.  ``eigh`` (symmetric/Hermitian eigensolver) and
``singular_values`` (SVD of the matrix itself, not of its Gram matrix, so a
trace norm keeps full accuracy near zero singular values) work on full
matrices: ``qsep verify`` checks the block path against them, and the square
root, the concurrence and the examples use them.  Real input, as every
template is, and complex input whose imaginary part is exactly zero go to the
real LAPACK routines.  ``jacobi_eigh`` is a cyclic Jacobi solver kept as the
independent reference that ``qsep verify`` and the acceptance tests compare
the production path with.

The full-matrix routines accept a single matrix or a batch with one leading
axis.  Each matrix of a Jacobi batch rotates until its own off-diagonal norm
is small and is then left alone, so its result does not depend on what else
sits in the batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import (
    HERMITICITY_TOL,
    JACOBI_MAX_SWEEPS,
    JACOBI_OFF_TOL,
    psd_tol,
)
from .exceptions import ConsistencyError, ConvergenceError
from .verdict import cell_name

MAX_DIM = 64
MAX_SV_DIM = 16  # cap on min(rows, cols) for singular value problems
BLOCK_TOL = 1e-13  # block spectra against the full-matrix LAPACK spectra

_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny


def _as_batch(a) -> tuple[np.ndarray, bool]:
    """Return (batch copy, was_single).  Accepts (n,n) or (b,n,n) input."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim == 2:
        return a[None, :, :].copy(), True
    if a.ndim == 3:
        return a.copy(), False
    raise ValueError(f"expected a matrix or a batch of matrices, got ndim={a.ndim}")


def _real_if_exact(a) -> np.ndarray:
    """The float64 real part of ``a`` when its imaginary part is exactly zero,
    else ``a`` as complex128."""
    a = np.asarray(a)
    if np.iscomplexobj(a):
        return a.real if not np.any(a.imag) else a.astype(np.complex128, copy=False)
    return a.astype(np.float64, copy=False)


def _require_finite(values: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise ConvergenceError(f"LAPACK {what} returned non-finite values")
    return values


def hermiticity_defect(a) -> float:
    """Largest elementwise |A - A^dag| over the batch."""
    a = np.asarray(a, dtype=np.complex128)
    return float(np.max(np.abs(a - np.conj(np.swapaxes(a, -1, -2)))))


def require_hermitian(a, tol: float = HERMITICITY_TOL) -> None:
    defect = hermiticity_defect(a)
    if defect > tol:
        raise ValueError(
            f"matrix is not Hermitian: max |A - A^dag| = {defect:.3e} exceeds {tol:.1e}"
        )


def eigh(a, *, vectors: bool = False):
    """LAPACK diagonalization of Hermitian matrices: the production backend.

    Parameters
    ----------
    a : (n, n) or (batch, n, n) array, assumed Hermitian (LAPACK reads the
        lower triangle only)
    vectors : return the eigenvectors as well

    Returns eigenvalues sorted non-increasing, and optionally matrices whose
    k-th column is the eigenvector of the k-th returned eigenvalue (real when
    the input is real).  A LAPACK failure or a non-finite result raises
    ConvergenceError.
    """
    a = _real_if_exact(a)
    if a.ndim not in (2, 3):
        raise ValueError(f"expected a matrix or a batch of matrices, got ndim={a.ndim}")
    n, m = a.shape[-2:]
    if n != m:
        raise ValueError(f"matrix is not square: {n}x{m}")
    if n > MAX_DIM:
        raise ValueError(f"dimension {n} exceeds the supported cap {MAX_DIM}")
    try:
        if vectors:
            vals, vecs = np.linalg.eigh(a)
        else:
            vals = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK eigensolver failed: {exc}") from exc
    # LAPACK sorts ascending
    vals = np.ascontiguousarray(_require_finite(vals, "eigensolver")[..., ::-1])
    if vectors:
        return vals, np.ascontiguousarray(vecs[..., ::-1])
    return vals


def _jacobi_sweep(a: np.ndarray) -> None:
    """One cyclic sweep of complex Jacobi rotations over every (p, q) pair,
    in place on the batch ``a``.

    Threshold rule (Golub & Van Loan, Matrix Computations, section 8.5): an
    entry with |a_pq| <= eps sqrt(|a_pp| |a_qq|), or below the smallest
    normal number, is negligible; it is set to zero and not rotated.  This
    keeps magnitudes out of the subnormal range, where the rotation angle
    and phase overflow.
    """
    n = a.shape[1]
    for p in range(n - 1):
        for q in range(p + 1, n):
            apq = a[:, p, q]
            mag = np.abs(apq)
            app = a[:, p, p].real
            aqq = a[:, q, q].real
            active = mag > np.maximum(_EPS * np.sqrt(np.abs(app)) * np.sqrt(np.abs(aqq)), _TINY)
            if not np.all(active):
                a[~active, p, q] = 0.0
                a[~active, q, p] = 0.0
                if not np.any(active):
                    continue
            safe_mag = np.where(active, mag, 1.0)
            tau = np.where(active, (aqq - app) / (2.0 * safe_mag), 0.0)
            # hypot keeps sqrt(1 + tau^2) finite for huge tau
            t = np.where(tau == 0.0, 1.0, np.sign(tau) / (np.abs(tau) + np.hypot(1.0, tau)))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = np.where(active, t * c, 0.0)
            c = np.where(active, c, 1.0)
            phase = np.where(active, apq / safe_mag, 1.0)
            sp = s * phase
            spc = s * np.conj(phase)
            colp = a[:, :, p].copy()
            colq = a[:, :, q].copy()
            a[:, :, p] = c[:, None] * colp - spc[:, None] * colq
            a[:, :, q] = sp[:, None] * colp + c[:, None] * colq
            rowp = a[:, p, :].copy()
            rowq = a[:, q, :].copy()
            a[:, p, :] = c[:, None] * rowp - sp[:, None] * rowq
            a[:, q, :] = spc[:, None] * rowp + c[:, None] * rowq


def jacobi_eigh(a, *, max_sweeps: int = JACOBI_MAX_SWEEPS) -> np.ndarray:
    """Cyclic Jacobi eigenvalues of Hermitian matrices, sorted non-increasing:
    the reference solver.

    ``a`` is one (n, n) matrix or a (batch, n, n) batch, assumed Hermitian.
    Each matrix is swept until its own off-diagonal Frobenius norm is below
    ``JACOBI_OFF_TOL`` and then frozen; a matrix still above it after
    ``max_sweeps`` sweeps raises ConvergenceError.
    """
    a, single = _as_batch(a)
    batch, n, m = a.shape
    if n != m:
        raise ValueError(f"matrix is not square: {n}x{m}")
    if n > MAX_DIM:
        raise ValueError(f"dimension {n} exceeds the supported cap {MAX_DIM}")
    offmask = ~np.eye(n, dtype=bool)

    def off_norms(idx: np.ndarray) -> np.ndarray:
        return np.sqrt(np.sum(np.abs(a[idx][:, offmask]) ** 2, axis=1))

    live = np.arange(batch)
    for _ in range(max_sweeps):
        # NaN norms stay live and end in ConvergenceError
        live = live[~(off_norms(live) < JACOBI_OFF_TOL)]
        if live.size == 0:
            break
        sub = a[live]
        _jacobi_sweep(sub)
        a[live] = sub
    else:
        off = off_norms(live)
        if np.any(~(off < JACOBI_OFF_TOL)):
            raise ConvergenceError(
                f"Jacobi did not converge in {max_sweeps} sweeps; "
                f"worst off-diagonal norm {float(np.max(off)):.3e}"
            )
    vals = a[:, np.arange(n), np.arange(n)].real
    vals = np.take_along_axis(vals, np.argsort(-vals, axis=1, kind="stable"), axis=1)
    return vals[0] if single else vals


def hermitian_eigenvalues(a, *, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix (or batch), sorted non-increasing.

    Rejects non-Hermitian input, and checks that the eigenvalue sum
    reproduces the trace to 1e-10 (a live sanity check on the solver).
    """
    require_hermitian(a, tol)
    a = np.asarray(a, dtype=np.complex128)
    vals = eigh(a)
    trace = np.einsum("...ii->...", a).real
    defect = float(np.max(np.abs(np.sum(vals, axis=-1) - trace)))
    if defect > 1e-10:
        raise ConsistencyError(f"eigenvalue sum deviates from trace by {defect:.3e}")
    return vals


def singular_values(a) -> np.ndarray:
    """Singular values by LAPACK SVD of the matrix itself, sorted non-increasing."""
    a = _real_if_exact(a)
    rows, cols = a.shape[-2:]
    if min(rows, cols) > MAX_SV_DIM:
        raise ValueError(f"min(rows, cols) = {min(rows, cols)} exceeds cap {MAX_SV_DIM}")
    try:
        svs = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK SVD failed: {exc}") from exc
    return _require_finite(svs, "SVD")


@dataclass(frozen=True)
class BlockLayout:
    """A matrix family that a fixed permutation turns into a direct sum of small blocks.

    ``blocks`` lists each block's (rows, columns) index sets; every entry
    outside them is zero.  ``singular`` selects what ``block_spectra``
    returns: eigenvalues of Hermitian blocks (rows == columns) or singular
    values.  The method of each block is fixed here, by its shape, and never
    chosen from the values:

    - eigenvalues: a 1x1 block is its diagonal entry, a larger one goes to
      LAPACK ``eigvalsh``;
    - singular values: a one-row block gives its Euclidean norm, a square
      block must be exactly symmetric and gives |eigvalsh|, any other block
      goes to LAPACK SVD.

    The off-block mask and the gather indices are built here, once per family.
    """

    name: str
    shape: tuple[int, int]
    blocks: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    singular: bool = False
    # derived from the fields above: values per matrix, off-block mask over the
    # flattened matrix, and (method, gather index, output slots) per block shape
    width: int = field(init=False, repr=False, compare=False)
    off_block: np.ndarray = field(init=False, repr=False, compare=False)
    groups: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cols = self.shape[1]
        inside = np.zeros(self.shape, dtype=bool)
        groups: dict[tuple[str, int, int], tuple[list, list]] = {}
        width = 0
        for r, c in self.blocks:
            r, c = np.asarray(r, dtype=np.intp), np.asarray(c, dtype=np.intp)
            if not self.singular and not np.array_equal(r, c):
                raise ValueError(f"{self.name}: an eigenvalue block needs rows == columns")
            if np.any(inside[r]) or np.any(inside[:, c]):
                raise ValueError(f"{self.name}: blocks overlap")
            inside[np.ix_(r, c)] = True
            if self.singular:
                method = "norm" if r.size == 1 else "symmetric" if r.size == c.size else "svd"
            else:
                method = "diagonal" if r.size == 1 else "eigh"
            count = min(r.size, c.size)
            index, slots = groups.setdefault((method, r.size, c.size), ([], []))
            index.append(r[:, None] * cols + c[None, :])
            slots.append(np.arange(width, width + count))
            width += count
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "off_block", ~inside.reshape(-1))
        object.__setattr__(self, "groups", tuple(
            (method, np.stack(index), np.stack(slots))
            for (method, _, _), (index, slots) in groups.items()
        ))


def _entry_error(layout: BlockLayout, bad: np.ndarray, entries: np.ndarray, g, w, what: str):
    """ConsistencyError naming the first cell with a flagged entry; ``bad`` holds one row of
    flags per matrix, and ``entries`` the flat matrix index of each flag."""
    bad = bad.reshape(bad.shape[0], -1)
    n = int(np.argmax(bad.any(axis=1)))
    i, j = divmod(int(entries.flat[np.argmax(bad[n])]), layout.shape[1])
    return ConsistencyError(f"{layout.name} at {cell_name(g[n], w[n])}: entry [{i}, {j}] {what}")


def block_spectra(a, layout: BlockLayout, g, w) -> np.ndarray:
    """Eigenvalues or singular values of a batch of the family ``layout``, block by block.

    ``a`` is a (batch, rows, cols) array; ``g`` and ``w`` are the weights
    of its cells, used to name a failing one.  Every off-block entry must be
    exactly 0.0 and every square block of a singular-value layout exactly
    symmetric; otherwise ConsistencyError names the family, the first such
    cell and the entry.  Blocks of one shape share one LAPACK call.

    Returns a (batch, layout.width) array: the blocks in layout order, each
    block's values in the order LAPACK gives them (not sorted overall).  A
    cell's values do not depend on the rest of the batch.
    """
    a = _real_if_exact(a)
    if a.ndim != 3 or a.shape[1:] != layout.shape:
        raise ValueError(f"{layout.name}: expected a batch of {layout.shape} matrices, got {a.shape}")
    batch = a.shape[0]
    flat = a.reshape(batch, -1)
    off = (flat != 0.0) & layout.off_block  # NaN counts as nonzero
    if off.any():
        raise _entry_error(layout, off, np.arange(flat.shape[1]), g, w,
                           "lies outside every block but is not 0")
    out = np.empty((batch, layout.width))
    try:
        for method, index, slots in layout.groups:
            blocks = np.take(flat, index, axis=1)  # (batch, count, rows, cols)
            if method == "symmetric":
                bad = blocks != np.swapaxes(blocks, -1, -2)
                if np.any(bad):
                    raise _entry_error(layout, bad, index, g, w,
                                       "differs from its mirror in a symmetric block")
            if method == "diagonal":
                values = blocks[..., 0]
            elif method == "norm":
                values = np.linalg.norm(blocks, axis=-1)
            elif method == "svd":
                values = np.linalg.svd(blocks, compute_uv=False)
            else:
                values = np.linalg.eigvalsh(blocks)
            out[:, slots] = np.abs(values) if method == "symmetric" else values
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK failed on the blocks of {layout.name}: {exc}") from exc
    return _require_finite(out, f"block spectra of {layout.name}")


def trace_norm(a) -> float | np.ndarray:
    """Sum of singular values."""
    svs = singular_values(a)
    out = np.sum(svs, axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def psd_sqrt(a, tol: float | None = None) -> np.ndarray:
    """Hermitian PSD square root B with B @ B == A to 1e-9 elementwise.

    Eigenvalues below -tol are rejected; small negatives are clamped to zero.
    """
    if tol is None:
        tol = psd_tol()
    require_hermitian(a)
    vals, vecs = eigh(a, vectors=True)
    worst = float(np.min(vals))
    if worst < -tol:
        raise ValueError(f"matrix is not PSD: smallest eigenvalue {worst:.3e} < -{tol:.1e}")
    root = np.sqrt(np.clip(vals, 0.0, None))
    out = (vecs * root[..., None, :]) @ np.conj(np.swapaxes(vecs, -1, -2))
    return out.astype(np.complex128, copy=False)


def permute_indices(a, perm) -> np.ndarray:
    """Apply the index-permutation map to an 8x8 three-qubit operator or a batch of them.

    ``perm`` is a permutation of (0..5): entry k says where binary matrix
    index k of the input lands in the output, positions 0-2 being the row
    (ket) qubits and 3-5 the column (bra) qubits.  The identity permutation
    returns the matrix unchanged; (3, 1, 2, 0, 4, 5) is the qubit-1 partial
    transpose; (0, 1, 4, 3, 2, 5) is the 2-3 reshuffle.  Real input gives a
    float64 result, complex input a complex128 one.
    """
    a = np.asarray(a)
    a = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64, copy=False)
    if a.shape[-2:] != (8, 8):
        raise ValueError(f"expected 8x8 matrices, got shape {a.shape}")
    perm = tuple(int(k) for k in perm)
    if sorted(perm) != [0, 1, 2, 3, 4, 5]:
        raise ValueError(f"not a permutation of the 6 binary indices: {perm}")
    lead = a.shape[:-2]
    # output position perm[k] carries input axis k, so transpose by the inverse
    axes = tuple(range(len(lead))) + tuple(len(lead) + int(k) for k in np.argsort(perm))
    return a.reshape(lead + (2,) * 6).transpose(axes).reshape(lead + (8, 8))


TRANSPOSE_1_PERM = (3, 1, 2, 0, 4, 5)
RESHUFFLE_23_PERM = (0, 1, 4, 3, 2, 5)
