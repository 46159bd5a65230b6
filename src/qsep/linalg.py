"""Dense complex matrix arithmetic and spectral routines for dimension <= 64.

The criteria read ``block_spectra``: one call per matrix family and batch,
which diagonalizes the family block by block along the fixed layout
(``BlockLayout``) declared with its template.  The method is fixed by the
block's shape and the declared mirror pairs:

- a 1x1 block is its diagonal entry, and a one-row singular-value block's
  value is its Euclidean norm;
- every 2x2 problem of the family goes to one call of ``eigvalsh_2x2``, the
  steps LAPACK ``dsyevd`` takes on a 2x2 matrix (``dsterf``'s split tests
  and ``dlae2``), vectorized;
- a 3x3 block with a mirror pair (p, q) splits into B_pp - B_pq and a 2x2
  problem.  ``states`` declares the pairs: (1, 2) in the (1, 2, 4) blocks
  of rho and of both reduction maps, (5, 6) in the (0, 5, 6) block of
  rho^T1;
- what remains goes to LAPACK, one call per block shape: ``eigvalsh`` for
  the two 3x3 blocks of R'(rho) and SVD for the 2x6 block of R(rho).

``eigh`` (symmetric/Hermitian eigensolver) and ``singular_values`` (SVD of
the matrix itself, not of its Gram matrix, so a trace norm keeps full
accuracy near zero singular values) work on full matrices: ``qsep verify``
checks the block spectra against them, and the square root, the concurrence
and the examples use them.  Real input, as every template is, and complex
input whose imaginary part is exactly zero go to the real LAPACK routines.
``jacobi_eigh`` is a cyclic Jacobi solver kept as the independent reference
that ``qsep verify`` and the acceptance tests compare the production path
with.

The full-matrix routines accept a single matrix or a batch with one leading
axis.  Each matrix of a Jacobi batch rotates until its own off-diagonal norm
is small and is then left alone, so its result does not depend on what else
sits in the batch.
"""

from __future__ import annotations

from collections.abc import Callable
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


def require_hermitian(a) -> None:
    defect = hermiticity_defect(a)
    if defect > HERMITICITY_TOL:
        raise ValueError(
            f"matrix is not Hermitian: max |A - A^dag| = {defect:.3e} exceeds {HERMITICITY_TOL:.1e}"
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


def hermitian_eigenvalues(a) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix (or batch), sorted non-increasing.

    Rejects non-Hermitian input, and checks that the eigenvalue sum
    reproduces the trace to 1e-10 (a live sanity check on the solver).
    """
    require_hermitian(a)
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


# LAPACK's machine constants (DLAMCH): the unit roundoff and the scaling thresholds of
# dsyevd (rmin, rmax) and dsterf (ssfmin, ssfmax)
_ROUNDOFF = _EPS / 2
_RMIN = float(np.sqrt(_TINY / _EPS))
_RMAX = float(np.sqrt(_EPS / _TINY))
_SSFMIN = float(np.sqrt(_TINY)) / _ROUNDOFF**2
_SSFMAX = float(np.sqrt(1.0 / _TINY)) / 3.0
_SQRT2 = float(np.sqrt(2.0))
_KERNEL_STEP = 2048  # problems per step of eigvalsh_2x2: its ~20 temporaries take 0.33 MB


def eigvalsh_2x2(a, b, c) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues (low, high) of the symmetric matrices [[a, b], [b, c]],
    elementwise over three arrays of one shape.

    These are the steps LAPACK ``dsyevd`` takes on a 2x2 matrix, as ``dsterf``
    applies ``dlae2`` (Anderson et al., LAPACK Users' Guide): scaling into the
    safe range when the largest entry is below 3e-123 or above 1e146, the
    split tests |b| <= eps sqrt|a| sqrt|c| and b^2 <= eps^2 |ac|, then
    rt1 = (sm +- rt)/2 and rt2 = (acmx/rt1) acmn - (b/rt1) b, and the sort.
    Where LAPACK is compiled without fused multiply-add this is
    ``np.linalg.eigvalsh`` bit for bit.
    """
    shape = np.shape(a)
    a, b, c = (np.asarray(x, dtype=np.float64).reshape(-1) for x in (a, b, c))
    low, high = np.empty(a.size), np.empty(a.size)
    with np.errstate(all="ignore"):
        for lo in range(0, a.size, _KERNEL_STEP):
            step = slice(lo, lo + _KERNEL_STEP)
            low[step], high[step] = _dsyevd_2x2(a[step], b[step], c[step])
    return low.reshape(shape), high.reshape(shape)


def _dsyevd_2x2(a, b, c):
    """``eigvalsh_2x2`` on 1-d arrays; the scaling steps run only if an entry is extreme."""
    aa, ab, ac = np.abs(a), np.abs(b), np.abs(c)
    size = np.maximum(np.maximum(aa, ab), ac)
    extreme = size.max() > _RMAX or (size.min() < _SSFMIN and ((size < _SSFMIN) & (size > 0.0)).any())
    if extreme:  # dsyevd scales the matrix, dsterf a block that does not split
        sigma = np.where(size > _RMAX, _RMAX / size,
                         np.where((size < _RMIN) & (size > 0.0), _RMIN / size, 1.0))
        a, b, c = a * sigma, b * sigma, c * sigma
        aa, ab, ac = np.abs(a), np.abs(b), np.abs(c)
        size = np.maximum(np.maximum(aa, ab), ac)
        up, down = size > _SSFMAX, size < _SSFMIN
        scale = np.where(up, _SSFMAX / size, np.where(down, _SSFMIN / size, 1.0))
        unscale = np.where(up, size / _SSFMAX, np.where(down, size / _SSFMIN, 1.0))
    split = ab <= (np.sqrt(aa) * np.sqrt(ac)) * _ROUNDOFF
    if extreme:
        a0, c0 = a, c
        a, b, c = a * scale, b * scale, c * scale
        aa, ac = np.abs(a), np.abs(c)
    e2 = b * b
    split2 = e2 <= (aa * ac) * _ROUNDOFF**2
    # dlae2 of (a, sqrt(e2), c): rt1, the larger in magnitude, and rt2.  The QL step
    # stores (rt1, rt2), the QR step, taken when |c| < |a|, (rt2, rt1)
    rte = np.sqrt(e2)
    sm = a + c
    adf = np.abs(a - c)
    tb = rte + rte
    qr = aa > ac
    acmx, acmn = np.where(qr, a, c), np.where(qr, c, a)
    hi, lo = np.maximum(adf, tb), np.minimum(adf, tb)
    rt = hi * np.sqrt(1.0 + (lo / hi) ** 2)  # tb sqrt(2) when adf == tb
    rt1 = 0.5 * (sm + np.copysign(rt, sm + 0.0))  # 0.5 rt when sm is 0
    rt2 = np.where(sm != 0.0, (acmx / rt1) * acmn - (rte / rt1) * rte, -rt1)
    if extreme:
        d1 = np.where(split, a0, np.where(split2, a, np.where(qr, rt2, rt1)) * unscale)
        d2 = np.where(split, c0, np.where(split2, c, np.where(qr, rt1, rt2)) * unscale)
    else:  # a block that splits keeps its diagonal
        split |= split2
        d1, d2 = np.where(split, a, np.where(qr, rt2, rt1)), np.where(split, c, np.where(qr, rt1, rt2))
    low, high = np.minimum(d2, d1), np.maximum(d1, d2)  # dsterf's sort: swap only if d2 < d1
    return (low * (1.0 / sigma), high * (1.0 / sigma)) if extreme else (low, high)


@dataclass(frozen=True)
class BlockLayout:
    """A matrix family that a fixed permutation turns into a direct sum of small blocks.

    ``blocks`` lists each block's (rows, columns) index sets; every entry
    outside them is zero.  The family is read from a batch of its
    ``source_shape`` source matrices, which ``template(g, w)`` builds (None:
    the source is rho, which the caller holds).  Without ``source_map`` the
    source is the family itself; with it, the family is ``source_map`` of its
    source (``family``), a map that only moves entries (a partial transpose,
    a reshuffle), so ``block_spectra`` gathers the family from the source
    through the derived ``index``.

    ``singular`` selects what ``block_spectra`` returns: eigenvalues of
    Hermitian blocks (rows == columns; the lower triangle is read) or
    singular values.  The method of each block is fixed here, by its shape
    and the declared mirror pairs, and never chosen from the values:

    - eigenvalues: a 1x1 block is its diagonal entry; a 2x2 block goes to
      ``eigvalsh_2x2``; a 3x3 block with a mirror pair is split (below); any
      other block goes to LAPACK ``eigvalsh``;
    - singular values: a one-row block gives its Euclidean norm; a square
      block must be exactly symmetric and gives the absolute values of its
      eigenvalues, found as above; any other block goes to LAPACK SVD.

    A mirror pair (p, q) in ``mirrors`` declares that the 3x3 block holding
    rows p and q, with third row r, has B_pp == B_qq and B_pr == B_qr, so
    that (e_p - e_q)/sqrt(2) is an eigenvector.  The block then yields
    B_pp - B_pq and the eigenvalues of the 2x2 block
    [[B_pp + B_pq, sqrt(2) B_pr], [sqrt(2) B_pr, B_rr]].  ``block_spectra``
    checks both equalities exactly on every call.

    Where ``block_spectra`` reads and writes is derived here, once per
    family, in flat entries of the source.
    """

    name: str
    shape: tuple[int, int]
    blocks: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    singular: bool = False
    mirrors: tuple[tuple[int, int], ...] = ()
    template: Callable | None = field(default=None, compare=False, repr=False)
    source_shape: tuple[int, int] | None = None  # None: the family's own shape
    source_map: Callable | None = field(default=None, compare=False, repr=False)
    # derived from the fields above: the source entry of each flat family entry; values per
    # matrix; the family's off-block mask, and the source entries it must hold 0.0 in; the
    # a, b, c entries of the 2x2 problems, split blocks first, and their low and high slots;
    # the B_pq entry of each split block and the slot of B_pp - B_pq; (method, entries of
    # shape (count, rows, columns), slots) per block shape; the (left, right) entries that
    # must be equal, with the text naming each pair; and the slots that take |value|
    index: np.ndarray = field(init=False, repr=False, compare=False)
    width: int = field(init=False, repr=False, compare=False)
    off_block: np.ndarray = field(init=False, repr=False, compare=False)
    zeros: np.ndarray = field(init=False, repr=False, compare=False)
    problems: np.ndarray = field(init=False, repr=False, compare=False)
    problem_slots: np.ndarray = field(init=False, repr=False, compare=False)
    split: np.ndarray = field(init=False, repr=False, compare=False)
    groups: tuple = field(init=False, repr=False, compare=False)
    equal: tuple = field(init=False, repr=False, compare=False)
    abs_slots: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows, cols = self.shape
        if self.source_shape is None:
            object.__setattr__(self, "source_shape", self.shape)
        if self.source_map is None:
            index = np.arange(rows * cols)
        else:  # the map applied to the source's flat indices
            source = np.arange(float(np.prod(self.source_shape))).reshape(self.source_shape)
            index = self.source_map(source).reshape(-1).astype(np.intp)
        inside = np.zeros(self.shape, dtype=bool)
        unused = set(self.mirrors)
        problems, split, groups, equalities, abs_slots = [], [], {}, [], []
        width = 0

        def flat(i, j) -> int:
            return int(i) * cols + int(j)

        def lower(i, j) -> int:  # the entry LAPACK reads of a symmetric pair
            return flat(max(i, j), min(i, j))

        for r, c in self.blocks:
            r, c = np.asarray(r, dtype=np.intp), np.asarray(c, dtype=np.intp)
            if not self.singular and not np.array_equal(r, c):
                raise ValueError(f"{self.name}: an eigenvalue block needs rows == columns")
            if np.any(inside[r]) or np.any(inside[:, c]):
                raise ValueError(f"{self.name}: blocks overlap")
            inside[np.ix_(r, c)] = True
            entry = r[:, None] * cols + c[None, :]
            n = min(r.size, c.size)
            slots = list(range(width, width + n))
            width += n
            square = r.size == c.size and not (self.singular and n == 1)
            mirror = next((m for m in self.mirrors if set(m) <= set(r.tolist())), None)
            if self.singular and square:
                abs_slots += slots
                equalities += [(entry[i, j], entry[j, i], "differs from its mirror in a symmetric block")
                               for i in range(n) for j in range(i + 1, n)]
            if square and n == 2:
                problems.append((entry[0, 0], entry[1, 0], entry[1, 1], *slots))
            elif square and n == 3 and mirror is not None and not self.singular:
                unused.discard(mirror)
                p, q = mirror
                (t,) = set(r.tolist()) - {p, q}
                split.append((lower(p, q), slots[0]))  # B_pq; the split problems come first
                problems.insert(len(split) - 1, (flat(p, p), lower(p, t), flat(t, t), *slots[1:]))
                for left, right in ((flat(q, q), flat(p, p)), (lower(q, t), lower(p, t))):
                    i, j = divmod(right, cols)
                    equalities.append((left, right, f"differs from its mirror [{i}, {j}]"))
            else:
                method = ("diagonal" if n == 1 else "eigh") if square else "norm" if r.size == 1 else "svd"
                groups.setdefault((method, entry.shape), []).append((entry, slots))
        if unused:
            raise ValueError(f"{self.name}: mirror pairs {sorted(unused)} lie in no 3x3 block")
        zeros = np.zeros(int(np.prod(self.source_shape)), dtype=bool)
        zeros[index[~inside.reshape(-1)]] = True
        problems = np.array(problems, dtype=np.intp).reshape(-1, 5).T
        split = np.array(split, dtype=np.intp).reshape(-1, 2).T
        left, right, texts = zip(*equalities) if equalities else ((), (), ())
        derived = {
            "index": index,
            "width": width,
            "off_block": ~inside.reshape(-1),
            "zeros": zeros,
            "problems": index[problems[:3]],
            "problem_slots": problems[3:],
            "split": np.stack([index[split[0]], split[1]]),
            "groups": tuple((method, index[np.stack([e for e, _ in items])],
                             np.concatenate([s for _, s in items]).astype(np.intp))
                            for (method, _), items in groups.items()),
            "equal": (index[np.array(left, dtype=np.intp)], index[np.array(right, dtype=np.intp)],
                      tuple(f"entry [{i}, {j}] {text}"
                            for (i, j), text in zip((divmod(int(e), cols) for e in left), texts))),
            "abs_slots": np.array(abs_slots, dtype=np.intp),
        }
        for key, value in derived.items():
            object.__setattr__(self, key, value)

    def family(self, source) -> np.ndarray:
        """The full matrices of the family, from a batch of its source matrices."""
        return source if self.source_map is None else self.source_map(source)


def _entry_error(layout: BlockLayout, bad: np.ndarray, texts, g, w):
    """ConsistencyError naming the first cell with a flagged entry; ``bad`` holds one row
    of flags per matrix, and ``texts`` the text of each flag."""
    n = int(np.argmax(bad.any(axis=1)))
    return ConsistencyError(
        f"{layout.name} at {cell_name(g[n], w[n])}: {texts[int(np.argmax(bad[n]))]}"
    )


def _check_source(flat: np.ndarray, layout: BlockLayout, g, w) -> None:
    """Check the zero pattern and the equalities of ``layout`` on a batch of flat source
    matrices; raise naming its first failing cell and the entry."""
    if ((flat != 0.0) & layout.zeros).any():  # NaN counts as nonzero
        entries = np.flatnonzero(layout.off_block)
        texts = [f"entry [{i}, {j}] lies outside every block but is not 0"
                 for i, j in (divmod(int(e), layout.shape[1]) for e in entries)]
        raise _entry_error(layout, np.take(flat, layout.index[entries], axis=1) != 0.0, texts, g, w)
    left, right, texts = layout.equal
    bad = np.take(flat, left, axis=1) != np.take(flat, right, axis=1)  # NaN fails
    if bad.any():
        raise _entry_error(layout, bad, texts, g, w)


def block_spectra(layout: BlockLayout, source, g, w) -> np.ndarray:
    """Eigenvalues or singular values of a batch of the family ``layout``, block by block.

    ``source`` is the batch of its source matrices, a (batch, rows, cols)
    real array (complex input must have an exactly zero imaginary part).
    ``g`` and ``w`` are the weights of the batch's cells, used to name a
    failing one.  Every off-block entry must be exactly 0.0, every square
    block of a singular-value layout exactly symmetric and every mirror pair
    exactly equal; otherwise ConsistencyError names the family, the first
    such cell and the entry.  A NaN fails each of these checks.

    One ``eigvalsh_2x2`` call takes every 2x2 problem of the family, and one
    LAPACK call every block of a shape that remains.  Returns a
    (batch, layout.width) array: its blocks in layout order, each block's
    values ascending (a split block gives B_pp - B_pq first), not sorted
    overall.  A cell's values do not depend on the rest of the batch.
    """
    batch = len(g)
    matrices = _real_if_exact(source)
    if np.iscomplexobj(matrices) or matrices.shape != (batch,) + layout.source_shape:
        raise ValueError(f"{layout.name}: expected a batch of {batch} real {layout.source_shape} "
                         f"matrices, got {matrices.dtype} {matrices.shape}")
    flat = matrices.reshape(batch, -1)
    _check_source(flat, layout, g, w)
    out = np.empty((batch, layout.width))
    low, high = layout.problem_slots
    if low.size:
        a, b, c = (np.take(flat, entries, axis=1) for entries in layout.problems)
        pq_entries, single = layout.split
        m = single.size
        if m:  # the split blocks' problems come first
            pq = np.take(flat, pq_entries, axis=1)
            out[:, single] = a[:, :m] - pq
            a[:, :m] += pq
            b[:, :m] *= _SQRT2
        out[:, low], out[:, high] = eigvalsh_2x2(a, b, c)
    for method, entries, slots in layout.groups:
        blocks = np.take(flat, entries, axis=1)  # (batch, count, rows, columns)
        try:
            if method == "diagonal":
                found = blocks[..., 0, 0]
            elif method == "norm":
                found = np.linalg.norm(blocks[..., 0, :], axis=-1)
            elif method == "eigh":
                found = np.linalg.eigvalsh(blocks)
            else:
                found = np.linalg.svd(blocks, compute_uv=False)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"LAPACK failed on the blocks of {layout.name}: {exc}") from exc
        out[:, slots] = found.reshape(batch, -1)
    if layout.abs_slots.size:
        out[:, layout.abs_slots] = np.abs(out[:, layout.abs_slots])
    return _require_finite(out, f"block spectra of {layout.name}")


def trace_norm(a) -> float | np.ndarray:
    """Sum of singular values."""
    svs = singular_values(a)
    out = np.sum(svs, axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def psd_sqrt(a) -> np.ndarray:
    """Hermitian PSD square root B with B @ B == A to 1e-9 elementwise.

    Eigenvalues below -psd_tol() are rejected; small negatives are clamped to zero.
    """
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
