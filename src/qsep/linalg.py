"""Dense complex matrix arithmetic and spectral routines for dimension <= 64.

The criteria read ``block_spectra``: one pass per batch over the matrix
families a selection reads, each diagonalized block by block.  Each family's
layout (``BlockLayout``) derives its blocks and their mirror pairs from its
integer form numbers, and each block's method from its shape and mirror
pairs; ``_plan`` pools the blocks of a pass.  Every block is gathered from one
array, the batch's evaluated forms; then one ``eigvalsh_2x2`` call, the steps
LAPACK ``dsyevd`` takes on a 2x2 matrix vectorized, takes every 2x2 problem
of every family, one ``two_row_singular_values`` call, a Hestenes rotation
vectorized, the 2x6 block of R(rho), and one LAPACK ``eigvalsh`` call the two
3x3 blocks of R'(rho).

``eigh`` (symmetric/Hermitian eigensolver) and ``singular_values`` (SVD of
the matrix itself, not of its Gram matrix, so a trace norm keeps full
accuracy near zero singular values) work on full matrices: ``qsep verify``
checks the block spectra against them, and the square root, the concurrence
and the examples use them.  Real input, as every family is, and complex
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

import functools
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .config import HERMITICITY_TOL, JACOBI_MAX_SWEEPS, JACOBI_OFF_TOL, PSD_TOL
from .exceptions import ConsistencyError, ConvergenceError

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
    if not np.isfinite(values).all():
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


def jacobi_eigh(a) -> np.ndarray:
    """Cyclic Jacobi eigenvalues of Hermitian matrices, sorted non-increasing:
    the reference solver.

    ``a`` is one (n, n) matrix or a (batch, n, n) batch, assumed Hermitian.
    Each matrix is swept until its own off-diagonal Frobenius norm is below
    ``JACOBI_OFF_TOL`` and then frozen; a matrix still above it after
    ``JACOBI_MAX_SWEEPS`` sweeps raises ConvergenceError.
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
    for _ in range(JACOBI_MAX_SWEEPS):
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
                f"Jacobi did not converge in {JACOBI_MAX_SWEEPS} sweeps; "
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
_KERNEL_STEP = 8192  # problems per step of eigvalsh_2x2: its ~20 temporaries take about 1.3 MB


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


def _components(support: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The connected components of a boolean rows x columns pattern, as sorted (rows,
    columns) index arrays ordered by their first row; a row or column with no True entry
    lies in none."""
    blocks, left = [], support.any(axis=1)
    while left.any():
        rows = np.arange(left.size) == np.argmax(left)
        while True:
            cols = support[rows].any(axis=0)
            grown = support[:, cols].any(axis=1)
            if np.array_equal(grown, rows):
                break
            rows = grown
        left &= ~rows
        blocks.append((np.flatnonzero(rows), np.flatnonzero(cols)))
    return blocks


@dataclass(frozen=True, eq=False)  # a family is its object: compared and hashed by identity
class BlockLayout:
    """A matrix family of integer forms that a fixed permutation turns into a direct sum of
    small blocks, which its form numbers determine.

    ``form_index`` is the family's one description of its entries: a (rows,
    columns) integer array holding, per entry, the row of a batch's forms array
    that evaluates the entry's form.  Form 0 is the zero form, and two entries
    read equal forms exactly when their numbers are equal, so every structural
    fact below is read off the numbers.  ``map`` builds the family from any
    batch of 8x8 operators: from rho's entry table, which gives the numbers,
    and from an independently built mixture, the second construction its
    matrices are checked against.  ``closed`` names the closed-form spectra its
    sorted spectra are checked against (None: it has none).

    ``singular`` selects what ``block_spectra`` returns: eigenvalues (the
    numbers must equal their transpose; the lower triangle is read) or singular
    values.  The blocks are the connected components of the entries with a
    nonzero number, an eigenvalue family's diagonal included, so that an
    isolated index is a 1x1 block; their rows and columns are sorted, and they
    are ordered by their first row.  The method of each block is fixed here, by
    its shape and its numbers, and never chosen from the values:

    - eigenvalues: a 1x1 block is its diagonal entry; a 2x2 block goes to
      ``eigvalsh_2x2``; a 3x3 block with a mirror pair is split (below); any
      other block goes to LAPACK ``eigvalsh``;
    - singular values: a one-row block gives its Euclidean norm; a square
      block must be exactly symmetric and gives the absolute values of its
      eigenvalues, found as above but never split; a block of two rows and
      more columns goes to ``two_row_singular_values``, one Hestenes rotation.
      Any other block fails here with ValueError.

    The mirror pair of a 3x3 eigenvalue block is its first pair of positions
    (p, q), in the order (0, 1), (0, 2), (1, 2), whose numbers give
    B_pp == B_qq and B_pr == B_qr, r the third position, so that
    (e_p - e_q)/sqrt(2) is an eigenvector.  The block then yields B_pp - B_pq
    and the eigenvalues of the 2x2 block [[B_pp + B_pq, sqrt(2) B_pr],
    [sqrt(2) B_pr, B_rr]].

    The two symmetries are checked here, exactly, once; otherwise ValueError
    names the family, the entry and the two form numbers.  A zero entry is
    never evaluated, so for finite forms the blocks and the mirror equalities
    hold on every cell.

    ``blocks`` holds each block's (method, forms): the numbers of its entries,
    as a (rows, columns) array, a split block's in the order p, q, r.  ``_plan``
    reads them, and nothing else of the layout's entries.
    """

    name: str
    form_index: np.ndarray = field(repr=False)
    map: Callable = field(repr=False)
    singular: bool = False
    closed: str | None = None
    # derived from the form numbers: (method, forms) per block
    blocks: tuple[tuple[str, np.ndarray], ...] = field(init=False, repr=False)

    def __post_init__(self):
        index = self.form_index

        def require_symmetric(r, c, text):
            sub = index[np.ix_(r, c)]
            bad = np.argwhere(sub != sub.T)
            if bad.size:
                i, j = bad[0]
                raise ValueError(f"{self.name}: entry [{r[i]}, {c[j]}] {text}: it reads form "
                                 f"{sub[i, j]}, its mirror form {sub[j, i]}")

        support = index != 0
        if not self.singular:
            require_symmetric(np.arange(index.shape[0]), np.arange(index.shape[1]),
                              "differs from its mirror across the diagonal")
            support |= np.eye(*index.shape, dtype=bool)
        blocks = []
        for r, c in _components(support):
            square = r.size == c.size and not (self.singular and r.size == 1)
            if square:
                method = {1: "diagonal", 2: "kernel"}.get(r.size, "eigh")
            elif r.size == 1 or r.size == 2 < c.size:
                method = "norm" if r.size == 1 else "rotation"
            else:
                raise ValueError(f"{self.name}: a non-square singular-value block has one row, "
                                 f"or two rows and more columns; got {r.size}x{c.size}")
            if self.singular and square:
                require_symmetric(r, c, "differs from its mirror in a symmetric block")
            elif r.size == 3 and not self.singular:  # its first mirror pair (p, q), third row t
                b = index[np.ix_(r, r)]
                mirrors = [(p, q, t) for p, q, t in ((0, 1, 2), (0, 2, 1), (1, 2, 0))
                           if b[p, p] == b[q, q] and b[p, t] == b[q, t]]
                if mirrors:
                    method, r = "split", r[list(mirrors[0])]
                    c = r
            blocks.append((method, index[np.ix_(r, c)]))
        object.__setattr__(self, "blocks", tuple(blocks))

    def family(self, forms: np.ndarray) -> np.ndarray:
        """The full matrices of the family, C-contiguous, gathered from a (forms, cells)
        forms array."""
        return np.ascontiguousarray(forms.T).take(self.form_index, axis=1)


@functools.cache
def _plan(layouts: tuple[BlockLayout, ...]) -> tuple:
    """Where a pass over ``layouts`` reads and writes, from one walk over each layout's
    blocks with a running output column: each layout's first column and the total width;
    the a, b, c forms and the low and high columns of every 2x2 problem, the split blocks'
    first; the B_pq forms of the split blocks and the columns of their B_pp - B_pq values;
    per block (method, shape), the forms of its blocks, their columns and their layouts'
    names; and the columns that take |value|."""
    starts, split, kernel, pairs, groups, absolute = [0], [], [], [], {}, []
    for layout in layouts:
        column = starts[-1]
        for method, forms in layout.blocks:
            n = min(forms.shape)
            columns = list(range(column, column + n))
            column += n
            if layout.singular and method in ("kernel", "eigh"):  # |eigenvalues| of a symmetric block
                absolute += columns
            if method == "split":  # forms in the order p, q, r
                pairs.append((forms[1, 0], columns[0]))
                split.append((forms[0, 0], forms[2, 0], forms[2, 2], *columns[1:]))
            elif method == "kernel":
                kernel.append((forms[0, 0], forms[1, 0], forms[1, 1], *columns))
            else:
                groups.setdefault((method, forms.shape), []).append((forms, columns, layout.name))
        starts.append(column)
    for key, found in groups.items():
        forms, columns, names = zip(*found)
        groups[key] = (np.stack(forms), np.concatenate(columns), ", ".join(dict.fromkeys(names)))
    return (starts, np.array(split + kernel, dtype=np.intp).reshape(-1, 5).T,
            np.array(pairs, dtype=np.intp).reshape(-1, 2).T, groups, np.array(absolute, dtype=np.intp))


def two_row_singular_values(columns: np.ndarray) -> np.ndarray:
    """Singular values of real 2 x n blocks, by one Hestenes rotation (Hestenes, J. SIAM 6,
    51 (1958)).

    ``columns`` has shape (n, 2, ...): the n columns of each block, then any
    batch axes.  Returns shape (2, ...), each block's values non-increasing.
    Each block is scaled, exactly, by the largest power of two not above its
    largest |entry|.  With a = |r1|^2, b = |r2|^2 and c = r1.r2 of its rows,
    zeta = (b - a)/(2c) and t = sign(zeta)/(|zeta| + hypot(1, zeta)), 0 where
    c == 0, the rotation by t makes the rows orthogonal; the values are the
    norms of the rotated rows, scaled back.  They are norms of rows, never
    square roots of Gram eigenvalues: only the angle reads inner products, so
    each value is as accurate as LAPACK's bidiagonal SVD makes it, small ones
    included (Demmel and Veselic, SIAM J. Matrix Anal. Appl. 13, 1204
    (1992)).  Every sum runs over the columns left to right, elementwise, so a
    block's values do not depend on the batch it is in.
    """
    scale = np.ldexp(1.0, np.frexp(np.abs(columns).max(axis=(0, 1)))[1] - 1)  # 1/2 for a zero block
    x = columns / scale
    products = x[:, :, None] * x[:, None, :]
    gram = sum(products[1:], products[0])
    a, b, c = gram[0, 0], gram[1, 1], gram[0, 1]
    with np.errstate(all="ignore"):  # zeta overflows where c is subnormal, and is 0/0 where c == 0
        zeta = (b - a) / (2.0 * c)
        t = np.where(c == 0.0, 0.0, np.copysign(1.0, zeta) / (np.abs(zeta) + np.hypot(1.0, zeta)))
    cos = 1.0 / np.sqrt(1.0 + t * t)
    sin = cos * t
    rotated = np.stack([cos * x[:, 0] - sin * x[:, 1], sin * x[:, 0] + cos * x[:, 1]], axis=1)
    squares = rotated * rotated
    norms = np.sqrt(sum(squares[1:], squares[0]))
    norms.sort(axis=0)
    return norms[::-1] * scale


def block_spectra(layouts: tuple[BlockLayout, ...], forms: np.ndarray) -> tuple[np.ndarray, ...]:
    """Eigenvalues or singular values of a batch of each family in ``layouts``, block by
    block, in one pass.

    ``forms`` is the (forms, cells) array of the batch's evaluated forms,
    which every block is gathered from; the tables of the layouts were checked
    when they were built, so no entry is checked here.  One ``eigvalsh_2x2``
    call takes every 2x2 problem of every family, one ``two_row_singular_values``
    call every block of two rows and more columns, and one LAPACK ``eigvalsh``
    call each remaining block shape; no block goes to an SVD.
    Returns, per layout, a (cells, values) view of one buffer: its blocks in
    layout order, min(rows, columns) values each, eigenvalues ascending (a
    split block gives B_pp - B_pq first) and singular values non-increasing,
    not sorted overall.  A cell's values depend neither on the rest of the batch nor on
    the other families of the pass.
    """
    batch = forms.shape[1]
    starts, problems, pairs, groups, absolute = _plan(tuple(layouts))
    abc = forms[problems[:3]]  # each (problem, cell); the split blocks' come first
    b_pq = forms[pairs[0]]
    singles = abc[0, :b_pq.shape[0]] - b_pq
    abc[0, :b_pq.shape[0]] += b_pq
    abc[1, :b_pq.shape[0]] *= _SQRT2
    lows, highs = eigvalsh_2x2(*abc)
    del abc, b_pq
    out = np.empty((batch, starts[-1]))  # once the kernel's temporaries are freed
    out[:, pairs[1]], out[:, problems[3]], out[:, problems[4]] = singles.T, lows.T, highs.T
    del lows, highs
    by_cell = np.ascontiguousarray(forms.T)
    for (method, _), (entries, columns, names) in groups.items():
        if method == "rotation":  # from (columns, 2, count, cells) to (cells, count, 2)
            found = two_row_singular_values(forms[entries].transpose(2, 1, 0, 3)).T
        else:
            blocks = by_cell.take(entries, axis=1)  # (cells, count, rows, columns)
            if method == "diagonal":
                found = blocks[..., 0, 0]
            elif method == "norm":
                found = np.linalg.norm(blocks[..., 0, :], axis=-1)
            else:
                try:
                    found = np.linalg.eigvalsh(blocks)
                except np.linalg.LinAlgError as exc:
                    raise ConvergenceError(f"LAPACK failed on the blocks of {names}: {exc}") from exc
        out[:, columns] = found.reshape(batch, -1)
    out[:, absolute] = np.abs(out[:, absolute])
    spectra = tuple(out[:, start:stop] for start, stop in zip(starts[:-1], starts[1:]))
    if not np.isfinite(out).all():  # name the first family with a non-finite value
        for layout, values in zip(layouts, spectra):
            _require_finite(values, f"block spectra of {layout.name}")
    return spectra


def trace_norm(a) -> float | np.ndarray:
    """Sum of singular values."""
    svs = singular_values(a)
    out = np.sum(svs, axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def psd_sqrt(a) -> np.ndarray:
    """Hermitian PSD square root B with B @ B == A to 1e-9 elementwise.

    Eigenvalues below -PSD_TOL are rejected; small negatives are clamped to zero.
    """
    require_hermitian(a)
    vals, vecs = eigh(a, vectors=True)
    worst = float(np.min(vals))
    if worst < -PSD_TOL:
        raise ValueError(f"matrix is not PSD: smallest eigenvalue {worst:.3e} < -{PSD_TOL:.1e}")
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
