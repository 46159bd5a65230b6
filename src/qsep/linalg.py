"""Dense complex matrix arithmetic and spectral routines for dimension <= 64.

The criteria read ``block_spectra``: one pass per batch that diagonalizes
every matrix family a selection needs, block by block, along the fixed
layout (``BlockLayout``) declared with each family's template.  The method
is fixed by the block's shape and the declared mirror pairs:

- a 1x1 block is its diagonal entry, and a one-row singular-value block's
  value is its Euclidean norm;
- every 2x2 problem of the pass goes to one call of ``eigvalsh_2x2``, the
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
checks the block pass against them, and the square root, the concurrence
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

import functools
import itertools
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
_KERNEL_STEP = 4096  # problems per step of eigvalsh_2x2: its temporaries stay in cache


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
    outside them is zero.  The family is read from a batch of ``source``
    matrices, the key ``block_spectra`` finds them under.  Without
    ``source_map`` the source is the family itself; with it, the family is
    ``source_map`` of its ``source_shape`` source (``family``), a map that
    only moves entries (a partial transpose, a reshuffle), so the pass
    gathers the family from the source through the derived ``index``.

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

    The method, entries and output slots of every block are derived here,
    once per family.
    """

    name: str
    shape: tuple[int, int]
    blocks: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    singular: bool = False
    mirrors: tuple[tuple[int, int], ...] = ()
    source: str = ""
    source_shape: tuple[int, int] | None = None
    source_map: Callable | None = field(default=None, compare=False, repr=False)
    # derived from the fields above: the flat source entry of each flat family entry, values
    # per matrix, off-block mask, (method, flat entries, output slots) per block, (entry, its
    # mirror, text) per exact equality the blocks rely on, and the slots that take |value|
    index: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    width: int = field(init=False, repr=False, compare=False)
    off_block: np.ndarray = field(init=False, repr=False, compare=False)
    parts: tuple = field(init=False, repr=False, compare=False)
    equalities: tuple = field(init=False, repr=False, compare=False)
    abs_slots: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cols = self.shape[1]
        inside = np.zeros(self.shape, dtype=bool)
        unused = set(self.mirrors)
        parts, equalities, abs_slots = [], [], []
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
            slots = np.arange(width, width + n)
            width += n
            square = r.size == c.size and not (self.singular and n == 1)
            mirror = next((m for m in self.mirrors if set(m) <= set(r.tolist())), None)
            if self.singular and square:
                abs_slots += slots.tolist()
                equalities += [(entry[i, j], entry[j, i], "differs from its mirror in a symmetric block")
                               for i in range(n) for j in range(i + 1, n)]
            if not square:
                parts.append(("norm" if r.size == 1 else "svd", entry, slots))
            elif n == 1:
                parts.append(("diagonal", entry, slots))
            elif n == 2:
                parts.append(("pair", entry.reshape(-1)[[0, 2, 3]], slots))
            elif n == 3 and mirror is not None and not self.singular:
                unused.discard(mirror)
                p, q = mirror
                (t,) = set(r.tolist()) - {p, q}
                # B_pp, B_pr, B_rr, B_pq
                parts.append(("mirror", np.array([flat(p, p), lower(p, t), flat(t, t), lower(p, q)]),
                              slots))
                for left, right in ((flat(q, q), flat(p, p)), (lower(q, t), lower(p, t))):
                    i, j = divmod(right, cols)
                    equalities.append((left, right, f"differs from its mirror [{i}, {j}]"))
            else:
                parts.append(("eigh", entry, slots))
        if unused:
            raise ValueError(f"{self.name}: mirror pairs {sorted(unused)} lie in no 3x3 block")
        if self.source_map is not None:  # the map applied to the source's flat indices
            flat = np.arange(float(np.prod(self.source_shape))).reshape(self.source_shape)
            object.__setattr__(self, "index", self.source_map(flat).reshape(-1).astype(np.intp))
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "off_block", ~inside.reshape(-1))
        object.__setattr__(self, "parts", tuple(parts))
        object.__setattr__(self, "equalities", tuple(equalities))
        object.__setattr__(self, "abs_slots", tuple(abs_slots))

    def read_from(self, entries) -> np.ndarray:
        """The flat source indices of the flat family ``entries``."""
        entries = np.asarray(entries, dtype=np.intp)
        return entries if self.index is None else self.index[entries]

    def family(self, source) -> np.ndarray:
        """The full matrices of the family, from a batch of its source matrices."""
        return source if self.source_map is None else self.source_map(source)


class _Plan:
    """Where one pass over a tuple of layouts reads and writes, built once per tuple.

    Each method reads one input array: the a, b and c entries of the 2x2
    problems, B_pq of the split blocks, and one array per block shape of the
    other methods (``inputs``: key -> columns).  ``sources`` lists, per
    source: its shape, its zero-pattern mask, the entry pairs that must be
    equal (with the family and the text that name a failure), and ``fills``:
    the slice of each input that its entries fill.  The 2x2 problems, and
    the blocks of a shape, come source by source.
    """

    def __init__(self, layouts: tuple[BlockLayout, ...]):
        shapes, masks, checks = {}, {}, {}
        problems = []  # (source, method, source entries a, b, c [, B_pq], output slots)
        blocks: dict[tuple, list] = {}  # (method, shape) -> [(source, entries, slots, family)]
        self.spans, abs_slots, width = [], [], 0
        for layout in layouts:
            source = layout.source
            if source not in shapes:
                shapes[source] = layout.source_shape or layout.shape
                masks[source] = np.zeros(int(np.prod(shapes[source])), dtype=bool)
                checks[source] = []
            masks[source][layout.read_from(np.flatnonzero(layout.off_block))] = True
            for left, right, text in layout.equalities:
                i, j = divmod(int(left), layout.shape[1])
                checks[source].append((int(layout.read_from(left)), int(layout.read_from(right)),
                                       layout, f"entry [{i}, {j}] {text}"))
            for method, part, slots in layout.parts:
                entries, slots = layout.read_from(part), slots + width
                if method in ("pair", "mirror"):
                    problems.append((source, method, entries, slots))
                else:
                    blocks.setdefault((method, part.shape), []).append(
                        (source, entries, slots, layout.name))
            abs_slots += [width + slot for slot in layout.abs_slots]
            self.spans.append(slice(width, width + layout.width))
            width += layout.width
        self.width = width
        self.abs_slots = np.array(abs_slots, dtype=np.intp)
        rank = {source: k for k, source in enumerate(shapes)}
        problems.sort(key=lambda p: rank[p[0]])  # stable: layout order within a source
        fills: dict[str, list] = {source: [] for source in shapes}
        self.inputs: dict = {}

        def add_input(key, items) -> None:
            """Input ``key``: the entries of ``items`` ((source, entries), sources in order)."""
            lo = 0
            for source, group in itertools.groupby(items, key=lambda item: item[0]):
                entries = np.concatenate([np.ravel(e) for _, e in group]).astype(np.intp)
                fills[source].append((key, lo, lo + entries.size, entries))
                lo += entries.size
            self.inputs[key] = lo

        for j, key in enumerate("abc"):
            add_input(key, [(source, entries[j]) for source, _, entries, _ in problems])
        split = [k for k, (_, kind, _, _) in enumerate(problems) if kind == "mirror"]
        add_input("pq", [(problems[k][0], problems[k][2][3]) for k in split])
        self.split = np.array(split, dtype=np.intp)
        # output slots: B_pp - B_pq of each split block, the low and the high value of each problem
        self.single = np.array([problems[k][3][0] for k in split], dtype=np.intp)
        self.low = np.array([slots[-2] for *_, slots in problems], dtype=np.intp)
        self.high = np.array([slots[-1] for *_, slots in problems], dtype=np.intp)
        self.groups = []
        for key, items in blocks.items():
            items.sort(key=lambda item: rank[item[0]])
            add_input(key, [(source, entries) for source, entries, _, _ in items])
            self.groups.append((key, (len(items),) + key[1],
                                np.concatenate([slots for _, _, slots, _ in items]),
                                tuple(dict.fromkeys(name for *_, name in items))))
        # the pass builds one source at a time, and allocates each input at its first
        # fill; the source that fills the most entries goes last, when the others are gone
        self.sources = tuple(
            (source, shapes[source], masks[source],
             np.array([left for left, *_ in checks[source]], dtype=np.intp),
             np.array([right for _, right, *_ in checks[source]], dtype=np.intp),
             tuple((layout, text) for *_, layout, text in checks[source]), tuple(fills[source]))
            for source in sorted(shapes, key=lambda s: sum(e.size for *_, e in fills[s]))
        )


@functools.cache
def _plan(layouts: tuple[BlockLayout, ...]) -> _Plan:
    return _Plan(layouts)


def _entry_error(layout: BlockLayout, bad: np.ndarray, texts, g, w):
    """ConsistencyError naming the first cell with a flagged entry; ``bad`` holds one row
    of flags per matrix, and ``texts`` the text of each flag."""
    n = int(np.argmax(bad.any(axis=1)))
    return ConsistencyError(
        f"{layout.name} at {cell_name(g[n], w[n])}: {texts[int(np.argmax(bad[n]))]}"
    )


def _check_source(flat: np.ndarray, source: str, layouts, mask, left, right, named, g, w):
    """Check the zero pattern and the equalities of the families read from one source;
    raise naming the first failing family (in pass order), its first failing cell and
    the entry."""
    if ((flat != 0.0) & mask).any():  # NaN counts as nonzero
        for layout in (layout for layout in layouts if layout.source == source):
            entries = np.flatnonzero(layout.off_block)
            bad = flat[:, layout.read_from(entries)] != 0.0
            if bad.any():
                texts = [f"entry [{i}, {j}] lies outside every block but is not 0"
                         for i, j in (divmod(int(e), layout.shape[1]) for e in entries)]
                raise _entry_error(layout, bad, texts, g, w)
    bad = np.take(flat, left, axis=1) != np.take(flat, right, axis=1)  # NaN fails
    if bad.any():
        for layout in layouts:
            mine = np.array([owner is layout for owner, _ in named], dtype=bool)
            if bad[:, mine].any():
                raise _entry_error(layout, bad[:, mine], [t for (_, t), m in zip(named, mine) if m],
                                   g, w)


def _gather(sources: dict, plan: _Plan, layouts, g, w) -> dict:
    """The input arrays of every method, filled source by source; each source is built,
    checked (``_check_source``), read and dropped before the next."""
    batch = len(g)
    inputs = {}
    for source, shape, mask, left, right, named, fills in plan.sources:
        a = _real_if_exact(sources[source]())
        if np.iscomplexobj(a) or a.shape != (batch,) + shape:
            raise ValueError(f"{source}: expected a batch of {batch} real {shape} matrices, "
                             f"got {a.dtype} {a.shape}")
        flat = a.reshape(batch, -1)
        _check_source(flat, source, layouts, mask, left, right, named, g, w)
        for key, lo, hi, entries in fills:
            if key not in inputs:
                inputs[key] = np.empty((batch, plan.inputs[key]))
            inputs[key][:, lo:hi] = np.take(flat, entries, axis=1)
    return {key: inputs.get(key, np.empty((batch, 0))) for key in plan.inputs}


def block_spectra(sources: dict, layouts, g, w) -> dict[BlockLayout, np.ndarray]:
    """Eigenvalues or singular values of a batch of every family in ``layouts``, in one pass.

    ``sources`` maps each ``BlockLayout.source`` to a function of no
    arguments that returns its (batch, rows, cols) real array (complex input
    must have an exactly zero imaginary part).  Each is called once, and its
    array is dropped once its entries are gathered, so that one source is
    held at a time.  ``g`` and ``w`` are the weights of the batch's cells,
    used to name a failing one.  Every off-block entry must be exactly 0.0,
    every square block of a singular-value layout exactly symmetric and
    every mirror pair exactly equal; otherwise ConsistencyError names the
    family, the first such cell and the entry.  A NaN fails each of these
    checks.

    The pass makes one call per method over all layouts: one
    ``eigvalsh_2x2`` call for every 2x2 problem, and one LAPACK call per
    block shape that remains.  Returns, per layout, a (batch, layout.width)
    array: its blocks in layout order, each block's values ascending (a
    split block gives B_pp - B_pq first), not sorted overall.  A cell's
    values do not depend on the rest of the batch or on the other layouts
    of the pass.
    """
    layouts = tuple(layouts)
    plan = _plan(layouts)
    batch = len(g)
    inputs = _gather(sources, plan, layouts, g, w)
    out = np.empty((batch, plan.width))
    a, b, c, pq = (inputs.pop(key) for key in ("a", "b", "c", "pq"))
    if plan.split.size:
        out[:, plan.single] = a[:, plan.split] - pq
        a[:, plan.split] += pq
        b[:, plan.split] *= _SQRT2
    if plan.low.size:
        out[:, plan.low], out[:, plan.high] = eigvalsh_2x2(a, b, c)
    del a, b, c, pq
    for key, shape, slots, names in plan.groups:
        method = key[0]
        blocks = inputs[key].reshape((batch,) + shape)  # (batch, count, rows, columns)
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
            raise ConvergenceError(f"LAPACK failed on the blocks of {', '.join(names)}: {exc}") from exc
        out[:, slots] = found.reshape(batch, -1)
    if plan.abs_slots.size:
        out[:, plan.abs_slots] = np.abs(out[:, plan.abs_slots])
    if not np.all(np.isfinite(out)):
        for span, layout in zip(plan.spans, layouts):
            _require_finite(out[:, span], f"block spectra of {layout.name}")
    return {layout: out[:, span] for span, layout in zip(plan.spans, layouts)}


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
