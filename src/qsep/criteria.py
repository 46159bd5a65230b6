"""The criterion registry: every criterion the toolkit evaluates, defined once.

Each ``Criterion`` record names its id, its selection group, the classes a
violation excludes, the kind of margin it reports, its evaluator and, if it
has one, its independent reference; ``IDS`` is the scan order.  A ``Batch``
holds the weights of one batch of cells and every quantity its criteria
share, and ``Batch.evaluate`` computes any subset of criteria on it, calling
each vectorized evaluator its rows name once, so a grid chunk and a batch of
one point take the same path (``margins``, ``scan.point_margin``).  Each row
declares the matrix families its evaluator reads (``reads``), and
``Batch.evaluate`` diagonalizes every family the selected rows read in one
``linalg.block_spectra`` pass, gathered from the batch's evaluated forms
(``Batch.forms``), the one source of every family.
``Batch.spectrum`` sorts a family's values, checks them against the closed
form its layout names (``BlockLayout.closed``) on the first read and keeps
them, and only ``perm222`` reads a family in layout order (``Batch.values``).
So a batch computes each family at most once, and only the families its
selection reads; a read outside ``evaluate`` makes a pass of its own.  Every
family but ``perm222`` runs its second path on the same batch through the two
recording checks of ``Batch``, ``check_close`` and ``check_signs``, and these
are the only cross-checks on the grid path.  An evaluator whose group has many
members (the spin levels and settings, the gs3 members) computes them in one
stacked pass and checks them with one call, which records each member's
column under its own name.  ``Batch.concurrence``, which no criterion reads,
gives ``qsep eval`` and ``qsep verify`` the concurrence of rho^23 through the
same checks.

``qsep verify`` reads the rest of its checks from here.  Each ``reference``
is compared with the margins of the same ``Batch`` its registry pass runs on.
The matrix-element criteria read the separately built mixture on every cell,
and share no code with their evaluators.  The spin and swap criteria
evaluate ``tripartite.criterion_su`` and ``criterion_huber``, which trace
explicit observables and swap operators against rho at the points of a
deterministic subsample, where the grid path reads cached coefficients.
They share the code that builds those coefficients, and a check of the grid
path covers it:

- ``criterion_su`` and the grid's ``_spin_coefficients`` and
  ``su_margins_stacked`` both run ``build_spin_observables`` and
  ``su_margins_from_squares``; the sign check of each ``su*`` margin
  against its published polynomial (``su_closed_margins``) covers them;
- ``criterion_huber`` and ``_huber_coefficients`` both read
  ``swap_operator`` and ``HUBER_PHIS``; the check of the swap forms against
  products of entries of rho (``huber_element_forms``) covers them.

``RELATIONS`` are the relations between verdicts ``verify`` counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import bipartite, concurrence, linalg, states, tripartite
from .config import MARGINAL_BAND
from .exceptions import ConsistencyError
from .verdict import cell_name, codes, sign_gap, worst

# the classes a violation rules out, by the separability level it tests
FULLSEP = ("3",)
INTERSECTION = ("3", "2.8")
BISEP = ("3", "2.8", "2.1")
NOTHING = ()

SPIN_KIND = "spin-observable inequality slack"
SWAP_KIND = "swap-criterion slack"
ELEMENT_KIND = "matrix-element inequality slack"

SPECTRUM_TOL = 1e-10  # eigensolver and SVD against the closed-form spectra
ELEMENT_TOL = 1e-12   # matrix elements and traces against their closed forms
CONCURRENCE_TOL = 1e-9  # the Wootters concurrence against its closed form
REFERENCE_TOL = 1e-10  # each independent reference, and the Jacobi eigensolver, against the grid


@dataclass(frozen=True)
class Criterion:
    """One criterion: id, selection group, classes a violation excludes, margin kind, its
    evaluator, ``(batch, wanted ids of its rows) -> {id: margins}``, shared by every row
    of its group, its independent reference, ``(g, w, mixture) -> (cells it read, its
    margins there)``, and the matrix families its evaluator reads (``Batch.evaluate``
    diagonalizes them in one pass)."""

    id: str
    group: str
    excludes: tuple[str, ...]
    kind: str
    evaluator: Callable
    reference: Callable | None = None
    reads: tuple[linalg.BlockLayout, ...] = ()


# the (rho^1, rho^23) entropy criteria of each order
_ENTROPY_IDS = {alpha: tuple(f"entropy_{m}_a{bipartite.alpha_label(alpha)}" for m in ("rho1", "rho23"))
                for alpha in bipartite.ALPHA_GRID}


def _on_mixture(margins):
    """A reference that reads ``margins(mixture)`` on every cell."""
    return lambda g, w, mixture: (np.arange(len(g)), margins(mixture))


def _at_points(margin, *args):
    """A reference that evaluates ``margin(point, *args)`` at the points of a deterministic
    subsample of at most 20 cells."""
    def reference(g, w, mixture):
        cells = np.linspace(0, len(g) - 1, num=min(len(g), 20), dtype=int)
        return cells, [margin(states.SimplexPoint(g[n], w[n]), *args) for n in cells]
    return reference


# (setting index, level) of each spin criterion, (detection vector, k) of each swap criterion
SPIN = {
    f"su{tag}_set{idx + 1}": (idx, level)
    for level, tag in tripartite.LEVEL_TAG.items()
    for idx in range(3)
}
SWAP = {f"huber_{tag}_k{k}": (tag, k) for tag in ("ghz", "w") for k in (2, 3)}


class Batch:
    """Weights of one batch, and the quantities several evaluators share, each computed
    on its first read.  The weights must pass ``states.simplex_weights`` (ValueError)."""

    def __init__(self, g, w):
        self.g, self.w = states.simplex_weights(g, w)
        self.deviations: dict[str, tuple[float, float, float]] = {}
        self._values: dict[linalg.BlockLayout, np.ndarray] = {}
        self._spectra: dict[linalg.BlockLayout, np.ndarray] = {}

    @cached_property
    def closed(self) -> dict[str, np.ndarray]:
        return states.closed_form_spectra_grid(self.g, self.w)

    @cached_property
    def forms(self) -> np.ndarray:
        """Every form of the families' entry tables on this batch, evaluated once: the
        (forms, cells) array each family is gathered from."""
        return states.evaluate_forms(self.g, self.w)

    @cached_property
    def rho(self) -> np.ndarray:
        return states.RHO_BLOCKS.family(self.forms)

    @cached_property
    def concurrence(self) -> tuple[np.ndarray, np.ndarray]:
        """(numeric, closed form) Wootters concurrence of rho^23, max(0, l1 - l2 - l3 - l4)
        from the lambdas of its matrices; the squared lambdas are checked against the
        spin-flip spectrum, and the concurrence against its closed form."""
        lam = concurrence.wootters_lambdas(states.MARGINAL_23_BLOCKS.family(self.forms))
        self.check_close(lam**2, self.closed["conc23"], "spectrum[conc23]", SPECTRUM_TOL)
        numeric = np.maximum(0.0, lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3])
        closed = concurrence.concurrence_23_closed(self.g, self.w)
        self.check_close(numeric, closed, "concurrence closed vs numeric", CONCURRENCE_TOL)
        return numeric, closed

    def family(self, layout: linalg.BlockLayout) -> np.ndarray:
        """The full matrices of ``layout`` on this batch: the batch's rho, or gathered from
        its forms on every call and kept by none."""
        return self.rho if layout is states.RHO_BLOCKS else layout.family(self.forms)

    def values(self, layout: linalg.BlockLayout) -> np.ndarray:
        """The block spectra of ``layout``, in layout order: from the pass of ``evaluate``
        or, for a family it did not diagonalize, from a pass of its own."""
        if layout not in self._values:
            (self._values[layout],) = linalg.block_spectra((layout,), self.forms)
        return self._values[layout]

    def spectrum(self, layout: linalg.BlockLayout) -> np.ndarray:
        """The block spectra of ``layout``, sorted non-increasing; sorted in place (a later
        ``values`` read makes a pass of its own) and checked against its closed form, if it
        has one, on the first read."""
        if layout not in self._spectra:
            values = self.values(layout)
            del self._values[layout]
            values.sort(axis=-1)
            values = values[:, ::-1]
            if layout.closed is not None:
                self.check_close(values, self.closed[layout.closed], f"Spect({layout.name})",
                                 SPECTRUM_TOL)
            self._spectra[layout] = values
        return self._spectra[layout]

    def _record(self, what: str | tuple[str, ...], dev: np.ndarray, limit: float, detail) -> None:
        """Record under ``what`` the ``worst`` entry of ``dev`` and its cell or, when ``what``
        is a tuple of names, that of each column of ``dev`` under its name, in order; raise at
        the first past limit, naming it, its cell and ``detail(value, index)``, the index of
        the cell, or of the cell and column."""
        columns = ([(what, dev, ())] if isinstance(what, str)
                   else [(name, dev[:, k], (k,)) for k, name in enumerate(what)])
        for name, column, k in columns:
            value, n = worst(column)
            self.deviations[name] = (value, float(self.g[n]), float(self.w[n]))
            if not value <= limit:
                raise ConsistencyError(
                    f"{name} at {cell_name(self.g[n], self.w[n])}: {detail(value, (n, *k))}")

    def check_close(self, numeric, closed, what: str | tuple[str, ...], tol: float) -> None:
        """Record the worst deviation and its cell, of the whole arrays or of each column
        (``_record``); raise, naming both, unless it is within tol."""
        dev = np.asarray(numeric) - closed
        self._record(what, np.abs(dev, out=dev), tol,
                     lambda value, at: f"deviates from closed forms by {value:.3e}")

    def check_signs(self, numeric, closed, what: str | tuple[str, ...]) -> None:
        """Record, as ``<what> sign``, the largest ``sign_gap`` and its cell, of the whole
        arrays or of each column (``_record``); raise, naming both, past MARGINAL_BAND or on
        a NaN."""
        what = f"{what} sign" if isinstance(what, str) else tuple(f"{name} sign" for name in what)
        self._record(what, sign_gap(numeric, closed), MARGINAL_BAND,
                     lambda value, at: f"numeric margin {numeric[at]:.3e} vs closed form {closed[at]:.3e}")

    def evaluate(self, ids) -> dict[str, np.ndarray]:
        """Margins of the criteria ``ids`` on every cell of the batch, cross-checked.

        One ``linalg.block_spectra`` pass diagonalizes the families the rows
        read, then each evaluator the rows name runs once, in the order of its
        first row in ``IDS``.  Every closed-form check that runs is recorded in ``deviations`` as
        ``(worst deviation, g, w)`` of its worst cell, whether it passed or
        not.  Raises ValueError for an unknown id and ConsistencyError, naming
        the check and the failing (g, w), when a numeric path and its closed
        form disagree.
        """
        for cid in ids:
            if cid not in BY_ID:
                raise ValueError(f"unknown criterion {cid!r}")
        wanted: dict = {}
        selected = set(ids)
        for cid in IDS:
            if cid in selected:
                wanted.setdefault(BY_ID[cid].evaluator, []).append(cid)
        read = {layout for cid in selected for layout in BY_ID[cid].reads}
        pending = tuple(layout for layout in states.FAMILIES
                        if layout in read and layout not in self._values and layout not in self._spectra)
        if pending:  # one pass over every family the selection reads, in FAMILIES order
            self._values.update(zip(pending, linalg.block_spectra(pending, self.forms)))
        out: dict[str, np.ndarray] = {}
        for evaluator, family in wanted.items():
            out.update(evaluator(self, family))
        return {cid: np.asarray(out[cid], dtype=float) for cid in ids}


# ---------------------------------------------------------------------------
# evaluators: each takes a batch and the wanted ids of its rows, returns {id: margins}


_DENSITIES = (states.RHO_BLOCKS, states.MARGINAL_23_BLOCKS, states.MARGINAL_1_BLOCKS)


def _densities(b: Batch) -> dict[str, np.ndarray]:
    """The checked spectra of rho, rho^23 and rho^1."""
    return dict(zip(("rho", "rho23", "rho1"), map(b.spectrum, _DENSITIES)))


def _majorization(b: Batch, ids) -> dict[str, np.ndarray]:
    m1, m23 = bipartite.majorization_margins_from_spectra(_densities(b))
    c1, c23 = bipartite.majorization_case_margins(b.g, b.w)
    b.check_signs(m1, c1, "majorization rho^1")
    b.check_signs(m23, c23, "majorization rho^23")
    return {"maj_rho1": m1, "maj_rho23": m23}


def _entropy(b: Batch, ids) -> dict[str, np.ndarray]:
    _densities(b)  # the numeric path, checked; the margins read the clipped closed forms
    wanted = set(ids)
    alphas = [alpha for alpha, pair in _ENTROPY_IDS.items() if wanted.intersection(pair)]
    margins = bipartite.entropy_margins(bipartite.entropy_values(b.g, b.w, b.closed), alphas)
    return {cid: margin for alpha in alphas for cid, margin in zip(_ENTROPY_IDS[alpha], margins[alpha])}


def _partial_transpose(b: Batch, ids) -> dict[str, np.ndarray]:
    """ppt and reduction, which share the spectrum of rho^T1 and its quadratics."""
    out = {}
    spect_pt = b.spectrum(states.TRANSPOSE_1_BLOCKS)
    q1, q2 = bipartite.ppt_closed_margins(b.g, b.w)
    if "ppt" in ids:
        out["ppt"] = spect_pt[:, -1]
        b.check_signs(out["ppt"], np.minimum(q1, q2), "ppt")
    if "reduction" in ids:
        spect_first = b.spectrum(states.REDUCTION_I123_BLOCKS)
        spect_second = b.spectrum(states.REDUCTION_1I23_BLOCKS)
        r3, r4 = bipartite.reduction_closed_margins(b.g, b.w)
        out["reduction"] = np.minimum(spect_first[:, -1], spect_second[:, -1])
        closed = np.minimum(np.minimum(q1, q2), np.minimum(r3, r4))
        b.check_signs(out["reduction"], closed, "reduction")
    return out


def _reshuffle24(b: Batch, ids) -> dict[str, np.ndarray]:
    svs = b.spectrum(states.RESHUFFLE_24_BLOCKS)
    closed = bipartite.reshuffle24_closed_singular_values(b.g, b.w)
    b.check_close(svs, closed, "reshuffling singular values", SPECTRUM_TOL)
    return {"resh24": 1.0 - svs.sum(axis=-1)}


def _perm222(b: Batch, ids) -> dict[str, np.ndarray]:
    # summed in layout order: exactly 0.0 at (1/3, 0), where the sorted sum is not
    return {"perm222": 1.0 - b.values(states.RESHUFFLE_23_BLOCKS).sum(axis=-1)}


def _spin(b: Batch, ids) -> dict[str, np.ndarray]:
    # every wanted setting and level in one pass; the checks are recorded setting by setting
    ids = sorted(ids, key=lambda cid: SPIN[cid][0])
    settings = sorted({SPIN[cid][0] for cid in ids})
    levels = list(dict.fromkeys(SPIN[cid][1] for cid in ids))
    stacked = tripartite.su_margins_stacked(b.g, b.w, settings, levels)
    margins = np.array([stacked[levels.index(SPIN[cid][1]), settings.index(SPIN[cid][0])] for cid in ids])
    b.check_signs(margins.T, tripartite.su_closed_margins(b.g, b.w, [SPIN[cid] for cid in ids]), ids)
    return dict(zip(ids, margins))


def _swap(b: Batch, ids) -> dict[str, np.ndarray]:
    # each detection vector's forms once, shared by k = 2 and k = 3
    tags = dict.fromkeys(SWAP[cid][0] for cid in ids)
    forms = {tag: tripartite.huber_forms_grid(b.g, b.w, tag) for tag in tags}
    for tag, q in forms.items():
        elements = tripartite.huber_element_forms(b.rho, tag)
        b.check_close(np.array([elements[key] for key in q]).T, np.array(list(q.values())).T,
                      f"huber_{tag} swap forms", ELEMENT_TOL)
    return {cid: tripartite.huber_margins_grid(b.g, b.w, *SWAP[cid], forms[SWAP[cid][0]])
            for cid in ids}


def _gs2(b: Batch, ids) -> dict[str, np.ndarray]:
    m_ghz, m_w = tripartite.gs2_closed_margins(b.g, b.w)
    raw_ghz, raw_w = tripartite.gs2_element_margins(b.rho)
    b.check_close(raw_ghz, m_ghz, "gs2_ghz matrix elements", ELEMENT_TOL)
    b.check_close(raw_w, m_w, "gs2_w matrix elements", ELEMENT_TOL)
    return {"gs2_ghz": m_ghz, "gs2_w": m_w}


_GS3_CHECKS = tuple(f"gs3 member {key}" for key in tripartite.GS3_KEYS)


def _gs3(b: Batch, ids) -> dict[str, np.ndarray]:
    numeric = tripartite.gs3_element_members(b.rho)  # first: fewer arrays are live at its peak
    closed = tripartite.gs3_closed_margins(b.g, b.w)
    b.check_close(numeric, closed.T, _GS3_CHECKS, ELEMENT_TOL)
    return {"gs3": closed.min(axis=0)}


def _witness(b: Batch, ids) -> dict[str, np.ndarray]:
    closed = tripartite.witness_closed_forms(b.g, b.w)
    for name, value in tripartite.witness_traces(b.rho).items():
        b.check_close(value, closed[name], f"witness {name} trace", ELEMENT_TOL)
    return closed


# ---------------------------------------------------------------------------
# the registry, in scan order

# the classes a violation excludes, by spin level and by swap k
_SPIN_EXCLUDES = {"2sep": BISEP, "28cap3": INTERSECTION, "3sep": FULLSEP}
_SWAP_EXCLUDES = {2: BISEP, 3: FULLSEP}

REGISTRY: tuple[Criterion, ...] = (
    Criterion("maj_rho1", "maj", INTERSECTION, "min partial-sum slack", _majorization, reads=_DENSITIES),
    Criterion("maj_rho23", "maj", INTERSECTION, "min partial-sum slack", _majorization, reads=_DENSITIES),
    *(Criterion(cid, "entropy", INTERSECTION, "entropy difference", _entropy, reads=_DENSITIES)
      for pair in _ENTROPY_IDS.values() for cid in pair),
    Criterion("ppt", "ppt", INTERSECTION, "min eigenvalue of rho^T1", _partial_transpose,
              reads=(states.TRANSPOSE_1_BLOCKS,)),
    Criterion("reduction", "reduction", INTERSECTION, "min eigenvalue of reduction maps",
              _partial_transpose, reads=(states.TRANSPOSE_1_BLOCKS, states.REDUCTION_I123_BLOCKS,
                                         states.REDUCTION_1I23_BLOCKS)),
    Criterion("resh24", "resh24", INTERSECTION, "1 - trace norm", _reshuffle24,
              reads=(states.RESHUFFLE_24_BLOCKS,)),
    Criterion("perm222", "perm222", FULLSEP, "1 - trace norm", _perm222,
              reads=(states.RESHUFFLE_23_BLOCKS,)),
    # explicit per-point paths, each function looked up in tripartite at every call
    *(
        Criterion(cid, f"su{tripartite.LEVEL_TAG[level]}", _SPIN_EXCLUDES[level], SPIN_KIND, _spin,
                  _at_points(lambda *a: tripartite.criterion_su(*a),
                             (tripartite.PUBLISHED_SETTINGS[idx],) * 3, level))
        for cid, (idx, level) in SPIN.items()
    ),
    *(
        Criterion(cid, "huber", _SWAP_EXCLUDES[k], SWAP_KIND, _swap,
                  _at_points(lambda *a: tripartite.criterion_huber(*a), tripartite.HUBER_PHIS[tag](), k))
        for cid, (tag, k) in SWAP.items()
    ),
    Criterion("gs2_ghz", "gs2", BISEP, ELEMENT_KIND, _gs2,
              _on_mixture(lambda m: tripartite.gs2_element_margins(m)[0])),
    Criterion("gs2_w", "gs2", BISEP, ELEMENT_KIND, _gs2,
              _on_mixture(lambda m: tripartite.gs2_element_margins(m)[1])),
    Criterion("gs3", "gs3", FULLSEP, ELEMENT_KIND, _gs3,
              _on_mixture(lambda m: np.min(list(tripartite.gs3_element_margins(m).values()), axis=0))),
    Criterion("w_ghz", "witness", NOTHING, "witness expectation", _witness),
    Criterion("w_w1", "witness", BISEP, "witness expectation", _witness),
    Criterion("w_w2", "witness", BISEP, "witness expectation", _witness),
)

IDS: tuple[str, ...] = tuple(c.id for c in REGISTRY)
BY_ID: dict[str, Criterion] = {c.id: c for c in REGISTRY}
GROUPS: dict[str, tuple[str, ...]] = {
    group: tuple(c.id for c in REGISTRY if c.group == group)
    for group in dict.fromkeys(c.group for c in REGISTRY)
}


class Relation(NamedTuple):
    """A relation between the verdicts of criteria ``a`` and ``b`` that ``qsep verify``
    counts; ``breaks(codes_a, codes_b)`` marks the cells that break it.  A checked
    relation fails on any such cell; the count of an unchecked one is a note."""

    text: str
    a: str
    b: str
    breaks: Callable[[np.ndarray, np.ndarray], np.ndarray]
    checked: bool = True

    def count_breaks(self, margins: dict[str, np.ndarray]) -> int:
        """How many cells of ``margins``, ``{id: margins}``, break the relation."""
        return int(np.sum(self.breaks(codes(margins[self.a]), codes(margins[self.b]))))


RELATIONS: tuple[Relation, ...] = (
    # the reduction criterion equals ppt here, marginal verdicts included
    Relation("reduction vs ppt verdict mismatches", "reduction", "ppt", lambda a, b: a != b),
    # each swap criterion and the spin criterion equivalent to it here: their non-marginal
    # verdicts never conflict
    *(Relation(f"{a} vs {b} verdict mismatches", a, b, lambda a, b: a * b < 0)
      for a, b in (("huber_ghz_k2", "su2_set1"), ("huber_ghz_k3", "su283_set1"),
                   ("huber_w_k2", "su2_set2"), ("huber_w_k3", "su283_set2"))),
    # 2-3 reshuffling violations where partial transposition holds, reported only
    Relation("2-3 reshuffling violations outside the partial-transposition violation set",
             "perm222", "ppt", lambda a, b: (a < 0) & (b > 0), checked=False),
)


def margins(g, w, ids) -> dict[str, np.ndarray]:
    """The margins of the criteria ``ids`` over 1-d weight arrays: ``Batch.evaluate`` on
    one batch of them."""
    return Batch(g, w).evaluate(ids)
