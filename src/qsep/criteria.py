"""The criterion registry: every criterion the toolkit evaluates, defined once.

Each ``Criterion`` record names its id, its selection group, the classes a
violation excludes and the kind of margin it reports; ``IDS`` is the scan
order.  A ``Batch`` holds the weights of one batch of cells and every quantity
its criteria share, and ``Batch.evaluate`` computes any subset of criteria on
it through one vectorized evaluator per criterion family, so a grid chunk and
a batch of one point take the same path (``margins``, ``scan.point_margin``).
A matrix family is diagonalized by one ``linalg.block_spectra`` call, on the
source that ``Batch.source`` builds, when an evaluator first reads it:
``Batch.spectrum`` sorts, checks and keeps it, and only ``perm222`` reads a
family in layout order (``Batch.values``).  So a batch computes each family
at most once, and only the families its selection reads.  Every family but
``perm222`` runs its second path on the same batch through the two recording
checks of ``Batch``, ``check_close`` and ``check_signs``, and these are the
only cross-checks on the grid path.  The independent references are
``tripartite.criterion_su`` and ``criterion_huber``, which build explicit
observables and swap operators, and the matrix elements of the separately
built mixture; ``qsep verify`` compares them with the margins of the same
``Batch`` its registry pass runs on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import bipartite, linalg, states, tripartite
from .config import MARGINAL_BAND
from .exceptions import ConsistencyError
from .verdict import cell_name, sign_gap, worst

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


@dataclass(frozen=True)
class Criterion:
    """One criterion: id, selection group, classes a violation excludes, margin kind."""

    id: str
    group: str
    excludes: tuple[str, ...]
    kind: str


def _entropy_id(marginal: str, alpha: float) -> str:
    return f"entropy_{marginal}_a{bipartite.alpha_label(alpha)}"


# (setting index, level) of each spin criterion, (detection vector, k) of each swap criterion
SPIN = {
    f"su{tag}_set{idx + 1}": (idx, level)
    for level, tag in (("2sep", "2"), ("28cap3", "283"), ("3sep", "3"))
    for idx in range(3)
}
SWAP = {f"huber_{tag}_k{k}": (tag, k) for tag in ("ghz", "w") for k in (2, 3)}

REGISTRY: tuple[Criterion, ...] = (
    Criterion("maj_rho1", "maj", INTERSECTION, "min partial-sum slack"),
    Criterion("maj_rho23", "maj", INTERSECTION, "min partial-sum slack"),
    *(
        Criterion(_entropy_id(marginal, alpha), "entropy", INTERSECTION, "entropy difference")
        for alpha in bipartite.ALPHA_GRID
        for marginal in ("rho1", "rho23")
    ),
    Criterion("ppt", "ppt", INTERSECTION, "min eigenvalue of rho^T1"),
    Criterion("reduction", "reduction", INTERSECTION, "min eigenvalue of reduction maps"),
    Criterion("resh24", "resh24", INTERSECTION, "1 - trace norm"),
    Criterion("perm222", "perm222", FULLSEP, "1 - trace norm"),
    Criterion("su2_set1", "su2", BISEP, SPIN_KIND),
    Criterion("su2_set2", "su2", BISEP, SPIN_KIND),
    Criterion("su2_set3", "su2", BISEP, SPIN_KIND),
    Criterion("su283_set1", "su283", INTERSECTION, SPIN_KIND),
    Criterion("su283_set2", "su283", INTERSECTION, SPIN_KIND),
    Criterion("su283_set3", "su283", INTERSECTION, SPIN_KIND),
    Criterion("su3_set1", "su3", FULLSEP, SPIN_KIND),
    Criterion("su3_set2", "su3", FULLSEP, SPIN_KIND),
    Criterion("su3_set3", "su3", FULLSEP, SPIN_KIND),
    Criterion("huber_ghz_k2", "huber", BISEP, SWAP_KIND),
    Criterion("huber_ghz_k3", "huber", FULLSEP, SWAP_KIND),
    Criterion("huber_w_k2", "huber", BISEP, SWAP_KIND),
    Criterion("huber_w_k3", "huber", FULLSEP, SWAP_KIND),
    Criterion("gs2_ghz", "gs2", BISEP, ELEMENT_KIND),
    Criterion("gs2_w", "gs2", BISEP, ELEMENT_KIND),
    Criterion("gs3", "gs3", FULLSEP, ELEMENT_KIND),
    Criterion("w_ghz", "witness", NOTHING, "witness expectation"),
    Criterion("w_w1", "witness", BISEP, "witness expectation"),
    Criterion("w_w2", "witness", BISEP, "witness expectation"),
)

IDS: tuple[str, ...] = tuple(c.id for c in REGISTRY)
BY_ID: dict[str, Criterion] = {c.id: c for c in REGISTRY}
GROUPS: dict[str, tuple[str, ...]] = {
    group: tuple(c.id for c in REGISTRY if c.group == group)
    for group in dict.fromkeys(c.group for c in REGISTRY)
}


# ---------------------------------------------------------------------------
# evaluators: each takes a batch and the wanted ids of its family, returns {id: margins}


class Batch:
    """Weights of one batch, and the quantities several evaluators share, each computed
    on its first read."""

    def __init__(self, g, w):
        self.g = np.asarray(g, dtype=float)
        self.w = np.asarray(w, dtype=float)
        self.deviations: dict[str, tuple[float, float, float]] = {}
        self._spectra: dict[linalg.BlockLayout, np.ndarray] = {}

    @cached_property
    def closed(self) -> dict[str, np.ndarray]:
        return states.closed_form_spectra_grid(self.g, self.w)

    @cached_property
    def rho(self) -> np.ndarray:
        return states.build_rho_grid(self.g, self.w)

    def source(self, layout: linalg.BlockLayout) -> np.ndarray:
        """The source matrices of ``layout`` on this batch: the batch's rho for a family
        read from rho, else its template's batch, built on every call and kept by none."""
        return self.rho if layout.template is None else layout.template(self.g, self.w)

    def values(self, layout: linalg.BlockLayout) -> np.ndarray:
        """The block spectra of ``layout``, in layout order, from one ``linalg.block_spectra``
        call on its ``source``."""
        return linalg.block_spectra(layout, self.source(layout), self.g, self.w)

    def spectrum(self, layout: linalg.BlockLayout) -> np.ndarray:
        """The block spectra of ``layout``, sorted non-increasing; computed and checked
        against its closed form, if it has one, on the first read."""
        if layout not in self._spectra:
            values = np.sort(self.values(layout), axis=-1)[:, ::-1]
            if states.FAMILIES[layout] is not None:
                self.check_close(values, self.closed[states.FAMILIES[layout]],
                                 f"Spect({layout.name})", SPECTRUM_TOL)
            self._spectra[layout] = values
        return self._spectra[layout]

    def _record(self, what: str, dev: np.ndarray, limit: float, detail) -> None:
        """Record the ``worst`` entry of ``dev`` and its cell; raise, naming both and
        ``detail(value, cell)``, unless it is within limit."""
        value, n = worst(dev)
        self.deviations[what] = (value, float(self.g[n]), float(self.w[n]))
        if not value <= limit:
            raise ConsistencyError(f"{what} at {cell_name(self.g[n], self.w[n])}: {detail(value, n)}")

    def check_close(self, numeric, closed, what: str, tol: float) -> None:
        """Record the worst deviation and its cell; raise, naming both, unless it is within tol."""
        self._record(what, np.abs(np.asarray(numeric) - closed), tol,
                     lambda value, n: f"deviates from closed forms by {value:.3e}")

    def check_signs(self, numeric, closed, what: str) -> None:
        """Record, as ``<what> sign``, the largest ``sign_gap`` and its cell; raise, naming
        both, past MARGINAL_BAND or on a NaN."""
        self._record(f"{what} sign", sign_gap(numeric, closed), MARGINAL_BAND,
                     lambda value, n: f"numeric margin {numeric[n]:.3e} vs closed form {closed[n]:.3e}")

    def evaluate(self, ids) -> dict[str, np.ndarray]:
        """Margins of the criteria ``ids`` on every cell of the batch, cross-checked.

        Every closed-form check that runs is recorded in ``deviations`` as
        ``(worst deviation, g, w)`` of its worst cell, whether it passed or
        not.  Raises ValueError for an unknown id and ConsistencyError, naming
        the check and the failing (g, w), when a numeric path and its closed
        form disagree.
        """
        for cid in ids:
            if cid not in BY_ID:
                raise ValueError(f"unknown criterion {cid!r}")
        wanted: dict = {}
        for cid in IDS:
            if cid in ids:
                wanted.setdefault(_EVALUATORS[BY_ID[cid].group], []).append(cid)
        out: dict[str, np.ndarray] = {}
        for evaluator, family in wanted.items():
            out.update(evaluator(self, family))
        return {cid: np.asarray(out[cid], dtype=float) for cid in ids}


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
    spectra = {key: np.clip(b.closed[key], 0.0, None) for key in ("rho", "rho1", "rho23")}
    out = {}
    for alpha in bipartite.ALPHA_GRID:
        id1, id23 = _entropy_id("rho1", alpha), _entropy_id("rho23", alpha)
        if id1 in ids or id23 in ids:
            out[id1], out[id23] = bipartite.entropy_margins_from_spectra(spectra, alpha)
    return out


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
    return {"resh24": 1.0 - np.sum(svs, axis=-1)}


def _perm222(b: Batch, ids) -> dict[str, np.ndarray]:
    # summed in layout order: exactly 0.0 at (1/3, 0), where the sorted sum is not
    return {"perm222": 1.0 - np.sum(b.values(states.RESHUFFLE_23_BLOCKS), axis=-1)}


def _spin(b: Batch, ids) -> dict[str, np.ndarray]:
    out = {}
    for setting in sorted({SPIN[cid][0] for cid in ids}):  # one setting's expectations at a time
        expectations = tripartite.su_expectations_grid(b.g, b.w, setting)
        for cid in ids:
            idx, level = SPIN[cid]
            if idx == setting:
                out[cid] = tripartite.su_margins_grid(b.g, b.w, idx, level, expectations)
                b.check_signs(out[cid], tripartite.su_closed_margin(b.g, b.w, idx, level), cid)
    return out


def _swap(b: Batch, ids) -> dict[str, np.ndarray]:
    # each detection vector's forms once, shared by k = 2 and k = 3
    tags = dict.fromkeys(SWAP[cid][0] for cid in ids)
    forms = {tag: tripartite.huber_forms_grid(b.g, b.w, tag) for tag in tags}
    for tag, q in forms.items():
        elements = tripartite.huber_element_forms(b.rho, tag)
        b.check_close(np.stack([elements[key] for key in q], axis=-1),
                      np.stack(list(q.values()), axis=-1), f"huber_{tag} swap forms", ELEMENT_TOL)
    return {cid: tripartite.huber_margins_grid(b.g, b.w, *SWAP[cid], forms[SWAP[cid][0]])
            for cid in ids}


def _gs2(b: Batch, ids) -> dict[str, np.ndarray]:
    m_ghz, m_w = tripartite.gs2_closed_margins(b.g, b.w)
    raw_ghz, raw_w = tripartite.gs2_element_margins(b.rho)
    b.check_close(raw_ghz, m_ghz, "gs2_ghz matrix elements", ELEMENT_TOL)
    b.check_close(raw_w, m_w, "gs2_w matrix elements", ELEMENT_TOL)
    return {"gs2_ghz": m_ghz, "gs2_w": m_w}


def _gs3(b: Batch, ids) -> dict[str, np.ndarray]:
    closed = tripartite.gs3_closed_margins(b.g, b.w)
    for key, value in tripartite.gs3_element_margins(b.rho).items():
        b.check_close(value, closed[key], f"gs3 member {key}", ELEMENT_TOL)
    return {"gs3": closed["gs3"]}


def _witness(b: Batch, ids) -> dict[str, np.ndarray]:
    closed = tripartite.witness_closed_forms(b.g, b.w)
    for name, value in tripartite.witness_traces(b.rho).items():
        b.check_close(value, closed[name], f"witness {name} trace", ELEMENT_TOL)
    return closed


# each group's evaluator
_EVALUATORS = {
    "maj": _majorization,
    "entropy": _entropy,
    "ppt": _partial_transpose,
    "reduction": _partial_transpose,
    "resh24": _reshuffle24,
    "perm222": _perm222,
    "su2": _spin,
    "su283": _spin,
    "su3": _spin,
    "huber": _swap,
    "gs2": _gs2,
    "gs3": _gs3,
    "witness": _witness,
}


def margins(g, w, ids) -> dict[str, np.ndarray]:
    """The margins of the criteria ``ids`` over 1-d weight arrays: ``Batch.evaluate`` on
    one batch of them."""
    return Batch(g, w).evaluate(ids)
