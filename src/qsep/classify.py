"""Fuse criterion verdicts into constraints on the separability class lattice.

Permutation invariance restricts the family to classes 3, 2.8, 2.1 and 1.
Criteria only ever exclude classes: a violated full-separability criterion
removes class 3, a violated criterion for the intersection of the
bipartition-separable sets removes {3, 2.8}, and a violated biseparability
criterion removes {3, 2.8, 2.1}.  Nothing can certify membership, so class 1
is never removed; the one exception is the GHZ-white-noise line w = 0 where
exact published results pin the class down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import criteria, tripartite, verdict
from .exceptions import ConsistencyError
from .states import SimplexPoint

CLASSES = ("3", "2.8", "2.1", "1")

GHZ_TYPE = "GHZ-type"
W_TYPE_OR_LESS = "W-type-or-less"
SLOCC_UNDETERMINED = "undetermined"
SLOCC_NAMES = (GHZ_TYPE, W_TYPE_OR_LESS, SLOCC_UNDETERMINED)  # indexed by tripartite.slocc_codes


def exact_w0_classification(g: float) -> str:
    """Published exact class on the GHZ-white-noise line (closed boundaries)."""
    if not 0.0 <= g <= 1.0:
        raise ValueError(f"g must lie in [0, 1], got {g}")
    if g <= 1.0 / 5.0:
        return "3"
    if g <= 3.0 / 7.0:
        return "2.1"
    return "1"


@dataclass(frozen=True)
class ClassReport:
    g: float
    w: float
    possible_classes: tuple[str, ...]
    slocc: str
    exclusions: tuple[tuple[str, str], ...]
    exact: bool
    pptes_certified: bool
    marginal: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "g": self.g,
            "w": self.w,
            "possible_classes": list(self.possible_classes),
            "slocc": self.slocc,
            "exclusions": [list(pair) for pair in self.exclusions],
            "exact": self.exact,
            "pptes_certified": self.pptes_certified,
            "marginal": list(self.marginal),
        }


def fuse(g: np.ndarray, w: np.ndarray, codes: dict[str, np.ndarray]) -> tuple[np.ndarray, ...]:
    """Class constraints of a batch of cells from each criterion's verdict codes.

    Returns (possible, slocc, exact, pptes): possible is (cells, 4) bool with
    columns in CLASSES order, slocc indexes SLOCC_NAMES.  On the w = 0 line
    the published exact class replaces the criteria's constraint, which must
    contain it.  Raises ConsistencyError, naming the first cell, when
    exclusions skip a level of the nested classes or lose the exact class.
    """
    # the lowest code of the criteria that remove the same classes: -1 where one is violated
    lowest: dict[tuple[str, ...], np.ndarray] = {}
    for cid, code in codes.items():
        removed = criteria.BY_ID[cid].excludes
        if removed:
            lowest[removed] = np.minimum(lowest[removed], code) if removed in lowest else code
    excluded = np.zeros((g.size, len(CLASSES)), dtype=bool)
    for removed, code in lowest.items():
        excluded[:, [CLASSES.index(cls) for cls in removed]] |= (code == -1)[:, None]
    # nested removal rules cannot skip a level, and class 1 is never removed; verify anyway
    skipped = np.flatnonzero(
        excluded[:, 3] | (excluded[:, 1] & ~excluded[:, 0]) | (excluded[:, 2] & ~excluded[:, 1])
    )
    if skipped.size:
        n = skipped[0]
        raise ConsistencyError(
            f"contradictory exclusions at {verdict.cell_name(g[n], w[n])}: "
            f"classes {[c for c, x in zip(CLASSES, excluded[n]) if x]} removed"
        )
    possible = ~excluded
    exact = w == 0.0
    for n in np.flatnonzero(exact):
        truth = CLASSES.index(exact_w0_classification(float(g[n])))
        if not possible[n, truth]:
            raise ConsistencyError(
                f"criteria exclude the exact class {CLASSES[truth]} on the w=0 line "
                f"at {verdict.cell_name(g[n], w[n])}"
            )
        possible[n] = False
        possible[n, truth] = True
    pptes = excluded[:, 0] & (codes["ppt"] == 1) if "ppt" in codes else np.zeros(g.size, bool)
    slocc = tripartite.slocc_codes(g, w, tripartite.witness_closed_forms(g, w)["w_ghz"])
    return possible, slocc, exact, pptes


def cell_report(g, w, codes: dict, possible, slocc, exact, pptes) -> ClassReport:
    """Class report of one cell; ``codes`` maps each criterion id to its code there."""
    return ClassReport(
        g=float(g),
        w=float(w),
        possible_classes=tuple(cls for cls, ok in zip(CLASSES, possible) if ok),
        slocc=SLOCC_NAMES[int(slocc)],
        exclusions=tuple(
            (cls, cid) for cid, code in codes.items() if code == -1 for cls in criteria.BY_ID[cid].excludes
        ),
        exact=bool(exact),
        pptes_certified=bool(pptes),
        marginal=tuple(cid for cid, code in codes.items() if code == 0),
    )


def evaluate_point(
    p: SimplexPoint,
) -> tuple[dict[str, float], dict[str, int], ClassReport, criteria.Batch]:
    """Every criterion's margin and verdict code at the point, their fused class
    report, and the batch that gave them: the grid path on a batch of one cell."""
    g, w = np.array([p.g]), np.array([p.w])
    batch = criteria.Batch(g, w)
    margins = batch.evaluate(criteria.IDS)
    codes = dict(zip(margins, verdict.codes(np.array(list(margins.values())))))
    possible, slocc, exact, pptes = fuse(g, w, codes)
    point_codes = {cid: int(c[0]) for cid, c in codes.items()}
    report = cell_report(p.g, p.w, point_codes, possible[0], slocc[0], exact[0], pptes[0])
    return {cid: float(m[0]) for cid, m in margins.items()}, point_codes, report, batch


def classify_point(p: SimplexPoint) -> ClassReport:
    """Evaluate every criterion at the point and fuse the verdicts."""
    return evaluate_point(p)[2]
