"""Uniform three-state wrapper for criterion outcomes, and the one sign rule.

A margin within ``MARGINAL_BAND`` of zero is marginal; outside it, a
positive margin holds and a negative one is violated.  Numeric and closed
form margins agree when their signs match or either lies in that band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import MARGINAL_BAND
from .exceptions import ConsistencyError

HOLDS = "holds"
VIOLATED = "violated"
MARGINAL = "marginal"

CODE_NAMES = {1: HOLDS, 0: MARGINAL, -1: VIOLATED}


def codes(margins) -> np.ndarray:
    """Verdict codes of margins (arrays allowed): 1 holds, 0 marginal, -1 violated."""
    m = np.asarray(margins, dtype=float)
    return (m > MARGINAL_BAND).astype(np.int8) - (m < -MARGINAL_BAND).astype(np.int8)


def verdict_state(margin: float) -> str:
    return CODE_NAMES[int(codes(margin))]


@dataclass(frozen=True)
class CriterionVerdict:
    """One criterion outcome; positive margin means satisfied slack."""

    id: str
    holds: str
    margin: float
    kind: str

    @classmethod
    def from_margin(cls, cid: str, margin: float, kind: str):
        return cls(cid, verdict_state(margin), float(margin), kind)


def signs_agree(a, b):
    """Elementwise sign agreement with a dead band around zero on either side."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return (np.abs(a) <= MARGINAL_BAND) | (np.abs(b) <= MARGINAL_BAND) | ((a > 0) == (b > 0))


def assert_signs_agree(what: str, numeric: float, closed: float, g: float, w: float) -> None:
    """Raise ConsistencyError naming the check and the point (g, w) unless the signs
    of one numeric margin and its closed form agree."""
    if not signs_agree(numeric, closed):
        raise ConsistencyError(
            f"{what} at {cell_name(g, w)}: numeric margin {float(numeric):.3e} "
            f"vs closed form {float(closed):.3e}"
        )


def cell_name(g, w) -> str:
    """'(g=..., w=...)' with both weights at full precision."""
    return f"(g={float(g)!r}, w={float(w)!r})"
