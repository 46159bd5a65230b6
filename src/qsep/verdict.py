"""Uniform three-state wrapper for criterion outcomes, and the one sign rule.

A margin within ``MARGINAL_BAND`` of zero is marginal; outside it, a
positive margin holds and a negative one is violated.  Numeric and closed
form margins agree in sign where their ``sign_gap`` lies within that band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import MARGINAL_BAND

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


def sign_gap(numeric, closed) -> np.ndarray:
    """Elementwise min(|numeric|, |closed|) where the strict signs of the two margins differ,
    0 where they match, and NaN where either is NaN.  The signs agree where the gap is at
    most ``MARGINAL_BAND``."""
    return np.where(np.sign(numeric) != np.sign(closed), np.minimum(np.abs(numeric), np.abs(closed)), 0.0)


def worst(dev) -> tuple[float, int]:
    """The largest entry of a ``(cells, ...)`` array, its first NaN if any, and that entry's cell."""
    k = int(dev.argmax())
    return float(dev.flat[k]), k // (dev.size // len(dev))


def cell_name(g, w) -> str:
    """'(g=..., w=...)' with both weights at full precision."""
    return f"(g={float(g)!r}, w={float(w)!r})"
