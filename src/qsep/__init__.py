"""Separability criteria and class maps for the noisy GHZ-W three-qubit mixture."""

from .states import SimplexPoint
from .verdict import HOLDS, MARGINAL, VIOLATED

__version__ = "0.1.0"

__all__ = [
    "SimplexPoint",
    "HOLDS",
    "MARGINAL",
    "VIOLATED",
    "__version__",
]
