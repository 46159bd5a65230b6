"""Global numerical tolerance policy.

Every tolerance used by more than one module lives here so the policy is
auditable in one place.  The PSD tolerance may be overridden through the
QSEP_TOL environment variable.
"""

import math
import os

PSD_TOL_DEFAULT = 1e-10   # eigenvalues above -psd_tol() count as nonnegative
RANK_TOL = 1e-10          # |eigenvalue| > RANK_TOL counts towards the rank
HERMITICITY_TOL = 1e-12   # max elementwise |A - A^dag| admitted as Hermitian
MARGINAL_BAND = 1e-9      # |margin| <= band -> verdict "marginal"
JACOBI_OFF_TOL = 1e-13    # off-diagonal Frobenius norm stopping threshold
JACOBI_MAX_SWEEPS = 100


def psd_tol() -> float:
    """PSD tolerance, overridable through the QSEP_TOL environment variable.

    Raises ValueError naming the variable unless it holds a finite
    nonnegative number.
    """
    raw = os.environ.get("QSEP_TOL")
    if raw is None:
        return PSD_TOL_DEFAULT
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"QSEP_TOL must be a finite nonnegative number, got {raw!r}")
    return value
