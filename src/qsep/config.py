"""Global numerical tolerance policy.

Every tolerance used by more than one module lives here so the policy is
auditable in one place.
"""

PSD_TOL = 1e-10           # eigenvalues above -PSD_TOL count as nonnegative
RANK_TOL = 1e-10          # |eigenvalue| > RANK_TOL counts towards the rank
HERMITICITY_TOL = 1e-12   # max elementwise |A - A^dag| admitted as Hermitian
MARGINAL_BAND = 1e-9      # |margin| <= band -> verdict "marginal"
JACOBI_OFF_TOL = 1e-13    # off-diagonal Frobenius norm stopping threshold
JACOBI_MAX_SWEEPS = 100
