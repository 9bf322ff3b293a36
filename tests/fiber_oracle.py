"""Bisection reference for the fiber levels.

The route solve_fiber took before it moved to inverse iteration:
bisection (LAPACK stebz, with stein vectors) on both grids of the
Richardson pair, the n-grid energies taken as exact-sum Rayleigh
quotients of the bisection eigenvectors.  The package's path must
reproduce it to rounding.
"""

import numpy as np
from scipy.linalg import eigh_tridiagonal

from edgegap.fiber import FiberDiscretization, _rayleigh_quotient, _richardson


def bisection_levels(disc: FiberDiscretization, k: float, j_max: int):
    """(extrapolated energies, unit n-grid eigenvectors) of the lowest
    j_max levels at momentum k."""
    levels = dict(select="i", select_range=(0, j_max - 1))
    _, diag, off, _ = disc.tridiagonal(k)
    _, vecs = eigh_tridiagonal(diag, off, **levels)
    p = -float(off[0])
    fine = np.array([_rayleigh_quotient(diag, p, v) for v in vecs.T])
    _, diag2, off2, _ = disc.tridiagonal(k, n=disc.n_half)
    coarse = eigh_tridiagonal(diag2, off2, eigvals_only=True, **levels)
    return _richardson(fine, coarse)[0], vecs
