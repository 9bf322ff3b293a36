"""Bisection reference for the fiber levels.

LAPACK bisection (stebz, with stein vectors) on both grids of the
Richardson pair, each grid's energies taken as exact-sum gradient-form
Rayleigh quotients of its eigenvectors: the quantity the package's
numpy eigensolver computes, from an independent eigensolver.  The
package's path must reproduce it to rounding.
"""

import numpy as np
from scipy.linalg import eigh_tridiagonal

from edgegap.fiber import FiberDiscretization, _richardson
from edgegap.tridiagonal import rayleigh_quotient


def grid_levels(disc: FiberDiscretization, k: float, j_max: int, n: int = None):
    """(exact-sum Rayleigh quotients, unit eigenvectors) of the lowest
    j_max levels at momentum k on the n-point grid (default disc.n)."""
    _, diag, off, _ = disc.tridiagonal(k, n)
    _, vecs = eigh_tridiagonal(diag, off, select="i",
                               select_range=(0, j_max - 1))
    p = -float(off[0])
    base = diag - 2.0 * p
    return np.array([rayleigh_quotient(base, p, v) for v in vecs.T]), vecs


def bisection_levels(disc: FiberDiscretization, k: float, j_max: int):
    """(extrapolated energies, unit n-grid eigenvectors) of the lowest
    j_max levels at momentum k."""
    fine, vecs = grid_levels(disc, k, j_max)
    coarse, _ = grid_levels(disc, k, j_max, disc.n_half)
    return _richardson(fine, coarse)[0], vecs
