"""References for the fiber levels.

Bisection: LAPACK bisection (stebz, with stein vectors) on both grids
of the Richardson pair, each grid's energies taken as exact-sum
gradient-form Rayleigh quotients of its eigenvectors: the quantity the
package's numpy eigensolver computes, from an independent eigensolver.
The package's path must reproduce it to rounding.

Whole-array twisted factorization: the pivot rows beta formed for all
rows at once, three (n, lanes) arrays beside the vectors, and every
active lane of a Rayleigh-quotient step in one batch.  The package forms
beta chunk by chunk and runs lanes in blocks; it must reproduce these
bits exactly.
"""

import numpy as np
from scipy.linalg import eigh_tridiagonal

from edgegap.errors import ConvergenceFailure
from edgegap.fiber import FiberDiscretization, _richardson
from edgegap.tridiagonal import (_CHUNK, _MAX_RQI, _RQI_REL, _inverse_pivots,
                                 rayleigh_quotient)


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


def twisted(beta):
    """(1/rho+, 1/rho-, r) of T - sigma from the whole pivot array beta
    = 2 + (base - sigma)/p (n, lanes): the forward and backward sweeps
    over all rows, then the twist r = argmin |gamma_r| per lane."""
    inv_f = _inverse_pivots(beta)
    inv_b = _inverse_pivots(beta[::-1])[::-1]
    best = np.full(beta.shape[1], np.inf)
    r = np.zeros(beta.shape[1], dtype=np.intp)
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, len(beta), _CHUNK):
            rows = slice(lo, lo + _CHUNK)
            gamma = np.abs(1.0 / inv_f[rows] + 1.0 / inv_b[rows] - beta[rows])
            at = np.argmin(gamma, axis=0)
            low = np.take_along_axis(gamma, at[None], axis=0)[0]
            better = low < best
            best = np.where(better, low, best)
            r = np.where(better, lo + at, r)
    return inv_f, inv_b, r


def twisted_vectors(beta):
    """Eigenvector estimates z (n, lanes), z_r = 1, from twisted(beta)."""
    inv_f, inv_b, r = twisted(beta)
    idx = np.arange(len(inv_f))[:, None]
    inv_f[idx >= r] = 1.0
    inv_b[idx <= r] = 1.0
    np.cumprod(inv_f[::-1], axis=0, out=inv_f[::-1])
    np.cumprod(inv_b, axis=0, out=inv_b)
    inv_f *= inv_b
    return inv_f


def refine(base, p, sigma):
    """(energies, unit vectors (K, M, n)) of Rayleigh-quotient iteration
    from the shifts sigma (K, M), each step one whole-array twisted
    factorization of every active lane, its quotients taken _CHUNK lanes
    at a time."""
    sigma = sigma.astype(float)
    vecs = np.empty(sigma.shape + (base.shape[0],))
    active = np.ones(sigma.shape, dtype=bool)
    for _ in range(_MAX_RQI):
        ik, im = np.nonzero(active)
        z = twisted_vectors((base[:, ik] - sigma[ik, im]) / p + 2.0)
        new = np.empty(len(ik))
        for lo in range(0, len(ik), _CHUNK):
            lanes = slice(lo, lo + _CHUNK)
            v = np.ascontiguousarray(z[:, lanes].T)
            grad = np.diff(v, axis=1, prepend=0.0, append=0.0)
            norm2 = (v * v).sum(axis=1)
            new[lanes] = (p * (grad * grad).sum(axis=1)
                          + (base[:, ik[lanes]].T * v * v).sum(axis=1)) / norm2
            vecs[ik[lanes], im[lanes]] = v / np.sqrt(norm2)[:, None]
        done = np.abs(new - sigma[ik, im]) <= _RQI_REL * (1.0 + np.abs(new))
        sigma[ik, im] = new
        active[ik[done], im[done]] = False
        if not active.any():
            return sigma, vecs
    raise ConvergenceFailure("whole-array iteration did not converge")
