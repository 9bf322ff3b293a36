"""Arbitrary-precision reference for the twin edge comparison.

Rayleigh-quotient iteration in mpmath on the two same-grid tridiagonal
fiber operators (with W and with the constant W_+), seeded from their
double-precision eigenpairs.  The refined eigenpairs resolve the edge
distance and the overlap defect far below one ulp of the edge value,
so the package's double-precision twin identity is checked against
them.  About a second per call on mpmath's pure-Python backend.
"""

import math

import mpmath
from scipy.linalg import eigh_tridiagonal

from edgegap.fiber import FiberDiscretization


def _mp_tridiag_solve(diag, off, shift, rhs):
    """Solve (T - shift) u = rhs for tridiagonal T, partial pivoting.

    diag/off/rhs are mpmath vectors; returns the solution list.
    """
    n = len(diag)
    a = [diag[i] - shift for i in range(n)]
    lower = [off[i] for i in range(n - 1)]
    upper = [off[i] for i in range(n - 1)]
    extra = [mpmath.mpf(0)] * n  # second superdiagonal fill from pivoting
    b = list(rhs)
    for i in range(n - 1):
        if abs(lower[i]) > abs(a[i]):
            a[i], lower[i] = lower[i], a[i]
            if i < n - 1:
                upper[i], a[i + 1] = a[i + 1], upper[i]
            if i < n - 2:
                extra[i], upper[i + 1] = upper[i + 1], extra[i]
            b[i], b[i + 1] = b[i + 1], b[i]
        m = lower[i] / a[i]
        a[i + 1] -= m * upper[i]
        if i < n - 2:
            upper[i + 1] -= m * extra[i]
        b[i + 1] -= m * b[i]
    u = [mpmath.mpf(0)] * n
    u[n - 1] = b[n - 1] / a[n - 1]
    if n > 1:
        u[n - 2] = (b[n - 2] - upper[n - 2] * u[n - 1]) / a[n - 2]
    for i in range(n - 3, -1, -1):
        u[i] = (b[i] - upper[i] * u[i + 1] - extra[i] * u[i + 2]) / a[i]
    return u


def _mp_rayleigh_refine(diag_f, off_f, theta0, v0, iters=4):
    """Rayleigh-quotient iteration from a double-precision seed.

    Cubically convergent; with a seed vector good to ~1e-8 a handful of
    iterations reach working precision.  Returns (theta, v) in mpmath.
    """
    n = len(diag_f)
    diag = [mpmath.mpf(float(d)) for d in diag_f]
    off = [mpmath.mpf(float(o)) for o in off_f]
    v = [mpmath.mpf(float(val)) for val in v0]
    nrm = mpmath.sqrt(mpmath.fsum(val * val for val in v))
    v = [val / nrm for val in v]
    theta = mpmath.mpf(float(theta0))
    for _ in range(iters):
        u = _mp_tridiag_solve(diag, off, theta, v)
        nrm = mpmath.sqrt(mpmath.fsum(val * val for val in u))
        v = [val / nrm for val in u]
        tv = [diag[i] * v[i]
              + (off[i - 1] * v[i - 1] if i > 0 else 0)
              + (off[i] * v[i + 1] if i < n - 1 else 0)
              for i in range(n)]
        theta = mpmath.fsum(v[i] * tv[i] for i in range(n))
    return theta, v


def _comparison_dps(j: int, k: float, b: float) -> int:
    # the gap distance scales like exp(-k^2/b); keep ~25 digits beyond it
    return max(50, int(25 + (k * k / b) / math.log(10.0)))


def mp_edge_comparison(disc: FiberDiscretization, j: int, k: float,
                       n: int = None) -> dict:
    """gap_dist, defect (1 - c^2), scaled_distance and energy_w of the
    twin comparison on the n-point grid of disc's window (default
    disc.n), each rounded once from arbitrary precision."""
    diag_w, off, _ = disc.tridiagonal(k, n)
    diag_p, _, _ = disc.tridiagonal(k, n, w_override=disc.w.w_plus_limit)
    i0 = j - 1
    ev_w, vec_w = eigh_tridiagonal(diag_w, off, select="i",
                                   select_range=(i0, i0))
    ev_p, vec_p = eigh_tridiagonal(diag_p, off, select="i",
                                   select_range=(i0, i0))
    with mpmath.workdps(_comparison_dps(j, k, disc.b)):
        th_w, v_w = _mp_rayleigh_refine(diag_w, off, ev_w[0], vec_w[:, 0])
        th_p, v_p = _mp_rayleigh_refine(diag_p, off, ev_p[0], vec_p[:, 0])
        gap = th_p - th_w
        c = min(abs(mpmath.fsum(a * bb for a, bb in zip(v_w, v_p))),
                mpmath.mpf(1))
        defect = (1 - c) * (1 + c)
        return {"gap_dist": float(gap), "defect": float(defect),
                "scaled_distance": float(2 * mpmath.sqrt(defect)
                                         / mpmath.sqrt(gap)),
                "energy_w": float(th_w)}
