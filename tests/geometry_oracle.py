"""Brute-force reference implementations of the geometric constants.

These are the search routes the closed forms in edgegap.geometry
replaced: kappa by bisection on t ln t = s, the enclosing-disk search
evaluated one centre at a time, and c_minus sampled on a 2001-point
chord grid on top of the vertex abscissas.  kappa_mp is a 40-digit
Lambert W reference for kappa's Halley iteration.  The tests check that
the package reproduces them.
"""

import math

import mpmath
import numpy as np

from edgegap.errors import DomainError

_E = math.e


def kappa(s: float) -> float:
    """Root t >= 1 of t ln t = s by bisection to 1e-12 relative."""
    if s < 0:
        raise DomainError(f"kappa requires s >= 0, got {s}")
    if s == 0:
        return 1.0
    lo, hi = 1.0, max(_E, s + 2.0)
    # f(t) = t ln t - s; f(lo) <= 0 < f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.log(mid) < s:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * hi:
            break
    return 0.5 * (lo + hi)


def kappa_mp(s: float, dps: int = 40) -> float:
    """s / W(s) with the principal Lambert W branch at dps digits,
    rounded to double; kappa_mp(0) = 1."""
    if s == 0:
        return 1.0
    with mpmath.workdps(dps):
        x = mpmath.mpf(s)
        return float(x / mpmath.lambertw(x))


def c_minus(poly) -> float:
    """Longest connected vertical chord over the vertex abscissas (from
    both sides) and a 2001-point grid."""
    xmin, xmax = poly.x_extent
    eps = 1e-9 * max(1.0, xmax - xmin)
    candidates = []
    for vx, _ in poly.vertices:
        candidates.extend((vx - eps, vx + eps))
    candidates.extend(np.linspace(xmin + eps, xmax - eps, 2001))
    best = 0.0
    for x in candidates:
        if x <= xmin or x >= xmax:
            continue
        for ylo, yhi in poly.vertical_sections(x):
            best = max(best, yhi - ylo)
    return best


def _disk_objective(xi: float, eta: float, verts: np.ndarray) -> float:
    r = float(np.sqrt(((verts - (xi, eta)) ** 2).sum(axis=1).max()))
    return r * kappa(max(xi, 0.0) / (_E * r))


def disk_search(poly, grid: int = 41, rounds: int = 3):
    """(value, xi, eta) of the grid-refined enclosing-disk search, one
    objective evaluation per centre."""
    verts = np.asarray(poly.vertices)
    cx, cy = poly.centroid
    half = 2.0 * poly.diameter
    best_xi, best_eta = cx, cy
    best = _disk_objective(cx, cy, verts)
    for _ in range(rounds + 1):
        xis = np.linspace(best_xi - half, best_xi + half, grid)
        etas = np.linspace(best_eta - half, best_eta + half, grid)
        vals = np.empty((grid, grid))
        for i, xi in enumerate(xis):
            for j, eta in enumerate(etas):
                vals[i, j] = _disk_objective(xi, eta, verts)
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        if vals[i, j] < best:
            best = float(vals[i, j])
            best_xi, best_eta = float(xis[i]), float(etas[j])
        half = 2.0 * (xis[1] - xis[0])
    return best, best_xi, best_eta
