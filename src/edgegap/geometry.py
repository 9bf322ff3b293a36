"""Polygon domains and the geometric constants of the accumulation law.

The two constants attached to a sandwich pair of polygons are

    C_minus = (2 pi)^{-1} sqrt(b) c_minus(clip(Omega_minus)),
    C_plus  = e sqrt(b) c_plus(clip(Omega_plus)),

where c_minus is the longest vertical chord, c_plus the enclosing-disk
functional inf_{B_R(xi + i eta) >= Omega} R * kappa(max(xi,0)/(e R)),
and clip intersects with the open right half-plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, EmptyIntersection

_E = math.e

# Halley steps from the starting guess of kappa: enough for every finite
# s >= 0, after which a further step only moves rounding noise
_HALLEY_STEPS = 3


def kappa(s):
    """Measure of {t > 0 : t ln t < s}, elementwise for finite s >= 0.

    The sublevel set is the interval (0, t*) where t* >= 1 solves
    t ln t = s, so t* = e^{W(s)} = s / W(s) with W the principal branch
    of the Lambert W function (Corless et al., Adv. Comput. Math. 5,
    1996), and kappa(0) = 1.  W(s) comes from a fixed number of Halley
    steps on w e^w = s, started at log1p(s) for s <= e and at
    ln s - ln ln s above, and run on f e^{-w} = w - s e^{-w} so that no
    intermediate overflows up to the largest double.  The result is
    within 2 ulp of a 40-digit reference on [1e-300, 1e300], as close
    as SciPy's lambertw gets, and each element depends on its own s
    alone.  A scalar argument returns a float; a negative or
    non-finite s raises DomainError.
    """
    s = np.asarray(s, dtype=float)
    if not np.all(np.isfinite(s)):
        raise DomainError("kappa requires finite s")
    if np.any(s < 0):
        raise DomainError(f"kappa requires s >= 0, got {s.min()}")
    log_s = np.log(np.maximum(s, _E))
    w = np.where(s <= _E, np.log1p(s), log_s - np.log(log_s))
    for _ in range(_HALLEY_STEPS):
        g = w - s * np.exp(-w)
        w = w - g / ((w + 1.0) - (w + 2.0) * g / (2.0 * (w + 1.0)))
    with np.errstate(invalid="ignore"):
        t = np.where(s == 0.0, 1.0, s / w)
    return float(t) if t.ndim == 0 else t


def _segments_properly_intersect(p1, p2, q1, q2) -> bool:
    """True if open segments p1p2 and q1q2 cross at an interior point."""

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != d2 and d3 != d4


@dataclass(frozen=True)
class PolygonDomain:
    """Simple polygon with counterclockwise vertex order.

    Vertices are normalized to counterclockwise orientation on
    construction; self-intersecting or degenerate input is rejected.
    """

    vertices: tuple

    def __init__(self, vertices):
        verts = tuple((float(x), float(y)) for x, y in vertices)
        if len(verts) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        area2 = 0.0
        n = len(verts)
        for i in range(n):
            x1, y1 = verts[i]
            x2, y2 = verts[(i + 1) % n]
            area2 += x1 * y2 - x2 * y1
        if abs(area2) < 1e-14:
            raise ValueError("polygon has (near) zero area")
        if area2 < 0:
            verts = verts[::-1]
        # simplicity: no two non-adjacent edges may cross
        for i in range(n):
            a1, a2 = verts[i], verts[(i + 1) % n]
            for j in range(i + 1, n):
                if j == i or (j + 1) % n == i or (i + 1) % n == j:
                    continue
                b1, b2 = verts[j], verts[(j + 1) % n]
                if _segments_properly_intersect(a1, a2, b1, b2):
                    raise ValueError("polygon is self-intersecting")
        object.__setattr__(self, "vertices", verts)

    @cached_property
    def area(self) -> float:
        acc = 0.0
        n = len(self.vertices)
        for i in range(n):
            x1, y1 = self.vertices[i]
            x2, y2 = self.vertices[(i + 1) % n]
            acc += x1 * y2 - x2 * y1
        return 0.5 * acc

    @cached_property
    def x_extent(self):
        xs = [v[0] for v in self.vertices]
        return (min(xs), max(xs))

    @cached_property
    def y_extent(self):
        ys = [v[1] for v in self.vertices]
        return (min(ys), max(ys))

    @cached_property
    def diameter(self) -> float:
        # the diameter of a polygon is attained at a vertex pair
        v = np.asarray(self.vertices)
        d2 = ((v[:, None, :] - v[None, :, :]) ** 2).sum(axis=2)
        return float(np.sqrt(d2.max()))

    @cached_property
    def centroid(self):
        v = np.asarray(self.vertices)
        x, y = v[:, 0], v[:, 1]
        xn, yn = np.roll(x, -1), np.roll(y, -1)
        cross = x * yn - xn * y
        a = cross.sum() / 2.0
        cx = ((x + xn) * cross).sum() / (6.0 * a)
        cy = ((y + yn) * cross).sum() / (6.0 * a)
        return (float(cx), float(cy))

    def contains(self, x: float, y: float) -> bool:
        """Point membership; boundary points count as inside."""
        n = len(self.vertices)
        inside = False
        for i in range(n):
            x1, y1 = self.vertices[i]
            x2, y2 = self.vertices[(i + 1) % n]
            # on-edge check
            cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
            if abs(cross) < 1e-12 * max(1.0, abs(x2 - x1) + abs(y2 - y1)):
                if min(x1, x2) - 1e-12 <= x <= max(x1, x2) + 1e-12 and \
                        min(y1, y2) - 1e-12 <= y <= max(y1, y2) + 1e-12:
                    return True
            if (y1 > y) != (y2 > y):
                xi = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
                if x < xi:
                    inside = not inside
        return inside

    def vertical_sections(self, x: float):
        """Open y-intervals of the chord {x} x R inside the polygon.

        Assumes x is not a vertex abscissa (callers perturb); crossings
        then come in pairs on a simple polygon.
        """
        ys = []
        n = len(self.vertices)
        for i in range(n):
            x1, y1 = self.vertices[i]
            x2, y2 = self.vertices[(i + 1) % n]
            if (x1 - x) * (x2 - x) < 0:
                t = (x - x1) / (x2 - x1)
                ys.append(y1 + t * (y2 - y1))
        ys.sort()
        return [(ys[i], ys[i + 1]) for i in range(0, len(ys) - 1, 2)]


def c_minus(poly: PolygonDomain) -> float:
    """Supremum of lengths of single connected vertical segments in the polygon.

    Within a strip between consecutive vertex abscissas the sections keep
    their edges, so the longest connected chord is a maximum of linear
    functions of x and its supremum sits at a strip end.  Each vertex
    abscissa is sampled from both sides, which reaches it.
    """
    xmin, xmax = poly.x_extent
    eps = 1e-9 * max(1.0, xmax - xmin)
    best = 0.0
    for vx, _ in poly.vertices:
        for x in (vx - eps, vx + eps):
            if xmin < x < xmax:
                for ylo, yhi in poly.vertical_sections(x):
                    best = max(best, yhi - ylo)
    return best


def clip_positive_halfplane(poly: PolygonDomain) -> PolygonDomain:
    """Intersection with {x > 0} via half-plane clipping.

    Raises EmptyIntersection when the polygon misses the open right
    half-plane (clip result degenerate).
    """
    out = []
    verts = poly.vertices
    n = len(verts)
    for i in range(n):
        cur, nxt = verts[i], verts[(i + 1) % n]
        cur_in, nxt_in = cur[0] > 0, nxt[0] > 0
        if cur_in:
            out.append(cur)
        if cur_in != nxt_in:
            t = (0.0 - cur[0]) / (nxt[0] - cur[0])
            out.append((0.0, cur[1] + t * (nxt[1] - cur[1])))
    if len(out) < 3:
        raise EmptyIntersection("polygon does not meet {Re z > 0}")
    # drop consecutive duplicates produced by vertices on the axis
    dedup = []
    for p in out:
        if not dedup or abs(p[0] - dedup[-1][0]) + abs(p[1] - dedup[-1][1]) > 1e-14:
            dedup.append(p)
    if len(dedup) > 1 and abs(dedup[0][0] - dedup[-1][0]) + abs(dedup[0][1] - dedup[-1][1]) < 1e-14:
        dedup.pop()
    try:
        clipped = PolygonDomain(dedup)
    except ValueError as exc:
        raise EmptyIntersection("intersection with {Re z > 0} is degenerate") from exc
    if clipped.area < 1e-12 * max(1.0, abs(poly.area)):
        raise EmptyIntersection("intersection with {Re z > 0} has zero area")
    return clipped


def _disk_radius(xi, eta, verts: np.ndarray):
    """Largest vertex distance from each centre (xi, eta)."""
    xi, eta = np.asarray(xi)[..., None], np.asarray(eta)[..., None]
    return np.sqrt(((verts[:, 0] - xi) ** 2
                    + (verts[:, 1] - eta) ** 2).max(axis=-1))


def _disk_objective(xi, eta, verts: np.ndarray):
    r = _disk_radius(xi, eta, verts)
    return r * kappa(np.maximum(xi, 0.0) / (_E * r))


def _disk_search(poly: PolygonDomain, grid: int, rounds: int):
    verts = np.asarray(poly.vertices)
    cx, cy = poly.centroid
    half = 2.0 * poly.diameter
    best_xi, best_eta = cx, cy
    best = float(_disk_objective(cx, cy, verts))
    for _ in range(rounds + 1):
        xis = np.linspace(best_xi - half, best_xi + half, grid)
        etas = np.linspace(best_eta - half, best_eta + half, grid)
        vals = _disk_objective(xis[:, None], etas[None, :], verts)
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        if vals[i, j] < best:
            best = float(vals[i, j])
            best_xi, best_eta = float(xis[i]), float(etas[j])
        half = 2.0 * (xis[1] - xis[0])
    return best, best_xi, best_eta


def c_plus(poly: PolygonDomain, grid: int = 41, rounds: int = 3) -> float:
    """inf over enclosing disks B_R(xi + i eta) of R * kappa(xi_+ / (e R)).

    Two-stage search: a coarse grid of centers over a box of side
    4*diam around the centroid (R = max vertex distance makes every
    candidate disk enclosing), then local grid refinement.  Ties break
    lexicographically on (xi, eta) through the row-major argmin.
    """
    return _disk_search(poly, grid, rounds)[0]


def optimal_disk(poly: PolygonDomain, grid: int = 41, rounds: int = 3):
    """(xi, eta, R) of the enclosing disk realizing the c_plus search
    minimum; R is the largest vertex distance from the chosen center."""
    _, xi, eta = _disk_search(poly, grid, rounds)
    return xi, eta, float(_disk_radius(xi, eta, np.asarray(poly.vertices)))


def asymptotic_constants(omega_minus: PolygonDomain, omega_plus: PolygonDomain,
                         b: float):
    """(C_minus, C_plus) for a sandwich pair of polygons.

    C_minus = (2 pi)^{-1} sqrt(b) c_minus(Omega_minus clipped to Re z > 0),
    C_plus = e sqrt(b) c_plus(Omega_plus clipped).  C_minus < C_plus always,
    since c_plus >= diam/2 >= c_minus/2 and e/2 > (2 pi)^{-1}.
    """
    clipped_minus = clip_positive_halfplane(omega_minus)
    clipped_plus = clip_positive_halfplane(omega_plus)
    c_m = c_minus(clipped_minus)
    c_p = c_plus(clipped_plus)
    return ((2.0 * math.pi) ** -1 * math.sqrt(b) * c_m,
            _E * math.sqrt(b) * c_p)
