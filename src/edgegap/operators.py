"""Dense discretization scaffolding for the package's integral operators.

All the Gram-type operators here share one shape: a momentum-side kernel

    M(k, k') = pref * row(k) row(k') * int_Omega X(x,k) X(x,k') e^{i s (k-k') y} dmu(x,y)

with real factors X and a polygonal domain Omega.  The domain integral is
done by Gauss panels in x (split at vertex abscissas so the section
structure is constant per panel) and closed-form integration of the
oscillatory factor over each vertical section; an optional tensor-Gauss
y-rule provides an independent second route.  Entries can span hundreds
of orders of magnitude, so assembly extracts a per-momentum exponent and
returns log-magnitude + phase matrices ready for the counting module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .counting import LogHermitian
from .geometry import PolygonDomain


@dataclass(frozen=True)
class QuadratureSpec:
    """Node budget for operator discretizations.

    k_nodes Gauss points per momentum panel, at least k_panels panels;
    x_nodes per domain panel, with panel width capped so the kernel's
    exponent varies by at most x_rate per panel; y_order = 0 selects the
    closed-form section integrals, > 0 a tensor Gauss rule per section.
    """

    k_panels: int = 8
    k_nodes: int = 16
    x_nodes: int = 20
    x_rate: float = 40.0
    y_order: int = 0

    def __post_init__(self):
        if min(self.k_panels, self.k_nodes, self.x_nodes) < 1 or self.x_rate <= 0:
            raise ValueError("quadrature spec fields must be positive")

    @property
    def gauss_y_order(self) -> int:
        """Order of the per-section Gauss y-rule on the routes that always
        take one: y_order, but at least 12."""
        return max(self.y_order, 12)


@dataclass
class DiscretizedOperator:
    """Square Hermitian discretization of an integral operator.

    nodes/weights are the momentum quadrature (rows and columns agree for
    every Gram assembled here); the kernel has the root quadrature
    weights folded in.  It is a LogHermitian (log-magnitude + phase form)
    for every Gram, whose entries can leave the double range, and a dense
    real ndarray for the sinc family (modelops.g_sinc), whose entries are
    O(1); count_above takes either form.
    """

    nodes: np.ndarray
    weights: np.ndarray
    kernel: LogHermitian | np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.nodes)


@lru_cache(maxsize=None)
def gauss_legendre(order: int):
    """(points, weights) of the order-point Gauss-Legendre rule on
    (-1, 1), built once per order; both arrays are read-only."""
    pts, wts = np.polynomial.legendre.leggauss(order)
    pts.flags.writeable = False
    wts.flags.writeable = False
    return pts, wts


def gauss_panel_rule(a: float, b: float, panels: int, nodes: int):
    """Composite Gauss-Legendre rule on (a, b)."""
    if not b > a:
        raise ValueError("need a < b")
    base_x, base_w = gauss_legendre(nodes)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    pts = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    wts = (half[:, None] * base_w[None, :]).ravel()
    return pts, wts


def momentum_rule(k_lo: float, k_hi: float, b: float, poly: PolygonDomain,
                  quad: QuadratureSpec):
    """Gauss points on (k_lo, k_hi) for a band kernel V^{1/2} e^{iky}
    psi(x; k) over poly: quad.k_nodes on each of at least quad.k_panels
    panels, none wider than sqrt(b) nor than 4 periods 2 pi / Y of
    e^{i(k - k')y}, Y the height of poly (counts broke at 13.5)."""
    ya, yb = poly.y_extent
    width = min(math.sqrt(b), 8.0 * math.pi / (yb - ya))
    panels = max(quad.k_panels, int(math.ceil((k_hi - k_lo) / width)))
    return gauss_panel_rule(k_lo, k_hi, panels, quad.k_nodes)


def polygon_x_rule(poly: PolygonDomain, reach: float, b: float,
                   quad: QuadratureSpec):
    """Gauss points over the x-extent of poly, quad.x_nodes per panel.

    Panels are split at vertex abscissas (keeps every node off the
    section-degeneracy set) and are no wider than quad.x_rate / rate,
    where rate = 2 (|reach| + b max|x|) + 2 bounds how fast a kernel
    exponent of momentum reach moves in x over poly.
    """
    xa, xb = poly.x_extent
    rate = 2.0 * (abs(reach) + b * max(abs(xa), abs(xb))) + 2.0
    max_panel_width = quad.x_rate / rate
    cuts = sorted({xa, xb} | {v[0] for v in poly.vertices if xa < v[0] < xb})
    pts, wts = [], []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        panels = max(1, int(math.ceil((hi - lo) / max_panel_width)))
        p, w = gauss_panel_rule(lo, hi, panels, quad.x_nodes)
        pts.append(p)
        wts.append(w)
    return np.concatenate(pts), np.concatenate(wts)


def sections_at(poly: PolygonDomain, x_pts) -> list:
    """Vertical sections of poly at each x node."""
    return [poly.vertical_sections(float(x)) for x in x_pts]


def _section_osc_integral(tau, sections):
    """sum over sections (y1,y2) of int e^{i tau y} dy, stable at tau = 0.

    (e^{i tau y2} - e^{i tau y1})/(i tau)
        = (y2-y1) e^{i tau (y1+y2)/2} sinc(tau (y2-y1)/(2 pi))
    """
    total = np.zeros(np.shape(tau), dtype=complex)
    for y1, y2 in sections:
        width, center = y2 - y1, 0.5 * (y1 + y2)
        total += width * np.exp(1j * tau * center) * np.sinc(tau * width / (2.0 * math.pi))
    return total


def _section_gauss_integral(tau, sections, order):
    """Same integrals by a per-section Gauss rule (independent route)."""
    base_x, base_w = gauss_legendre(order)
    total = np.zeros(np.shape(tau), dtype=complex)
    for y1, y2 in sections:
        mid, half = 0.5 * (y1 + y2), 0.5 * (y2 - y1)
        for t, w in zip(mid + half * base_x, half * base_w):
            total += w * np.exp(1j * tau * t)
    return total


def product_gram(k_pts, k_wts, log_row, x_pts, x_wts, x_logmag, x_sign,
                 sections, y_scale: float, log_prefactor: float,
                 y_order: int = 0, meta: dict = None) -> DiscretizedOperator:
    """Assemble the Hermitian Gram matrix of a product-form kernel.

    x_logmag/x_sign: (nx, nk) log-magnitudes and signs of X(x_i, k_j);
    log_row: (nk,) log of the positive momentum prefactor row(k);
    sections: vertical sections per x node; y_scale s multiplies (k-k')
    in the oscillatory factor.  Per-momentum exponents are factored out
    before the x sum, so the linear-domain accumulation stays O(1) even
    when entries span hundreds of decades.  The Gram is Hermitian, so only
    its upper triangle (diagonal included) is accumulated, entry by entry
    the same operations as on the full matrix, and the lower triangle is
    its mirror.  The assembly noise floor is computed once and stored on
    the kernel, where count_above reads it, and in meta["noise_floor_log"].
    """
    k_pts = np.asarray(k_pts, dtype=float)
    k_wts = np.asarray(k_wts, dtype=float)
    nk = len(k_pts)
    peak = x_logmag.max(axis=0)
    scaled = x_sign * np.exp(x_logmag - peak[None, :])
    row, col = np.triu_indices(nk)
    tau = y_scale * (k_pts[row] - k_pts[col])
    upper = np.zeros(len(row), dtype=complex)
    last = None
    for ix in range(len(x_pts)):
        # consecutive nodes with the same sections (all of a rectangle's)
        # share one y-integral
        if sections[ix] != last:
            last = sections[ix]
            if y_order > 0:
                ysum = _section_gauss_integral(tau, last, y_order)
            else:
                ysum = _section_osc_integral(tau, last)
        upper += x_wts[ix] * (scaled[ix, row] * scaled[ix, col]) * ysum
    acc = np.zeros((nk, nk), dtype=complex)  # lower triangle: mirrored below
    acc[row, col] = upper
    with np.errstate(divide="ignore"):
        log_mag = np.log(np.abs(acc))
    log_mag += (peak[:, None] + peak[None, :] + log_row[:, None] + log_row[None, :]
                + 0.5 * (np.log(k_wts)[:, None] + np.log(k_wts)[None, :])
                + log_prefactor)
    phase = np.angle(acc)
    iu = np.triu_indices(nk, 1)
    log_mag[(iu[1], iu[0])] = log_mag[iu]
    phase[(iu[1], iu[0])] = -phase[iu]
    np.fill_diagonal(phase, 0.0)
    # the double-precision core carries ~1e-15 relative noise per entry;
    # restored exponent scales turn it into absolute noise at this level
    col_scale = peak + log_row + 0.5 * np.log(k_wts)
    kernel = LogHermitian(log_mag, phase)
    kernel.noise_floor_log = float(
        2.0 * col_scale.max() + log_prefactor + math.log(nk) + math.log(1e-15))
    full_meta = dict(meta or {}, noise_floor_log=kernel.noise_floor_log)
    return DiscretizedOperator(nodes=k_pts, weights=k_wts, kernel=kernel,
                               meta=full_meta)
