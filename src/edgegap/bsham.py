"""Counting eigenvalues pulled into a spectral gap by a compact perturbation.

Three routes to the same counting function, kept numerically independent:

* sjstar_sj: Gram matrix of the band-limited, gap-weighted kernel
  (2 pi)^{-1/2} V(x,y)^{1/2} e^{iky} psi_inf(x;k) (g_j(k) + lam)^{-1/2}
  over a momentum half-line, with closed-form section integrals in y.
* full_line_gram: sjstar_sj on the symmetric window (-K, K), with the
  y-integrals over the support done either in closed form or by a
  Gauss rule on every vertical section.
* bs_count: the resolvent route n_-(1; V^{1/2}(H0 - z)^{-1} V^{1/2})
  with the resolvent kernel summed over fiber eigenpairs.

Cross-route agreement (count for count between the two y-rules of
full_line_gram, up to an additive O(1) between the Gram and resolvent
routes) is the package's main self-check.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np

from .counting import LogHermitian, count_above
from .errors import TruncationWarning
from .fiber import FiberDiscretization, GapModel, gap_edges, solve_fiber
from .operators import (DiscretizedOperator, QuadratureSpec, gauss_legendre,
                        gauss_panel_rule, polygon_x_rule, product_gram,
                        sections_at)
from .oscillator import log_p_coeff, psi_inf

_TAIL_REL = 1e-16
# bs_count forms C diag(s) C^* this many momentum nodes at a time, so
# the complex columns never exist all at once
_MOMENTUM_BLOCK = 16
# momenta per batched fiber solve of _resolvent_columns: at j_sum = 6
# bands, 32 momenta are 192 lanes, one tridiagonal._LANE_BLOCK, with
# 3 MB of eigenvectors (n = 2001)
_FIBER_BLOCK = 32


def _log_envelope(j: int, b: float, x_ref: float, k):
    """ln of the squared-kernel magnitude envelope p_j k^{2j-2} e^{-(k/sqrt(b)-sqrt(b)x)^2}."""
    k = np.asarray(k, dtype=float)
    poly = (2 * j - 2) * np.log(np.maximum(np.abs(k), 1e-300))
    return log_p_coeff(j, b) + poly - (k / math.sqrt(b) - math.sqrt(b) * x_ref) ** 2


def k_truncation(j: int, b: float, x_sup: float, a: float = 0.0,
                 rel: float = _TAIL_REL) -> float:
    """Smallest K beyond which the kernel envelope is below rel times its
    in-window maximum; the Gaussian factor makes the tail certifiable."""
    rb = math.sqrt(b)
    lo = max(a, 1e-6)
    grid = np.arange(lo, b * abs(x_sup) + 14.0 * rb, 0.01 * rb)
    vals = _log_envelope(j, b, x_sup, grid)
    peak_idx = int(np.argmax(vals))
    cut = vals[peak_idx] + math.log(rel)
    below = np.nonzero(vals[peak_idx:] < cut)[0]
    if len(below) == 0:
        warnings.warn("envelope tail still above the relative cutoff at the "
                      "search boundary", TruncationWarning)
        return float(grid[-1])
    return float(grid[peak_idx + below[0]])


def k_truncation_symmetric(j: int, b: float, x_inf: float, x_sup: float,
                           rel: float = _TAIL_REL) -> float:
    """Two-sided truncation K with the envelope below rel·max outside
    (-K, K), for whole-line discretizations."""
    rb = math.sqrt(b)
    reach = b * max(abs(x_inf), abs(x_sup)) + 14.0 * rb
    grid = np.arange(-reach, reach, 0.01 * rb)
    vals = np.maximum(_log_envelope(j, b, x_sup, grid),
                      _log_envelope(j, b, x_inf, grid))
    cut = vals.max() + math.log(rel)
    inside = np.nonzero(vals >= cut)[0]
    return float(max(abs(grid[inside[0]]), abs(grid[inside[-1]])))


@lru_cache(maxsize=32)
def get_gap_model(b: float, w, j: int, k_lo: float, k_hi: float,
                  n: int = 2001, half_width: float = None) -> GapModel:
    """GapModel on the fiber window (n, half_width), cached per argument
    tuple; callers pass the scenario's fiber.n and fiber.half_width."""
    return GapModel(b, w, j, k_lo, k_hi, n=n, half_width=half_width)


def _zero_operator(k_pts, k_wts, meta) -> DiscretizedOperator:
    nk = len(k_pts)
    kernel = LogHermitian(np.full((nk, nk), -np.inf), np.zeros((nk, nk)))
    return DiscretizedOperator(nodes=k_pts, weights=k_wts, kernel=kernel, meta=meta)


def _psi_log_factors(j: int, b: float, x_pts, k_pts):
    """(log|psi_inf|, sign) on the (x, k) tensor grid."""
    vals = psi_inf(j, k_pts[None, :], x_pts[:, None], b)
    sign = np.where(vals >= 0, 1.0, -1.0)
    with np.errstate(divide="ignore"):
        logmag = np.log(np.abs(vals))
    return logmag, sign


def sjstar_sj(j: int, lam: float, a: float, quad: QuadratureSpec, v, w, b: float,
              k_lo: float = None, k_hi: float = None, y_order: int = 0,
              fiber_n: int = 2001,
              fiber_half_width: float = None) -> DiscretizedOperator:
    """Gram matrix S*S of the gap-weighted band kernel on (a, K).

    Entries M(k,k') = (2 pi)^{-1} F(k)F(k') * int V(x,y) psi_inf(x;k)
    psi_inf(x;k') e^{i(k-k')y} dx dy with F = (g_j + lam)^{-1/2};
    the truncation K is set by the certified Gaussian envelope rule.
    g_j comes from the GapModel on the fiber window (fiber_n,
    fiber_half_width).
    """
    if lam <= 0:
        raise ValueError("lam must be positive (strictly inside the gap)")
    if v is None:
        k_pts, k_wts = gauss_panel_rule(a, a + 1.0, quad.k_panels, quad.k_nodes)
        return _zero_operator(k_pts, k_wts, {"j": j, "lam": lam, "a": a})
    if k_hi is None:
        k_hi = k_truncation(j, b, v.support.x_extent[1], a)
    if k_lo is None:
        k_lo = a
    k_pts, k_wts = gauss_panel_rule(k_lo, k_hi, quad.k_panels, quad.k_nodes)
    gap_model = get_gap_model(b, w, j, k_lo, k_hi, fiber_n, fiber_half_width)
    log_row = np.log(gap_model.weight(k_pts, lam))
    x_pts, x_wts = polygon_x_rule(v.support, k_hi, b, quad)
    secs = sections_at(v.support, x_pts)
    x_logmag, x_sign = _psi_log_factors(j, b, x_pts, k_pts)
    op = product_gram(k_pts, k_wts, log_row, x_pts, x_wts, x_logmag, x_sign,
                      secs, 1.0, math.log(v.amplitude / (2.0 * math.pi)),
                      y_order=y_order,
                      meta={"j": j, "lam": lam, "a": a, "k_hi": k_hi,
                            "y_route": "gauss" if y_order else "sections"})
    return op


def _full_line_reach(j: int, b: float, v) -> float:
    """Symmetric momentum cutoff K of the whole-line assemblies over supp V."""
    return k_truncation_symmetric(j, b, *v.support.x_extent)


def full_line_gram(j: int, lam: float, scenario, quad: QuadratureSpec = None,
                   y_order: int = 0) -> DiscretizedOperator:
    """sjstar_sj on the symmetric momentum window (-K, K) of bs_count.

    y_order = 0 integrates the plane waves over each vertical section of
    the support in closed form; y_order > 0 applies a Gauss rule of that
    order on every section instead.  On one momentum grid the two
    y-routes are independent quadratures of the same whole-line Gram.
    """
    quad = quad or scenario.quad
    v, w, b = scenario.v, scenario.w, scenario.b
    k_sym = _full_line_reach(j, b, v)
    return sjstar_sj(j, lam, -k_sym, quad, v, w, b, k_lo=-k_sym, k_hi=k_sym,
                     y_order=y_order, fiber_n=scenario.fiber_n,
                     fiber_half_width=scenario.fiber_half_width)


def effective_count(j: int, lam: float, eps: float, scenario,
                    quad: QuadratureSpec = None):
    """(lower, upper) CountingReports bracketing the gap counting function
    at depth lam: n_+(1+eps; S*S) and n_+(1-eps; S*S)."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    quad = quad or scenario.quad
    op = sjstar_sj(j, lam, scenario.a_momentum, quad, scenario.v, scenario.w,
                   scenario.b, fiber_n=scenario.fiber_n,
                   fiber_half_width=scenario.fiber_half_width)
    return count_above(op.kernel, 1.0 + eps), count_above(op.kernel, 1.0 - eps)


def _support_nodes(v, quad, b, k_reach):
    """Tensor quadrature nodes (x, y, weight) over supp V."""
    x_pts, x_wts = polygon_x_rule(v.support, k_reach, b, quad)
    order = quad.gauss_y_order
    base_x, base_w = gauss_legendre(order)
    xs, ys, ws = [], [], []
    for x, wx in zip(x_pts, x_wts):
        for y1, y2 in v.support.vertical_sections(float(x)):
            mid, half = 0.5 * (y1 + y2), 0.5 * (y2 - y1)
            xs.append(np.full(order, x))
            ys.append(mid + half * base_x)
            ws.append(wx * half * base_w)
    return np.concatenate(xs), np.concatenate(ys), np.concatenate(ws)


def _resolvent_columns(j: int, j_sum: int, scenario, quad: QuadratureSpec):
    """The lam-independent part of bs_count, one column per fiber pair,
    on the scenario's fiber window.

    Returns (amp, phase, k_wts, band, energy, gap, edge).  Column
    c = i j_sum + j' - 1 of the kernel factor C is amp[:, c] * phase[:, i]:
    the V^{1/2}-weighted eigenvector of band j' at momentum node i,
    interpolated onto the support nodes, times its plane wave e^{iky}.
    k_wts are the momentum weights, energy the band energies and
    gap = g_j(k), each per column.
    """
    v, w, b = scenario.v, scenario.w, scenario.b
    n, half_width = scenario.fiber_n, scenario.fiber_half_width
    edge = gap_edges(b, w, j)[0]
    k_sym = _full_line_reach(j, b, v)
    xs, ys, ws = _support_nodes(v, quad, b, k_sym)
    gap_model = get_gap_model(b, w, j, -k_sym, k_sym, n, half_width)
    disc = FiberDiscretization(b=b, w=w, n=n, half_width=half_width)
    panels = max(quad.k_panels, int(math.ceil(2.0 * k_sym / math.sqrt(b))))
    k_pts, k_wts = gauss_panel_rule(-k_sym, k_sym, panels, quad.k_nodes)
    root_v = np.sqrt(v.amplitude * ws)
    amp = np.empty((len(xs), len(k_pts) * j_sum))
    energy = np.empty(amp.shape[1])
    # momenta in blocks, so the solver's eigenvectors stay a few MB; a
    # block's pairs are views of one array, dropped before the next solve
    for lo in range(0, len(k_pts), _FIBER_BLOCK):
        block = k_pts[lo:lo + _FIBER_BLOCK]
        for i, pairs in enumerate(solve_fiber(disc, block, j_sum), start=lo):
            grid = disc.grid(float(k_pts[i]))
            for pair in pairs:
                c = i * j_sum + pair.j - 1
                vec = np.interp(xs, grid, pair.values, left=0.0, right=0.0)
                amp[:, c] = root_v * vec
                energy[c] = pair.energy
        del pairs, pair
    phase = np.exp(1j * ys[:, None] * k_pts[None, :])
    band = np.tile(np.arange(1, j_sum + 1), len(k_pts))
    return (amp, phase, np.repeat(k_wts, j_sum), band, energy,
            np.repeat(gap_model.gap(k_pts), j_sum), edge)


def bs_count(j: int, lam, scenario, quad: QuadratureSpec = None,
             j_sum: int = None):
    """n_-(1; V^{1/2}(H0 - z)^{-1}V^{1/2}) at z = E_j^+ + lam.

    The resolvent kernel is expanded over fiber eigenpairs j' <= j_sum
    (default 2j+2) and integrated over momentum; the band-j denominator
    uses the gap model so (g + lam) stays exactly positive far in the
    Gaussian tail.  Serves as the cross-route oracle for effective_count.

    Only the denominators depend on lam.  The fiber solves, the
    interpolated kernel columns C, their weights w, the band energies
    and g_j(k) are assembled once per call, and each depth costs the
    product C diag(w / (2 pi denom)) C^*, formed in blocks of momenta.
    lam may be a sequence of depths sharing that assembly; a list of
    counts is then returned.
    """
    lams = [float(x) for x in np.atleast_1d(lam)]
    if not lams or min(lams) <= 0:
        raise ValueError("lam must be positive")
    quad = quad or scenario.quad
    v, w, b = scenario.v, scenario.w, scenario.b
    if v is None:
        counts = [0] * len(lams)
    else:
        j_sum = j_sum or (2 * j + 2)
        amp, phase, k_wts, band, energy, gap, edge = _resolvent_columns(
            j, j_sum, scenario, quad)
        nn, n_k = phase.shape
        last = band == j_sum
        counts, remainder = [], 0.0
        for depth in lams:
            z = edge + depth
            denom = np.where(band == j, -(gap + depth), energy - z)
            scale = k_wts / (2.0 * math.pi * denom)
            # the last retained band bounds the first omitted one (1/(E - z)
            # decays); its norm is that of the small Gram of its columns
            tail = amp[:, last] * phase * np.sqrt(np.abs(scale[last]))
            remainder = max(remainder, float(
                np.linalg.eigvalsh(tail.conj().T @ tail).max()))
            # n_-(1; M) = n_+(1; -M), with -M assembled directly
            neg = np.zeros((nn, nn), dtype=complex)
            for lo in range(0, n_k, _MOMENTUM_BLOCK):
                cs = slice(lo * j_sum, (lo + _MOMENTUM_BLOCK) * j_sum)
                part = amp[:, cs] * np.repeat(
                    phase[:, lo:lo + _MOMENTUM_BLOCK], j_sum, axis=1)
                neg -= (part * scale[cs]) @ part.conj().T
            counts.append(count_above(neg, 1.0).count)
        if remainder > 0.25:
            warnings.warn(f"last fiber level still contributes {remainder:.3f} "
                          "in operator norm; raise j_sum", TruncationWarning)
    return counts if np.ndim(lam) else counts[0]
