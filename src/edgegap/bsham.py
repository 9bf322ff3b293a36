"""Counting eigenvalues pulled into a spectral gap by a compact perturbation.

Three routes to the same counting function, kept numerically independent,
on the momentum nodes of operators.momentum_rule up to k_truncation's K:

* sjstar_sj: Gram matrix of the band-limited, gap-weighted kernel
  (2 pi)^{-1/2} V(x,y)^{1/2} e^{iky} psi_inf(x;k) (g_j(k) + lam)^{-1/2}
  over a momentum half-line, with closed-form section integrals in y.
* full_line_gram: sjstar_sj on the symmetric window (-K, K), with the
  y-integrals over the support done either in closed form or by a
  Gauss rule on every vertical section.
* bs_count: the resolvent route n_-(1; V^{1/2}(H0 - z)^{-1} V^{1/2})
  with the resolvent kernel summed over fiber eigenpairs.

Cross-route agreement (count for count between full_line_gram's two
y-rules, to an additive O(1) against bs_count) is the main self-check.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np

from .counting import LogHermitian, count_above
from .errors import TruncationWarning
from .fiber import FiberDiscretization, GapModel, gap_edges, solve_fiber
from .operators import (DiscretizedOperator, gauss_legendre, momentum_rule,
                        polygon_x_rule, product_gram, sections_at)
from .oscillator import psi_inf

# the momentum reach K puts the kernel envelope this far below its peak
_TAIL_REL = 1e-16
# bs_count forms C diag(s) C^* this many momentum nodes at a time, so
# the complex columns never exist all at once
_MOMENTUM_BLOCK = 16


def k_truncation(j: int, b: float, x_sup: float, a: float = 0.0) -> float:
    """Smallest K > a beyond which the envelope p_j k^{2j-2} e^{-(k/sqrt(b)
    - sqrt(b) x_sup)^2} stays below _TAIL_REL times its maximum on [a, inf).
    Its log f (p_j cancels) has f'' < -2/b: f peaks at a quadratic's root
    or at a and falls past the cut within sqrt(-b ln _TAIL_REL), whence six
    Newton steps reach K from the right.  K grows strictly with x_sup."""
    c, rb, bx = 2 * j - 2, math.sqrt(b), b * x_sup

    def log_env(k):
        return c * math.log(k) - (k / rb - rb * x_sup) ** 2
    peak = max(a, 1e-6, 0.5 * (bx + math.sqrt(bx * bx + 2 * c * b)))
    cut = log_env(peak) + math.log(_TAIL_REL)
    k = peak + math.sqrt(-b * math.log(_TAIL_REL))
    for _ in range(6):
        k -= (log_env(k) - cut) / (c / k - 2.0 * k / b + 2.0 * x_sup)
    return k


@lru_cache(maxsize=32)
def get_gap_model(disc: FiberDiscretization, j: int, k_lo: float,
                  k_hi: float) -> GapModel:
    """GapModel of level j on (k_lo, k_hi), solved on the fiber window
    disc (a scenario's fiber).  The frozen window is part of the cache
    key, so two scenarios share a model only when their windows agree;
    this is the one place the window is unpacked for GapModel."""
    return GapModel(disc.b, disc.w, j, k_lo, k_hi, n=disc.n,
                    half_width=disc.half_width)


def sjstar_sj(j: int, lam: float, scenario, k_lo: float = None,
              k_hi: float = None, y_order: int = 0) -> DiscretizedOperator:
    """Gram matrix S*S of the gap-weighted band kernel on (k_lo, K).

    Entries M(k,k') = (2 pi)^{-1} F(k)F(k') * int V(x,y) psi_inf(x;k)
    psi_inf(x;k') e^{i(k-k')y} dx dy with F = (g_j + lam)^{-1/2}.
    k_lo defaults to the scenario's momentum cutoff a_momentum and K to
    k_truncation's envelope root; the nodes are momentum_rule's and
    polygon_x_rule's, and g_j is the GapModel's on the fiber window.
    A TruncationWarning naming lam flags a K at which |psi|^2 is not yet
    sqrt(_TAIL_REL) below its peak: the envelope missed the kernel.
    """
    if lam <= 0:
        raise ValueError("lam must be positive (strictly inside the gap)")
    quad, v, b = scenario.quad, scenario.v, scenario.b
    k_lo = scenario.a_momentum if k_lo is None else k_lo
    if v is None:  # V = 0: the zero operator, on the one node k_lo
        zero = LogHermitian(np.full((1, 1), -np.inf), np.zeros((1, 1)))
        return DiscretizedOperator(np.array([k_lo]), np.ones(1), zero,
                                   {"j": j, "lam": lam, "a": k_lo})
    k_hi = k_truncation(j, b, v.x_sup, k_lo) if k_hi is None else k_hi
    k_pts, k_wts = momentum_rule(k_lo, k_hi, b, v.support, quad)
    gap_model = get_gap_model(scenario.fiber, j, k_lo, k_hi)
    log_row = np.log(gap_model.weight(k_pts, lam))
    x_pts, x_wts = polygon_x_rule(v.support, k_hi, b, quad)
    secs = sections_at(v.support, x_pts)
    psi = psi_inf(j, k_pts[None, :], x_pts[:, None], b)
    with np.errstate(divide="ignore"):
        x_logmag = np.log(np.abs(psi))
    x_sign = np.where(psi >= 0, 1.0, -1.0)
    env = 2.0 * x_logmag.max(axis=0)  # the envelope's claim, on the nodes
    if env[-1] > env.max() + 0.5 * math.log(_TAIL_REL):
        warnings.warn(f"lam = {lam:g}: the envelope's reach K = {k_hi:.4g} "
                      f"misses the band-{j} kernel", TruncationWarning)
    return product_gram(
        k_pts, k_wts, log_row, x_pts, x_wts, x_logmag, x_sign, secs, 1.0,
        math.log(v.amplitude / (2.0 * math.pi)), y_order=y_order,
        meta={"j": j, "lam": lam, "a": k_lo, "k_hi": k_hi,
              "y_route": "gauss" if y_order else "sections"})


def _full_line_reach(j: int, b: float, v) -> float:
    """Symmetric momentum cutoff K of the whole-line assemblies: the
    envelope is even in (k, x) -> (-k, -x) and K grows with x, so K is
    the half-line reach at supp V's farther end, max(x_sup, -x_inf)."""
    return k_truncation(j, b, max(v.x_sup, -v.x_inf))


def full_line_gram(j: int, lam: float, scenario,
                   y_order: int = 0) -> DiscretizedOperator:
    """sjstar_sj on the symmetric momentum window (-K, K) of bs_count.

    y_order = 0 integrates the plane waves over each vertical section of
    the support in closed form; y_order > 0 applies a Gauss rule of that
    order on every section instead.  On one momentum grid the two
    y-routes are independent quadratures of the same whole-line Gram.
    """
    k_sym = _full_line_reach(j, scenario.b, scenario.v)
    return sjstar_sj(j, lam, scenario, k_lo=-k_sym, k_hi=k_sym,
                     y_order=y_order)


def effective_count(j: int, lam: float, eps: float, scenario):
    """(lower, upper) CountingReports bracketing the gap counting function
    at depth lam: n_+(1+eps; S*S) and n_+(1-eps; S*S)."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    op = sjstar_sj(j, lam, scenario)
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


def _resolvent_columns(j: int, j_sum: int, scenario):
    """The lam-independent part of bs_count, one column per fiber pair,
    on the scenario's fiber window and full_line_gram's momentum nodes.

    Returns (amp, phase, k_wts, band, energy, gap, edge).  Column
    c = i j_sum + j' - 1 of the kernel factor C is amp[:, c] * phase[:, i]:
    the V^{1/2}-weighted eigenvector of band j' at momentum node i,
    interpolated onto the support nodes, times its plane wave e^{iky}.
    k_wts are the momentum weights, energy the band energies and
    gap = g_j(k), each per column.

    Every momentum node is solved in one solve_fiber batch, which
    reduces each eigenvector, as it converges, to its values at the
    support's distinct x: no batch of whole vectors is held.
    """
    v, b, quad, disc = scenario.v, scenario.b, scenario.quad, scenario.fiber
    edge = gap_edges(b, scenario.w, j)[0]
    k_sym = _full_line_reach(j, b, v)
    xs, ys, ws = _support_nodes(v, quad, b, k_sym)
    gap_model = get_gap_model(disc, j, -k_sym, k_sym)
    k_pts, k_wts = momentum_rule(-k_sym, k_sym, b, v.support, quad)
    x_at, node = np.unique(xs, return_inverse=True)
    energy, values = solve_fiber(disc, k_pts, j_sum, at=x_at)
    # one row per support node, C-ordered: the bits of bs_count's BLAS
    # products depend on the layout
    amp = np.ascontiguousarray(values.reshape(-1, len(x_at))[:, node].T)
    amp *= np.sqrt(v.amplitude * ws)[:, None]
    energy = energy.ravel()
    phase = np.exp(1j * ys[:, None] * k_pts[None, :])
    band = np.tile(np.arange(1, j_sum + 1), len(k_pts))
    return (amp, phase, np.repeat(k_wts, j_sum), band, energy,
            np.repeat(gap_model.gap(k_pts), j_sum), edge)


def bs_count(j: int, lam, scenario, j_sum: int = None):
    """n_-(1; V^{1/2}(H0 - z)^{-1}V^{1/2}) at z = E_j^+ + lam.

    The resolvent kernel is expanded over fiber eigenpairs j' <= j_sum
    (default 2j+2) and integrated over momentum; the band-j denominator
    uses the gap model so (g + lam) stays exactly positive far in the
    Gaussian tail.  Serves as the cross-route oracle for effective_count.

    Only the denominators depend on lam: _resolvent_columns assembles
    the kernel columns C, their weights w, the band energies and g_j(k)
    once per call, and each depth costs C diag(w / (2 pi denom)) C^*,
    formed in blocks of momenta.
    lam may be a sequence of depths sharing that assembly; a list of
    counts is then returned.
    """
    lams = [float(x) for x in np.atleast_1d(lam)]
    if not lams or min(lams) <= 0:
        raise ValueError("lam must be positive")
    if scenario.v is None:
        counts = [0] * len(lams)
    else:
        j_sum = j_sum or (2 * j + 2)
        amp, phase, k_wts, band, energy, gap, edge = _resolvent_columns(
            j, j_sum, scenario)
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
