"""Model-operator laboratory: exponential Grams over polygons, the sinc
family on momentum windows, and step-envelope comparison kernels.

These are the reduced operators the gap counting function gets squeezed
between once the fiber machinery has done its work: an exponential
transform Gram over each sandwich polygon, its Gaussian-free rectangle
reduction with closed-form entries, the sinc kernel whose trace and
counting ratios have exact limits, a diagonal factorial surrogate whose
counting ratio tends to e R kappa(.), and the band-kernel comparison
operators built from two-sided step envelopes of the edge potential.
Gram entries span hundreds of orders of magnitude at realistic m, so
the Grams are assembled in log-magnitude + phase form and exponentiated
only inside the counting routines; the sinc family, whose entries are
O(1) and real, stays a dense matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bsham import get_gap_model, k_truncation, sjstar_sj
from .counting import count_above
from .errors import DomainError
from .operators import (DiscretizedOperator, QuadratureSpec, gauss_panel_rule,
                        momentum_rule, polygon_x_rule, product_gram,
                        sections_at)
from .oscillator import log_p_coeff
from .potentials import step_potential, upper_envelope

# rows of sinc_kernel evaluated at once: a 64 x n block of each
# temporary, where the whole matrix would take n x n
_KERNEL_ROWS = 64


@dataclass(frozen=True)
class IntervalSpec:
    """Momentum window (lo, hi), optionally tagged with the margin delta
    that generated it."""

    lo: float
    hi: float
    delta: float = None

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ValueError("need lo < hi")
        if self.delta is not None and not 0.0 < self.delta < 0.5:
            raise ValueError("delta must lie in (0, 1/2)")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    @classmethod
    def inner(cls, delta: float) -> "IntervalSpec":
        """(delta, 1 - delta), the window kept away from both ends."""
        return cls(delta, 1.0 - delta, delta)

    @classmethod
    def outer(cls, delta: float) -> "IntervalSpec":
        """(0, 1 + delta), the enlarged upper window."""
        return cls(0.0, 1.0 + delta, delta)


def gamma_gram(side: str, m: float, delta: float, omega, quad: QuadratureSpec,
               b: float = 1.0) -> DiscretizedOperator:
    """Gram matrix of the exponential transform over the polygon omega.

    Kernel pi^{-1/2} m e^{-bx^2/2} e^{m(x + iy + [shift])k} k^{1/2} with
    momentum window (delta, 1-delta) and shift 0 for side "minus",
    window (0, 1+delta) and shift delta for side "plus".  Entries

        pi^{-1} m^2 sqrt(kk') int_omega e^{-bx^2}
            e^{m(x+shift)(k+k')} e^{imy(k-k')} dmu(x, y)

    are assembled in log form; for m sup(x) of order tens they are far
    beyond double-precision range and only the counting module should
    exponentiate them.
    """
    if m <= 0:
        raise ValueError("m must be positive")
    if side == "minus":
        window = IntervalSpec.inner(delta)
        shift = 0.0
    elif side == "plus":
        window = IntervalSpec.outer(delta)
        shift = delta
    else:
        raise ValueError("side must be 'minus' or 'plus'")
    k_pts, k_wts = gauss_panel_rule(window.lo, window.hi,
                                    quad.k_panels, quad.k_nodes)
    x_pts, x_wts = polygon_x_rule(omega, m * window.hi, b, quad)
    secs = sections_at(omega, x_pts)
    x_logmag = (-0.5 * b * x_pts[:, None] ** 2
                + m * (x_pts[:, None] + shift) * k_pts[None, :])
    x_sign = np.ones_like(x_logmag)
    log_row = 0.5 * np.log(k_pts)
    return product_gram(k_pts, k_wts, log_row, x_pts, x_wts, x_logmag, x_sign,
                        secs, m, math.log(m * m / math.pi),
                        y_order=quad.y_order,
                        meta={"side": side, "m": m, "delta": delta, "b": b})


def sinc_kernel(scale: float, k) -> np.ndarray:
    """Dense kernel sin(scale (k-k'))/(pi(k-k')) 2sqrt(kk')/(k+k') of g_sinc.

    Evaluated without weights, in blocks of _KERNEL_ROWS rows, each entry
    by the same elementwise operations in the same order as on the whole
    matrix (tau, k + k', the geometric factor, the sinc, then osc * geo),
    so the temporaries stay a few rows wide and the bits do not depend on
    the block size.
    """
    k = np.asarray(k, dtype=float)
    out = np.empty((len(k), len(k)))
    for lo in range(0, len(k), _KERNEL_ROWS):
        rows, cols = k[lo:lo + _KERNEL_ROWS, None], k[None, :]
        tau = rows - cols
        ssum = rows + cols
        geo = 2.0 * np.sqrt(rows * cols) / ssum
        osc = (scale / math.pi) * np.sinc(scale * tau / math.pi)
        np.multiply(osc, geo, out=out[lo:lo + _KERNEL_ROWS])
    return out


def sinc_rule(interval: IntervalSpec, scale: float):
    """(points, weights) of the sinc-family Nystrom rule on the window:
    10-point Gauss panels, at least max(400, 4 scale |window|/pi) points,
    which oversamples the ~ scale |window|/pi significant eigenvalues 4x.
    The window must lie in (0, infinity)."""
    if interval.lo < 0.0:
        raise DomainError("sinc-family window must lie in (0, infinity)")
    nodes = max(400, int(4.0 * scale * interval.length / math.pi))
    panels = max(1, int(math.ceil(nodes / 10)))
    return gauss_panel_rule(interval.lo, interval.hi, panels, 10)


def g_sinc(interval: IntervalSpec, scale: float) -> DiscretizedOperator:
    """Weight-symmetrized Nystrom matrix of the sinc-family kernel

        sin(scale (k-k'))/(pi (k-k')) * 2 sqrt(kk')/(k+k')

    on the window.  Its entries are O(1) and real, so the kernel is the
    dense (n, n) array, (sqrt(w_i) K_ij) sqrt(w_j) with the root weights
    multiplied in place, and no log form.  Its diagonal is exactly
    scale/pi times the weights, so the trace is scale |window| / pi to
    quadrature-weight roundoff; the nodes are sinc_rule's.
    """
    pts, wts = sinc_rule(interval, scale)
    kern = sinc_kernel(scale, pts)
    root = np.sqrt(wts)
    kern *= root[:, None]
    kern *= root[None, :]
    return DiscretizedOperator(nodes=pts, weights=wts, kernel=kern,
                               meta={"scale": scale, "family": "sinc"})


def g_sinc_trace(interval: IntervalSpec, scale: float):
    """(n, Tr g_sinc) of g_sinc(interval, scale), from its n
    diagonal entries alone.

    Every diagonal entry of the kernel is exactly scale/pi: sinc(0) = 1,
    and 2 sqrt(k k)/(k + k) = 1 in IEEE arithmetic, since sqrt(fl(k^2))
    = k.  So the trace is the sum of ((scale/pi) sqrt(w_i)) sqrt(w_i),
    the bits of np.trace of the kernel, without the (n, n) matrix.
    """
    pts, wts = sinc_rule(interval, scale)
    root = np.sqrt(wts)
    diag = np.full(len(pts), scale / math.pi)
    diag *= root
    diag *= root
    return len(pts), float(np.sum(diag))


def kms_trace_ratio(interval: IntervalSpec, m: float, l: int) -> float:
    """Tr(g^l)/m for the sinc family at scale m; tends to |window|/pi
    for every fixed power l >= 1."""
    if l < 1:
        raise ValueError("power l must be at least 1")
    if l == 1:
        return g_sinc_trace(interval, m)[1] / m
    dense = g_sinc(interval, m).kernel
    # Tr(g^l) = sum_ij (g^(l-1))_ij g_ji.  einsum multiplies without
    # BLAS and fsum adds exactly, so the bytes do not depend on the BLAS
    # thread count.
    power = dense
    for _ in range(l - 2):
        power = np.einsum("ij,jk->ik", power, dense)
    return math.fsum((power * dense.T).ravel()) / m


def epsilon_bounds(omega, b: float = 1.0):
    """(inf, sup) of e^{-bx^2} over the x-projection of the polygon.

    The pair of constants that peel the Gaussian factor off an
    exponential Gram from below and above."""
    xa, xb = omega.x_extent
    far = max(xa * xa, xb * xb)
    near = 0.0 if xa <= 0.0 <= xb else min(xa * xa, xb * xb)
    return math.exp(-b * far), math.exp(-b * near)


def inscribed_rectangle_count(r: float, m: float, delta: float,
                              alpha: float, beta: float, half_height: float,
                              eps_minus: float):
    """Certified lower-route count through an inscribed rectangle.

    For a rectangle (alpha, beta) x (-L, L) inside the lower sandwich
    polygon, the exponential Gram dominates the sinc family after the
    threshold transfer

        s = r e^{-2 beta delta m} / (eps_minus (1 - e^{2(alpha-beta) delta m})),

    so n_+(r; Gram) >= n_+(s; g) with g at scale mL on (delta, 1-delta).
    Returns (CountingReport of the sinc count, transferred threshold).
    """
    if not 0.0 < alpha < beta:
        raise ValueError("need 0 < alpha < beta")
    if half_height <= 0 or not 0.0 < eps_minus <= 1.0:
        raise ValueError("need positive half height and eps_minus in (0, 1]")
    s = (r * math.exp(-2.0 * beta * delta * m)
         / (eps_minus * (1.0 - math.exp(2.0 * (alpha - beta) * delta * m))))
    op = g_sinc(IntervalSpec.inner(delta), m * half_height)
    return count_above(op.kernel, s), s


def gamma_diag_count(m: float, xi: float, delta: float, R: float, s: float):
    """Count and ratio for the diagonal factorial surrogate.

    Counts the indices q with

        e^{m(xi+delta)_+} (mR)^{q+1} / (q! sqrt(q+1)) > sqrt(s),

    evaluated in the log domain, ln q! by math.lgamma, so nothing
    overflows; the ratio count/m tends to e R kappa((xi+delta)_+ / (e R))
    as m grows.
    """
    if R <= 0 or m <= 0:
        raise ValueError("m and R must be positive")
    if s <= 0:
        raise ValueError("threshold s must be positive")
    shift = max(xi + delta, 0.0)
    ln_mr = math.log(m * R)
    half_ln_s = 0.5 * math.log(s)
    qmax = int(math.ceil(math.e * m * R + m * shift + 50.0))
    while True:
        q = np.arange(qmax + 1, dtype=float)
        ln_fact = np.array([math.lgamma(x) for x in (q + 1.0).tolist()])
        t = (m * shift + (q + 1.0) * ln_mr - ln_fact - 0.5 * np.log(q + 1.0))
        if t[-1] < half_ln_s - 1.0:
            break
        qmax *= 2
    count = int(np.count_nonzero(t > half_ln_s))
    return count, count / m


def q_operator(side: str, j: int, lam: float, scenario) -> DiscretizedOperator:
    """Gram of the step-envelope comparison kernel over a sandwich polygon.

    Kernel (p_j/2pi)^{1/2} e^{iky} e^{-(sqrt(b)x - k/sqrt(b))^2/2}
    (g_j(k; envelope) + lam)^{-1/2} (-k)^{j-1} on momentum (a, K), with
    a the scenario's a_momentum and the band distance g_j taken for the
    lower step envelope (side "minus", over the inner polygon) or the
    upper two-step envelope (side "plus", over the outer polygon), on the
    scenario's fiber window with W replaced by that envelope.  The
    momentum nodes are momentum_rule's over that polygon.  The parity sign
    (-1)^{j-1} is carried exactly as a sign, never folded into
    magnitudes; it squares away in the Gram for momenta of one sign.
    """
    if lam <= 0:
        raise ValueError("lam must be positive (strictly inside the gap)")
    a, quad = scenario.a_momentum, scenario.quad
    if a < 0:
        raise ValueError("momentum cutoff a must be nonnegative")
    w, v, b, delta = scenario.w, scenario.v, scenario.b, scenario.envelope_delta
    if side == "minus":
        w0 = step_potential(w.w_minus_limit, w.w_plus_limit, 0.0)
        omega = v.omega_minus
    elif side == "plus":
        w0, omega = upper_envelope(w, delta), v.omega_plus
    else:
        raise ValueError("side must be 'minus' or 'plus'")
    k_hi = k_truncation(j, b, omega.x_extent[1], a)
    k_pts, k_wts = momentum_rule(a, k_hi, b, omega, quad)
    gap_model = get_gap_model(replace(scenario.fiber, w=w0), j, a, k_hi)
    log_row = (np.log(gap_model.weight(k_pts, lam))
               + (j - 1) * np.log(k_pts))
    x_pts, x_wts = polygon_x_rule(omega, k_hi, b, quad)
    secs = sections_at(omega, x_pts)
    rb = math.sqrt(b)
    x_logmag = -0.5 * (rb * x_pts[:, None] - k_pts[None, :] / rb) ** 2
    x_sign = np.full_like(x_logmag, (-1.0) ** (j - 1))
    return product_gram(k_pts, k_wts, log_row, x_pts, x_wts, x_logmag, x_sign,
                        secs, 1.0, log_p_coeff(j, b) - math.log(2.0 * math.pi),
                        y_order=quad.y_order,
                        meta={"side": side, "j": j, "lam": lam, "a": a,
                              "k_hi": k_hi, "delta": delta})


def sandwich_check(j: int, lam: float, r: float, eps: float, scenario):
    """Three-route count comparison at fixed gap depth.

    Counts n_*(r(1+eps); sqrt(c0-) Q-) <= n_*(r; S_j) <=
    n_*(r(1-eps); sqrt(c0+) Q+) realized as threshold counts on the
    three Gram matrices; the bracket holds up to a small additive slack
    from the finite-rank reductions.  Returns the (lower, mid, upper)
    CountingReports, each with its threshold and warnings.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    mid = count_above(sjstar_sj(j, lam, scenario).kernel, r * r)
    lo_op = q_operator("minus", j, lam, scenario)
    lower = count_above(lo_op.kernel,
                        (r * (1.0 + eps)) ** 2 / scenario.v.c0_minus)
    hi_op = q_operator("plus", j, lam, scenario)
    upper = count_above(hi_op.kernel,
                        (r * (1.0 - eps)) ** 2 / scenario.v.c0_plus)
    return lower, mid, upper


def endpoint_bracket(j: int, lam: float, r: float, eps: float, scenario):
    """Exponential-Gram bracket of the gap count at depth lam.

    With m = sqrt(b |ln lam|), the count n_*(r; S_j) is caught between
    the counts of the two polygon Grams at the transferred thresholds

        lower: r(1+eps) sqrt((W+ - W-)/c0-)            on side "minus",
        upper: r(1-eps) sqrt((W+ - W(-delta))/c0+) e^{-b delta^2/2}
                                                       on side "plus",

    up to additive slack from the finite reductions.  Returns (m, lower,
    upper), the two polygon counts as CountingReports: the middle count
    n_*(r; S_j) is the mid of sandwich_check at the same (j, lam, r),
    counted once.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie in (0, 1) for the log scale")
    quad, w, v, b = scenario.quad, scenario.w, scenario.v, scenario.b
    delta = scenario.envelope_delta
    m = math.sqrt(b * abs(math.log(lam)))
    s_lo = r * (1.0 + eps) * math.sqrt(
        (w.w_plus_limit - w.w_minus_limit) / v.c0_minus)
    lo_op = gamma_gram("minus", m, delta, v.omega_minus, quad, b)
    lower = count_above(lo_op.kernel, s_lo * s_lo)
    s_hi = (r * (1.0 - eps)
            * math.sqrt((w.w_plus_limit - float(w(-delta))) / v.c0_plus)
            * math.exp(-0.5 * b * delta * delta))
    hi_op = gamma_gram("plus", m, delta, v.omega_plus, quad, b)
    upper = count_above(hi_op.kernel, s_hi * s_hi)
    return m, lower, upper
