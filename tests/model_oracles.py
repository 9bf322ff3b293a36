"""Closed forms and quadratures the tests check the package against.

None of these is on a package code path: each is an independent
evaluation of a quantity (a normalization, an asymptote, a moment
series, a coefficient table) whose exact value is known, or a plain
evaluation (full_product_gram) that a faster package route must
reproduce bit for bit.
"""

import math

import numpy as np
from scipy.special import gammaln

from edgegap.errors import PrecisionExhausted
from edgegap.modelops import IntervalSpec
from edgegap.operators import _section_gauss_integral, _section_osc_integral
from edgegap.oscillator import _hermite_poly_part


def p_coeff(j: int, b: float) -> float:
    """Tail normalization constant b^{-j+3/2} / (sqrt(pi) (j-1)! 2^{j-1})
    as a product of doubles, the oracle for oscillator.log_p_coeff while
    it stays in double range (j <= 168)."""
    return b ** (-j + 1.5) / (math.sqrt(math.pi) * math.factorial(j - 1) * 2.0 ** (j - 1))


def reciprocal_interval(delta: float) -> IntervalSpec:
    """(0, 1/(1 + delta)), the window the monomial table lives on."""
    return IntervalSpec(0.0, 1.0 / (1.0 + delta), delta)


def theta_coeffs(delta: float, q_max: int) -> np.ndarray:
    """Monomial coefficients in the orthonormal Legendre basis of the
    window (0, 1/(1+delta)).

    Row q holds the expansion of k^q; closed-form Legendre moments give

        theta[q, l] = c^{q+1/2} sqrt(2l+1) (q!)^2 / ((q-l)! (q+l+1)!)

    with c = 1/(1+delta), zero above the diagonal.  Row sums of squares
    equal the monomial norms c^{2q+1}/(2q+1).
    """
    if not 0.0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 1/2)")
    if q_max < 0:
        raise ValueError("q_max must be nonnegative")
    if q_max > 60:
        raise PrecisionExhausted(
            "monomial table limited to q_max <= 60; factorial ratios below "
            "lose all relative accuracy in double precision")
    c = 1.0 / (1.0 + delta)
    q = np.arange(q_max + 1, dtype=float)[:, None]
    l = np.arange(q_max + 1, dtype=float)[None, :]
    logv = ((q + 0.5) * math.log(c) + 0.5 * np.log(2.0 * l + 1.0)
            + 2.0 * gammaln(q + 1.0) - gammaln(q - l + 1.0)
            - gammaln(q + l + 2.0))
    return np.where(l <= q, np.exp(logv), 0.0)


def disk_moment_check(m: float, R: float, k: float, kp: float):
    """Second moment of the exponential kernel over a centered disk.

    Returns (series value, direct quadrature) for

        int_{B_R(0)} e^{m(zk + conj(z)k')} dmu(z)
            = pi R^2 sum_q (m^2 R^2 k k')^q / ((q!)^2 (q+1)),

    the quadrature being polar Gauss x trapezoid; the pair should agree
    to ~1e-8 inside the convergence window.
    """
    u = m * m * R * R * k * kp
    if u > 700.0:
        raise ValueError("m^2 R^2 k k' beyond the series window (<= 700)")
    term, acc, q = 1.0, 1.0, 0
    while abs(term) > 1e-18 * abs(acc) or q < math.sqrt(abs(u)) + 4:
        term *= u / ((q + 1.0) * (q + 2.0))
        # a_q = u^q/((q!)^2 (q+1)); ratio a_{q+1}/a_q = u/((q+1)(q+2))
        acc += term
        q += 1
        if q > 5000:
            break
    series = math.pi * R * R * acc
    r_base, r_wts = np.polynomial.legendre.leggauss(60)
    r_pts = 0.5 * R * (r_base + 1.0)
    r_wts = 0.5 * R * r_wts
    theta = np.linspace(0.0, 2.0 * math.pi, 257)[:-1]
    dtheta = 2.0 * math.pi / 256
    xg = r_pts[:, None] * np.cos(theta)[None, :]
    yg = r_pts[:, None] * np.sin(theta)[None, :]
    vals = np.exp(m * (k + kp) * xg) * np.exp(1j * m * (k - kp) * yg)
    quad = float(np.real(np.sum(vals * (r_pts * r_wts)[:, None]) * dtheta))
    return series, quad


def gamma_diag_count(m: float, xi: float, delta: float, R: float, s: float):
    """modelops.gamma_diag_count with ln q! from scipy.special.gammaln,
    an independent evaluation of the same log-domain test."""
    shift = max(xi + delta, 0.0)
    ln_mr = math.log(m * R)
    half_ln_s = 0.5 * math.log(s)
    qmax = int(math.ceil(math.e * m * R + m * shift + 50.0))
    while True:
        q = np.arange(qmax + 1, dtype=float)
        t = (m * shift + (q + 1.0) * ln_mr - gammaln(q + 1.0)
             - 0.5 * np.log(q + 1.0))
        if t[-1] < half_ln_s - 1.0:
            break
        qmax *= 2
    count = int(np.count_nonzero(t > half_ln_s))
    return count, count / m


def psi_inf_asymptotic(j: int, k, x, b: float):
    """Leading large-k form of psi_inf on compact x sets.

    2^{j-1} p_j^{1/2} (-k)^{j-1} exp(-(k/sqrt(b) - sqrt(b) x)^2 / 2).

    The 2^{j-1} factor is the leading Hermite coefficient carried by
    phi_j; with it the ratio to psi_inf tends to 1 as k -> +infinity
    (for j=1 the form is exact).
    """
    k = np.asarray(k, dtype=float)
    x = np.asarray(x, dtype=float)
    rb = math.sqrt(b)
    arg = k / rb - rb * x
    out = (2.0 ** (j - 1) * math.sqrt(p_coeff(j, b))
           * (-k) ** (j - 1) * np.exp(-0.5 * arg * arg))
    return float(out) if out.ndim == 0 else out


def gauss_hermite_norm(j: int, nodes: int = 200) -> float:
    """Gauss-Hermite quadrature of the phi_j normalization integral.

    Exact (up to roundoff) once nodes > j, since the integrand without
    the Gaussian weight is a polynomial of degree 2(j-1).
    """
    t, w = np.polynomial.hermite.hermgauss(nodes)
    p = _hermite_poly_part(j, t)
    return float(np.sum(w * p * p))


def gauss_hermite_gram(j_max: int, nodes: int = 200) -> np.ndarray:
    """Gram matrix of phi_1..phi_{j_max} under Gauss-Hermite quadrature."""
    t, w = np.polynomial.hermite.hermgauss(nodes)
    polys = np.vstack([_hermite_poly_part(j, t) for j in range(1, j_max + 1)])
    return (polys * w) @ polys.T


def full_product_gram(k_pts, k_wts, log_row, x_pts, x_wts, x_logmag, x_sign,
                      sections, y_scale, log_prefactor, y_order=0, meta=None):
    """(log_mag, phase) of operators.product_gram's kernel, accumulated
    over the whole nk x nk matrix at every x node and then made Hermitian
    by mirroring the upper triangle onto the lower one."""
    k_pts = np.asarray(k_pts, dtype=float)
    k_wts = np.asarray(k_wts, dtype=float)
    nk = len(k_pts)
    peak = x_logmag.max(axis=0)
    scaled = x_sign * np.exp(x_logmag - peak[None, :])
    tau = y_scale * (k_pts[:, None] - k_pts[None, :])
    acc = np.zeros((nk, nk), dtype=complex)
    for ix in range(len(x_pts)):
        if y_order > 0:
            ysum = _section_gauss_integral(tau, sections[ix], y_order)
        else:
            ysum = _section_osc_integral(tau, sections[ix])
        acc += x_wts[ix] * np.outer(scaled[ix], scaled[ix]) * ysum
    with np.errstate(divide="ignore"):
        log_mag = np.log(np.abs(acc))
    log_mag += (peak[:, None] + peak[None, :]
                + log_row[:, None] + log_row[None, :]
                + 0.5 * (np.log(k_wts)[:, None] + np.log(k_wts)[None, :])
                + log_prefactor)
    phase = np.angle(acc)
    iu = np.triu_indices(nk, 1)
    log_mag[(iu[1], iu[0])] = log_mag[iu]
    phase[(iu[1], iu[0])] = -phase[iu]
    np.fill_diagonal(phase, 0.0)
    return log_mag, phase
