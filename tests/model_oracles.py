"""Closed forms and quadratures the tests check the package against.

None of these is on a package code path: each is an independent
evaluation of a quantity (a normalization, an asymptote, a moment
series, a coefficient table) whose exact value is known, a plain
evaluation that a faster package route must reproduce bit for bit
(full_product_gram, full_exp_sinc_kernel, full_sinc_dense,
complex_check_hermitian), or a brute-force search that a closed form
must meet (psi_reach).
"""

import math

import numpy as np
from scipy.special import eval_hermite, gammaln

from edgegap.counting import LogHermitian, count_above
from edgegap.geometry import kappa
from edgegap.modelops import IntervalSpec, g_sinc, sinc_rule
from edgegap.operators import _section_gauss_integral, _section_osc_integral
from edgegap.oscillator import _hermite_levels, psi_inf
from tests.inertia_oracle import PrecisionExhausted


def p_coeff(j: int, b: float) -> float:
    """Tail normalization constant b^{-j+3/2} / (sqrt(pi) (j-1)! 2^{j-1})
    as a product of doubles, the oracle for oscillator.log_p_coeff while
    it stays in double range (j <= 168)."""
    return b ** (-j + 1.5) / (math.sqrt(math.pi) * math.factorial(j - 1) * 2.0 ** (j - 1))


def psi_reach(j: int, b: float, x_sup: float, a: float = 0.0,
              rel: float = 1e-16):
    """(reach, log peak) of |psi_inf(x_sup; k)|^2 over k >= a by brute
    force.  The reach is the first point of a 0.01 sqrt(b) grid from a
    past which ln psi_inf^2 stays below the grid's maximum plus ln rel;
    the log peak is that maximum refined by golden section within a grid
    step (ln psi^2 is concave on each lobe).  The grid ends 1 + sqrt(-ln
    rel) scaled units past both a and the last turning point
    sqrt(2j - 1), beyond which the log falls faster than -(s - s_peak)^2."""
    rb, step = math.sqrt(b), 0.01 * math.sqrt(b)
    end = (max(a, b * x_sup + rb * math.sqrt(2 * j - 1))
           + rb * (1.0 + math.sqrt(-math.log(rel))))
    grid = np.arange(a, end, step)

    def log_sq(k):
        with np.errstate(divide="ignore"):
            return np.log(psi_inf(j, k, x_sup, b) ** 2)
    vals = log_sq(grid)
    top = int(np.argmax(vals))
    above = np.nonzero(vals >= vals[top] + math.log(rel))[0][-1]
    assert above + 1 < len(grid), "psi_reach: grid ends above the cut"
    lo, hi = max(a, grid[top] - step), grid[top] + step
    golden = 0.5 * (math.sqrt(5.0) - 1.0)
    for _ in range(80):
        m1, m2 = hi - golden * (hi - lo), lo + golden * (hi - lo)
        lo, hi = (m1, hi) if log_sq(m1) < log_sq(m2) else (lo, m2)
    return float(grid[above + 1]), max(vals[top], log_sq(lo), log_sq(hi))


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


def kms_count_ratio(interval: IntervalSpec, m: float, s: float) -> float:
    """n_+(s; g)/m for the sinc family at scale m, counted on the
    Nystrom matrix g_sinc exponentiates.

    Tends to |window|/pi for s in (0, 1) and to 0 for s > 1: the
    spectrum piles up at 0 and 1 like a Fermi profile.
    """
    if s <= 0 or s == 1.0:
        raise ValueError("threshold must be positive and away from 1")
    return count_above(g_sinc(interval, m).kernel, s).count / m


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


def diag_count_limit(xi: float, delta: float, R: float) -> float:
    """The large-m limit e R kappa((xi + delta)_+ / (e R)) of the diagonal
    surrogate's counting ratio."""
    return math.e * R * kappa(max(xi + delta, 0.0) / (math.e * R))


def hermite_tails(n_max: int, t: float) -> list:
    """int_t^inf phi_n(u)^2 du for the normalized Hermite functions
    phi_n = H_n e^{-u^2/2} / sqrt(2^n n! sqrt(pi)), n = 0..n_max, from
    1/2 erfc(t) and the tail identity

        int_t^inf phi_n^2 = int_t^inf phi_{n-1}^2
                            + phi_n(t) phi_{n-1}(t) / sqrt(2n).

    H_n comes from scipy.special.  For t above the largest zero of
    phi_n every term is positive, so deep tails keep full relative
    accuracy."""
    phis = [eval_hermite(n, t) * math.exp(-0.5 * t * t)
            / math.sqrt(2.0 ** n * math.factorial(n) * math.sqrt(math.pi))
            for n in range(n_max + 1)]
    tails = [0.5 * math.erfc(t)]
    for n in range(1, n_max + 1):
        tails.append(tails[-1] + phis[n] * phis[n - 1] / math.sqrt(2 * n))
    return tails


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
    *_, p = _hermite_levels(j, t)
    return float(np.sum(w * p * p))


def gauss_hermite_gram(j_max: int, nodes: int = 200) -> np.ndarray:
    """Gram matrix of phi_1..phi_{j_max} under Gauss-Hermite quadrature."""
    t, w = np.polynomial.hermite.hermgauss(nodes)
    polys = np.vstack(list(_hermite_levels(j_max, t)))
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


def full_exp_sinc_kernel(eta, m, sinc_scale, k):
    """Dense kernel e^{eta m (k+k')} sin(s(k-k'))/(pi(k-k')) 2sqrt(kk')/(k+k')
    with s = sinc_scale, on the whole (n, n) matrix at once, each temporary
    a full matrix.

    The closed form the rectangle Gram reduces to at b = 0: the Gram of
    gamma_gram over (alpha, beta) x (-L, L) with the Gaussian factor off
    equals this kernel at eta = beta minus the same at eta = alpha, with
    sinc scale mL.  At eta = 0 it is modelops.sinc_kernel bit for bit
    (e^0 osc = osc).  Linear scale: keep eta m (k+k') under the overflow
    line."""
    k = np.asarray(k, dtype=float)
    tau = k[:, None] - k[None, :]
    ssum = k[:, None] + k[None, :]
    geo = 2.0 * np.sqrt(np.outer(k, k)) / ssum
    osc = (sinc_scale / math.pi) * np.sinc(sinc_scale * tau / math.pi)
    return np.exp(eta * m * ssum) * osc * geo


def full_sinc_dense(interval, scale):
    """(points, weights, kernel) of modelops.g_sinc, the kernel evaluated
    on the whole matrix at once and the root weights multiplied into a
    new matrix, (sqrt(w_i) K_ij) sqrt(w_j)."""
    pts, wts = sinc_rule(interval, scale)
    kern = full_exp_sinc_kernel(0.0, 1.0, scale, pts)
    root = np.sqrt(wts)
    return pts, wts, root[:, None] * kern * root[None, :]


def from_dense(m) -> LogHermitian:
    """The dense Hermitian matrix m in log form: ln|m_ij|, -inf at an
    exact zero, and the phase angle(m_ij)."""
    m = np.asarray(m)
    log_mag = np.asarray(np.abs(m), dtype=float)
    with np.errstate(divide="ignore"):
        np.log(log_mag, out=log_mag)
    return LogHermitian(log_mag, np.asarray(np.angle(m), dtype=float))


def whole_matrix_check_hermitian(m, rtol=1e-12):
    """The dense Hermitian check on whole (n, n) temporaries:
    max|M - M^*| <= rtol max|M|."""
    scale = np.abs(m).max() if m.size else 0.0
    if scale and np.abs(m - m.conj().T).max() > rtol * scale:
        raise ValueError("matrix is not Hermitian within tolerance")


def complex_check_hermitian(logm, rtol=1e-12):
    """LogHermitian.check_hermitian with the phase test in complex
    arithmetic, |e^{i phi_ij} - e^{-i phi_ji}| <= 1e-10."""
    lm, ph = logm.log_mag, logm.phase
    zero = np.isneginf(lm)
    if not np.array_equal(zero, zero.T):
        raise ValueError("zero pattern of log-magnitude matrix is not symmetric")
    with np.errstate(invalid="ignore"):
        diff = np.abs(np.where(zero, 0.0, lm - lm.T))
    scale = np.maximum(1.0, np.where(zero, 0.0, np.abs(lm)))
    if np.any(diff > rtol * scale):
        raise ValueError("log-magnitude matrix is not symmetric")
    resid = np.abs(np.exp(1j * ph) - np.exp(-1j * ph.T))
    if np.any(resid[~zero] > 1e-10):
        raise ValueError("phase matrix is not antisymmetric")
