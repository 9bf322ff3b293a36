"""References for the fiber levels.

Fiber matrix: the tridiagonal (diag, offdiag, h) of the fiber operator
at one momentum, built from the grid offsets s as
2/h^2 + (b s)^2 + W with W the cell averages, the constant w_plus or
zero, and offdiag -1/h^2.  The package's batched base columns
(fiber._bases, fiber._plus_twin) must be its diag - 2/h^2, bit for bit.

Bisection: LAPACK bisection (stebz, with stein vectors) on both grids
of the Richardson pair, each grid's energies taken as exact-sum
gradient-form Rayleigh quotients of its eigenvectors: the quantity the
package's numpy eigensolver computes, from an independent eigensolver.
The package's path must reproduce it to rounding.

Scalar pivot recurrence: rho_i = beta_i - 1/rho_{i-1} in Python floats,
one lane at a time.  The package's numpy row sweeps perform the same
IEEE operations in the same order; they must reproduce its bits,
the +-inf and -+0 of an exact zero pivot included.

Whole-array twisted factorization: the pivot rows beta formed for all
rows at once, three (n, lanes) arrays beside the vectors, and every
active lane of a Rayleigh-quotient step in one batch.  The package forms
beta chunk by chunk and runs lanes in blocks; it must reproduce these
bits exactly.

Per-block resolvent columns: bs_count's kernel columns from whole n-grid
eigenvectors, solved a block of momenta at a time, normalized after the
solve and interpolated onto every support node.  The package
reduces each vector to its support-node values as it converges, in one
batch of every momentum; it must reproduce these bits exactly.

Fine-first twin comparisons: each grid's twin batch solved on its own,
Rayleigh-quotient iteration started from the first-order energy
E_+ - <v_+, D v_+>, and the n_half batch solved after the n batch to
extrapolate the gap.  The package solves the pair coarse first and seeds
the n grid from it; it must reproduce these values to rounding: a
relative 1e-13 on gap_dist, defect and scaled_distance, 4 ulp on
energy_w.  The free fiber's level j solved from the n-grid window at
k = 0 is the reference of the free comparisons' energy.
"""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
from scipy.linalg import eigh_tridiagonal

from edgegap import bsham
from edgegap.errors import ConvergenceFailure
from edgegap.fiber import (_TWIN_CONV_TOL, EdgeComparison,
                           FiberDiscretization, _band_brackets, _bases,
                           _plus_twin, _richardson, _trapezoid_weights)
from edgegap.operators import momentum_rule
from edgegap.tridiagonal import (_CHUNK, _MAX_RQI, _RQI_REL, _inverse_pivots,
                                 certified_levels, deflated_solve, isolate,
                                 keep_curvature, keep_vectors, log_level,
                                 log_vectors, rayleigh_quotient)
from edgegap.tridiagonal import refine as package_refine


def fiber_matrix(disc: FiberDiscretization, k: float, n: int = None,
                 w_plus: float = None):
    """(diag, offdiag, h) of the fiber operator at momentum k on the
    n-point grid k/b + s (default disc.n): h = s[1] - s[0] and
    diag = 2/h^2 + (b s)^2 + W, where W is disc.w's cell averages, the
    constant w_plus when given (the comparison operator, the same matrix
    at every k), or zero for the free fiber."""
    s = disc._offsets(n)
    h = s[1] - s[0]
    pot = np.zeros_like(s)
    if w_plus is not None:
        pot += w_plus
    elif disc.w is not None:
        pot = np.asarray(disc.w.cell_average(k / disc.b + s, h),
                         dtype=float)
    diag = 2.0 / h ** 2 + (disc.b * s) ** 2 + pot
    off = np.full(len(s) - 1, -1.0 / h ** 2)
    return diag, off, h


def grid_levels(disc: FiberDiscretization, k: float, j_max: int, n: int = None):
    """(exact-sum Rayleigh quotients, unit eigenvectors) of the lowest
    j_max levels at momentum k on the n-point grid (default disc.n)."""
    diag, off, _ = fiber_matrix(disc, k, n)
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


def scalar_inverse_pivots(beta, inv=None):
    """1/rho (rows, lanes) of the pivot recurrence rho_i = beta_i - 1/rho_{i-1}
    in Python floats, lane by lane, continued from the inverses inv of
    the row above (default the wall, 1/rho_{-1} = 0).  A zero pivot gives
    1/rho = inf with the zero's sign, and its successor -+0."""
    rows, lanes = beta.shape
    inv = [0.0] * lanes if inv is None else inv.tolist()
    cols = []
    for col, x in zip(beta.T.tolist(), inv):
        for b in col:
            rho = b - x
            try:
                x = 1.0 / rho
            except ZeroDivisionError:
                x = math.copysign(math.inf, rho)
            cols.append(x)
    return np.array(cols).reshape(lanes, rows).T


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


def fiber_vectors(disc: FiberDiscretization, ks, j_max: int):
    """(extrapolated energies (K, j_max), n-grid vectors (K, j_max, n)) of
    solve_fiber: the package's coarse brackets and curvature seeds, then
    refine above on the n grid, and every vector trapezoid-normalized
    after the solve, one level of the whole batch at a time."""
    ks = np.asarray(ks, dtype=float)
    levels = np.arange(1, j_max + 1)[None, :]
    bounds = (disc.w.w_minus_limit, disc.w.w_plus_limit)
    h2, p2, base2 = _bases(disc, ks, disc.n_half)
    coarse, curv = certified_levels(
        base2, p2, levels, *_band_brackets(disc.b, levels, h2, *bounds),
        keep_curvature)
    h, p, base = _bases(disc, ks)
    fine, vecs = refine(base, p, coarse + curv / (16.0 * h2 * h2))
    weights = _trapezoid_weights(disc.n, h)
    for idx in range(j_max):
        v = vecs[:, idx]
        v /= np.sqrt((weights * v * v).sum(axis=1))[:, None]
    return _richardson(fine, coarse)[0], vecs


def resolvent_columns(j: int, j_sum: int, scenario, block: int = 32):
    """(amp, energy) of bsham._resolvent_columns from fiber_vectors,
    solved block momenta at a time, each vector interpolated onto every
    support node."""
    v, b, quad, disc = scenario.v, scenario.b, scenario.quad, scenario.fiber
    k_sym = bsham._full_line_reach(j, b, v)
    xs, _, ws = bsham._support_nodes(v, quad, b, k_sym)
    k_pts, _ = momentum_rule(-k_sym, k_sym, b, v.support, quad)
    root_v = np.sqrt(v.amplitude * ws)
    amp = np.empty((len(xs), len(k_pts) * j_sum))
    energy = np.empty(amp.shape[1])
    for lo in range(0, len(k_pts), block):
        rich, vecs = fiber_vectors(disc, k_pts[lo:lo + block], j_sum)
        for i, k in enumerate(k_pts[lo:lo + block].tolist()):
            grid = k / disc.b + disc._offsets()
            for idx in range(j_sum):
                c = (lo + i) * j_sum + idx
                amp[:, c] = root_v * np.interp(xs, grid, vecs[i, idx],
                                               left=0.0, right=0.0)
                energy[c] = rich[i, idx]
    return amp, energy


def twin_levels(disc: FiberDiscretization, j: int, ks, n: int):
    """Level j of the twin operators at ks on the n-point grid of disc's
    window, solved on its own: Weyl bracket, iteration from the
    first-order energy E_+ - <v_+, D v_+>, log-form vector at the
    pairwise-sum quotient and the twin identity summed in log form."""
    ks = np.asarray(ks, dtype=float)
    plus = _plus_twin(replace(disc, w=None), n, disc.w.w_plus_limit, j)
    base_p, v_plus, log_p, sign_p, e_plus = plus
    _, p, base = _bases(disc, ks, n)
    jump = np.ascontiguousarray((base_p[:, None] - base).T)
    on = jump > 0.0
    pad = 1e-9 * (1.0 + abs(e_plus))
    lo, hi = isolate(base, p, j, (e_plus - jump.max(axis=1) - pad)[:, None],
                     (e_plus - jump.min(axis=1) + pad)[:, None])
    seed = e_plus - (jump * v_plus * v_plus).sum(axis=1)
    shift, vecs = package_refine(base, p, np.clip(seed[:, None], lo, hi),
                                 keep_vectors)
    shift = shift[:, 0]
    assert np.all((shift >= lo[:, 0]) & (shift < hi[:, 0]))
    log_w, sign_w = log_vectors(base, p, shift)
    overlap = (sign_p * sign_w * np.exp(log_p + log_w)).sum(axis=1)
    sign_w *= np.where(overlap < 0.0, -1.0, 1.0)[:, None]
    with np.errstate(divide="ignore"):
        log_dw = np.where(on, np.log(np.where(on, jump, 1.0)) + log_w, -np.inf)
    terms = log_dw + log_p
    top = terms.max(axis=1)
    total = (np.where(on, sign_w * sign_p, 0.0)
             * np.exp(terms - top[:, None])).sum(axis=1)
    log_s = top + np.log(total)
    return SimpleNamespace(p=p, plus=plus, base=base, vectors=vecs[:, 0],
                           sign_w=sign_w, log_dw=log_dw, log_s=log_s,
                           log_gap=log_s - np.log(np.abs(overlap)))


def _extrapolated(disc, j, ks, fine_gap):
    coarse = np.exp(twin_levels(disc, j, ks, disc.n_half).log_gap)
    gap, corr = _richardson(fine_gap, coarse)
    assert np.all(corr <= _TWIN_CONV_TOL * fine_gap)
    return gap


def twin_gaps(disc: FiberDiscretization, j: int, ks):
    """GapModel's node gaps by the fine-first path."""
    fine = np.exp(twin_levels(disc, j, ks, disc.n).log_gap)
    return _extrapolated(disc, j, ks, fine)


def edge_comparisons(disc: FiberDiscretization, j: int, ks):
    """edge_comparisons by the fine-first path: the fine grid's
    comparisons, deflated solve at the exact-sum energy, then the gap
    extrapolated with a separate n_half solve."""
    tw = twin_levels(disc, j, ks, disc.n)
    base_p, v_plus = tw.plus[0], tw.plus[1]
    fine = []
    for i, k in enumerate(np.asarray(ks, dtype=float).tolist()):
        energy = rayleigh_quotient(tw.base[:, i], tw.p, tw.vectors[i])
        scale = float(tw.log_dw[i].max())
        rhs = (tw.sign_w[i] * np.exp(tw.log_dw[i] - scale)
               - math.exp(tw.log_s[i] - scale) * v_plus)
        u = deflated_solve(base_p, tw.p, energy, v_plus, rhs)
        log_defect = 2.0 * scale + math.log(float(np.sum(u * u)))
        defect = math.exp(log_defect)
        log_gap = float(tw.log_gap[i])
        fine.append(EdgeComparison(
            j=j, k=k, gap_dist=math.exp(log_gap),
            overlap=math.exp(0.5 * math.log1p(-defect)), defect=defect,
            scaled_distance=2.0 * math.exp(0.5 * (log_defect - log_gap)),
            energy_w=energy))
    gaps = _extrapolated(disc, j, ks, np.array([c.gap_dist for c in fine]))
    return [replace(c, gap_dist=float(g), scaled_distance=c.scaled_distance
                    * math.sqrt(c.gap_dist / g))
            for c, g in zip(fine, gaps)]


def free_energy(disc: FiberDiscretization, j: int) -> float:
    """Exact-sum energy of level j of the free fiber, solved from the
    n-grid operator at k = 0."""
    h, p, base = _bases(disc, (0.0,))
    return log_level(base[:, 0], p, j,
                     *_band_brackets(disc.b, j, h, 0.0, 0.0))[0]
