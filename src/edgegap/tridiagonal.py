"""Batched eigensolver for the symmetric tridiagonal matrices of the
fiber operators, T = tridiag(-p, 2p + base, -p), in numpy alone.

Every routine works on lanes: lane (k, m) is column k of base (one
matrix) at its own shift or level m, and a batch advances all lanes one
grid row per numpy call.  Sturm-count bisection (negative pivots of the
LDL^T factorization of T - sigma) isolates each lane's level in a
bracket, which fixes which level is which.  Rayleigh-quotient iteration
then converges it, each step one twisted factorization (Dhillon &
Parlett, LAA 387, 2004): pivot ratios run from both walls, in the
direction where the eigenvector grows, and meet at the twist index.
The same ratios give the eigenvector in log form, so its tails keep
full relative accuracy far below the double range.  Energies are
gradient-form Rayleigh quotients.

The pivot rows beta = 2 + (base - sigma)/p are formed in one place
(_pivot_rows), from base, _CHUNK grid rows at a time, for Sturm counts
and for both sweeps and the twist search of a twisted factorization.
A block of lanes therefore holds two (n, lanes) arrays, its forward
and backward pivots, and the kept vectors are written straight into
the result.

A lane's result does not depend on the other lanes of its batch: lanes
stop on their own, sums run pairwise along contiguous rows, no BLAS
product is used, and small batches run the same IEEE operations as
Python float loops.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceFailure

# sweeps over at most this many lanes run as Python float loops, one lane
# at a time: a 2001-row numpy sweep costs ~3.5 ms at any width up to a few
# hundred lanes, the float loop ~0.33 ms a lane (2 vCPU), and both perform
# the same IEEE operations in the same order, so a lane's bits do not
# depend on the path
_SCALAR_LANES = 12
# most lanes refined at once, which bounds the two (n, lanes) pivot arrays
# of a twisted factorization to 3 MB each (n = 2001)
_LANE_BLOCK = 192
# grid rows (or lanes) per numpy chunk: the pivot rows beta of every sweep
# are formed from base this many rows at a time, and the Rayleigh
# quotients taken this many lanes at a time
_CHUNK = 64
# bisection stops once the level is isolated and its bracket is below
# this fraction of 1 + |E|; Rayleigh-quotient iteration finishes it
_BRACKET_REL = 1e-4
_MAX_HALVINGS = 64
# a lane's Rayleigh-quotient iteration stops once its shift moved by less
# than this fraction of 1 + |E|: the new quotient is then within ~1e-16
# of the eigenvalue and the vector within ~1e-8 of the eigenvector
_RQI_REL = 1e-8
_MAX_RQI = 8


def _pivot_rows(base, p, ik, shift, lo):
    """beta = 2 + (base - shift)/p on grid rows lo:lo + _CHUNK, one column
    per lane: column ik[l] of base (n, K) at shift[l].  The one place
    where pivot rows are formed."""
    rows = base[lo:lo + _CHUNK, ik]
    rows -= shift
    rows /= p
    rows += 2.0
    return rows


def _inverse_pivots(beta, inv=None, out=None):
    """1/rho (rows, lanes) of the LDL^T pivots D_i = p rho_i of T - sigma
    eliminated from the first row, T = tridiag(-p, 2p + base, -p), in out
    if given.

    beta = 2 + (base - sigma)/p, one column per lane, and
    rho_i = beta_i - 1/rho_{i-1}, continued from the inverses inv of the
    row above (default the wall, rho_{-1} = inf).  Where T lies above
    sigma, rho_i = z_{i+1}/z_i > 1 is the ratio by which a solution grows
    away from the wall.  A zero pivot gives inf and its successor -inf,
    on the Python path as in numpy.
    """
    rows, lanes = beta.shape
    inv = np.zeros(lanes) if inv is None else inv
    out = np.empty((rows, lanes)) if out is None else out
    if lanes <= _SCALAR_LANES:
        cols = []
        for col, x in zip(beta.T.tolist(), inv.tolist()):
            for b in col:
                rho = b - x
                try:
                    x = 1.0 / rho
                except ZeroDivisionError:
                    x = math.copysign(math.inf, rho)
                cols.append(x)
        out[...] = np.array(cols).reshape(lanes, rows).T
        return out
    tmp = np.empty(lanes)
    subtract, reciprocal = np.subtract, np.reciprocal
    with np.errstate(divide="ignore"):
        for b, row in zip(beta, out):
            subtract(b, inv, tmp)
            reciprocal(tmp, row)
            inv = row
    return out


def sturm_counts(base, p, lam):
    """Eigenvalues of T = tridiag(-p, 2p + base, -p) below lam, per lane:
    the negative pivots of _inverse_pivots, run over _CHUNK rows at a
    time.  base is (n, K), lam (K, M): lane (k, m) is column k at shift
    lam[k, m].
    """
    ik = np.repeat(np.arange(lam.shape[0]), lam.shape[1])
    shift = lam.ravel()
    neg = np.zeros(lam.size, dtype=np.intp)
    inv = None
    for lo in range(0, len(base), _CHUNK):
        inv = _inverse_pivots(_pivot_rows(base, p, ik, shift, lo), inv)
        neg += np.count_nonzero(inv < 0.0, axis=0)
        inv = inv[-1]
    return neg.reshape(lam.shape)


def isolate(base, p, level, lo, hi, width=math.inf):
    """Brackets [lo, hi) holding eigenvalue number `level` of each lane alone.

    Lane (k, m) of base (n, K) and lo, hi (K, M) is checked by two Sturm
    counts: exactly level - 1 eigenvalues below lo and level below hi.
    A lane whose start bracket fails restarts from its Gershgorin
    interval.  Bisection then runs until every lane is isolated and its
    bracket is narrower than width (1 + |hi|); each lane stops on its
    own, so its bracket does not depend on the other lanes.
    """
    level = np.broadcast_to(level, lo.shape)
    c_lo, c_hi = (sturm_counts(base, p, x) for x in (lo, hi))
    bad = (c_lo >= level) | (c_hi < level)
    if bad.any():
        # every eigenvalue lies within 2p of the diagonal 2p + base
        g_lo = base.min(axis=0)[:, None]
        g_hi = base.max(axis=0)[:, None] + 4.0 * p + 1.0
        lo, hi = np.where(bad, g_lo, lo), np.where(bad, g_hi, hi)
        c_lo, c_hi = np.where(bad, 0, c_lo), np.where(bad, base.shape[0], c_hi)
    for _ in range(_MAX_HALVINGS):
        done = ((c_lo == level - 1) & (c_hi == level)
                & (hi - lo <= width * (1.0 + np.abs(hi))))
        if done.all():
            return lo, hi
        mid = 0.5 * (lo + hi)
        c = sturm_counts(base, p, mid)
        up, down = ~done & (c >= level), ~done & (c < level)
        hi, c_hi = np.where(up, mid, hi), np.where(up, c, c_hi)
        lo, c_lo = np.where(down, mid, lo), np.where(down, c, c_lo)
    raise ConvergenceFailure("bisection did not isolate a fiber level")


def _twisted(base, p, ik, shift):
    """(1/rho+, 1/rho-, r): inverse forward and backward pivots (n, lanes)
    of T - shift, lane l the matrix of column ik[l] of base at shift[l],
    and, per lane, the twist r = argmin |gamma_r| with
    gamma_r / p = rho+_r + rho-_r - beta_r (Dhillon & Parlett, LAA 387,
    2004).  The solution of (T - sigma) z = gamma_r e_r with z_r = 1 is
    z_i = z_{i+1} / rho+_i left of r and z_i = z_{i-1} / rho-_i right of
    it: each factor comes from the wall on its side, where z grows.

    The pivot rows beta are formed from base _CHUNK rows at a time, for
    the forward sweep, the backward sweep and the twist search alike, so
    the two pivot arrays are the only (n, lanes) arrays.
    """
    n, lanes = base.shape[0], len(ik)
    inv_f, inv_b = np.empty((n, lanes)), np.empty((n, lanes))
    chunks = range(0, n, _CHUNK)
    inv = None
    for lo in chunks:
        inv = _inverse_pivots(_pivot_rows(base, p, ik, shift, lo), inv,
                              inv_f[lo:lo + _CHUNK])[-1]
    inv = None
    for lo in reversed(chunks):
        inv = _inverse_pivots(_pivot_rows(base, p, ik, shift, lo)[::-1], inv,
                              inv_b[lo:lo + _CHUNK][::-1])[-1]
    best = np.full(lanes, np.inf)
    r = np.zeros(lanes, dtype=np.intp)
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in chunks:
            rows = slice(lo, lo + _CHUNK)
            gamma = np.abs(1.0 / inv_f[rows] + 1.0 / inv_b[rows]
                           - _pivot_rows(base, p, ik, shift, lo))
            at = np.argmin(gamma, axis=0)
            low = np.take_along_axis(gamma, at[None], axis=0)[0]
            # strict: the first minimum wins, as in one argmin
            better = low < best
            best = np.where(better, low, best)
            r = np.where(better, lo + at, r)
    return inv_f, inv_b, r


def _twisted_vectors(base, p, ik, shift):
    """Eigenvector estimates z (n, lanes), z_r = 1, from one twisted
    factorization at each lane's shift (see _twisted), built in place of
    the forward pivots."""
    inv_f, inv_b, r = _twisted(base, p, ik, shift)
    idx = np.arange(len(inv_f))[:, None]
    inv_f[idx >= r] = 1.0
    inv_b[idx <= r] = 1.0
    np.cumprod(inv_f[::-1], axis=0, out=inv_f[::-1])
    np.cumprod(inv_b, axis=0, out=inv_b)
    inv_f *= inv_b
    return inv_f


def log_vectors(base, p, shift):
    """(ln|v|, sign v), each (K, n), of the unit eigenvectors from one
    twisted factorization of each column of base (n, K) at its shift
    (K,), with no product formed: ln|z| sums ln|1/rho| from the twist
    outward, so the tails keep their relative accuracy far below the
    double range."""
    inv_f, inv_b, r = _twisted(base, p, np.arange(base.shape[1]), shift)
    idx = np.arange(len(inv_f))[:, None]
    left, right = idx < r, idx > r
    log_z = (np.cumsum(np.log(np.abs(np.where(left, inv_f, 1.0)))[::-1],
                       axis=0)[::-1]
             + np.cumsum(np.log(np.abs(np.where(right, inv_b, 1.0))), axis=0))
    flips = (np.cumsum((left & (inv_f < 0.0))[::-1], axis=0)[::-1]
             + np.cumsum(right & (inv_b < 0.0), axis=0))
    log_z = np.ascontiguousarray(log_z.T)
    sign = np.ascontiguousarray(np.where(flips % 2, -1.0, 1.0).T)
    top = log_z.max(axis=1, keepdims=True)
    log_z -= top + 0.5 * np.log(
        np.exp(2.0 * (log_z - top)).sum(axis=1, keepdims=True))
    return log_z, sign


def _gradient(v):
    """First differences (lanes, n + 1) of the rows v (lanes, n) with zero
    walls, np.diff(v, prepend=0.0, append=0.0) without its padded copy."""
    grad = np.empty((v.shape[0], v.shape[1] + 1))
    np.subtract(v[:, :1], 0.0, out=grad[:, :1])
    np.subtract(v[:, 1:], v[:, :-1], out=grad[:, 1:-1])
    np.subtract(0.0, v[:, -1:], out=grad[:, -1:])
    return grad


def _rayleigh_quotients(base, p, v, ik):
    """(Rayleigh quotients, squared norms) of the rows v (lanes, n) for
    T = tridiag(-p, 2p + base[:, ik], -p).

    The gradient form p sum (v_{i+1} - v_i)^2 + sum base_i v_i^2 (zero
    walls) never forms the O(p) terms that cancel: every term is
    nonnegative where the potential is, so the sums keep a relative
    accuracy of about log2(n) eps.  They are pairwise sums along
    contiguous rows, the same for a lane whatever its batch.  The
    products are taken in place: at most three arrays the size of v.
    """
    grad = _gradient(v)
    grad *= grad
    kinetic = grad.sum(axis=1)
    del grad
    work = np.multiply(v, v)
    norm2 = work.sum(axis=1)
    np.multiply(base[:, ik].T, v, out=work)
    work *= v
    return (p * kinetic + work.sum(axis=1)) / norm2, norm2


def refine(base, p, sigma, keep=None):
    """(energies, kept) by Rayleigh-quotient iteration from the shifts
    sigma (K, M) on the columns of base (n, K).

    Each step is one twisted factorization at the lane's shift, and the
    Rayleigh quotient of its vector is the next shift.  A lane stops once
    its shift moved by less than _RQI_REL (1 + |E|); its energy is that
    last quotient.  Of the unit-normalized vector it came from, kept
    holds nothing (keep None, kept None), the vector itself in
    kept[k, m] (K, M, n) (keep "vectors"), or its curvature
    sum_i ((v_{i+1} - v_i) - (v_i - v_{i-1}))^2, zero walls, in
    kept[k, m] (K, M) (keep "curvature").  Lanes run in blocks of
    _LANE_BLOCK, whose working set is the two pivot arrays of their
    twisted factorization; quotients are taken and vectors written
    straight into kept _CHUNK lanes at a time.  A lane's result does not
    depend on its block.
    """
    sigma = sigma.astype(float)
    kept = None
    if keep == "vectors":
        kept = np.empty(sigma.shape + (base.shape[0],))
    elif keep == "curvature":
        kept = np.empty(sigma.shape)
    flat = None if kept is None else kept.reshape(sigma.size, -1)
    active = np.ones(sigma.shape, dtype=bool)
    for _ in range(_MAX_RQI):
        lanes = np.nonzero(active)
        for lo in range(0, len(lanes[0]), _LANE_BLOCK):
            ik, im = (x[lo:lo + _LANE_BLOCK] for x in lanes)
            row = ik * sigma.shape[1] + im
            z = _twisted_vectors(base, p, ik, sigma[ik, im])
            new = np.empty(len(ik))
            for c in range(0, len(ik), _CHUNK):
                part = slice(c, c + _CHUNK)
                v = np.ascontiguousarray(z[:, part].T)
                new[part], norm2 = _rayleigh_quotients(base, p, v, ik[part])
                if keep is not None:
                    v /= np.sqrt(norm2)[:, None]
                if keep == "vectors":
                    flat[row[part]] = v
                elif keep == "curvature":
                    d2 = np.diff(_gradient(v), axis=1)
                    d2 *= d2
                    flat[row[part], 0] = d2.sum(axis=1)
                    del d2
                del v
            del z
            done = np.abs(new - sigma[ik, im]) <= _RQI_REL * (1.0 + np.abs(new))
            sigma[ik, im] = new
            active[ik[done], im[done]] = False
        if not active.any():
            return sigma, kept
    raise ConvergenceFailure("Rayleigh-quotient iteration did not converge "
                             "on a fiber level")


def certified_levels(base, p, levels, lo, hi, keep=None):
    """(energies, kept) of the given levels (K, M) of the columns of
    base: bisection from the brackets lo, hi to an isolating bracket,
    then Rayleigh-quotient iteration from its midpoint, keeping what
    refine's keep names.  An energy outside its bracket belongs to
    another level and raises ConvergenceFailure."""
    shape = (base.shape[1],) + np.shape(levels)[1:]
    lo, hi = isolate(base, p, levels, np.broadcast_to(lo, shape),
                     np.broadcast_to(hi, shape), _BRACKET_REL)
    energies, kept = refine(base, p, 0.5 * (lo + hi), keep)
    if np.any((energies < lo) | (energies >= hi)):
        raise ConvergenceFailure("a fiber level left its isolating bracket")
    return energies, kept


def rayleigh_quotient(base, p, v) -> float:
    """v.T T v / v.T v for T = tridiag(-p, 2p + base, -p), Dirichlet walls.

    The gradient form of _rayleigh_quotients summed exactly (fsum), so
    it is within an ulp of the quotient.
    """
    grad = np.diff(np.concatenate(([0.0], v, [0.0])))
    terms = np.concatenate((p * grad * grad, base * v * v))
    return math.fsum(terms.tolist()) / math.fsum((v * v).tolist())


def _tridiagonal_solve(diag, p, cols):
    """Columns x of tridiag(-p, diag, -p) x = cols (lists of floats), by
    Gaussian elimination with partial pivoting (LAPACK dgtsv): the
    matrices it serves are indefinite above the first level."""
    n = len(diag)
    d, du, fill = list(diag), [-p] * (n - 1), [0.0] * n
    bs = [list(c) for c in cols]
    try:
        for i in range(n - 1):
            if abs(d[i]) >= p:
                fact = -p / d[i]
                d[i + 1] -= fact * du[i]
                for b in bs:
                    b[i + 1] -= fact * b[i]
            else:
                # interchange rows i and i + 1
                fact = d[i] / -p
                d[i], temp = -p, d[i + 1]
                d[i + 1] = du[i] - fact * temp
                if i < n - 2:
                    fill[i] = du[i + 1]
                    du[i + 1] = -fact * du[i + 1]
                du[i] = temp
                for b in bs:
                    b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
        for b in bs:
            b[n - 1] /= d[n - 1]
            if n > 1:
                b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
            for i in range(n - 3, -1, -1):
                b[i] = (b[i] - du[i] * b[i + 1] - fill[i] * b[i + 2]) / d[i]
    except ZeroDivisionError:
        raise ConvergenceFailure("singular deflated twin system") from None
    return bs


def deflated_solve(base, p, shift, v, rhs):
    """u with (T - shift) u = rhs and v.T u = 0, T = tridiag(-p, 2p + base, -p).

    T - shift may be singular to every digit along its eigenvector v,
    and rhs is orthogonal to v.  Row and column m of the largest |v_m|
    (the twist index of a twisted factorization) are set aside; the rest
    of T - shift splits into two tridiagonal blocks, well conditioned
    because v_m is large, solved by _tridiagonal_solve.  Then
    u = B^-1 rhs - u_m B^-1 a_m off index m, with a_m = -p at m - 1 and
    m + 1 the rest of column m, and v.T u = 0 fixes u_m.
    """
    n = len(base)
    m = int(np.argmax(np.abs(v)))
    diag = (base + 2.0 * p - shift).tolist()
    rhs = rhs.tolist()
    y, z = np.empty(n - 1), np.empty(n - 1)
    if m > 0:
        left = _tridiagonal_solve(diag[:m], p, (rhs[:m], [0.0] * (m - 1) + [-p]))
        y[:m], z[:m] = left
    if m < n - 1:
        right = _tridiagonal_solve(diag[m + 1:], p,
                                   (rhs[m + 1:], [-p] + [0.0] * (n - m - 2)))
        y[m:], z[m:] = right
    rest = np.delete(v, m)
    u_m = -np.sum(rest * y) / (v[m] - np.sum(rest * z))
    return np.insert(y - u_m * z, m, u_m)


def log_level(base, p, level: int, lo, hi):
    """(energy, ln|v|, sign v) of one level of T = tridiag(-p, 2p + base, -p),
    base (n,): certified by certified_levels, energy the exact-sum
    Rayleigh quotient and the unit vector rebuilt in log form at it."""
    col = base[:, None]
    _, vec = certified_levels(col, p, np.array([[level]]), lo, hi, "vectors")
    energy = rayleigh_quotient(base, p, vec[0, 0])
    log_v, sign = log_vectors(col, p, np.array([energy]))
    return energy, log_v[0], sign[0]
