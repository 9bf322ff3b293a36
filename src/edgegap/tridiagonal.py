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
(_pivot_rows), from base in chunks of rows, C-contiguous, so each row
of a sweep is one contiguous numpy call.  A twisted factorization runs
its forward and backward sweeps in one row loop, the backward lanes
beside the forward ones on the rows mirrored from the bottom wall, and
then finds its twist, rows in order.  Rayleigh-quotient iteration holds
one such (n, 2 lanes) array, a lane block's forward and backward
pivots, and refills it for every block and step.
Each lane's vector is passed, once, on the Rayleigh step where it
converges, to a reducer that keeps what the caller needs of it: the
vector, its curvature sum, or its values at a few points.

A lane's result does not depend on the other lanes of its batch: lanes
stop on their own, sums run pairwise along contiguous rows, no BLAS
product is used, and every sweep is one numpy implementation, whose
row operations are a lane's IEEE operations in its own order.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceFailure

# most lanes refined at once, which bounds the two (n, lanes) pivot arrays
# of a twisted factorization to 3 MB each (n = 2001)
_LANE_BLOCK = 192
# the pivot rows beta of every sweep are formed from base in chunks of at
# most _CHUNK_ENTRIES numbers and never fewer than _CHUNK rows: a sweep of
# a few lanes forms all its rows in one call, a wide one 64 rows at a time
_CHUNK = 64
_CHUNK_ENTRIES = 2 ** 14
# lanes whose Rayleigh quotients are taken, and whose vectors are reduced,
# at a time: their few (lanes, n) temporaries stay small beside the pivot
# arrays that refine keeps (0.26 MB each at n = 2001)
_QUOTIENT_LANES = 16
# bisection stops once the level is isolated and its bracket is below
# this fraction of 1 + |E|; Rayleigh-quotient iteration finishes it
_BRACKET_REL = 1e-4
_MAX_HALVINGS = 64
# a lane's Rayleigh-quotient iteration stops once its shift moved by less
# than this fraction of 1 + |E|: the new quotient is then within ~1e-16
# of the eigenvalue and the vector within ~1e-8 of the eigenvector
_RQI_REL = 1e-8
_MAX_RQI = 8


def _chunks(n, columns):
    """(lo, hi) row ranges of a sweep over n grid rows and `columns`
    pivot columns, at most _CHUNK_ENTRIES entries but never fewer than
    _CHUNK rows each."""
    rows = max(_CHUNK, _CHUNK_ENTRIES // columns)
    return [(lo, min(lo + rows, n)) for lo in range(0, n, rows)]


def _pivot_rows(base, p, ik, shift, lo, hi, mirrored=False):
    """beta = 2 + (base - shift)/p on grid rows lo:hi, C-contiguous, one
    column per lane: column ik[l] of base (n, K) at shift[l].  With
    mirrored, beta has 2 len(ik) columns: those lanes, then the same lanes
    on as many rows counted from the bottom wall, n - 1 - lo downward
    (the steps of a backward sweep).  The one place where pivot rows are
    formed."""
    rows = base[lo:hi]
    if mirrored:
        n, lanes = len(base), len(ik)
        beta = np.empty((hi - lo, 2 * lanes))
        np.subtract(np.take(rows, ik, axis=1), shift, out=beta[:, :lanes])
        np.subtract(np.take(base[n - hi:n - lo], ik, axis=1), shift,
                    out=beta[::-1, lanes:])
    else:
        beta = np.take(rows, ik, axis=1)
        beta -= shift
    beta /= p
    beta += 2.0
    return beta


def _inverse_pivots(beta, inv=None, out=None):
    """1/rho (rows, lanes) of the LDL^T pivots D_i = p rho_i of T - sigma
    eliminated from the first row, T = tridiag(-p, 2p + base, -p), in out
    if given.

    beta = 2 + (base - sigma)/p, one column per lane, and
    rho_i = beta_i - 1/rho_{i-1}, continued from the inverses inv of the
    row above (default the wall, rho_{-1} = inf): one numpy subtraction
    and reciprocal per row, which are each lane's IEEE operations in its
    own order.  Where T lies above sigma, rho_i = z_{i+1}/z_i > 1 is the
    ratio by which a solution grows away from the wall.  A zero pivot
    gives inf and its successor -inf.
    """
    rows, lanes = beta.shape
    inv = np.zeros(lanes) if inv is None else inv
    out = np.empty((rows, lanes)) if out is None else out
    # rho goes through its own buffer: an in-place reciprocal costs about
    # 0.3 us more a row at one lane (numpy 2.4), and the bits are the same
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
    the negative pivots of _inverse_pivots, run over chunks of rows.
    base is (n, K), lam (K, M): lane (k, m) is column k at shift
    lam[k, m].
    """
    ik = np.repeat(np.arange(lam.shape[0]), lam.shape[1])
    shift = lam.ravel()
    neg = np.zeros(lam.size, dtype=np.intp)
    inv = None
    for lo, hi in _chunks(len(base), lam.size):
        inv = _inverse_pivots(_pivot_rows(base, p, ik, shift, lo, hi), inv)
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
    c_lo, c_hi = np.split(
        sturm_counts(base, p, np.concatenate((lo, hi), axis=1)), 2, axis=1)
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


def _twisted(base, p, ik, shift, work=None):
    """(1/rho+, 1/rho-, r): inverse forward and backward pivots (n, lanes)
    of T - shift, lane l the matrix of column ik[l] of base at shift[l],
    and, per lane, the twist r = argmin |gamma_r| with
    gamma_r / p = rho+_r + rho-_r - beta_r (Dhillon & Parlett, LAA 387,
    2004), ties to the lowest row.  The solution of
    (T - sigma) z = gamma_r e_r with z_r = 1 is z_i = z_{i+1} / rho+_i
    left of r and z_i = z_{i-1} / rho-_i right of it: each factor comes
    from the wall on its side, where z grows.

    Both sweeps run in one row loop over the 2 len(ik) columns of work
    (n, 2 len(ik)), allocated if not given: row s takes the forward
    pivots of grid row s and, beside them, the backward pivots of grid
    row n - 1 - s.  The twist is then found from both, rows in order.
    The pivots returned are views of work, the backward ones in grid row
    order.
    """
    n, lanes = base.shape[0], len(ik)
    if work is None:
        work = np.empty((n, 2 * lanes))
    inv_f, inv_b = work[:, :lanes], work[::-1, lanes:]
    best = np.full(lanes, np.inf)
    r = np.zeros(lanes, dtype=np.intp)
    last = None
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo, hi in _chunks(n, 2 * lanes):
            beta = _pivot_rows(base, p, ik, shift, lo, hi, mirrored=True)
            last = _inverse_pivots(beta, last, work[lo:hi])[-1]
        for lo, hi in _chunks(n, lanes):
            gamma = np.abs(1.0 / inv_f[lo:hi] + 1.0 / inv_b[lo:hi]
                           - _pivot_rows(base, p, ik, shift, lo, hi))
            at = np.argmin(gamma, axis=0)
            low = np.take_along_axis(gamma, at[None], axis=0)[0]
            better = low < best
            best = np.where(better, low, best)
            r = np.where(better, lo + at, r)
    return inv_f, inv_b, r


def _twisted_vectors(base, p, ik, shift, work=None):
    """Eigenvector estimates z (n, lanes), z_r = 1, from one twisted
    factorization at each lane's shift (see _twisted, which takes work),
    built in place of the forward pivots.  A lane whose exact zero pivot
    (see log_vectors) gives inf * 0 = NaN takes log_vectors' unit vector."""
    inv_f, inv_b, r = _twisted(base, p, ik, shift, work)
    idx = np.arange(len(inv_f))[:, None]
    inv_f[idx >= r] = 1.0
    inv_b[idx <= r] = 1.0
    with np.errstate(invalid="ignore"):
        np.cumprod(inv_f[::-1], axis=0, out=inv_f[::-1])
        np.cumprod(inv_b, axis=0, out=inv_b)
    inv_f *= inv_b
    bad = np.isnan(inv_f[0]) | np.isnan(inv_f[-1])
    if bad.any():
        log_z, sign = log_vectors(base[:, ik[bad]], p, shift[bad])
        inv_f[:, bad] = (sign * np.exp(log_z)).T
    return inv_f


def log_vectors(base, p, shift):
    """(ln|v|, sign v), each (K, n), of the unit eigenvectors from one
    twisted factorization of each column of base (n, K) at its shift
    (K,), with no product formed: ln|z| sums ln|1/rho| from the twist
    outward, so the tails keep their relative accuracy far below the
    double range.  An exact zero pivot (1/rho = +-inf, then -+0 at a
    node of v, past which z = -z before it) adds 0 to ln|z|, one sign
    flip, and ln 0 = -inf at the node."""
    inv_f, inv_b, r = _twisted(base, p, np.arange(base.shape[1]), shift)
    idx = np.arange(len(inv_f))[:, None]
    left, right = idx < r, idx > r
    with np.errstate(divide="ignore"):
        log_f = np.log(np.abs(np.where(left, inv_f, 1.0)))
        log_b = np.log(np.abs(np.where(right, inv_b, 1.0)))
    node = np.isneginf(log_f) | np.isneginf(log_b)
    for log in (log_f, log_b):
        log[np.isinf(log)] = 0.0
    log_z = np.cumsum(log_f[::-1], axis=0)[::-1] + np.cumsum(log_b, axis=0)
    log_z[node] = -np.inf
    flips = (np.cumsum((left & np.signbit(inv_f))[::-1], axis=0)[::-1]
             + np.cumsum(right & np.signbit(inv_b), axis=0))
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


def keep_vectors(v, ik, im):
    """refine's reducer that keeps the unit vectors themselves, kept[k, m]
    (n,)."""
    return v


def keep_curvature(v, ik, im):
    """refine's reducer that keeps the curvature sum
    sum_i ((v_{i+1} - v_i) - (v_i - v_{i-1}))^2 (zero walls) of each unit
    vector, kept[k, m] a number."""
    d2 = np.diff(_gradient(v), axis=1)
    d2 *= d2
    return d2.sum(axis=1)


def _settled(new, old):
    """Lanes whose Rayleigh-quotient shift moved by at most
    _RQI_REL (1 + |E|)."""
    return np.abs(new - old) <= _RQI_REL * (1.0 + np.abs(new))


def refine(base, p, sigma, keep=None):
    """(energies, kept) by Rayleigh-quotient iteration from the shifts
    sigma (K, M) on the columns of base (n, K).

    Each step is one twisted factorization at the lane's shift, and the
    Rayleigh quotient of its vector is the next shift.  A lane stops once
    its shift moved by less than _RQI_REL (1 + |E|); its energy is that
    last quotient.  keep is None or a reducer, a function
    (v, ik, im) -> rows such as keep_vectors or keep_curvature.  On the
    step where a lane stops, its unit-normalized vector, a row of
    v (lanes, n) with the lane's momentum column ik and level index im,
    is passed to the reducer, and kept[k, m] (K, M, ...) holds the
    lane's row of what it returns (kept None for keep None).
    Lanes run in blocks of _LANE_BLOCK.  The working set is the two pivot
    arrays of one block's twisted factorization, allocated once and
    filled by every block and step, so a fresh process does not fault
    new pages in for each; quotients are taken and the reducer called
    _QUOTIENT_LANES lanes at a time.  A lane's result does not depend on
    its block.
    """
    sigma = sigma.astype(float)
    kept = None
    work = np.empty((base.shape[0], 2 * min(_LANE_BLOCK, sigma.size)))
    active = np.ones(sigma.shape, dtype=bool)
    for _ in range(_MAX_RQI):
        lanes = np.nonzero(active)
        for lo in range(0, len(lanes[0]), _LANE_BLOCK):
            ik, im = (x[lo:lo + _LANE_BLOCK] for x in lanes)
            z = _twisted_vectors(base, p, ik, sigma[ik, im],
                                 work[:, :2 * len(ik)])
            new = np.empty(len(ik))
            for c in range(0, len(ik), _QUOTIENT_LANES):
                part = slice(c, c + _QUOTIENT_LANES)
                v = np.ascontiguousarray(z[:, part].T)
                new[part], norm2 = _rayleigh_quotients(base, p, v, ik[part])
                done = _settled(new[part], sigma[ik[part], im[part]])
                if keep is not None and done.any():
                    if not done.all():
                        v, norm2 = v[done], norm2[done]
                    v /= np.sqrt(norm2)[:, None]
                    at = ik[part][done], im[part][done]
                    rows = keep(v, *at)
                    if kept is None:
                        kept = np.empty(sigma.shape + rows.shape[1:])
                    kept[at] = rows
                    del rows
                del v
            del z
            done = _settled(new, sigma[ik, im])
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
    refine's reducer keep returns.  An energy outside its bracket belongs
    to another level and raises ConvergenceFailure."""
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
    _, vec = certified_levels(col, p, np.array([[level]]), lo, hi,
                              keep_vectors)
    energy = rayleigh_quotient(base, p, vec[0, 0])
    log_v, sign = log_vectors(col, p, np.array([energy]))
    return energy, log_v[0], sign[0]
