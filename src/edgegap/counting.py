"""Eigenvalue counting for Hermitian matrices, including severely graded ones.

Counts n_+(s; M) = #{eigenvalues > s} either by a dense double-precision
eigendecomposition (route "double_eig") or by Sylvester inertia of
M - sI through a pivoted LDL^* factorization in arbitrary precision
(route "hp_inertia").  The high-precision route accepts matrices in
log-magnitude + phase form whose entries span hundreds of orders of
magnitude; exponentiation happens only inside the factorization at the
working precision, so nothing overflows on the way in.

Before factoring, hp_inertia equilibrates by a diagonal congruence: it
factors S(M - sI)S with S = diag(2^-e_i) chosen by log-domain symmetric
Ruiz sweeps, which has the inertia of M - sI for any positive diagonal
S (Sylvester's law).  Grading then no longer shows up as small pivots,
so the pivot test flags only matrices that stay ill-conditioned after
scaling, and graded matrices certify on the first 128-bit rung.  The
reported margin is the smallest relative pivot of the equilibrated
matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PrecisionExhausted

_ALPHA = (1.0 + math.sqrt(17.0)) / 8.0  # Bunch-Kaufman pivot constant
_TIE_RTOL = 1e-8
_PIVOT_ESCALATE = 2.0 ** -20
# double eigensolvers resolve a threshold s only when the matrix norm is
# within ~30 nats of it (backward error ~ ||M|| * 1e-16)
_DOUBLE_HEADROOM_NATS = 30.0
_LADDER = (128, 256, 512, 1024, 2048)
# each symmetric Ruiz sweep about halves a row's log excess, so a grading
# of 700 nats settles in ~12 sweeps; 0.5 nats is finer than the ln 2
# rounding of the scales that follows
_RUIZ_SWEEPS = 60
_RUIZ_TOL = 0.5


@dataclass(frozen=True)
class CountingReport:
    """Result of a threshold count.

    margin is the smallest |eigenvalue - threshold| on the double_eig
    route; on hp_inertia it is the smallest relative pivot magnitude of
    the factorization of the equilibrated matrix S(M - sI)S, a
    conservative proxy for distance to a tie.
    """

    threshold: float
    count: int
    route: str
    precision_bits: int
    margin: float
    warnings: tuple = ()


class LogHermitian:
    """Hermitian matrix stored as entrywise log-magnitude and phase.

    log_mag is symmetric (with -inf for exact zeros) and phase
    antisymmetric, so the represented matrix exp(log_mag) * e^{i phase}
    is Hermitian.  Real symmetric matrices carry phases in {0, pi}.
    """

    def __init__(self, log_mag, phase=None):
        log_mag = np.asarray(log_mag, dtype=float)
        if phase is None:
            phase = np.zeros_like(log_mag)
        phase = np.asarray(phase, dtype=float)
        if log_mag.shape != phase.shape or log_mag.ndim != 2 or \
                log_mag.shape[0] != log_mag.shape[1]:
            raise ValueError("log_mag and phase must be equal square matrices")
        self.log_mag = log_mag
        self.phase = phase

    @property
    def n(self) -> int:
        return self.log_mag.shape[0]

    @property
    def max_log(self) -> float:
        finite = self.log_mag[np.isfinite(self.log_mag)]
        return float(finite.max()) if finite.size else -math.inf

    def check_hermitian(self, rtol: float = 1e-12) -> None:
        lm, ph = self.log_mag, self.phase
        zero = np.isneginf(lm)
        if not np.array_equal(zero, zero.T):
            raise ValueError("zero pattern of log-magnitude matrix is not symmetric")
        with np.errstate(invalid="ignore"):  # -inf minus -inf inside the mask
            diff = np.abs(np.where(zero, 0.0, lm - lm.T))
        scale = np.maximum(1.0, np.where(zero, 0.0, np.abs(lm)))
        if np.any(diff > rtol * scale):
            raise ValueError("log-magnitude matrix is not symmetric")
        resid = np.abs(np.exp(1j * ph) - np.exp(-1j * ph.T))
        if np.any(resid[~zero] > 1e-10):
            raise ValueError("phase matrix is not antisymmetric")

    def is_real(self) -> bool:
        return bool(np.max(np.abs(np.sin(self.phase))) < 1e-13)

    def negated(self) -> "LogHermitian":
        return LogHermitian(self.log_mag, self.phase + math.pi)

    def to_dense(self) -> np.ndarray:
        mag = np.exp(self.log_mag)
        if self.is_real():
            return mag * np.sign(np.cos(self.phase))
        return mag * np.exp(1j * self.phase)

    @classmethod
    def from_dense(cls, m) -> "LogHermitian":
        m = np.asarray(m)
        with np.errstate(divide="ignore"):
            log_mag = np.log(np.abs(m).astype(float))
        phase = np.angle(m).astype(float)
        return cls(log_mag, phase)


def _check_dense_hermitian(m: np.ndarray, rtol: float = 1e-12) -> None:
    scale = np.abs(m).max() if m.size else 0.0
    if scale and np.abs(m - m.conj().T).max() > rtol * scale:
        raise ValueError("matrix is not Hermitian within tolerance")


def _tie_warnings(eigs: np.ndarray, s: float, count: int):
    tol = _TIE_RTOL * max(1.0, abs(s))
    tied = eigs[np.abs(eigs - s) < tol]
    warns = []
    for ev in tied:
        alt = count - 1 if ev > s else count + 1
        warns.append(f"tie: eigenvalue {ev!r} within {tol:g} of threshold; "
                     f"count could be {count} or {alt}")
    return warns


def _count_double_eig(m: np.ndarray, s: float) -> CountingReport:
    if m.size == 0:
        return CountingReport(s, 0, "double_eig", 53, math.inf)
    eigs = np.linalg.eigvalsh(m)
    count = int((eigs > s).sum())
    margin = float(np.abs(eigs - s).min())
    return CountingReport(s, count, "double_eig", 53, margin,
                          tuple(_tie_warnings(eigs, s, count)))


def _mp_entry_real(log_mag: float, phase: float, exp2: int):
    import mpmath
    if log_mag == -math.inf:
        return mpmath.mpf(0)
    sign = 1 if math.cos(phase) >= 0 else -1
    return sign * mpmath.ldexp(mpmath.exp(mpmath.mpf(log_mag)), exp2)


def _mp_entry_complex(log_mag: float, phase: float, exp2: int):
    import mpmath
    if log_mag == -math.inf:
        return mpmath.mpc(0)
    r = mpmath.ldexp(mpmath.exp(mpmath.mpf(log_mag)), exp2)
    p = mpmath.mpf(phase)
    return mpmath.mpc(r * mpmath.cos(p), r * mpmath.sin(p))


def _equilibrating_exponents(logm: LogHermitian, s: float) -> list:
    """Integers e_i such that S = diag(2^-e_i) equilibrates M - sI.

    Symmetric Ruiz sweeps in the log domain, d_i += max_j(L_ij - d_i - d_j)/2,
    on the entry bounds L_ij = ln|M_ij| and L_ii = ln(|M_ii| + s) >= ln|M_ii - s|,
    bring every row maximum of S(M - sI)S to within _RUIZ_TOL nats of 1
    (the diagonal bound is finite because s > 0).  Rounding d_i to a
    whole multiple of ln 2 makes each scaling a shift of the binary
    exponent, so forming S(M - sI)S adds no rounding at any precision to
    that of the entries of M - sI: a diagonal entry that cancels the
    shift exactly still cancels it.
    """
    bound = logm.log_mag.copy()
    diag = np.diag_indices(logm.n)
    bound[diag] = np.logaddexp(bound[diag], math.log(s))
    d = np.zeros(logm.n)
    for _ in range(_RUIZ_SWEEPS):
        excess = (bound - d[:, None] - d[None, :]).max(axis=1)
        d += 0.5 * excess
        if np.abs(excess).max() <= _RUIZ_TOL:
            break
    return [int(e) for e in np.rint(d / math.log(2.0))]


def _ldl_inertia(logm: LogHermitian, s: float, exps: list):
    """Inertia of S(matrix - s*I)S, S = diag(2^-exps), by Bunch-Kaufman
    LDL^* at the current mpmath working precision.

    By Sylvester's law of inertia this is the inertia of matrix - s*I.
    Lower triangle kept as a list of row lists; returns
    (n_pos, n_neg, n_zero, min_relative_pivot).
    """
    import mpmath
    n = logm.n
    real = logm.is_real()
    entry = _mp_entry_real if real else _mp_entry_complex
    conj = (lambda v: v) if real else mpmath.conj
    lm, ph = logm.log_mag, logm.phase
    s_mp = mpmath.mpf(s)
    a = [[entry(lm[i, j], ph[i, j], -exps[i] - exps[j]) for j in range(i + 1)]
         for i in range(n)]
    for i in range(n):
        a[i][i] = (a[i][i] if real else a[i][i].real) - mpmath.ldexp(s_mp, -2 * exps[i])

    def swap(i, j):
        # symmetric row/column swap in lower-triangular Hermitian storage
        if i == j:
            return
        if i > j:
            i, j = j, i
        for c in range(i):
            a[i][c], a[j][c] = a[j][c], a[i][c]
        for r in range(j + 1, n):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for p in range(i + 1, j):
            a[p][i], a[j][p] = conj(a[j][p]), conj(a[p][i])
        a[i][i], a[j][j] = a[j][j], a[i][i]
        a[j][i] = conj(a[j][i])

    npos = nneg = nzero = 0
    min_rel = math.inf
    k = 0
    while k < n:
        absakk = abs(a[k][k])
        colmax = mpmath.mpf(0)
        r = k
        for i in range(k + 1, n):
            v = abs(a[i][k])
            if v > colmax:
                colmax, r = v, i
        scale = max(absakk, colmax)
        if scale == 0:
            nzero += 1
            k += 1
            continue
        use_two = False
        if absakk >= _ALPHA * colmax:
            pass  # pivot at k
        else:
            rowmax = mpmath.mpf(0)
            for i in range(k, n):
                if i == r:
                    continue
                v = abs(a[r][i]) if i < r else abs(a[i][r])
                if v > rowmax:
                    rowmax = v
            if absakk * rowmax >= _ALPHA * colmax * colmax:
                pass  # pivot at k despite small diagonal: growth is controlled
            elif abs(a[r][r]) >= _ALPHA * rowmax:
                swap(k, r)
            else:
                swap(k + 1, r)
                use_two = True
        if not use_two:
            d = a[k][k] if real else a[k][k].real
            if d == 0:
                # zero diagonal with a nonzero column (only reachable via
                # the rowmax == 0 corner): take a 2x2 pivot instead
                r2, cm2 = k, mpmath.mpf(0)
                for i in range(k + 1, n):
                    v = abs(a[i][k])
                    if v > cm2:
                        cm2, r2 = v, i
                if cm2 > 0:
                    swap(k + 1, r2)
                    use_two = True
                else:
                    nzero += 1
                    k += 1
                    continue
        if not use_two:
            rel = float(abs(d) / max(absakk, abs(a[k][k]), colmax, mpmath.mpf(1e-300)))
            min_rel = min(min_rel, rel)
            if d > 0:
                npos += 1
            elif d < 0:
                nneg += 1
            else:
                nzero += 1
            if d != 0:
                col = [a[i][k] for i in range(k + 1, n)]
                for ii in range(k + 1, n):
                    li = col[ii - k - 1] / d
                    row = a[ii]
                    for jj in range(k + 1, ii + 1):
                        row[jj] -= li * conj(col[jj - k - 1])
                    if not real:
                        row[ii] = mpmath.mpc(row[ii].real, 0)
            k += 1
        else:
            da = a[k][k] if real else a[k][k].real
            db = a[k + 1][k]
            dc = a[k + 1][k + 1] if real else a[k + 1][k + 1].real
            det = da * dc - (db * db if real else abs(db) ** 2)
            tr = da + dc
            block_scale = max(abs(da), abs(dc), abs(db))
            rel = float(mpmath.sqrt(abs(det)) / max(block_scale, mpmath.mpf(1e-300)))
            min_rel = min(min_rel, rel)
            if det > 0:
                if tr > 0:
                    npos += 2
                else:
                    nneg += 2
            elif det < 0:
                npos += 1
                nneg += 1
            else:
                nzero += 1
                if tr > 0:
                    npos += 1
                elif tr < 0:
                    nneg += 1
                else:
                    nzero += 1
            if det != 0:
                colu = [a[i][k] for i in range(k + 2, n)]
                colv = [a[i][k + 1] for i in range(k + 2, n)]
                for ii in range(k + 2, n):
                    u, v = colu[ii - k - 2], colv[ii - k - 2]
                    x = (dc * u - db * v) / det
                    y = (da * v - conj(db) * u) / det
                    row = a[ii]
                    for jj in range(k + 2, ii + 1):
                        row[jj] -= x * conj(colu[jj - k - 2]) + y * conj(colv[jj - k - 2])
                    if not real:
                        row[ii] = mpmath.mpc(row[ii].real, 0)
            k += 2
    return npos, nneg, nzero, min_rel


def _count_hp_inertia(logm: LogHermitian, s: float, precision_cap: int) -> CountingReport:
    import mpmath
    if logm.n == 0:
        return CountingReport(s, 0, "hp_inertia", _LADDER[0], math.inf)
    ladder = [b for b in _LADDER if b <= precision_cap]
    if not ladder:
        raise PrecisionExhausted(f"precision cap {precision_cap} below minimum rung {_LADDER[0]}")
    # the equilibrated rows all peak within about a nat of 1, so 60 guard
    # bits plus the span of the scaled entries fit in the first rung
    exps = _equilibrating_exponents(logm, s)
    history = []
    for idx, bits in enumerate(ladder):
        with mpmath.workprec(bits):
            npos, nneg, nzero, min_rel = _ldl_inertia(logm, s, exps)
        warns = []
        if nzero:
            warns.append(f"{nzero} exactly zero pivot(s); counted as not above threshold")
        history.append((bits, npos, min_rel))
        if min_rel >= _PIVOT_ESCALATE:
            if min_rel < _TIE_RTOL:
                warns.append(f"tie: relative pivot {min_rel:.3e} below {_TIE_RTOL:g}; "
                             f"count could be {npos} or {npos}+-1")
            return CountingReport(s, npos, "hp_inertia", bits, min_rel, tuple(warns))
        if idx == len(ladder) - 1:
            # cap reached with small pivots: accept only a count that is
            # stable across the last two rungs
            if len(history) >= 2 and history[-1][1] == history[-2][1]:
                warns.append(
                    f"small pivots down to rel {min_rel:.3e}; count stable across "
                    f"{history[-2][0]} and {history[-1][0]} bits")
                warns.append(f"tie: count could be {npos} or {npos}+-1")
                return CountingReport(s, npos, "hp_inertia", bits, min_rel, tuple(warns))
            raise PrecisionExhausted(
                f"pivot {min_rel:.3e} below escalation floor at cap {precision_cap} bits "
                f"and counts did not stabilize: {[(b, c) for b, c, _ in history]}")
    raise AssertionError("unreachable")


def count_above(m, s: float, route: str = "auto",
                precision_cap: int = 512) -> CountingReport:
    """n_+(s; M): eigenvalues strictly greater than s.

    m is a dense Hermitian ndarray or a LogHermitian.  Route "auto"
    uses the double eigensolver whenever the entries are representable
    and the matrix norm leaves the threshold ~30 nats of headroom;
    otherwise the arbitrary-precision inertia path runs on the
    equilibrated S(M - sI)S, escalating through the precision ladder
    whenever a pivot falls below 2^-20 of its row scale.
    """
    if s <= 0:
        raise ValueError("threshold s must be positive")
    if isinstance(m, LogHermitian):
        m.check_hermitian()
        logm = m
        if route == "auto":
            usable = logm.max_log < math.log(s) + _DOUBLE_HEADROOM_NATS and logm.max_log < 700.0
            route = "double_eig" if usable else "hp_inertia"
    else:
        m = np.asarray(m)
        _check_dense_hermitian(m)
        logm = None
        if route == "auto":
            route = "double_eig"
    if route == "double_eig":
        dense = m.to_dense() if logm is not None else np.asarray(m)
        return _count_double_eig(dense, s)
    if route == "hp_inertia":
        if logm is None:
            logm = LogHermitian.from_dense(m)
        return _count_hp_inertia(logm, s, precision_cap)
    raise ValueError(f"unknown route {route!r}")


def count_below(m, s: float, route: str = "auto",
                precision_cap: int = 512) -> CountingReport:
    """n_-(s; M) = n_+(s; -M)."""
    if isinstance(m, LogHermitian):
        return count_above(m.negated(), s, route, precision_cap)
    return count_above(-np.asarray(m), s, route, precision_cap)


def n_star(t, s: float, route: str = "auto",
           precision_cap: int = 512) -> CountingReport:
    """n_*(s; T) = n_+(s^2; T^* T) for rectangular T."""
    if s <= 0:
        raise ValueError("threshold s must be positive")
    t = np.asarray(t)
    gram = t.conj().T @ t
    gram = 0.5 * (gram + gram.conj().T)
    return count_above(gram, s * s, route, precision_cap)
