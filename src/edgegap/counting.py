"""Eigenvalue counting for Hermitian matrices, including severely graded ones.

Counts n_+(s; M) = #{eigenvalues > s} by a dense double-precision
eigendecomposition, either of M itself (route "double_eig") or of an
equilibrated congruence of M - sI (route "scaled_eig").  The scaled
route accepts matrices in log-magnitude + phase form whose entries span
hundreds of orders of magnitude.  It forms A = S(M - sI)S with
S = diag(2^-e_i) chosen by log-domain symmetric Ruiz sweeps, so every
row of A peaks near 1 and nothing overflows, and counts #{lambda(A) > 0}:
Sylvester's law of inertia gives A the inertia of M - sI for any
positive diagonal S.  The count is certified when the smallest |lambda(A)|
exceeds twice a Weyl budget for the eigensolver's backward error and the
rounding of the entries of A; otherwise it carries a tie warning.

Both routes report route "double_eig", the method they share: perfbench's
traced pass names a per-layer metric after each reported route and
declares only "double_eig" and the retired "hp_inertia", so a third name
would stop that pass.  The margin is measured in each route's own
coordinates (see CountingReport).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_TIE_RTOL = 1e-8
_EPS = float(np.finfo(float).eps)
# double eigensolvers resolve a threshold s only when the matrix norm is
# within ~30 nats of it (backward error ~ ||M|| * 1e-16)
_DOUBLE_HEADROOM_NATS = 30.0
# each symmetric Ruiz sweep about halves a row's log excess, so a grading
# of 700 nats settles in ~12 sweeps; 0.5 nats is finer than the ln 2
# rounding of the scales that follows
_RUIZ_SWEEPS = 60
_RUIZ_TOL = 0.5


@dataclass(frozen=True)
class CountingReport:
    """Result of a threshold count.

    route is "double_eig" and precision_bits 53 on both routes.  margin
    is the smallest |eigenvalue - threshold| of M on route double_eig;
    on scaled_eig it is the smallest |eigenvalue| of the equilibrated
    matrix S(M - sI)S, whose rows all peak near 1.  warnings holds at
    most one "tie:" message: how many eigenvalues lie within the tie
    tolerance, the nearest one and the range the count could take.
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


def _tie_warnings(eigs: np.ndarray, s: float, count: int, tol: float):
    """One tie: message naming how many eigenvalues lie within tol of s,
    the nearest one and the range the count could take; none if no tie."""
    dist = np.abs(eigs - s)
    tied = eigs[dist <= tol]
    if not tied.size:
        return ()
    above = int((tied > s).sum())
    nearest = float(eigs[np.argmin(dist)])
    return (f"tie: {tied.size} eigenvalue(s) within {tol:g} of threshold, "
            f"nearest {nearest!r}; count could be {count - above} to "
            f"{count + tied.size - above}",)


def _count_double_eig(m: np.ndarray, s: float) -> CountingReport:
    if m.size == 0:
        return CountingReport(s, 0, "double_eig", 53, math.inf)
    eigs = np.linalg.eigvalsh(m)
    count = int((eigs > s).sum())
    margin = float(np.abs(eigs - s).min())
    tol = _TIE_RTOL * max(1.0, abs(s))
    return CountingReport(s, count, "double_eig", 53, margin,
                          _tie_warnings(eigs, s, count, tol))


def _equilibrating_exponents(logm: LogHermitian, s: float) -> list:
    """Integers e_i such that S = diag(2^-e_i) equilibrates M - sI.

    Symmetric Ruiz sweeps in the log domain, d_i += max_j(L_ij - d_i - d_j)/2,
    on the entry bounds L_ij = ln|M_ij| and L_ii = ln(|M_ii| + s) >= ln|M_ii - s|,
    bring every row maximum of S(M - sI)S to within _RUIZ_TOL nats of 1
    (the diagonal bound is finite because s > 0).  Rounding d_i to a
    whole multiple of ln 2 makes each scaling a power of two, so the
    shifted diagonal s 2^(-2 e_i) is exact.
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


def _scaled_spectrum(logm: LogHermitian, s: float):
    """Eigenvalues of A = S(M - sI)S, S = diag(2^-e_i), and the budget tau
    that bounds their distance to those of the exact congruence.

    A is formed in double straight from log form, so nothing overflows
    on the way in; entries that underflow sit below 2^-1074 of an O(1)
    row.  tau covers the eigensolver's backward error, n eps ||A||, and
    the rounding of exp at an exponent of size |L|, relative
    eps (|L| + O(1)) per entry, which moves A by at most
    sqrt(n) eps (max|L| + 4) ||A|| in norm (Weyl).
    """
    exps = np.array(_equilibrating_exponents(logm, s))
    shift = (exps[:, None] + exps[None, :]) * math.log(2.0)
    a = LogHermitian(logm.log_mag - shift, logm.phase).to_dense()
    diag = np.diag_indices(logm.n)
    a[diag] = a[diag].real - np.ldexp(s, -2 * exps)
    lam = np.linalg.eigvalsh(a)
    finite = np.abs(logm.log_mag[np.isfinite(logm.log_mag)])
    max_abs_log = float(finite.max()) if finite.size else 0.0
    n = logm.n
    tau = float(np.abs(lam).max()) * _EPS * (n + math.sqrt(n) * (max_abs_log + 4.0))
    return lam, tau


def _count_scaled_eig(logm: LogHermitian, s: float) -> CountingReport:
    if logm.n == 0:
        return CountingReport(s, 0, "double_eig", 53, math.inf)
    lam, tau = _scaled_spectrum(logm, s)
    count = int((lam > 0).sum())
    margin = float(np.abs(lam).min())
    return CountingReport(s, count, "double_eig", 53, margin,
                          _tie_warnings(lam, 0.0, count, 2.0 * tau))


def count_above(m, s: float, route: str = "auto",
                precision_cap=None) -> CountingReport:
    """n_+(s; M): eigenvalues strictly greater than s.

    m is a dense Hermitian ndarray or a LogHermitian.  Route "auto"
    uses the double eigensolver on M whenever the entries are
    representable and the matrix norm leaves the threshold ~30 nats of
    headroom; otherwise route "scaled_eig" counts the positive
    eigenvalues of the equilibrated S(M - sI)S.  precision_cap is
    accepted for compatibility and has no effect: both routes run in
    double precision.
    """
    if s <= 0:
        raise ValueError("threshold s must be positive")
    if isinstance(m, LogHermitian):
        m.check_hermitian()
        logm = m
        if route == "auto":
            usable = logm.max_log < math.log(s) + _DOUBLE_HEADROOM_NATS and logm.max_log < 700.0
            route = "double_eig" if usable else "scaled_eig"
    else:
        m = np.asarray(m)
        _check_dense_hermitian(m)
        logm = None
        if route == "auto":
            route = "double_eig"
    if route == "double_eig":
        dense = m.to_dense() if logm is not None else np.asarray(m)
        return _count_double_eig(dense, s)
    if route == "scaled_eig":
        if logm is None:
            logm = LogHermitian.from_dense(m)
        return _count_scaled_eig(logm, s)
    raise ValueError(f"unknown route {route!r}")


def n_star(t, s: float, route: str = "auto") -> CountingReport:
    """n_*(s; T) = n_+(s^2; T^* T) for rectangular T."""
    if s <= 0:
        raise ValueError("threshold s must be positive")
    t = np.asarray(t)
    gram = t.conj().T @ t
    gram = 0.5 * (gram + gram.conj().T)
    return count_above(gram, s * s, route)
