"""Exact-inertia oracle for edgegap.counting: the arbitrary-precision ladder.

count_hp_inertia counts n_+(s; M) for a LogHermitian M by Sylvester
inertia of the same equilibrated congruence S(M - sI)S that the
scaled_eig route eigensolves in double, factored by Bunch-Kaufman LDL^*
in mpmath.  Each entry is exponentiated at the working precision, so the
result is the exact inertia of the stored matrix whenever no pivot falls
below 2^-20 of its scale; smaller pivots escalate through the precision
ladder, and a count that will not settle raises PrecisionExhausted.
scaled_eigenvalues gives the eigenvalues of that congruence at a fixed
decimal precision, against which the double-precision budget is checked.
"""

import math

import mpmath

from edgegap.counting import (CountingReport, LogHermitian,
                              _equilibrating_exponents)
from edgegap.errors import EdgegapError

_ALPHA = (1.0 + math.sqrt(17.0)) / 8.0  # Bunch-Kaufman pivot constant
_TIE_RTOL = 1e-8
_PIVOT_ESCALATE = 2.0 ** -20
_LADDER = (128, 256, 512, 1024, 2048)


class PrecisionExhausted(EdgegapError):
    """An extended-precision evaluation reached its cap without a stable
    result: the exact-inertia ladder here and the monomial table of
    model_oracles raise it.  No package route does, since every count
    runs in double precision.
    """


def _mp_entry_real(log_mag: float, phase: float, exp2: int):
    if log_mag == -math.inf:
        return mpmath.mpf(0)
    sign = 1 if math.cos(phase) >= 0 else -1
    return sign * mpmath.ldexp(mpmath.exp(mpmath.mpf(log_mag)), exp2)


def _mp_entry_complex(log_mag: float, phase: float, exp2: int):
    if log_mag == -math.inf:
        return mpmath.mpc(0)
    r = mpmath.ldexp(mpmath.exp(mpmath.mpf(log_mag)), exp2)
    p = mpmath.mpf(phase)
    return mpmath.mpc(r * mpmath.cos(p), r * mpmath.sin(p))


def _ldl_inertia(logm: LogHermitian, s: float, exps: list):
    """Inertia of S(matrix - s*I)S, S = diag(2^-exps), by Bunch-Kaufman
    LDL^* at the current mpmath working precision.

    By Sylvester's law of inertia this is the inertia of matrix - s*I.
    Lower triangle kept as a list of row lists; returns
    (n_pos, n_neg, n_zero, min_relative_pivot).
    """
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


def count_hp_inertia(logm: LogHermitian, s: float,
                     precision_cap: int = 512) -> CountingReport:
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


def scaled_eigenvalues(logm: LogHermitian, s: float, exps: list, dps: int = 60):
    """Ascending eigenvalues of S(M - sI)S, S = diag(2^-exps), at dps
    decimal digits, each entry exponentiated at that precision."""
    real = logm.is_real()
    entry = _mp_entry_real if real else _mp_entry_complex
    with mpmath.workdps(dps):
        a = mpmath.matrix(logm.n)
        for i in range(logm.n):
            for j in range(logm.n):
                a[i, j] = entry(logm.log_mag[i, j], logm.phase[i, j],
                                -exps[i] - exps[j])
            a[i, i] = (a[i, i] if real else a[i, i].real) - \
                mpmath.ldexp(mpmath.mpf(s), -2 * exps[i])
        eigs = mpmath.mp.eigsy(a, eigvals_only=True) if real else \
            mpmath.mp.eighe(a, eigvals_only=True)
        return sorted(float(e) for e in eigs)
