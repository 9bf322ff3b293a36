"""Threshold counting: subadditivity laws, graded matrices, tie reporting."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgegap.counting import (LogHermitian, _check_dense_hermitian,
                              _count_double_eig, _count_scaled_eig,
                              _equilibrating_exponents, _scaled_spectrum,
                              count_above, n_star)
from tests.inertia_oracle import (PrecisionExhausted, count_hp_inertia,
                                  scaled_eigenvalues)
from tests.model_oracles import (complex_check_hermitian, from_dense,
                                 whole_matrix_check_hermitian)


def _rand_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


def _graded_symmetric(rng, n, half_span):
    """LogHermitian D A D with D = diag(e^g), g uniform in +-half_span."""
    a = rng.standard_normal((n, n))
    a = 0.5 * (a + a.T)
    g = rng.uniform(-half_span, half_span, n)
    with np.errstate(divide="ignore"):
        log_mag = np.log(np.abs(a)) + g[:, None] + g[None, :]
    phase = np.where(a >= 0, 0.0, math.pi)
    return LogHermitian(log_mag, phase)


def _graded_congruence(rng, n, grading, complex_):
    """LogHermitian M = D C D + I, C = U diag(beta) U^* with |beta| in
    [0.5, 2] and D = diag(e^g), g uniform in [0, grading].

    M - I = D C D, so by Sylvester's law n_+(1; M) = #{beta > 0}; the
    core C + D^-2 is stored, so rounding perturbs C by ~1e-16 relative.
    """
    z = rng.standard_normal((n, n))
    if complex_:
        z = z + 1j * rng.standard_normal((n, n))
    u, r = np.linalg.qr(z)
    u = u * (np.diag(r) / np.abs(np.diag(r)))
    beta = rng.uniform(0.5, 2.0, n) * rng.choice((-1.0, 1.0), n)
    c = (u * beta) @ u.conj().T
    g = rng.uniform(0.0, grading, n)
    core = 0.5 * (c + c.conj().T) + np.diag(np.exp(-2.0 * g))
    with np.errstate(divide="ignore"):
        log_mag = g[:, None] + g[None, :] + np.log(np.abs(core))
    return LogHermitian(log_mag, np.angle(core)), int((beta > 0).sum())


def _mp_count_above(logm, s, dps=160):
    """Independent oracle: full eigendecomposition in fixed high precision."""
    with mpmath.workdps(dps):
        m = mpmath.matrix(logm.n)
        for i in range(logm.n):
            for j in range(logm.n):
                lm = logm.log_mag[i, j]
                if lm == -math.inf:
                    continue
                sign = 1 if math.cos(logm.phase[i, j]) >= 0 else -1
                m[i, j] = sign * mpmath.exp(mpmath.mpf(lm))
        eigs = mpmath.mp.eigsy(m, eigvals_only=True)
        return sum(1 for e in eigs if e > s)


@given(seed=st.integers(0, 2**32 - 1),
       s1=st.floats(0.05, 2.0), s2=st.floats(0.05, 2.0))
@settings(max_examples=60, deadline=None)
def test_sum_threshold_subadditivity(seed, s1, s2):
    rng = np.random.default_rng(seed)
    t1, t2 = _rand_hermitian(rng, 8), _rand_hermitian(rng, 8)
    lhs = count_above(t1 + t2, s1 + s2).count
    assert lhs <= count_above(t1, s1).count + count_above(t2, s2).count


@given(seed=st.integers(0, 2**32 - 1),
       s1=st.floats(0.05, 2.0), s2=st.floats(0.05, 2.0))
@settings(max_examples=40, deadline=None)
def test_singular_value_subadditivity(seed, s1, s2):
    rng = np.random.default_rng(seed)
    shape = (11, 8)
    t1 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    t2 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    lhs = n_star(t1 + t2, s1 + s2).count
    assert lhs <= n_star(t1, s1).count + n_star(t2, s2).count


@given(seed=st.integers(0, 2**32 - 1), s=st.floats(0.1, 3.0))
@settings(max_examples=40, deadline=None)
def test_threshold_monotone_and_band_bound(seed, s):
    rng = np.random.default_rng(seed)
    m = _rand_hermitian(rng, 7)
    hi = count_above(m, s).count
    assert count_above(m, 0.5 * s).count >= hi
    assert hi + count_above(-m, s).count <= 7


def test_graded_counts_match_high_precision_oracle():
    rng = np.random.default_rng(20260822)
    for _ in range(25):
        logm = _graded_symmetric(rng, 8, 60.0)
        rep = count_above(logm, 1.0)
        assert rep == _count_scaled_eig(logm, 1.0)
        assert rep.route == "double_eig"
        assert rep.count == _mp_count_above(logm, 1.0)
        assert rep.precision_bits == 53
        assert rep.warnings == ()


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_equilibrated_graded_counts_certify_on_first_rung(complex_):
    # the diagonal congruence removes the grading, so entries spanning
    # e^300 count in double with a certified margin
    rng = np.random.default_rng(604)
    for n in (8, 16, 24, 32, 40):
        logm, exact = _graded_congruence(rng, n, 150.0, complex_)
        assert logm.is_real() != complex_
        rep = count_above(logm, 1.0)
        assert rep == _count_scaled_eig(logm, 1.0)
        assert rep.route == "double_eig"
        assert rep.count == exact
        assert rep.precision_bits == 53
        assert rep.warnings == ()


def test_ill_conditioned_after_equilibration_escalates():
    # rows already equilibrated; eliminating row 0 leaves the Schur block
    # [[d, c], [c, 0]] with d = 1e-14, c = 1e-7, a pivot of relative size
    # d / c that no diagonal scaling removes.  The further Schur steps
    # give inertia (3, 1): exactly three eigenvalues of A are positive.
    d, c = 1e-14, 1e-7
    a = np.array([[1.0, 1.0, 1.0, 0.0],
                  [1.0, 1.0 + d, 1.0 + c, 0.0],
                  [1.0, 1.0 + c, 1.0, 1.0],
                  [0.0, 0.0, 1.0, 1.0]])
    logm = from_dense(a + np.eye(4))
    # in double the near-zero eigenvalue sits inside the budget: flagged
    rep = _count_scaled_eig(logm, 1.0)
    assert rep.count == 3
    assert any(w.startswith("tie:") for w in rep.warnings)
    # the exact-inertia ladder resolves it only by escalating
    rep = count_hp_inertia(logm, 1.0, precision_cap=512)
    assert rep.count == 3
    assert rep.precision_bits == 512
    assert rep.margin < 2.0 ** -20
    assert any("stable across 256 and 512 bits" in w for w in rep.warnings)
    assert any(w.startswith("tie:") for w in rep.warnings)
    with pytest.raises(PrecisionExhausted):
        count_hp_inertia(logm, 1.0, precision_cap=128)


def test_scaled_budget_bounds_eigenvalue_error():
    # the Weyl budget tau bounds the distance of every double eigenvalue
    # of S(M - sI)S to the exact eigenvalues of the stored matrix's
    # congruence, on real and complex graded families
    rng = np.random.default_rng(20261018)
    cases = [_graded_symmetric(rng, n, 75.0) for n in (6, 9, 12, 16)]
    cases += [_graded_congruence(rng, n, 150.0, True)[0] for n in (6, 11, 16)]
    for logm in cases:
        lam, tau = _scaled_spectrum(logm, 1.0)
        exact = scaled_eigenvalues(logm, 1.0,
                                   _equilibrating_exponents(logm, 1.0))
        assert np.abs(lam - np.array(exact)).max() <= tau


def test_routes_agree_on_representable_graded():
    rng = np.random.default_rng(7)
    for _ in range(10):
        logm = _graded_symmetric(rng, 6, 10.0)
        a = _count_double_eig(logm.to_dense(), 1.0).count
        b = _count_scaled_eig(logm, 1.0).count
        assert a == b == count_hp_inertia(logm, 1.0).count


def test_auto_route_selection():
    # both routes report route "double_eig"; the margin, taken in each
    # route's own coordinates, shows which one ran
    small = LogHermitian(np.array([[0.0, -math.inf], [-math.inf, 1.0]]))
    assert count_above(small, 1.0) == _count_double_eig(small.to_dense(), 1.0)
    assert count_above(small, 1.0).route == "double_eig"
    big = LogHermitian(np.array([[100.0, -math.inf], [-math.inf, 1.0]]))
    rep = count_above(big, 1.0)
    assert rep == _count_scaled_eig(big, 1.0)
    assert rep.margin != _count_double_eig(big.to_dense(), 1.0).margin
    assert rep.route == "double_eig"
    # a dense matrix always takes the double eigensolver
    assert (count_above(big.to_dense(), 1.0)
            == _count_double_eig(big.to_dense(), 1.0))


def test_tie_reported_on_both_routes():
    rep = count_above(np.diag([1.0, 2.0]), 1.0)
    assert rep.count == 1
    assert rep.warnings == ("tie: 1 eigenvalue(s) within 1e-08 of threshold, "
                            "nearest 1.0; count could be 1 to 2",)
    # one message per count, however many eigenvalues tie
    rep = count_above(np.diag([1.0 - 1e-12, 1.0, 1.0 + 1e-12, 2.0]), 1.0)
    assert rep.count == 2
    assert rep.warnings == ("tie: 3 eigenvalue(s) within 1e-08 of threshold, "
                            "nearest 1.0; count could be 1 to 4",)
    diag = LogHermitian(np.array([[0.0, -math.inf], [-math.inf, math.log(2)]]))
    rep_scaled = _count_scaled_eig(diag, 1.0)
    assert rep_scaled.count == 1
    assert any(w.startswith("tie:") for w in rep_scaled.warnings)
    rep_hp = count_hp_inertia(diag, 1.0)
    assert rep_hp.count == 1
    assert any("zero pivot" in w for w in rep_hp.warnings)


def test_dense_tie_tolerance_scales_with_the_matrix_norm():
    # 1 + 1e-6 lies 1e-6 above s = 1, beyond the relative resolution
    # 1e-8 but inside the eigensolver's backward error 2 eps 1e12
    rep = count_above(np.diag([1e12, 1.0 + 1e-6]), 1.0)
    assert rep.count == 2
    tol = 2 * np.finfo(float).eps * 1e12
    assert rep.warnings == (f"tie: 1 eigenvalue(s) within {tol:g} of "
                            "threshold, nearest 1.000001; count could be 1 "
                            "to 2",)
    # a small matrix keeps the relative tolerance
    assert count_above(np.diag([2.0, 1.0 + 1e-6]), 1.0).warnings == ()


def _check_outcome(check, logm):
    try:
        check(logm)
    except ValueError as exc:
        return str(exc)
    return None


def test_check_hermitian_rejects_what_it_must():
    rng = np.random.default_rng(29)
    logm = from_dense(_rand_hermitian(rng, 6))
    logm.check_hermitian()
    lm = logm.log_mag.copy()
    lm[1, 4] += 1e-9
    with pytest.raises(ValueError, match="log-magnitude matrix is not symmetric"):
        LogHermitian(lm, logm.phase).check_hermitian()
    ph = logm.phase.copy()
    ph[2, 3] += 1e-8
    with pytest.raises(ValueError, match="phase matrix is not antisymmetric"):
        LogHermitian(logm.log_mag, ph).check_hermitian()
    lm = logm.log_mag.copy()
    lm[0, 5] = -math.inf
    with pytest.raises(ValueError, match="zero pattern"):
        LogHermitian(lm, logm.phase).check_hermitian()
    # phases of pi and -pi both stand for a negative real entry
    neg = LogHermitian(np.zeros((3, 3)), np.array([[math.pi, math.pi, -math.pi],
                                                   [math.pi, -math.pi, 0.0],
                                                   [-math.pi, 0.0, 0.0]]))
    neg.check_hermitian()
    # a phase mismatch inside the zero pattern is ignored
    zero = LogHermitian(np.array([[0.0, -math.inf], [-math.inf, 0.0]]),
                        np.array([[0.0, 1.0], [2.0, 0.0]]))
    zero.check_hermitian()


def test_check_hermitian_agrees_with_the_complex_residual():
    # perturbations just inside and just outside both tolerances get the
    # same verdict as the complex-arithmetic phase test
    rng = np.random.default_rng(31)
    base = from_dense(_rand_hermitian(rng, 8))
    for size in (1e-13, 1e-12, 1e-11, 5e-11, 2e-10, 1e-9):
        for _ in range(10):
            i, j = rng.integers(0, 8, 2)
            lm, ph = base.log_mag.copy(), base.phase.copy()
            if rng.random() < 0.5:
                lm[i, j] += size * rng.choice((-1.0, 1.0)) * max(1.0, abs(lm[i, j]))
            else:
                ph[i, j] += size * rng.choice((-1.0, 1.0))
            logm = LogHermitian(lm, ph)
            assert (_check_outcome(LogHermitian.check_hermitian, logm)
                    == _check_outcome(complex_check_hermitian, logm))


def test_dense_check_in_row_blocks_agrees_with_the_whole_matrix():
    # sizes around the row block, real and complex, perturbations just
    # inside and outside the tolerance, NaN and inf entries, and the zero
    # matrix all get the whole-matrix verdict
    rng = np.random.default_rng(41)
    cases = [np.zeros((0, 0)), np.zeros((70, 70))]
    for n in (1, 63, 64, 65, 130):
        for m in (_rand_hermitian(rng, n), _rand_hermitian(rng, n).real):
            cases.append(m)
            for size in (5e-13, 2e-12):
                bad = m.copy()
                i, j = rng.integers(0, n, 2)
                bad[i, j] += size * np.abs(m).max()
                cases.append(bad)
            for value in (math.nan, math.inf):
                odd = m.copy()
                odd[rng.integers(0, n), rng.integers(0, n)] = value
                cases.append(odd)
    with np.errstate(invalid="ignore"):  # inf - inf
        for m in cases:
            assert (_check_outcome(_check_dense_hermitian, m)
                    == _check_outcome(whole_matrix_check_hermitian, m))


def test_count_below_and_n_star_identities():
    rng = np.random.default_rng(3)
    m = _rand_hermitian(rng, 9)
    eigs = np.linalg.eigvalsh(m)
    s = 0.7
    assert count_above(m, s).count == int((eigs > s).sum())
    assert count_above(-m, s).count == int((eigs < -s).sum())
    t = rng.standard_normal((12, 9))
    sv = np.linalg.svd(t, compute_uv=False)
    assert n_star(t, s).count == int((sv > s).sum())


def test_validation_and_errors():
    with pytest.raises(ValueError):
        count_above(np.eye(2), 0.0)
    with pytest.raises(ValueError):
        count_above(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)
    with pytest.raises(ValueError):
        LogHermitian(np.zeros((2, 3)))
    lop = LogHermitian(np.array([[0.0, 0.0], [-math.inf, 0.0]]))
    with pytest.raises(ValueError):
        count_above(lop, 1.0)
    with pytest.raises(PrecisionExhausted):
        count_hp_inertia(LogHermitian(np.zeros((2, 2))), 1.0,
                         precision_cap=64)


def test_round_trip_and_empty():
    rng = np.random.default_rng(11)
    m = _rand_hermitian(rng, 5)
    back = from_dense(m).to_dense()
    np.testing.assert_allclose(back, m, rtol=1e-13)
    # a real matrix with an exact zero: real form built in place, and
    # max_log skips the -inf entries
    a = m.real + m.real.T
    a[2, 4] = a[4, 2] = 0.0
    logm = from_dense(a)
    assert logm.is_real() and np.isneginf(logm.log_mag[2, 4])
    assert logm.max_log == float(logm.log_mag[np.isfinite(logm.log_mag)].max())
    assert np.array_equal(logm.to_dense(), np.exp(logm.log_mag)
                          * np.sign(np.cos(logm.phase)))
    np.testing.assert_allclose(logm.to_dense(), a, rtol=1e-13)
    assert LogHermitian(np.full((2, 2), -math.inf)).max_log == -math.inf
    assert count_above(np.zeros((0, 0)), 1.0).count == 0
