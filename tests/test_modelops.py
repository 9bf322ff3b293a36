"""Model operators: exponential Grams, sinc family, surrogates, envelopes.

Frozen numbers in this module are regression values measured once on the
default quadrature at the stated parameters; the structural assertions
around them (bounds, limits, cross-route agreement) carry the math.
"""

import math

import numpy as np
import pytest

from edgegap.bsham import sjstar_sj
from edgegap.counting import count_above
from edgegap.errors import DomainError
from edgegap.geometry import kappa
from edgegap.modelops import (
    IntervalSpec,
    _sinc_dense,
    endpoint_bracket,
    epsilon_bounds,
    exp_sinc_kernel,
    g_sinc,
    g_sinc_trace,
    gamma_diag_count,
    gamma_gram,
    inscribed_rectangle_count,
    kms_trace_ratio,
    q_operator,
    sandwich_check,
)
from edgegap.operators import QuadratureSpec
from tests.conftest import rect, traced_peak
from tests.inertia_oracle import PrecisionExhausted, count_hp_inertia
from tests.model_oracles import (
    diag_count_limit,
    disk_moment_check,
    full_exp_sinc_kernel,
    full_sinc_dense,
    gamma_diag_count as gammaln_diag_count,
    kms_count_ratio,
    reciprocal_interval,
    theta_coeffs,
)

QUAD = QuadratureSpec()
WINDOW = IntervalSpec(0.25, 0.75)


def _strip_weights(op):
    dense = op.kernel.to_dense()
    root = np.sqrt(op.weights)
    return dense / np.outer(root, root)


def test_interval_spec():
    assert IntervalSpec.inner(0.1) == IntervalSpec(0.1, 0.9, 0.1)
    assert IntervalSpec.outer(0.1).hi == pytest.approx(1.1)
    assert reciprocal_interval(0.25).hi == pytest.approx(0.8)
    assert WINDOW.length == pytest.approx(0.5)
    with pytest.raises(ValueError):
        IntervalSpec(1.0, 0.5)
    with pytest.raises(ValueError):
        IntervalSpec.inner(0.6)


def test_exponential_gram_matches_closed_form_without_gaussian():
    # on a rectangle with the Gaussian factor off (b = 0) every entry has
    # a closed form: the eta-difference of the exp-sinc kernel
    alpha, beta, half = 0.05, 0.2, 0.5
    m, delta = 50.0, 0.05
    op = gamma_gram("minus", m, delta, rect(alpha, beta, -half, half),
                    QUAD, b=0.0)
    got = _strip_weights(op)
    closed = (exp_sinc_kernel(beta, m, m * half, op.nodes)
              - exp_sinc_kernel(alpha, m, m * half, op.nodes))
    scale = np.abs(closed).max()
    assert np.abs(got - closed).max() <= 1e-10 * scale


def test_exponential_gram_positive_and_validated():
    op = gamma_gram("minus", 20.0, 0.1, rect(0.0, 0.15, -0.8, 0.8), QUAD)
    ev = np.linalg.eigvalsh(op.kernel.to_dense())
    assert ev.min() >= -1e-10 * ev.max()
    with pytest.raises(ValueError):
        gamma_gram("minus", -1.0, 0.1, rect(0.0, 0.1, -0.5, 0.5), QUAD)
    with pytest.raises(ValueError):
        gamma_gram("center", 10.0, 0.1, rect(0.0, 0.1, -0.5, 0.5), QUAD)


@pytest.mark.parametrize("m,gram_n,sinc_n", [(50.0, 14, 6), (100.0, 28, 14)])
def test_inscribed_rectangle_certifies_lower_count(m, gram_n, sinc_n):
    omega = rect(0.0, 0.15, -0.8, 0.8)
    alpha, beta, half, delta = 0.03, 0.12, 0.5, 0.1
    op = gamma_gram("minus", m, delta, omega, QUAD)
    assert count_above(op.kernel, 1.0).count == gram_n
    eps_minus = math.exp(-max(alpha * alpha, beta * beta))
    report, s = inscribed_rectangle_count(1.0, m, delta, alpha, beta, half,
                                          eps_minus)
    assert report.count == sinc_n
    assert gram_n >= sinc_n
    assert 0.0 < s < 1.0


def test_count_stable_across_routes_and_nodes():
    omega = rect(0.0, 0.15, -0.8, 0.8)
    op = gamma_gram("minus", 50.0, 0.1, omega, QUAD)
    n_dbl = count_above(op.kernel, 1.0, route="double_eig").count
    n_scaled = count_above(op.kernel, 1.0, route="scaled_eig").count
    n_256 = count_hp_inertia(op.kernel, 1.0, precision_cap=256).count
    n_512 = count_hp_inertia(op.kernel, 1.0, precision_cap=512).count
    fine = QuadratureSpec(k_panels=16, k_nodes=16, x_nodes=40)
    n_fine = count_above(gamma_gram("minus", 50.0, 0.1, omega, fine).kernel,
                         1.0).count
    assert n_dbl == n_scaled == n_256 == n_512 == n_fine


def _floor_messages(report):
    return [msg for msg in report.warnings if msg.startswith("floor:")]


def test_noise_floor_warning_below_assembly_resolution():
    op = gamma_gram("minus", 100.0, 0.1, rect(0.0, 0.3, -0.8, 0.8), QUAD)
    assert op.kernel.noise_floor_log == op.meta["noise_floor_log"] > 0.0
    for route in ("auto", "double_eig", "scaled_eig"):
        (msg,) = _floor_messages(count_above(op.kernel, 1.0, route=route))
        assert f"floor {op.meta['noise_floor_log']:.1f}" in msg


def test_noise_floor_flags_the_gamma_m60_probe():
    # perfbench's probe rectangle: at m = 60 the floor sits at +35.8 nats,
    # far above ln 1, and the count carries a tie and then a floor message
    probe = rect(0.05, 0.6, -0.5, 0.5)
    op = gamma_gram("minus", 60, 0.1, probe, QUAD)
    assert op.meta["noise_floor_log"] == pytest.approx(35.8, abs=0.05)
    report = count_above(op.kernel, 1.0)
    assert [msg.split(":")[0] for msg in report.warnings] == ["tie", "floor"]
    # the floor is a fact of the assembly, so a threshold above it is clean
    assert not _floor_messages(count_above(op.kernel, math.exp(36.0)))


def test_counts_without_a_floor_carry_no_floor_message():
    op = g_sinc(WINDOW, 80.0)
    assert op.kernel.noise_floor_log is None
    dense = op.kernel.to_dense()
    for m in (op.kernel, dense):
        for route in ("double_eig", "scaled_eig"):
            assert not _floor_messages(count_above(m, 1e-300, route=route))


def test_sinc_trace_is_exact():
    op = g_sinc(WINDOW, 80.0)
    tr = float(np.trace(op.kernel.to_dense()))
    assert tr == pytest.approx(80.0 * WINDOW.length / math.pi, rel=1e-12)
    with pytest.raises(DomainError):
        g_sinc(IntervalSpec(-0.1, 0.5), 10.0)
    with pytest.raises(DomainError):
        g_sinc_trace(IntervalSpec(-0.1, 0.5), 10.0)


def test_kms_trace_ratios():
    target = WINDOW.length / math.pi
    assert kms_trace_ratio(WINDOW, 160.0, 1) == pytest.approx(target, rel=1e-12)
    # frozen power-trace ratios at m = 160; they close on |window|/pi
    # only logarithmically slowly, so pin the measured values
    assert kms_trace_ratio(WINDOW, 160.0, 2) == pytest.approx(
        0.15485117563196468, rel=1e-9)
    assert kms_trace_ratio(WINDOW, 160.0, 3) == pytest.approx(
        0.15270183691634703, rel=1e-9)
    assert kms_trace_ratio(WINDOW, 160.0, 2) > kms_trace_ratio(WINDOW, 160.0, 3)
    with pytest.raises(ValueError):
        kms_trace_ratio(WINDOW, 160.0, 0)


def test_kms_count_profile():
    # spectrum piles up at 0 and 1: thresholds inside (0,1) count the
    # full density, thresholds above 1 almost nothing
    counts = [round(kms_count_ratio(WINDOW, m, 0.5) * m) for m in (100, 200, 300)]
    assert counts == [16, 32, 48]
    assert kms_count_ratio(WINDOW, 300.0, 0.5) == pytest.approx(0.16, abs=1e-12)
    assert kms_count_ratio(WINDOW, 300.0, 1.5) < 0.01
    with pytest.raises(ValueError):
        kms_count_ratio(WINDOW, 100.0, 1.0)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


@pytest.mark.parametrize("m", [50.0, 160.0, 300.0])
def test_row_block_sinc_kernel_is_bit_identical(m):
    # the row-block kernel and the in-place weights give the bits of the
    # whole-matrix evaluation, and g_sinc stores their log form
    iv = IntervalSpec(0.25, 2.25)
    pts, wts, dense = _sinc_dense(iv, m)
    old_pts, old_wts, old_dense = full_sinc_dense(iv, m)
    assert _same_bits(pts, old_pts) and _same_bits(wts, old_wts)
    assert _same_bits(dense, old_dense)
    kernel = g_sinc(iv, m).kernel
    assert _same_bits(kernel.log_mag, np.log(np.abs(old_dense).astype(float)))
    assert _same_bits(kernel.phase, np.angle(old_dense).astype(float))
    assert _same_bits(kernel.to_dense(), np.exp(kernel.log_mag)
                      * np.sign(np.cos(kernel.phase)))


@pytest.mark.parametrize("m", [50.0, 160.0, 300.0])
def test_sinc_trace_from_the_diagonal_is_bit_identical(m):
    # verify kms's trace from the n diagonal entries alone is the trace of
    # the exponentiated kernel, bit for bit, without the (n, n) matrices
    iv = IntervalSpec(0.25, 2.25)
    op = g_sinc(iv, m)
    (n, trace), peak = traced_peak(lambda: g_sinc_trace(iv, m))
    assert n == op.n
    assert _same_bits(np.float64(trace), np.trace(op.kernel.to_dense()))
    assert peak <= 0.1 * op.kernel.log_mag.nbytes


def test_row_block_rectangle_kernel_is_bit_identical():
    # the closed-form rectangle kernel of the gamma_gram test, at both eta
    op = gamma_gram("minus", 50.0, 0.05, rect(0.05, 0.2, -0.5, 0.5),
                    QUAD, b=0.0)
    for eta in (0.05, 0.2):
        assert _same_bits(exp_sinc_kernel(eta, 50.0, 25.0, op.nodes),
                          full_exp_sinc_kernel(eta, 50.0, 25.0, op.nodes))


def test_sinc_count_stays_inside_a_few_matrix_copies():
    # the 770-node kernel of verify kms: g_sinc keeps the kernel, its log
    # magnitude and its phase, and counting it adds the dense matrix and
    # one buffer; the whole-matrix code reached 7.0x and 8.2x
    iv = IntervalSpec(0.25, 2.25)
    op, peak = traced_peak(lambda: g_sinc(iv, 300.0))
    nbytes = op.kernel.log_mag.nbytes
    assert op.n == 770
    assert peak <= 4 * nbytes
    report, peak = traced_peak(lambda: count_above(op.kernel, 0.5))
    assert report.count == 191 and report.warnings == ()
    assert peak <= 3 * nbytes


def test_epsilon_bounds():
    assert epsilon_bounds(rect(-1.0, 2.0, 0.0, 1.0)) == (
        pytest.approx(math.exp(-4.0)), 1.0)
    lo, hi = epsilon_bounds(rect(1.0, 2.0, 0.0, 1.0), b=2.0)
    assert lo == pytest.approx(math.exp(-8.0))
    assert hi == pytest.approx(math.exp(-2.0))


def test_monomial_table():
    delta, q_max = 0.2, 40
    table = theta_coeffs(delta, q_max)
    c = 1.0 / (1.0 + delta)
    assert table[0, 0] == pytest.approx(c ** 0.5, rel=1e-14)
    assert np.all(table[np.triu_indices(q_max + 1, 1)] == 0.0)
    q = np.arange(q_max + 1)
    norms = c ** (2.0 * q + 1) / (2.0 * q + 1)
    np.testing.assert_allclose((table ** 2).sum(axis=1), norms, rtol=1e-12)
    assert float((table ** 2).sum()) == pytest.approx(
        1.1989476263495857, rel=1e-12)
    with pytest.raises(PrecisionExhausted):
        theta_coeffs(delta, 61)
    with pytest.raises(ValueError):
        theta_coeffs(0.7, 10)


def test_diagonal_surrogate():
    count, ratio = gamma_diag_count(200.0, -0.2, 0.1, 0.5, 1.0)
    assert count == 270
    limit = diag_count_limit(-0.2, 0.1, 0.5)
    assert limit == pytest.approx(0.5 * math.e, rel=1e-12)  # kappa(0) = 1
    assert ratio == pytest.approx(limit, rel=0.02)
    # kappa argument exactly 1
    r = 0.3
    assert diag_count_limit(math.e * r - 0.1, 0.1, r) == pytest.approx(
        math.e * r * kappa(1.0), rel=1e-9)
    assert gamma_diag_count(10.0, 0.0, 0.1, 0.5, 1e300)[0] == 0
    with pytest.raises(ValueError):
        gamma_diag_count(-1.0, 0.0, 0.1, 0.5, 1.0)


def test_diagonal_surrogate_matches_gammaln_copy():
    # ln q! from math.lgamma, elementwise, against scipy's gammaln on the
    # same log-domain test: equal counts, including thresholds far out
    # on both sides
    for m in (1.0, 7.0, 50.0, 200.0, 1000.0):
        for xi in (-0.6, -0.2, 0.0, 0.35):
            for delta in (0.0, 0.1):
                for r in (0.05, 0.5, 2.0):
                    for s in (1e-300, 1e-3, 1.0, 1e3, 1e300):
                        args = (m, xi, delta, r, s)
                        assert gamma_diag_count(*args) == \
                            gammaln_diag_count(*args), args


def test_disk_moment_series_vs_quadrature():
    series, quad = disk_moment_check(10.0, 0.5, 0.3, 0.3)
    assert series == pytest.approx(2.069979805318787, rel=1e-12)
    assert quad == pytest.approx(series, rel=1e-8)
    s0, q0 = disk_moment_check(10.0, 0.5, 0.0, 0.7)
    assert s0 == pytest.approx(math.pi * 0.25, rel=1e-12)
    assert q0 == pytest.approx(s0, rel=1e-8)
    a = disk_moment_check(5.0, 0.5, 0.2, 0.4)[0]
    b = disk_moment_check(5.0, 0.5, 0.4, 0.2)[0]
    assert a == pytest.approx(b, rel=1e-13)
    with pytest.raises(ValueError):
        disk_moment_check(100.0, 1.0, 1.0, 1.0)


def test_step_envelope_operator_reduces_to_band_kernel(coarse_scenario):
    # for the ground level over the same polygon, the comparison kernel
    # is the band kernel itself up to the amplitude prefactor
    sc = coarse_scenario
    q_op = q_operator("minus", 1, 1e-3, 0.0, sc.quad, sc)
    s_op = sjstar_sj(1, 1e-3, 0.0, sc.quad, sc.v, sc.w, sc.b,
                     k_lo=q_op.meta.get("a"), k_hi=q_op.meta["k_hi"])
    np.testing.assert_allclose(q_op.nodes, s_op.nodes)
    shift = math.log(sc.v.amplitude)
    mask = np.isfinite(s_op.kernel.log_mag)
    diff = np.abs(q_op.kernel.log_mag[mask] + shift - s_op.kernel.log_mag[mask])
    assert diff.max() < 1e-12
    np.testing.assert_allclose(q_op.kernel.phase, s_op.kernel.phase, atol=1e-12)


def test_sandwich_bracket(coarse_scenario):
    lower, mid, upper = sandwich_check(1, 1e-4, 1.0, 0.3, coarse_scenario)
    assert (lower.count, mid.count, upper.count) == (1, 2, 2)
    assert mid.threshold == 1.0
    # the eps margins keep the transferred thresholds strictly ordered
    assert lower.threshold > upper.threshold
    with pytest.raises(ValueError):
        sandwich_check(1, 1e-4, 1.0, 1.5, coarse_scenario)


def test_endpoint_bracket(coarse_scenario):
    # the middle count, 2, is sandwich_check's (test_sandwich_bracket)
    out = endpoint_bracket(1, 1e-4, 1.0, 0.3, coarse_scenario)
    assert len(out) == 3  # m and the two polygon counts, no middle count
    m, lower, upper = out
    assert (lower.count, upper.count) == (1, 2)
    assert lower.threshold > upper.threshold
    assert m == pytest.approx(math.sqrt(abs(math.log(1e-4))))
    with pytest.raises(ValueError):
        endpoint_bracket(1, 2.0, 1.0, 0.3, coarse_scenario)
