"""End-to-end acceptance gate: fourteen quantitative desk-scale checks.

Each test pins one advertised guarantee of the package at reference
parameters.  Tolerances are the contract; the tighter frozen values in
comments are the measurements observed when the gate was built, kept for
drift diagnosis.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import erfc

from edgegap.bsham import bs_count, effective_count, full_line_gram
from edgegap.cli import run
from edgegap.counting import (LogHermitian, _count_scaled_eig, count_above,
                              n_star)
from edgegap.errors import EmptyIntersection
from edgegap.fiber import (
    FiberDiscretization,
    band_table,
    edge_comparisons,
    phi_squared,
    solve_fiber,
    step_tail_asymptote,
)
from edgegap.geometry import (
    PolygonDomain,
    asymptotic_constants,
    c_minus,
    c_plus,
    clip_positive_halfplane,
    kappa,
    optimal_disk,
)
from edgegap.modelops import (
    IntervalSpec,
    epsilon_bounds,
    gamma_diag_count,
    gamma_gram,
    inscribed_rectangle_count,
    kms_trace_ratio,
    sandwich_check,
    endpoint_bracket,
)
from edgegap.operators import QuadratureSpec
from edgegap.potentials import Perturbation, step_potential
from tests.conftest import (REFERENCE_CONFIG, Bundle, gap_to_phi_ratios, rect,
                            run_python)
from tests.model_oracles import diag_count_limit, kms_count_ratio


def test_criterion_01_landau_levels():
    t0 = time.perf_counter()
    for b in (0.5, 1.0, 2.0):
        disc = FiberDiscretization(b=b, w=None)
        for k in (-5.0, 0.0, 5.0):
            energies, _ = solve_fiber(disc, k, 3)
            for j, energy in enumerate(energies[0].tolist(), start=1):
                target = b * (2 * j - 1)
                assert abs(energy - target) <= 1e-6
    assert time.perf_counter() - t0 < 5.0


def test_criterion_02_band_monotone_with_edge_limits(step01):
    disc = FiberDiscretization(b=1.0, w=step01)
    e1 = band_table(disc, np.linspace(-10.0, 10.0, 401), 1)[0]
    # the verify p21 grid; the largest downward step is rounding, 2.8e-13
    assert np.all(np.diff(e1) >= -5e-13)
    assert abs(e1[0] - 1.0) <= 1e-3   # left limit b + W_-
    assert abs(e1[-1] - 2.0) <= 1e-3  # edge b + W_+


def test_criterion_03_gap_to_coupling_ratio(step01):
    # measured: 1.0315, 1.0215, 1.0187; j=2 at k=6: 1.0188
    disc = FiberDiscretization(b=1.0, w=step01)
    for ratio in gap_to_phi_ratios(disc, 1, [4.0, 5.0, 6.0]):
        assert abs(ratio - 1.0) <= 0.05
    (r2,) = gap_to_phi_ratios(disc, 2, [6.0])
    assert abs(r2 - 1.0) <= 0.10


def test_criterion_04_closed_form_tail(step01):
    # measured ratio at k=5: 0.9811
    ratio = (phi_squared(1, 5.0, 1.0, step01)
             / step_tail_asymptote(1, 5.0, 1.0, step01))
    assert abs(ratio - 1.0) <= 0.05
    for k in (0.5, 1.0, 2.0, 3.0):
        assert phi_squared(1, k, 1.0, step01) == pytest.approx(
            0.5 * erfc(k), abs=1e-8)


def test_criterion_05_projection_distance_decay(step01):
    # measured: 0.0749 at k=4, 0.0336 at k=6
    near, far = (c.scaled_distance for c in edge_comparisons(
        FiberDiscretization(b=1.0, w=step01), 1, [4.0, 6.0]))
    assert far < 0.2
    assert far < near


def test_criterion_06_sinc_family_limits():
    t0 = time.perf_counter()
    window = IntervalSpec(0.25, 2.25)
    target = window.length / math.pi
    for m in (50.0, 100.0, 200.0, 300.0):
        assert kms_trace_ratio(window, m, 1) == pytest.approx(
            target, rel=1e-10)
    # measured at m=160: l=2 off by -0.85%, l=3 by -1.28%
    assert abs(kms_trace_ratio(window, 160.0, 2) / target - 1.0) <= 0.02
    assert abs(kms_trace_ratio(window, 160.0, 3) / target - 1.0) <= 0.03
    # measured at m=300, s=0.5: +0.007%
    assert abs(kms_count_ratio(window, 300.0, 0.5) / target - 1.0) <= 0.05
    assert time.perf_counter() - t0 < 30.0


@pytest.mark.parametrize("xi,delta,radius", [
    (-0.2, 0.1, 0.5),   # (xi + delta)_+ = 0: pure eR limit
    (0.3, 0.1, 0.5),
    (0.1, 0.05, 0.25),
])
def test_criterion_07_diagonal_surrogate_ratio(xi, delta, radius):
    _, ratio = gamma_diag_count(200.0, xi, delta, radius, 1.0)
    limit = diag_count_limit(xi, delta, radius)
    assert abs(ratio / limit - 1.0) <= 0.05


def test_criterion_08_geometry_constants(rng):
    assert abs(kappa(0.0) - 1.0) <= 1e-10
    assert abs(kappa(math.e) - math.e) <= 1e-10
    for t in rng.uniform(1.0, 6.0, 100):
        assert abs(kappa(t * math.log(t)) - t) <= 1e-10 * t
    assert c_minus(rect(0.0, 1.0, -2.0, 3.0)) == pytest.approx(5.0, abs=1e-6)
    tri = PolygonDomain([(0, 0), (4, 0), (0, 3)])
    assert c_minus(tri) == pytest.approx(3.0, abs=1e-5)
    th = np.linspace(0, 2 * math.pi, 720, endpoint=False)
    disk = PolygonDomain(list(zip(3 + np.cos(th), np.sin(th))))
    assert c_minus(disk) == pytest.approx(2.0, abs=1e-4)
    checked = 0
    while checked < 50:
        x0 = rng.uniform(-1.0, 0.5)
        poly = rect(x0, x0 + rng.uniform(0.3, 2.0),
                    rng.uniform(-2.0, 0.0), rng.uniform(0.5, 2.5))
        try:
            clipped = clip_positive_halfplane(poly)
        except EmptyIntersection:
            continue
        assert c_plus(clipped) >= 0.5 * clipped.diameter - 1e-6
        lo, hi = asymptotic_constants(poly, poly, rng.uniform(0.25, 4.0))
        assert lo < hi
        checked += 1


def _rand_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


def test_criterion_09_counting_kernel():
    rng = np.random.default_rng(20260822)
    for _ in range(1000):
        s1, s2 = rng.uniform(0.05, 2.0, 2)
        t1, t2 = _rand_hermitian(rng, 8), _rand_hermitian(rng, 8)
        assert count_above(t1 + t2, s1 + s2).count <= \
            count_above(t1, s1).count + count_above(t2, s2).count
    for _ in range(1000):
        s1, s2 = rng.uniform(0.05, 2.0, 2)
        t1 = rng.standard_normal((11, 8)) + 1j * rng.standard_normal((11, 8))
        t2 = rng.standard_normal((11, 8)) + 1j * rng.standard_normal((11, 8))
        assert n_star(t1 + t2, s1 + s2).count <= \
            n_star(t1, s1).count + n_star(t2, s2).count
    # graded inertia against a full eigendecomposition at 160 decimal
    # digits (~530 bits); entry magnitudes span e^300 ~ 10^130
    import mpmath
    for _ in range(100):
        a = rng.standard_normal((8, 8))
        a = 0.5 * (a + a.T)
        g = rng.uniform(-75.0, 75.0, 8)
        g = (g - g.min()) / (g.max() - g.min()) * 150.0 - 75.0
        with np.errstate(divide="ignore"):
            log_mag = np.log(np.abs(a)) + g[:, None] + g[None, :]
        logm = LogHermitian(log_mag, np.where(a >= 0, 0.0, math.pi))
        rep = count_above(logm, 1.0)
        assert rep == _count_scaled_eig(logm, 1.0)
        assert rep.route == "double_eig"
        assert rep.precision_bits == 53
        assert rep.warnings == ()
        with mpmath.workdps(160):
            m = mpmath.matrix(8)
            for i in range(8):
                for j in range(8):
                    sign = 1 if a[i, j] >= 0 else -1
                    m[i, j] = sign * mpmath.exp(mpmath.mpf(log_mag[i, j]))
            oracle = sum(1 for e in mpmath.mp.eigsy(m, eigvals_only=True)
                         if e > 1)
        assert rep.count == oracle


def test_criterion_10_finiteness(step01):
    sc = Bundle(w=step01,
                v=Perturbation(support=rect(-2.0, -1.0, 0.0, 1.0),
                               amplitude=60.0))
    # measured uppers: [1, 1, 1, 1]
    uppers = [effective_count(1, lam, 0.5, sc)[1].count
              for lam in (1e-2, 1e-4, 1e-6, 1e-8)]
    assert max(uppers) - min(uppers) <= 1
    assert max(uppers) >= 1  # non-vacuous: something is actually counted


def _growth_scenario():
    slab = rect(-0.5, 0.7, -20.0, 20.0)
    return Bundle(w=step_potential(0.0, 1.0, 0.0),
                  v=Perturbation(support=slab, amplitude=1.0))


def test_criterion_11_growth_exponent_and_endpoint():
    sc = _growth_scenario()
    quad = QuadratureSpec()
    delta, r = 0.1, 1.0
    xi, _, big_r = optimal_disk(clip_positive_halfplane(sc.v.omega_plus))
    eps_plus = epsilon_bounds(sc.v.omega_plus, sc.b)[1]
    lams = [10.0 ** -e for e in range(3, 13)]
    lower, upper = [], []
    for lam in lams:
        m = math.sqrt(sc.b * abs(math.log(lam)))
        gram = gamma_gram("minus", m, delta, sc.v.omega_minus, quad, sc.b)
        lower.append(count_above(gram.kernel, r * r).count)
        upper.append(gamma_diag_count(m, xi, delta, big_r,
                                      r * r / eps_plus)[0])
    # measured: lower [13..29], upper [142..285], slope 0.5566
    assert all(c2 >= c1 for c1, c2 in zip(lower, lower[1:]))
    x = np.log(np.abs(np.log(lams)))
    slope = np.polyfit(x, np.log(upper), 1)[0]
    assert 0.35 <= slope <= 0.65
    # inscribed-rectangle endpoint at m=300, delta=0.05:
    # measured count 47, ratio 1.094 of (1-2 delta) L sqrt(b)/pi
    m, delta_e = 300.0, 0.05
    alpha, beta, half = 0.05, 0.2, 0.5
    eps_minus = math.exp(-sc.b * max(alpha * alpha, beta * beta))
    report, _ = inscribed_rectangle_count(r, m, delta_e, alpha, beta, half,
                                          eps_minus)
    target = (1.0 - 2.0 * delta_e) * half * math.sqrt(sc.b) / math.pi
    assert abs(report.count / m / target - 1.0) <= 0.15


def test_criterion_12_cross_route_consistency(coarse_scenario):
    lo, hi = (rep.count for rep in
              effective_count(1, 1e-3, 0.3, coarse_scenario))
    n_res = bs_count(1, 1e-3, coarse_scenario, j_sum=6)
    assert lo - 2 <= n_res <= hi + 2
    full = full_line_gram(1, 1e-3, coarse_scenario)
    anti = full_line_gram(1, 1e-3, coarse_scenario, y_order=12)
    for r in (0.5, 1.0, 2.0):
        assert (count_above(full.kernel, r * r).count
                == count_above(anti.kernel, r * r).count)


def test_criterion_13_sandwich_and_endpoint_brackets(coarse_scenario):
    slack = 3
    lower, mid, upper = (rep.count for rep in
                         sandwich_check(1, 1e-4, 1.0, 0.3, coarse_scenario))
    assert lower - slack <= mid <= upper + slack
    # the endpoint Grams bracket the same middle count
    _, end_lo, end_hi = endpoint_bracket(1, 1e-4, 1.0, 0.3, coarse_scenario)
    assert end_lo.count - slack <= mid <= end_hi.count + slack


_SUBCOMMANDS = [
    ["bands"], ["gaps"], ["phi"],
    ["verify", "p21"], ["verify", "tep2"], ["verify", "teth1"],
    ["verify", "lau25"], ["verify", "kms"], ["verify", "sandwich"],
    ["verify", "weylkyfan"],
    ["effective-count"], ["bs-count"], ["scaling"], ["geometry"],
]


@pytest.mark.parametrize("argv", _SUBCOMMANDS,
                         ids=["-".join(a) for a in _SUBCOMMANDS])
def test_criterion_14_byte_determinism(argv, tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = run(argv + ["--config", REFERENCE_CONFIG, "--out", str(out)])
        assert code == 0
        outs.append(out)
    names_a = sorted(p.name for p in outs[0].glob("*.csv"))
    names_b = sorted(p.name for p in outs[1].glob("*.csv"))
    assert names_a == names_b
    assert (outs[0] / "summary.json").exists()
    for name in names_a + ["summary.json"]:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_criterion_14_byte_determinism_across_blas_threads(tmp_path):
    # each run is a fresh process, so nothing is served from a cache;
    # verify kms forms Tr(g^l) from a 410 x 410 matrix
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        run_python(["-m", "edgegap", "verify", "kms", "--config",
                    REFERENCE_CONFIG, "--out", str(out)],
                   OPENBLAS_NUM_THREADS=threads)
        outs.append(out)
    for name in ("modelops.csv", "summary.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
