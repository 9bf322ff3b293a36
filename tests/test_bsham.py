"""Gap counting routes: Gram, coherent-family, and resolvent agreement."""

import itertools
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from edgegap import bsham
from edgegap.bsham import (
    bs_count,
    effective_count,
    full_line_gram,
    k_truncation,
    sjstar_sj,
)
from edgegap.counting import count_above
from edgegap.errors import TruncationWarning
from edgegap.fiber import solve_fiber
from edgegap.operators import QuadratureSpec, product_gram
from edgegap.potentials import Perturbation
from edgegap.scenario import load_scenario, scenario_from_dict
from tests import fiber_oracle
from tests.conftest import REFERENCE_CONFIG, ROOT, Bundle, rect, traced_peak
from tests.model_oracles import full_product_gram, grid_reach

# (depth, (lower, upper)) brackets on the coarse scenario at eps = 0.3
BRACKETS = [(1e-3, (1, 2)), (1e-4, (2, 2)), (1e-5, (2, 2))]


def bracket(*args):
    """The (lower, upper) counts of effective_count's two reports."""
    return tuple(rep.count for rep in effective_count(*args))


def test_kernel_hermitian_and_psd(coarse_scenario):
    sc = coarse_scenario
    op = sjstar_sj(1, 1e-3, sc)
    op.kernel.check_hermitian()
    ev = np.linalg.eigvalsh(op.kernel.to_dense())
    assert ev.min() >= -1e-8 * ev.max()
    assert ev.max() > 1.0  # something to count at this depth


def test_zero_perturbation_counts_nothing(coarse_scenario):
    empty = Bundle(w=coarse_scenario.w, v=None)
    assert bracket(1, 1e-4, 0.3, empty) == (0, 0)
    assert bs_count(1, 1e-4, empty) == 0
    op = sjstar_sj(1, 1e-4, empty)
    assert np.all(np.isneginf(op.kernel.log_mag))


@pytest.mark.parametrize("lam,expected", BRACKETS)
def test_effective_brackets(coarse_scenario, lam, expected):
    assert bracket(1, lam, 0.3, coarse_scenario) == expected


def test_brackets_monotone_in_depth(coarse_scenario):
    pairs = [bracket(1, lam, 0.3, coarse_scenario)
             for lam, _ in BRACKETS]
    lows, highs = zip(*pairs)
    assert list(lows) == sorted(lows) and list(highs) == sorted(highs)


def test_resolvent_route_crosses_gram_route(coarse_scenario):
    # deeper levels retained: no truncation complaint, and the count
    # lands inside the Gram-route bracket
    for lam, (lo, hi) in BRACKETS[:2]:
        n = bs_count(1, lam, coarse_scenario, j_sum=6)
        assert lo <= n <= hi


def test_resolvent_depth_grid_shares_one_assembly(coarse_scenario):
    lams = [lam for lam, _ in BRACKETS]
    counts = bs_count(1, lams, coarse_scenario, j_sum=6)
    assert counts[1] == bs_count(1, lams[1], coarse_scenario, j_sum=6)
    for n, (_, (lo, hi)) in zip(counts, BRACKETS):
        assert lo <= n <= hi
    with pytest.raises(ValueError):
        bs_count(1, [1e-3, -1e-4], coarse_scenario)
    assert bs_count(1, lams, Bundle(w=coarse_scenario.w, v=None)) == [0, 0, 0]


def test_resolvent_default_depth_warns(coarse_scenario):
    with pytest.warns(TruncationWarning, match="raise j_sum"):
        bs_count(1, 1e-3, coarse_scenario)


def test_section_and_phase_plane_routes_agree(coarse_scenario):
    full = full_line_gram(1, 1e-3, coarse_scenario)
    anti = full_line_gram(1, 1e-3, coarse_scenario, y_order=12)
    assert full.meta["y_route"] == "sections"
    assert anti.meta["y_route"] == "gauss"
    np.testing.assert_allclose(full.nodes, anti.nodes)
    for r in (0.5, 1.0, 2.0):
        assert (count_above(full.kernel, r * r).count
                == count_above(anti.kernel, r * r).count)


def test_count_stable_under_node_doubling(coarse_scenario):
    sc = coarse_scenario
    fine = Bundle(w=sc.w, v=sc.v,
                  quad=QuadratureSpec(k_panels=16, k_nodes=16, x_nodes=40))
    base = sjstar_sj(1, 1e-4, sc)
    dbl = sjstar_sj(1, 1e-4, fine)
    assert (count_above(base.kernel, 1.0).count
            == count_above(dbl.kernel, 1.0).count)


def _assert_exact_reach(j, b, x_sup, a):
    """k_truncation's K lies past the envelope peak on [a, inf) where the
    log envelope f (p_j left out) has fallen by exactly -ln _TAIL_REL, to
    1e-9 nats.  The peak is found apart from k_truncation's quadratic:
    f is concave, so its peak is a or the root of f', bisected."""
    rb = math.sqrt(b)

    def f(k):
        return (2 * j - 2) * math.log(k) - (k / rb - rb * x_sup) ** 2

    def df(k):
        return (2 * j - 2) / k - 2.0 * k / b + 2.0 * x_sup

    k = k_truncation(j, b, x_sup, a)
    assert df(k) < 0
    peak, hi = max(a, 1e-6), k
    if df(peak) > 0:
        for _ in range(100):
            mid = 0.5 * (peak + hi)
            peak, hi = (mid, hi) if df(mid) > 0 else (peak, mid)
    assert k > peak
    assert f(k) - f(peak) == pytest.approx(math.log(bsham._TAIL_REL),
                                           abs=1e-9)
    return k


REACH_J = (1, 2, 3, 5, 20, 60, 170)
REACH_B = (0.3, 1.0, 2.5)


def test_reach_is_the_exact_envelope_root():
    # the grid search the closed form replaced finds its cut within one
    # grid step past the root for every band up to 20; for higher bands
    # the cut may lie past its search boundary
    for j, b, a in itertools.product(REACH_J, REACH_B, (0.0, 0.3, 3.0)):
        for x_sup in np.linspace(-2.0, 2.0, 9):
            k = _assert_exact_reach(j, b, x_sup, a)
            k_grid = grid_reach(j, b, x_sup, a)
            assert k_grid is not None or j > 20
            if k_grid is not None:
                assert 0.0 <= k_grid - k < 0.01 * math.sqrt(b)


def test_reach_grows_strictly_with_the_support():
    # so the whole-line reach is the half-line reach at the farther end
    for j, b in itertools.product(REACH_J, REACH_B):
        reach = [k_truncation(j, b, x) for x in np.linspace(-5.0, 5.0, 401)]
        assert all(k2 > k1 for k1, k2 in zip(reach, reach[1:]))


def test_truncation_is_certified(monkeypatch):
    k1 = k_truncation(1, 1.0, 0.5)
    assert k1 > 0.5
    # growing support reach pushes the cutoff out
    assert k_truncation(1, 1.0, 2.0) > k1
    # the whole-line reach is the larger half-line reach: the envelope
    # is symmetric under (k, x) -> (-k, -x)
    v = Perturbation(support=rect(-2.0, 0.5, 0.0, 1.0))
    assert bsham._full_line_reach(1, 1.0, v) == k_truncation(1, 1.0, 2.0) > k1
    v = Perturbation(support=rect(-0.5, 2.0, 0.0, 1.0))
    assert bsham._full_line_reach(1, 1.0, v) == k_truncation(1, 1.0, 2.0)
    # a high band's envelope peaks late: the grid search stopped at its
    # boundary, 14.39, and warned; the root lies at 17.73
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _assert_exact_reach(170, 1.0, 0.4, 0.0) == pytest.approx(
            17.7349, abs=1e-4)
    assert grid_reach(170, 1.0, 0.4) is None
    # a cut far below any search boundary is still the exact root
    monkeypatch.setattr(bsham, "_TAIL_REL", 1e-300)
    _assert_exact_reach(1, 1.0, 0.0, 0.0)


def _full_line_route_counts(sc):
    """(nodes, counts at r = 0.5, 1, 2 of the sections and Gauss y-routes)
    of the full-line Grams at depth 1e-3, as bs-count tabulates them."""
    ops = (full_line_gram(1, 1e-3, sc),
           full_line_gram(1, 1e-3, sc, y_order=sc.quad.gauss_y_order))
    return ops[0].n, [[count_above(op.kernel, r).count for r in (0.5, 1, 2)]
                      for op in ops]


def test_full_line_grams_resolve_the_plane_waves_of_a_tall_support():
    # growth's support is 40 tall: 8 momentum panels span 10.8 periods
    # 2 pi / 40 each and miscount (sections 23, 18, 13; Gauss 13, 11,
    # 10).  The momentum rule keeps a panel within 4 periods, and no
    # count moves when the panels are doubled
    sc = load_scenario(str(ROOT / "configs" / "growth.json"))
    n, counts = _full_line_route_counts(sc)
    assert counts == [[23, 19, 13], [13, 12, 10]]
    doubled = replace(sc.quad, k_panels=2 * n // sc.quad.k_nodes)
    assert _full_line_route_counts(replace(sc, quad=doubled)) == (2 * n, counts)


def test_parameter_validation(coarse_scenario):
    sc = coarse_scenario
    with pytest.raises(ValueError):
        sjstar_sj(1, 0.0, sc)
    with pytest.raises(ValueError):
        effective_count(1, 1e-4, 0.0, sc)
    with pytest.raises(ValueError):
        bs_count(1, -1e-4, sc)


@pytest.mark.parametrize("route", ["sections", "gauss"])
def test_upper_triangle_gram_equals_full_accumulation(monkeypatch, route):
    # the reference effective-count kernel (closed-form sections) and the
    # bs-count route-agreement kernel (Gauss y-rule): product_gram's upper
    # triangle accumulation gives the full-matrix one's bits
    sc = load_scenario(REFERENCE_CONFIG)
    calls = []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return product_gram(*args, **kwargs)

    monkeypatch.setattr(bsham, "product_gram", spy)
    lam = sc.lam_grid.start
    if route == "sections":
        bsham.effective_count(sc.j, lam, 0.3, sc)
    else:
        full_line_gram(sc.j, lam, sc, y_order=sc.quad.gauss_y_order)
    (args, kwargs), = calls
    assert kwargs["y_order"] == (0 if route == "sections" else 12)
    kernel = product_gram(*args, **kwargs).kernel
    log_mag, phase = full_product_gram(*args, **kwargs)
    assert np.array_equal(kernel.log_mag, log_mag)
    assert np.array_equal(kernel.phase, phase)
    assert np.array_equal(kernel.log_mag, kernel.log_mag.T)
    assert np.array_equal(kernel.phase, -kernel.phase.T)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a.view(np.int64), b.view(np.int64)))


@pytest.mark.parametrize("config", ["reference", "growth"])
def test_one_pass_columns_equal_the_per_block_path(config):
    # every momentum solved in one batch, each vector reduced to its
    # support-node values as it converges, gives the bits of whole vectors
    # solved 32 momenta at a time and interpolated after the solve; the
    # columns stay C-ordered, so the BLAS products of bs_count see the
    # same layout
    sc = load_scenario(str(ROOT / "configs" / f"{config}.json"))
    j_sum = sc.verify_params("bs")["j_sum"]
    amp, _, _, _, energy, _, _ = bsham._resolvent_columns(sc.j, j_sum, sc)
    want_amp, want_energy = fiber_oracle.resolvent_columns(sc.j, j_sum, sc)
    assert _same_bits(amp, want_amp) and amp.flags.c_contiguous
    assert _same_bits(energy, want_energy)


def test_eigenvector_signs_never_reach_the_counted_matrix(monkeypatch):
    # each column of -M = C diag(s) C^* meets its own conjugate, and
    # negation is exact in floating point: negating a seeded half of the
    # columns of amp gives every matrix bs_count counts the same bits
    sc = load_scenario(REFERENCE_CONFIG)
    j_sum = sc.verify_params("bs")["j_sum"]
    lams = sc.lam_grid.values()
    columns = bsham._resolvent_columns

    def negated(*args):
        amp, *rest = columns(*args)
        half = np.random.default_rng(25).permutation(amp.shape[1])
        amp[:, half[:amp.shape[1] // 2]] *= -1.0
        return (amp, *rest)

    def counted():
        seen = []

        def record(m, s):
            seen.append(m.copy())
            return count_above(m, s)

        monkeypatch.setattr(bsham, "count_above", record)
        return bs_count(sc.j, lams, sc, j_sum=j_sum), seen

    counts, plain = counted()
    monkeypatch.setattr(bsham, "_resolvent_columns", negated)
    flipped_counts, flipped = counted()
    assert flipped_counts == counts and len(plain) == len(lams) == 3
    for a, b in zip(plain, flipped):
        assert _same_bits(a, b) and a.dtype == complex


def test_momentum_column_is_the_same_alone_or_batched():
    # a momentum's support-node values and energies have the same bits
    # alone (Python float sweeps) and among 40 momenta
    sc = load_scenario(REFERENCE_CONFIG)
    x = np.linspace(-0.25, 0.4, 9)
    ks = np.linspace(-6.0, 6.0, 40)
    energies, values = solve_fiber(sc.fiber, ks, 6, at=x)
    assert values.shape == (40, 6, 9)
    for i in (0, 13, 39):
        alone = solve_fiber(sc.fiber, float(ks[i]), 6, at=x)
        assert _same_bits(alone[0], energies[i:i + 1])
        assert _same_bits(alone[1], values[i:i + 1])


def test_resolvent_columns_hold_no_whole_vectors():
    # the one fiber pass holds the fine base and one lane block's pivots;
    # 32-momentum blocks of whole eigenvectors peaked at 13.5 MB (gap
    # model built inside, as here)
    sc = load_scenario(REFERENCE_CONFIG)
    bsham.get_gap_model.cache_clear()
    _, peak = traced_peak(lambda: bsham._resolvent_columns(sc.j, 6, sc))
    assert peak <= 13.4e6


def test_a_reach_that_misses_the_kernel_warns():
    # band 170's envelope peaks 2^169-fold above its Hermite function, so
    # its reach 17.73 stops where the kernel is still at its peak; the
    # counts move as K is raised by hand, so no depth counts silently
    doc = json.loads((ROOT / "configs" / "reference.json").read_text())
    doc["fiber"] = {"n": 8001, "half_width": 30.0}
    sc = scenario_from_dict(doc)
    with pytest.warns(TruncationWarning, match="lam = 0.001"):
        effective_count(170, 1e-3, 0.3, sc)
