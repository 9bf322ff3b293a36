"""Gap counting routes: Gram, coherent-family, and resolvent agreement."""

import numpy as np
import pytest

from edgegap import bsham
from edgegap.bsham import (
    bs_count,
    effective_count,
    full_line_gram,
    k_truncation,
    k_truncation_symmetric,
    sjstar_sj,
)
from edgegap.errors import TruncationWarning
from edgegap.operators import QuadratureSpec, product_gram
from edgegap.scenario import load_scenario
from tests.conftest import REFERENCE_CONFIG, Bundle
from tests.model_oracles import full_product_gram

# (depth, (lower, upper)) brackets on the coarse scenario at eps = 0.3
BRACKETS = [(1e-3, (1, 2)), (1e-4, (2, 2)), (1e-5, (2, 2))]


def bracket(*args):
    """The (lower, upper) counts of effective_count's two reports."""
    return tuple(rep.count for rep in effective_count(*args))


def test_kernel_hermitian_and_psd(coarse_scenario):
    sc = coarse_scenario
    op = sjstar_sj(1, 1e-3, sc.a_momentum, sc.quad, sc.v, sc.w, sc.b)
    op.kernel.check_hermitian()
    ev = np.linalg.eigvalsh(op.kernel.to_dense())
    assert ev.min() >= -1e-8 * ev.max()
    assert ev.max() > 1.0  # something to count at this depth


def test_zero_perturbation_counts_nothing(coarse_scenario):
    empty = Bundle(w=coarse_scenario.w, v=None)
    assert bracket(1, 1e-4, 0.3, empty) == (0, 0)
    assert bs_count(1, 1e-4, empty) == 0
    op = sjstar_sj(1, 1e-4, 0.0, empty.quad, None, empty.w, 1.0)
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
        assert full.count_above(r * r).count == anti.count_above(r * r).count


def test_count_stable_under_node_doubling(coarse_scenario):
    sc = coarse_scenario
    fine = QuadratureSpec(k_panels=16, k_nodes=16, x_nodes=40)
    base = sjstar_sj(1, 1e-4, 0.0, sc.quad, sc.v, sc.w, sc.b)
    dbl = sjstar_sj(1, 1e-4, 0.0, fine, sc.v, sc.w, sc.b)
    assert base.count_above(1.0).count == dbl.count_above(1.0).count


def test_truncation_is_certified():
    k1 = k_truncation(1, 1.0, 0.5)
    assert k1 > 0.5
    # growing support reach pushes the cutoff out
    assert k_truncation(1, 1.0, 2.0) > k1
    ks = k_truncation_symmetric(1, 1.0, -1.0, 1.0)
    # matches the one-sided cutoff up to the 0.01 sqrt(b) search step
    assert ks >= k_truncation(1, 1.0, 1.0, 0.0) - 0.02
    with pytest.warns(TruncationWarning):
        k_truncation(1, 1.0, 0.0, rel=1e-300)


def test_parameter_validation(coarse_scenario):
    sc = coarse_scenario
    with pytest.raises(ValueError):
        sjstar_sj(1, 0.0, 0.0, sc.quad, sc.v, sc.w, sc.b)
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
