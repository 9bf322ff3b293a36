"""Fiber bands: Landau levels, edge behavior, and the twin-operator gap route.

The frozen GAP_ORACLE values below are continuum references computed once
with a 60-digit matched parabolic-cylinder solve of the piecewise
oscillator (log-derivative continuity at the jump, bisection on the
energy).  The twin route, extrapolated over the (n, n_half) grid pair,
reproduces them to about 1e-4 relative (5.1e-5, 1.1e-4 and 3.2e-5 at
k = 4, 5, 6 on the default window); tolerances are pinned at roughly
three times the measured relative error at each momentum.
"""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erfc

from edgegap import fiber, tridiagonal
from edgegap.cli import run
from edgegap.errors import ConvergenceFailure, NoGap, WrongPotentialKind
from edgegap.fiber import (
    _plus_twin,
    FiberDiscretization,
    GapModel,
    band_table,
    edge_comparison,
    edge_comparisons,
    gap_edges,
    phi_squared,
    solve_fiber,
    step_tail_asymptote,
)
from edgegap.operators import gauss_legendre
from edgegap.potentials import EdgePotential, step_potential
from edgegap.scenario import load_scenario
from tests import fiber_oracle
from tests.conftest import REFERENCE_CONFIG, gap_to_phi_ratios, traced_peak
from tests.fiber_oracle import bisection_levels
from tests.model_oracles import hermite_tails
from tests.mp_edge_oracle import mp_edge_comparison

GAP_ORACLE = {
    4.0: (7.945920365052581877e-9, 1.5e-4),
    5.0: (7.839289952421256793e-13, 3.5e-4),
    6.0: (1.090801836739223557e-17, 1e-4),
}


@pytest.fixture(scope="module")
def disc01(step01):
    return FiberDiscretization(b=1.0, w=step01)


def test_discretization_validation(step01):
    with pytest.raises(ValueError):
        FiberDiscretization(b=-1.0)
    with pytest.raises(ValueError):
        FiberDiscretization(n=100)
    with pytest.raises(ValueError):
        FiberDiscretization(half_width=2.0)
    assert FiberDiscretization(b=4.0).half_width == 6.0


def test_landau_levels_flat_in_momentum():
    disc = FiberDiscretization(b=1.0, w=None)
    for k in (0.0, 3.7):
        energies, _ = solve_fiber(disc, k, 3)
        np.testing.assert_allclose(energies[0], [1.0, 3.0, 5.0], atol=1e-7)


def test_convergence_guard_trips_on_tight_tolerance(monkeypatch):
    disc = FiberDiscretization(b=1.0, w=None, n=301)
    monkeypatch.setattr(fiber, "_ENERGY_CONV_TOL", 1e-14)
    with pytest.raises(ConvergenceFailure):
        solve_fiber(disc, 0.0, 1)


def test_gap_edges_values(step01):
    assert gap_edges(1.0, step01, 1) == (2.0, 3.0)
    assert gap_edges(1.0, None, 2) == (3.0, 5.0)
    with pytest.raises(NoGap):
        gap_edges(1.0, step_potential(0.0, 2.5, 0.0), 1)
    with pytest.raises(ValueError):
        gap_edges(1.0, step01, 0)


def test_band_monotone_between_limits(step01):
    disc = FiberDiscretization(b=1.0, w=step01)
    energies = band_table(disc, np.linspace(-8, 8, 21), 2)
    e1 = energies[0]
    assert np.all(np.diff(e1) > -1e-8)
    assert e1[0] == pytest.approx(1.0, abs=1e-3)   # b(2j-1) + W_-
    assert e1[-1] == pytest.approx(2.0, abs=1e-3)  # b(2j-1) + W_+
    # simple spectrum: bands interlace strictly
    assert np.all(energies[1] - energies[0] > 0)


@pytest.fixture(scope="module")
def reference():
    """(reference scenario, its fiber window)."""
    sc = load_scenario(REFERENCE_CONFIG)
    return sc, sc.fiber


@pytest.mark.parametrize("j_max, stride", [(1, 1), (3, 5)])
def test_band_table_energies_equal_solve_fiber(reference, j_max, stride):
    # on the reference window and k grid (every stride-th point)
    # band_table's energies are solve_fiber's, bit for bit
    sc, disc = reference
    k_grid = sc.k_grid.values()[::stride]
    energies = band_table(disc, k_grid, j_max)
    want = solve_fiber(disc, k_grid, j_max)[0].T
    assert energies.shape == (j_max, len(k_grid))
    assert np.array_equal(energies, want)


@pytest.mark.parametrize("j_max, stride", [(1, 1), (6, 5)])
def test_solve_fiber_reproduces_bisection_route(reference, j_max, stride):
    # the numpy eigensolver against LAPACK bisection on both grids with
    # exact-sum Rayleigh quotients, on the reference window and k grid
    # (every stride-th point)
    sc, disc = reference
    ks = sc.k_grid.values()[::stride].tolist()
    for k, got, values in zip(ks, *solve_fiber(disc, ks, j_max)):
        energies, vecs = bisection_levels(disc, k, j_max)
        np.testing.assert_allclose(got, energies, rtol=1e-14, atol=0)
        for row, ref in zip(values, vecs.T):
            unit = row / np.linalg.norm(row)
            assert 1.0 - abs(unit @ ref) <= 1e-13


def test_coarse_energies_within_bisection_error(reference):
    # the n_half energies are Rayleigh quotients; LAPACK stebz eigenvalues
    # are only as good as its stopping width 2 eps ||T||_1, and the two
    # agree within it
    from scipy.linalg import eigh_tridiagonal
    sc, disc = reference
    ks = sc.k_grid.values()[::20]
    levels = np.arange(1, 7)[None, :]
    h, p, base = fiber._bases(disc, ks, disc.n_half)
    coarse, _ = tridiagonal.certified_levels(
        base, p, levels, *fiber._band_brackets(disc.b, levels, h, 0.0, 1.0))
    for k, new in zip(ks, coarse):
        diag, off, _ = fiber_oracle.fiber_matrix(disc, float(k), disc.n_half)
        old = eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                               select_range=(0, 5))
        bound = 2.0 * np.finfo(float).eps * float(np.max(np.abs(diag)) + 2.0 * p)
        assert np.all(np.abs(new - old) <= bound)


def test_isolation_falls_back_to_gershgorin(disc01):
    # start brackets that hold the wrong levels (or none) are rejected by
    # their Sturm counts; bisection from the Gershgorin interval still
    # isolates each level, and the result matches the band brackets'
    h, p, base = fiber._bases(disc01, (1.0, 4.0), disc01.n_half)
    levels = np.arange(1, 4)[None, :]
    good = tridiagonal.isolate(
        base, p, levels, *(np.broadcast_to(x, (2, 3)) for x in
                           fiber._band_brackets(1.0, levels, h, 0.0, 1.0)),
        tridiagonal._BRACKET_REL)
    wrong = np.broadcast_to(np.array([[4.0, 0.5, 2.5]]), (2, 3))
    lo, hi = tridiagonal.isolate(base, p, levels, wrong, wrong + 0.1,
                                 tridiagonal._BRACKET_REL)
    assert np.all((lo < good[1]) & (good[0] < hi))
    assert np.all(hi - lo <= tridiagonal._BRACKET_REL * (1.0 + np.abs(hi)))


def _fine_twin(disc, j, ks):
    """The n-grid twins of the coarse-to-fine pair at ks, with their
    vectors and without the pair's h^2 guard on the gap."""
    ks = np.asarray(ks, dtype=float)
    coarse = fiber._twin_levels(disc, j, ks, disc.n_half, None, None)
    return fiber._twin_levels(disc, j, ks, disc.n,
                              (coarse.shift, coarse.plus[4]),
                              tridiagonal.keep_vectors)


def test_one_momentum_alone_or_batched_is_bit_identical(disc01):
    # 20 momenta sweep their pivot rows in chunks, one momentum forms all
    # of them in one call: a lane's bits do not depend on its batch
    ks = np.linspace(-3.0, 7.0, 20)
    energies, values = solve_fiber(disc01, ks, 3)
    for i in (0, 7, 19):
        alone = solve_fiber(disc01, float(ks[i]), 3)
        assert np.array_equal(alone[0], energies[i:i + 1])
        assert np.array_equal(alone[1], values[i:i + 1])
    twins = fiber._twin_comparisons(_fine_twin(disc01, 1, ks[6:]), 1)
    for k, twin in zip(ks[6:], twins):
        (alone,) = fiber._twin_comparisons(_fine_twin(disc01, 1, [k]), 1)
        assert alone == twin
    gaps = fiber._twin_pair(disc01, 1, ks[6:], None)[1]
    comparisons = edge_comparisons(disc01, 1, ks[6:])
    for k, gap, cmp in zip(ks[6:], gaps, comparisons):
        assert edge_comparison(disc01, 1, float(k)) == cmp
        assert cmp.gap_dist == gap


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a.view(np.int64), b.view(np.int64)))


@pytest.mark.parametrize("lanes", [1, 6, 7, 12, 13, 192, 300])
def test_chunked_twisted_factorization_is_bit_identical(reference, lanes):
    # pivot rows formed from base chunk by chunk, both sweeps in one row
    # loop and the twist found after them give the pivots, twists and
    # vectors of the whole-array factorization, from one chunk of every
    # row (1 lane) to 64-row chunks (from 128 lanes), at shifts among the
    # levels 1..6 of the reference window and of its mirror-symmetric
    # min(base, mirrored base), whose gammas are mirror-equal bit for bit:
    # each twist off the centre row there is a tie, and goes to the lower
    sc, disc = reference
    ks = np.linspace(-4.0, 6.0, -(-lanes // 6))
    h, p, base = fiber._bases(disc, ks)
    ik = np.repeat(np.arange(len(ks)), 6)[:lanes]
    levels = np.tile(np.arange(1, 7), len(ks))[:lanes]
    shift = np.mean(fiber._band_brackets(disc.b, levels, h, 0.0, 1.0), axis=0)
    for case in (base, np.minimum(base, base[::-1])):
        beta = (case[:, ik] - shift) / p + 2.0
        new = tridiagonal._twisted(case, p, ik, shift)
        for got, want in zip(new, fiber_oracle.twisted(beta)):
            assert _same_bits(got, want)
        assert _same_bits(tridiagonal._twisted_vectors(case, p, ik, shift),
                          fiber_oracle.twisted_vectors(beta))
    assert np.all(new[2] <= len(base) // 2)


def test_refine_in_split_lane_blocks_is_bit_identical(reference):
    # 60 momenta x 5 levels are 300 lanes, and the first lane block ends
    # inside the 39th momentum: blocks, chunked pivots and vectors
    # written straight into the result give the energies and vectors of
    # the whole-array iteration, and the kept curvature is that of the
    # vectors
    sc, disc = reference
    ks = sc.k_grid.values()[::6][:60]
    assert 5 * len(ks) == 300 > tridiagonal._LANE_BLOCK
    h, p, base = fiber._bases(disc, ks)
    seeds = band_table(disc, ks, 5).T
    want, vecs = fiber_oracle.refine(base, p, seeds)
    energies, got = tridiagonal.refine(base, p, seeds,
                                       tridiagonal.keep_vectors)
    assert _same_bits(energies, want) and _same_bits(got, vecs)
    energies, curv = tridiagonal.refine(base, p, seeds,
                                        tridiagonal.keep_curvature)
    d2 = np.diff(vecs, n=2, axis=-1, prepend=0.0, append=0.0)
    assert _same_bits(energies, want)
    assert _same_bits(curv, (d2 * d2).sum(axis=-1))
    energies, kept = tridiagonal.refine(base, p, seeds)
    assert _same_bits(energies, want) and kept is None


def test_fiber_solves_stay_inside_a_fixed_working_set(reference):
    # solve_fiber keeps its vectors beside the fine grid's base and one
    # lane block's two pivot arrays, 2.31x the vectors; the whole-array
    # pivots, the unit-vector buffer and the coarse vectors reached 3.7x,
    # and psi_inf of one level, formed for a sign pass, 2.39x.  band_table
    # keeps the fine grid's base and one lane block's pivots; the coarse
    # vectors and their second differences took it to 21.6 MB.
    sc, disc = reference
    ks = sc.k_grid.values()[::6][:64]
    (_, vectors), peak = traced_peak(lambda: solve_fiber(disc, ks, 6))
    assert vectors.shape == (64, 6, disc.n)
    assert peak <= 2.5 * vectors.nbytes
    energies, peak = traced_peak(
        lambda: band_table(disc, sc.k_grid.values(), 1))
    assert energies.shape == (1, 401)
    assert peak <= 15e6


def test_edge_comparisons_ignore_order_and_keep_no_state(disc01, monkeypatch):
    # a shuffled batch with a repeated momentum gives each momentum the
    # bits of a sorted batch, and asking again solves again: nothing is
    # kept between calls
    ks = [5.0, 3.0, 6.0, 3.0, 4.0]
    sorted_batch = dict(zip([3.0, 4.0, 5.0, 6.0],
                            edge_comparisons(disc01, 1, [3.0, 4.0, 5.0, 6.0])))
    solves = []
    twin_levels = fiber._twin_levels

    def counting(disc, j, lanes, *grid):
        solves.append(len(lanes))
        return twin_levels(disc, j, lanes, *grid)

    monkeypatch.setattr(fiber, "_twin_levels", counting)
    for _ in range(2):
        shuffled = edge_comparisons(disc01, 1, ks)
        assert [c.k for c in shuffled] == ks
        for cmp in shuffled:
            assert cmp == sorted_batch[cmp.k]
    # one fine and one coarse batch per call
    assert solves == [5, 5, 5, 5]


def test_gap_model_nodes_take_no_exact_sum(disc01, monkeypatch):
    # GapModel's nodes shift each twin lane by its pairwise Rayleigh
    # quotient; the exact sum is left to reported energies.  The first
    # build solves the constant-W_+ twin, once per grid of the window.
    ks = np.linspace(-2.0, 4.0, 13)
    first = fiber._twin_pair(disc01, 1, ks, None)[1]

    def exact_sum(*args):
        raise AssertionError("exact-sum Rayleigh quotient on a GapModel node")

    with monkeypatch.context() as patch:
        patch.setattr(tridiagonal, "rayleigh_quotient", exact_sum)
        gaps = fiber._twin_pair(disc01, 1, ks, None)[1]
    assert np.array_equal(gaps, first)
    # energy_w is the exact-sum quotient of the twin eigenvector, bit for bit
    tw = fiber._twin_pair(disc01, 1, ks, tridiagonal.keep_vectors)[0]
    for i, (k, gap) in enumerate(zip(ks.tolist(), gaps)):
        cmp = edge_comparison(disc01, 1, k)
        assert cmp.gap_dist == gap
        assert cmp.energy_w == tridiagonal.rayleigh_quotient(
            tw.base[:, i], tw.p, tw.vectors[i])


def _corrupt_seeds(monkeypatch, rows, corrupt):
    """Route the Rayleigh-quotient iteration of the fiber grid with `rows`
    points through corrupt(seeds) -> seeds."""
    refine = tridiagonal.refine

    def refine_from(base, p, sigma, keep=None):
        if base.shape[0] == rows:
            sigma = corrupt(sigma.copy())
        return refine(base, p, sigma, keep)

    monkeypatch.setattr(tridiagonal, "refine", refine_from)


@pytest.mark.parametrize("slot, source", [(0, 1), (1, 0), (2, 1)])
def test_level_guard_rejects_a_wrong_seed(disc01, monkeypatch, slot, source):
    # one lane seeded with another level's energy: the iteration lands on
    # that level, outside the coarse lane's isolating bracket, or far from
    # the fine lane's coarse value
    def wrong_seeds(sigma):
        sigma[:, slot] = sigma[:, source]
        return sigma

    for grid, match in (("n_half", "isolating bracket"),
                        ("n", r"h\^2 correction")):
        with monkeypatch.context() as patch:
            _corrupt_seeds(patch, getattr(disc01, grid), wrong_seeds)
            with pytest.raises(ConvergenceFailure, match=match):
                solve_fiber(disc01, 1.0, 3)


def test_level_order_rejects_a_swapped_pair(disc01, monkeypatch):
    # two fine-grid lanes seeded with each other's levels, with a guard too
    # loose to see that they missed their coarse values, as where two
    # levels lie within 6 conv_tol of each other: the energies come out of
    # order
    _corrupt_seeds(monkeypatch, disc01.n, lambda sigma: sigma[:, [1, 0, 2]])
    monkeypatch.setattr(fiber, "_ENERGY_CONV_TOL", 10.0)
    with pytest.raises(ConvergenceFailure, match="out of order"):
        solve_fiber(disc01, 1.0, 3)


def test_constant_twin_is_one_matrix_per_window(disc01, step01):
    # the offsets grid makes the constant-W_+ operator k-independent, bit
    # for bit, so one GapModel solves it once on each grid of its pair
    first, *rest = [fiber_oracle.fiber_matrix(disc01, k, w_plus=1.0)
                    for k in (-3.0, 0.7, 5.0)]
    for diag, off, h in rest:
        assert np.array_equal(diag, first[0]) and np.array_equal(off, first[1])
        assert h == first[2]
    _plus_twin.cache_clear()
    GapModel(1.0, step01, 1, -2.0, 4.0)
    assert _plus_twin.cache_info().misses == 2


@pytest.mark.parametrize("k", sorted(GAP_ORACLE))
def test_gap_distance_against_continuum_oracle(disc01, k):
    oracle, tol = GAP_ORACLE[k]
    assert edge_comparison(disc01, 1, k).gap_dist == pytest.approx(
        oracle, rel=tol)


def _rank_one_trace_norm(c):
    """||P - Q||_1 = 2 sqrt(1 - c^2) of rank-one projections with
    |<p, q>| = c."""
    return 2.0 * math.sqrt((1.0 - c) * (1.0 + c))


def test_edge_comparison_internal_consistency(disc01):
    cmp = edge_comparison(disc01, 1, 4.0)
    assert 0.99 < cmp.overlap <= 1.0
    # scaled_distance recomputes from its double-precision factors at k=4,
    # where the overlap defect is still representable
    recomputed = _rank_one_trace_norm(cmp.overlap) / math.sqrt(cmp.gap_dist)
    assert cmp.scaled_distance == pytest.approx(recomputed, rel=1e-2)


def test_trace_norm_distance_exact():
    # the identity behind ||pi - pi_inf||_1 = 2 sqrt(defect), against the
    # singular values of P - Q for unit vectors p, q with <p, q> = c
    for c, want in ((1.0, 0.0), (0.0, 2.0), (-0.6, 1.6)):
        p, q = np.array([1.0, 0.0]), np.array([c, math.sqrt(1.0 - c * c)])
        diff = np.outer(p, p) - np.outer(q, q)
        assert np.linalg.norm(diff, "nuc") == pytest.approx(want, rel=1e-15)
        assert _rank_one_trace_norm(c) == pytest.approx(want, rel=1e-15)


def test_projection_distance_free_case():
    # W = None: the twins coincide, so the gap, the defect and the scaled
    # distance are exactly 0
    cmp = edge_comparison(FiberDiscretization(b=1.0, w=None), 1, 2.0)
    assert (cmp.gap_dist, cmp.defect, cmp.scaled_distance) == (0.0, 0.0, 0.0)


def test_phi_squared_erfc_identity(step01):
    # j=1 against the exact step integral erfc(k/sqrt(b) - sqrt(b) x0)/2
    for k in (-2.0, 0.5, 1.0, 2.0, 3.0):
        assert phi_squared(1, k, 1.0, step01) == pytest.approx(
            0.5 * erfc(k), rel=1e-8)
    shifted = step_potential(0.0, 0.6, 0.25)
    assert phi_squared(1, 1.0, 4.0, shifted) == pytest.approx(
        0.3 * erfc(0.5 - 0.5), rel=1e-8)


@pytest.mark.parametrize("b", [1.0, 1.7, 4.0])
@pytest.mark.parametrize("w", [
    step_potential(0.0, 0.8, 0.3),
    EdgePotential(kind="piecewise_constant", breakpoints=(-0.5, 0.4),
                  values=(0.0, 0.35, 1.0)),
], ids=["step", "piecewise"])
def test_phi_squared_hermite_tail_identity(w, b):
    # W_+ - W(x + k/b) is a sum of indicators of x < c - k/b, one per jump
    # c, so Phi_j(k)^2 sums jump * int_t^inf phi_{j-1}^2 at
    # t = k/sqrt(b) - sqrt(b) c; k reaches 16, where the Gaussian tail of
    # the last jump lies past 10/sqrt(b) of the eigenfunction's centre
    jumps, values = w.breakpoints, w.values
    for k in np.arange(-4.0, 16.5, 0.5):
        tails = [hermite_tails(8, k / math.sqrt(b) - math.sqrt(b) * c)
                 for c in jumps]
        for j in range(1, 9):
            want = sum((hi - lo) * tail[j - 1] for lo, hi, tail
                       in zip(values[:-1], values[1:], tails))
            assert phi_squared(j, float(k), b, w) == pytest.approx(
                want, rel=1e-12, abs=0.0), (j, k)


def test_gauss_legendre_rule_is_built_once_and_read_only(monkeypatch):
    # every Gauss-Legendre rule of the package comes from one cache: a
    # phi_squared sweep builds its 24-point rule at most once
    base = gauss_legendre(24)
    assert base is gauss_legendre(24)
    for arr, want in zip(base, np.polynomial.legendre.leggauss(24)):
        assert np.array_equal(arr, want) and not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    calls = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda n: calls.append(n) or leggauss(n))
    w = step_potential(0.0, 1.0, 0.0)
    for k in (0.0, 1.0, 2.0):
        phi_squared(1, k, 1.0, w)
    assert calls == []


def test_gap_ratio_to_coupling_tends_to_one(step01):
    disc = FiberDiscretization(b=1.0, w=step01)
    ratios = gap_to_phi_ratios(disc, 1, [4.0, 5.0, 6.0])
    assert all(r > 1.0 for r in ratios)
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[2] == pytest.approx(1.0, abs=0.05)
    (r_j2,) = gap_to_phi_ratios(disc, 2, [6.0])
    assert r_j2 == pytest.approx(1.0, abs=0.05)


def test_scaled_projection_distance_decays(step01):
    near, far = (c.scaled_distance for c in edge_comparisons(
        FiberDiscretization(b=1.0, w=step01), 1, [4.0, 6.0]))
    assert 0.0 < far < near
    assert far < 0.2
    (free,) = edge_comparisons(FiberDiscretization(b=1.0, w=None), 1, [4.0])
    assert free.scaled_distance == 0.0


def test_closed_form_tail_ratio(step01):
    ratio = (phi_squared(1, 5.0, 1.0, step01)
             / step_tail_asymptote(1, 5.0, 1.0, step01))
    assert ratio == pytest.approx(1.0, abs=0.05)
    with pytest.raises(WrongPotentialKind):
        step_tail_asymptote(1, 5.0, 1.0, None)


def test_tail_asymptote_takes_its_limits_outside_the_double_range(step01):
    # k^{-1} at a subnormal k overflowed math.exp, and a momentum past
    # 1e154 overflowed the square of the Gaussian exponent: verify lau25
    # and phi ended in an OverflowError
    assert step_tail_asymptote(1, 2.2e-311, 1.0, step01) == math.inf
    assert step_tail_asymptote(1, -5e-324, 1.0, step01) == -math.inf
    assert 0.0 < step_tail_asymptote(2, 2.2e-311, 1.0, step01) < 1e-300
    for k in (1e160, -1e300):
        assert step_tail_asymptote(1, k, 1.0, step01) == 0.0
        assert step_tail_asymptote(3, k, 1.0, step01) == 0.0
    assert step_tail_asymptote(1, 5.0, 1.0, step01) > 0.0


def test_gap_model_spline(step01):
    from scipy.interpolate import CubicSpline
    model = GapModel(1.0, step01, 1, -2.0, 4.0)
    # spline passes through its nodes, each read from edge_comparison
    nodes = np.linspace(-2.0, 4.0, len(model._log_gap))
    np.testing.assert_allclose(
        model.gap(nodes),
        [c.gap_dist for c in edge_comparisons(model.disc, 1, nodes)],
        rtol=1e-13)
    # the classic not-a-knot cubic through the same ln g values
    ks = np.linspace(-2.0, 4.0, 241)
    gaps = model.gap(ks)
    reference = np.exp(CubicSpline(nodes, model._log_gap)(ks))
    np.testing.assert_allclose(gaps, reference, rtol=1e-13)
    assert np.all(np.diff(gaps[ks >= 0.0]) < 0)
    lam = 1e-4
    np.testing.assert_allclose(model.weight(ks, lam),
                               1.0 / np.sqrt(gaps + lam), rtol=1e-14)
    with pytest.raises(ValueError):
        model.weight(0.0, 0.0)
    for outside in (5.0, -2.5, math.nan):
        with pytest.raises(ValueError, match="outside the modeled range"):
            model.gap(outside)


def test_gap_model_free_case():
    model = GapModel(1.0, None, 1, -2.0, 2.0)
    assert np.all(model.gap(np.array([-1.0, 0.0, 1.0])) == 0.0)


@pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("j", [1, 2, 3])
def test_free_comparisons_read_the_free_twin(b, j):
    # for W = None the twins coincide: energy_w is level j of the free
    # fiber, which is the constant-W_+ twin at W_+ = 0, bit for bit, and
    # the level solved from the n-grid window at k = 0
    disc = FiberDiscretization(b=b)
    energy = _plus_twin(disc, disc.n, 0.0, j)[4]
    assert energy == fiber_oracle.free_energy(disc, j)
    for cmp, k in zip(edge_comparisons(disc, j, [-1.0, 0.0, 3.0]),
                      (-1.0, 0.0, 3.0)):
        assert cmp == fiber.EdgeComparison(
            j=j, k=k, gap_dist=0.0, overlap=1.0, defect=0.0,
            scaled_distance=0.0, energy_w=energy)


# (potential, j, k, half_width); the wide window puts the jump where the
# eigensolver's own tail components have stalled at their error floor
TWIN_CASES = [("step", 1, k, None) for k in (2.0, 4.0, 5.0, 6.0, 8.0)] + [
    ("step", 2, 6.0, None), ("step", 2, 10.0, None), ("step", 1, 16.0, 20.0),
    ("two_step_upper", 1, 4.0, None), ("piecewise_constant", 1, 5.0, None),
    ("smooth_monotone", 1, 5.0, None)]
TWIN_POTENTIALS = {
    "step": step_potential(0.0, 1.0, 0.0),
    "two_step_upper": EdgePotential(kind="two_step_upper", w_minus=0.2,
                                    w_plus=1.0, delta=0.5),
    "piecewise_constant": EdgePotential(kind="piecewise_constant",
                                        breakpoints=(-1.0, 0.5),
                                        values=(0.0, 0.4, 1.0)),
    "smooth_monotone": EdgePotential(kind="smooth_monotone", w_minus=0.0,
                                     w_plus=1.0, center=0.0, width=1.5),
}


@pytest.mark.parametrize("kind,j,k,half_width", TWIN_CASES)
def test_twin_identity_matches_arbitrary_precision_oracle(kind, j, k,
                                                         half_width):
    disc = FiberDiscretization(b=1.0, w=TWIN_POTENTIALS[kind],
                               half_width=half_width)
    if kind == "smooth_monotone":
        # D = diag(W_+ - W) has no zero on the window: both tails count
        diag_w, _, _ = fiber_oracle.fiber_matrix(disc, k)
        diag_p, _, _ = fiber_oracle.fiber_matrix(disc, k, w_plus=1.0)
        assert np.all(diag_p - diag_w > 0)
    (cmp,) = fiber._twin_comparisons(_fine_twin(disc, j, [k]), j)
    oracle = mp_edge_comparison(disc, j, k)
    assert cmp.gap_dist == pytest.approx(oracle["gap_dist"], rel=1e-11, abs=0)
    assert cmp.defect == pytest.approx(oracle["defect"], rel=1e-11, abs=0)
    assert cmp.scaled_distance == pytest.approx(oracle["scaled_distance"],
                                                rel=1e-11, abs=0)
    assert abs(cmp.energy_w - oracle["energy_w"]) <= 4 * math.ulp(
        oracle["energy_w"])


@pytest.mark.parametrize("b", [0.7, 1.0, 2.5])
@pytest.mark.parametrize("kind", ["free", *TWIN_POTENTIALS])
def test_bases_are_the_oracle_matrix(kind, b):
    # every base column, the W operators' at each momentum and the
    # constant-W_+ twin's, is the oracle's diag - 2p on both grids of the
    # pair, and p = -offdiag; the free window's twin is at W_+ = 0
    w = None if kind == "free" else TWIN_POTENTIALS[kind]
    disc = FiberDiscretization(b=b, w=w)
    w_plus = 0.0 if w is None else w.w_plus_limit
    ks = (-3.0, 0.0, 0.35, 4.0)
    for n in (disc.n, disc.n_half):
        h, p, base = fiber._bases(disc, ks, n)
        _, off, want_h = fiber_oracle.fiber_matrix(disc, 0.0, n)
        assert h == want_h and _same_bits(np.full(n - 1, -p), off)
        for k, column in zip(ks, base.T):
            diag = fiber_oracle.fiber_matrix(disc, k, n)[0]
            assert _same_bits(column, diag - 2.0 * p), k
        diag = fiber_oracle.fiber_matrix(disc, 0.0, n, w_plus=w_plus)[0]
        plus = _plus_twin(replace(disc, w=None), n, w_plus, 1)[0]
        assert _same_bits(plus, diag - 2.0 * p)


# a contract-fuzz document: the level-2 constant-W_+ twin on the n_half
# (151-point) grid of this window has an exact zero pivot at row 76 of
# the backward sweep, and its odd eigenvector a node at the centre row 75
ZERO_PIVOT_DISC = FiberDiscretization(
    b=1.2750488573281173, n=302, half_width=15.655021657701909,
    w=EdgePotential(kind="smooth_monotone", w_minus=0.36394459396136125,
                    w_plus=1.2750488573281173, center=-0.5244265557951165,
                    width=1.6825493230347914))


@pytest.mark.parametrize("lanes", [1, 7])
def test_exact_zero_pivot_gives_no_nan(lanes):
    # ln|v| of the twin is finite off its node, the twisted vectors of 1
    # lane and of 7 lanes are that vector, and the twin gap on that grid
    # is the mp oracle's
    disc = ZERO_PIVOT_DISC
    n, w_plus = disc.n_half, disc.w.w_plus_limit
    base, v, log_v, sign, energy = fiber._plus_twin(replace(disc, w=None), n,
                                                    w_plus, 2)
    p = -float(fiber_oracle.fiber_matrix(disc, 0.0, n)[1][0])
    ik, shift = np.zeros(lanes, dtype=np.intp), np.full(lanes, energy)
    inv_b = tridiagonal._twisted(base[:, None], p, ik, shift)[1]
    assert np.isposinf(inv_b[76]).all() and np.signbit(inv_b[75]).all()
    assert not np.isnan(log_v).any()
    assert np.isneginf(log_v[75]) and np.isfinite(np.delete(log_v, 75)).all()
    # odd about the node: past the pair, z keeps its magnitude and flips
    np.testing.assert_allclose(log_v[:75], log_v[:75:-1], rtol=1e-12)
    assert np.array_equal(sign[:75], -sign[:75:-1])
    z = tridiagonal._twisted_vectors(base[:, None], p, ik, shift)
    for lane in z.T:
        np.testing.assert_allclose(lane / np.linalg.norm(lane), v,
                                   rtol=0, atol=1e-15)
    coarse = fiber._twin_levels(disc, 2, np.array([2.0]), n, None, None)
    oracle = mp_edge_comparison(disc, 2, 2.0, n)
    assert math.exp(coarse.log_gap[0]) == pytest.approx(oracle["gap_dist"],
                                                       rel=1e-11, abs=0)


@pytest.mark.parametrize("lanes", [1, 2, 6, 7, 12, 13])
def test_inverse_pivots_follow_the_scalar_recurrence(lanes):
    # the numpy row sweep gives the Python float recurrence's bits at any
    # width, from the wall and continued from a row above.  Lane 0 is the
    # backward sweep of ZERO_PIVOT_DISC's level-2 twin at its energy
    # (+inf at grid row 76, then -0 at the node 75), the others the same
    # matrix at shifts from below its diagonal to above level 6
    disc = ZERO_PIVOT_DISC
    n, w_plus = disc.n_half, disc.w.w_plus_limit
    base, _, _, _, energy = fiber._plus_twin(replace(disc, w=None), n,
                                             w_plus, 2)
    p = -float(fiber_oracle.fiber_matrix(disc, 0.0, n)[1][0])
    shift = np.concatenate(([energy], np.linspace(base.min() - 1.0,
                                                  6.0 * energy, lanes - 1)))
    beta = np.ascontiguousarray((base[::-1, None] - shift) / p + 2.0)
    want = fiber_oracle.scalar_inverse_pivots(beta)
    assert np.isposinf(want[n - 1 - 76, 0]) and np.signbit(want[n - 1 - 75, 0])
    assert (want < 0.0).any()
    assert _same_bits(tridiagonal._inverse_pivots(beta), want)
    top = tridiagonal._inverse_pivots(beta[:64])
    rest = tridiagonal._inverse_pivots(beta[64:], top[-1])
    assert _same_bits(np.concatenate((top, rest)), want)
    assert _same_bits(fiber_oracle.scalar_inverse_pivots(beta[64:], want[63]),
                      want[64:])


def _whole_sweep_counts(base, p, lam):
    """Negative pivots of the scalar recurrence over every row of base
    (n, K), lane (k, m) at shift lam[k, m]."""
    ik = np.repeat(np.arange(lam.shape[0]), lam.shape[1])
    beta = (base[:, ik] - lam.ravel()) / p + 2.0
    inv = fiber_oracle.scalar_inverse_pivots(beta)
    return np.count_nonzero(inv < 0.0, axis=0).reshape(lam.shape)


def test_sturm_counts_equal_the_whole_sweep(reference):
    # the Sturm count, run over chunks of rows, counts the negative pivots
    # of one scalar sweep over every row: at shifts across levels 1..6 of
    # the reference window (90 lanes, more than one chunk), and at the
    # exact level of the zero-pivot twin
    sc, disc = reference
    h, p, base = fiber._bases(disc, np.linspace(-4.0, 6.0, 5))
    levels = np.arange(1, 7)[None, :]
    lo, hi = fiber._band_brackets(disc.b, levels, h, 0.0, 1.0)
    shifts = np.broadcast_to(np.concatenate((lo, 0.5 * (lo + hi), hi), axis=1),
                             (base.shape[1], 18))
    zero = ZERO_PIVOT_DISC
    twin, _, _, _, energy = fiber._plus_twin(replace(zero, w=None), zero.n_half,
                                             zero.w.w_plus_limit, 2)
    p_twin = -float(fiber_oracle.fiber_matrix(zero, 0.0, zero.n_half)[1][0])
    assert len(tridiagonal._chunks(base.shape[0], shifts.size)) > 1
    for case_base, case_p, lam in ((base, p, shifts),
                                   (twin[:, None], p_twin, [[energy]])):
        lam = np.asarray(lam, dtype=float)
        assert np.array_equal(tridiagonal.sturm_counts(case_base, case_p, lam),
                              _whole_sweep_counts(case_base, case_p, lam))


def test_edge_comparison_extrapolates_twin_gap(disc01, step01, tmp_path):
    (fine,) = fiber._twin_comparisons(_fine_twin(disc01, 1, [5.0]), 1)
    # the n_half grid of disc01's window, the same linspace bit for bit
    coarse = fiber._twin_levels(replace(disc01, n=disc01.n_half), 1,
                                np.array([5.0]), disc01.n_half, None, None)
    cmp = edge_comparison(disc01, 1, 5.0)
    assert cmp.gap_dist == (4.0 * fine.gap_dist
                            - math.exp(coarse.log_gap[0])) / 3.0
    assert (cmp.overlap, cmp.defect, cmp.energy_w) == (
        fine.overlap, fine.defect, fine.energy_w)
    assert cmp.scaled_distance == pytest.approx(
        2.0 * math.sqrt(cmp.defect / cmp.gap_dist), rel=1e-14)
    # the twin gap's h^2 correction is O(1) where the eigensolver's tails
    # have stalled (coarse/fine 5.07: the extrapolate would be negative)
    # and where the jump sits on the wall of the default window
    stalled = FiberDiscretization(b=1.0, w=step01, half_width=20.0)
    for disc, k in ((stalled, 16.0), (disc01, 12.0)):
        with pytest.raises(ConvergenceFailure, match="refine the grid"):
            edge_comparison(disc, 1, k)
    doc = json.loads(Path(REFERENCE_CONFIG).read_text(encoding="utf-8"))
    doc["verify"]["tep2"] = {"k_list": [12]}
    cfg = tmp_path / "wall.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["verify", "tep2", "--config", str(cfg),
                "--out", str(tmp_path / "tep2")]) == 3


@pytest.mark.parametrize("kind,j,ks,half_width", [
    ("step", 1, (-2.0, 0.5, 2.0, 4.0, 5.0, 6.0, 8.0), None),
    ("step", 2, (-1.0, 3.0, 6.0, 10.0), None),
    ("step", 1, (6.0, 9.0), 14.0),
    ("two_step_upper", 1, (1.0, 4.0), None),
    ("piecewise_constant", 1, (0.0, 5.0), None),
    ("smooth_monotone", 1, (2.0, 5.0), None)])
def test_twin_pair_matches_the_fine_first_path(kind, j, ks, half_width):
    # the coarse-to-fine pair gives the comparisons and the GapModel node
    # gaps of the fine-first path within tolerances fixed before the
    # change: a relative 1e-13, and 4 ulp on energy_w
    disc = FiberDiscretization(b=1.0, w=TWIN_POTENTIALS[kind],
                               half_width=half_width)
    want = fiber_oracle.edge_comparisons(disc, j, ks)
    for got, ref in zip(edge_comparisons(disc, j, ks), want):
        for name in ("gap_dist", "defect", "scaled_distance"):
            assert getattr(got, name) == pytest.approx(
                getattr(ref, name), rel=1e-13, abs=0)
        assert abs(got.energy_w - ref.energy_w) <= 4 * math.ulp(ref.energy_w)
    gaps = fiber._twin_pair(disc, j, ks, None)[1]
    np.testing.assert_allclose(gaps, fiber_oracle.twin_gaps(disc, j, ks),
                               rtol=1e-13, atol=0)


def test_fine_twin_batch_takes_two_rayleigh_steps(reference, monkeypatch):
    # the n twins start from the n_half twins moved by the constant-W_+
    # twin's grid shift: a batch of 15 GapModel-spaced nodes on the
    # reference window settles in 2 Rayleigh-quotient steps on the n grid,
    # where the first-order start takes 4
    sc, disc = reference
    nodes = np.linspace(sc.a_momentum, 7.0, 15)
    fiber._twin_pair(disc, sc.j, nodes, None)  # the W_+ twins, cached
    twisted_vectors = tridiagonal._twisted_vectors
    steps = []

    def counting(base, *args):
        if base.shape[0] == disc.n:
            steps.append(base.shape[1])
        return twisted_vectors(base, *args)

    monkeypatch.setattr(tridiagonal, "_twisted_vectors", counting)
    fiber._twin_pair(disc, sc.j, nodes, None)
    assert 1 <= len(steps) <= 2
    steps.clear()
    fiber_oracle.twin_gaps(disc, sc.j, nodes)
    assert len(steps) == 4
    steps.clear()
    edge_comparisons(disc, 1, [4.0, 5.0, 6.0])
    assert 1 <= len(steps) <= 2


def test_window_missing_the_jump_is_an_error(disc01):
    # the window [k - 12, k + 12] lies right of the step at 0: W = W_+
    # on every grid point, so the twin operators coincide
    with pytest.raises(ConvergenceFailure, match="half_width"):
        edge_comparison(disc01, 1, 16.0)


def test_projection_distance_beyond_machine_epsilon(disc01):
    # at k = 6 the overlap rounds to 1.0, yet the defect is ~3e-21
    # ||pi - pi_inf||_1 = 2 sqrt(defect) is read from the defect itself
    cmp = edge_comparison(disc01, 1, 6.0)
    assert cmp.overlap == 1.0
    assert _rank_one_trace_norm(cmp.overlap) == 0.0 < cmp.defect
    assert 2.0 * math.sqrt(cmp.defect) == pytest.approx(
        cmp.scaled_distance * math.sqrt(cmp.gap_dist), rel=1e-12)
