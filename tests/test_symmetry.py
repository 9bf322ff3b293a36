"""The operator's symmetries as oracle-free checks on the counts.

H0 commutes with translations in y, and with the reflection y -> -y
followed by complex conjugation.  Moving W and V together by d in x
gives an operator unitarily equivalent to the old one once the momentum
cutoff a moves to a + b d: in the Landau gauge the moved fiber at k is
the old fiber at k - b d, moved by d, and the gauge factor e^{ibdy}
commutes with V (Avron, Herbst and Simon, Duke Math. J. 45 (1978)
847-883).  So every count is the same on the moved scenario.  A
discretization does not share these symmetries: a count its quadrature
has not converged moves.  Counts are compared, not bits, since a phase
e^{ikc} changes the rounding.  The half-line counts start at a, so a
move that would take a below 0 compares the whole-line counts alone.

The counts also never fall when the Birman-Schwinger operator
K = V^{1/2}(H0 - z)^{-1}V^{1/2} grows: with the amplitude scaled by
c > 1 (K -> cK), on a larger indicator support at fixed amplitude (every
test function on the smaller support serves the larger), and as lam
shrinks (d/dz (H0 - z)^{-1} = (H0 - z)^{-2} >= 0, so a smaller
z = E_j^+ + lam gives a smaller K, with no fewer eigenvalues below -1 by
min-max).

Each shipped config runs on a coarse fiber window (n 1201, half-width
12) at the first depth of its lambda grid.
"""

import copy
import itertools
import json

import numpy as np
import pytest

from edgegap.bsham import (bs_count, effective_count, full_line_gram,
                           k_truncation)
from edgegap.counting import count_above
from edgegap.scenario import normalized_scenario, scenario_from_dict
from tests.conftest import ROOT
from tests.test_bsham import REACH_B, REACH_J

MOVES = {"y+7": {"dy": 7.0}, "y-reflection": {"flip": True},
         "x+1.7": {"dx": 1.7}, "x-0.5": {"dx": -0.5}}
GROWTHS = {"amplitude*1.2": {"amplitude": 1.2},
           "taller*1.2": {"taller": 1.2}}


def _moved(doc, dx=0.0, dy=0.0, flip=False):
    """(moved doc, half_line): V reflected in y if flip, then moved by
    (dx, dy), and the step W moved by dx.  a_momentum moves to a + b dx
    where that is >= 0 (half_line) and stays otherwise."""
    doc = copy.deepcopy(doc)
    doc["perturbation"]["vertices"] = [
        [x + dx, (-y if flip else y) + dy]
        for x, y in doc["perturbation"]["vertices"]]
    doc["edge_potential"]["x0"] += dx
    a = doc["a_momentum"] + doc["b"] * dx
    if a >= 0.0:
        doc["a_momentum"] = a
    return doc, a >= 0.0


def _grown(doc, amplitude=1.0, taller=1.0):
    """doc with V's amplitude times amplitude and its (rectangular)
    support stretched by taller in y about its middle, so the old
    support lies inside the new."""
    doc = copy.deepcopy(doc)
    spec = doc["perturbation"]
    ys = [y for _, y in spec["vertices"]]
    mid = 0.5 * (min(ys) + max(ys))
    spec["vertices"] = [[x, mid + taller * (y - mid)]
                        for x, y in spec["vertices"]]
    spec["amplitude"] *= amplitude
    return doc


def _counts(doc, half_line=True, depth=0):
    """Effective (lower, upper) at eps 0.3 when half_line, the full-line
    Gram's sections and Gauss y-route counts at r = 1, and the resolvent
    count over 2 bands, at the given depth (index) of doc's lambda
    grid."""
    sc = scenario_from_dict(doc)
    lam = sc.lam_grid.values()[depth]
    ops = {"gram_sections": full_line_gram(sc.j, lam, sc),
           "antiwick_gauss": full_line_gram(sc.j, lam, sc,
                                            y_order=sc.quad.gauss_y_order)}
    counts = {name: count_above(op.kernel, 1.0).count
              for name, op in ops.items()}
    if half_line:
        counts["effective"] = tuple(
            rep.count for rep in effective_count(sc.j, lam, 0.3, sc))
    counts["bs_fiber"] = bs_count(sc.j, lam, sc, j_sum=2)
    return counts


@pytest.fixture(scope="module", params=["reference", "finiteness", "growth"])
def shipped(request):
    """(coarse config document, its counts)."""
    doc = json.loads((ROOT / "configs" / f"{request.param}.json").read_text(
        encoding="utf-8"))
    doc["fiber"] = {"n": 1201, "half_width": 12.0}
    return doc, _counts(doc)


# j_sum 2 truncates the band sum, alike on a scenario and its moves
pytestmark = pytest.mark.filterwarnings(
    "ignore:.*raise j_sum:edgegap.errors.TruncationWarning")


@pytest.mark.parametrize("move", MOVES)
def test_counts_keep_the_operator_symmetries(shipped, move):
    doc, counts = shipped
    moved, half_line = _moved(doc, **MOVES[move])
    if not half_line:
        counts = {k: n for k, n in counts.items() if k != "effective"}
    assert _counts(moved, half_line) == counts


def _never_lower(before, after):
    for name, count in before.items():
        pairs = zip(np.atleast_1d(count), np.atleast_1d(after[name]))
        assert all(b <= a for b, a in pairs), (name, before, after)


@pytest.mark.parametrize("growth", GROWTHS)
def test_counts_never_fall_as_the_operator_grows(shipped, growth):
    doc, counts = shipped
    _never_lower(counts, _counts(_grown(doc, **GROWTHS[growth])))


def test_counts_never_fall_as_the_depth_shrinks(shipped):
    doc, counts = shipped
    for depth in (1, 2):
        deeper = _counts(doc, depth=depth)
        _never_lower(counts, deeper)
        counts = deeper


def test_reach_commutes_with_the_joint_x_translation():
    # |psi_inf(x; k)|^2 depends on sqrt(b) x - k/sqrt(b) alone, so moving
    # the support's end by t and the cutoff by b t moves the reach by b t
    for j, b in itertools.product(REACH_J, REACH_B):
        for x_sup, a in ((0.4, 0.0), (-1.0, 0.0), (-2.0, 0.0), (0.4, 3.0),
                         (-0.5, 0.3)):
            for t in (1.7, -0.5, 2.5):
                assert k_truncation(j, b, x_sup + t, a + b * t) == (
                    pytest.approx(k_truncation(j, b, x_sup, a) + b * t,
                                  rel=1e-12))


def test_normalized_mirror_keeps_the_counts():
    # the mirror moves W and V by -x_+ = -2, so its cutoff must move to
    # a - b x_+ = 0.5; a mirror that kept a = 2.5 counted (1, 1) and
    # (3, 3), the counts of the scenario at a = 4.5
    doc = {"b": 1.0, "a_momentum": 2.5, "fiber": {"n": 1201,
                                                  "half_width": 12.0},
           "edge_potential": {"type": "step", "w_minus": 0.0,
                              "w_plus": 1.0, "x0": 2.0},
           "perturbation": {"type": "polygon_indicator", "amplitude": 5.0,
                            "vertices": [[0.5, -3.0], [2.5, -3.0],
                                         [2.5, 3.0], [0.5, 3.0]]}}
    sc = scenario_from_dict(doc)
    mirror = normalized_scenario(sc)
    assert mirror.a_momentum == 0.5
    for lam, counts in ((1e-3, (3, 3)), (1e-6, (5, 5))):
        for s in (sc, mirror):
            assert tuple(rep.count for rep in
                         effective_count(1, lam, 0.3, s)) == counts
