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

Each shipped config runs on a coarse fiber window (n 1201, half-width
12) at the first depth of its lambda grid.
"""

import copy
import json

import pytest

from edgegap.bsham import bs_count, effective_count, full_line_gram
from edgegap.counting import count_above
from edgegap.scenario import scenario_from_dict
from tests.conftest import ROOT

MOVES = {"y+7": {"dy": 7.0}, "y-reflection": {"flip": True},
         "x+1.7": {"dx": 1.7}, "x-0.5": {"dx": -0.5}}


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


def _counts(doc, half_line=True):
    """Effective (lower, upper) at eps 0.3 when half_line, the full-line
    Gram's sections and Gauss y-route counts at r = 1, and the resolvent
    count over 2 bands, at the first depth of doc's lambda grid."""
    sc = scenario_from_dict(doc)
    lam = sc.lam_grid.start
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


# j_sum 2 truncates the band sum, alike on the scenario and its move
@pytest.mark.filterwarnings("ignore::edgegap.errors.TruncationWarning")
@pytest.mark.parametrize("move", MOVES)
def test_counts_keep_the_operator_symmetries(shipped, move):
    doc, counts = shipped
    moved, half_line = _moved(doc, **MOVES[move])
    if not half_line:
        counts = {k: n for k, n in counts.items() if k != "effective"}
    assert _counts(moved, half_line) == counts
