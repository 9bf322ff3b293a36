import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from edgegap.errors import ConstantPotential
from edgegap.potentials import (EdgePotential, Perturbation,
                                finiteness_predicate, gap_condition,
                                step_potential, upper_envelope)

from conftest import rect
from tests import potential_oracle

PROFILES = {
    "step": step_potential(-0.5, 1.5, 0.3),
    "step_int": step_potential(0, 1, 0),
    "two_step_upper": EdgePotential(kind="two_step_upper", w_minus=0.2,
                                    w_plus=1.0, delta=0.1),
    "piecewise_constant": EdgePotential(kind="piecewise_constant",
                                        breakpoints=(-0.5, 0.0),
                                        values=(0.0, 0.4, 1.0)),
    "plateau": EdgePotential(kind="piecewise_constant",
                             breakpoints=(-1.0, 0.5, 2.0),
                             values=(0.0, 0.25, 1.0, 1.0)),
    "smooth_monotone": EdgePotential(kind="smooth_monotone", w_minus=0.0,
                                     w_plus=1.0, center=0.0, width=0.3),
}


def _same(got, want):
    """Same type, dtype, shape and bits (the sign of a zero included)."""
    if not isinstance(want, np.ndarray):
        return type(got) is type(want) and repr(got) == repr(want)
    return (isinstance(got, np.ndarray) and got.dtype == want.dtype
            and got.shape == want.shape and np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


def _marks(w):
    """The jumps of a step-like profile, the tanh centre of a smooth one."""
    table = potential_oracle.steps(w)
    return table[0] if table else (w.center,)


def _probes(w):
    """Points at each mark, one ulp either side of it, a quarter unit
    away, far out and at +-inf."""
    pts = [p for c in _marks(w) for p in (c, math.nextafter(c, -math.inf),
                                          math.nextafter(c, math.inf),
                                          c - 0.25, c + 0.25)]
    return pts + [-50.0, 50.0, -math.inf, math.inf]


def test_step_values_and_limits():
    w = step_potential(-0.5, 1.5, 0.3)
    assert w(0.29) == -0.5
    assert w(0.3) == 1.5  # right-closed jump
    assert w.w_minus_limit == -0.5
    assert w.w_plus_limit == 1.5
    assert w.x_plus == 0.3


def test_constant_profile_rejected():
    with pytest.raises(ConstantPotential):
        step_potential(1.0, 1.0, 0.0)


def test_piecewise_constant_monotone_required():
    with pytest.raises(ValueError):
        EdgePotential(kind="piecewise_constant", breakpoints=(0.0, 1.0),
                      values=(0.0, 2.0, 1.0))
    w = EdgePotential(kind="piecewise_constant", breakpoints=(-1.0, 0.5),
                      values=(0.0, 0.25, 1.0))
    assert w(-2.0) == 0.0 and w(0.0) == 0.25 and w(1.0) == 1.0
    assert w.x_plus == 0.5


def test_smooth_monotone_never_attains_supremum():
    w = EdgePotential(kind="smooth_monotone", w_minus=0.0, w_plus=1.0,
                      center=0.0, width=0.7)
    assert w.x_plus == math.inf
    # strictly increasing where the transition is resolved in double precision
    xs = np.linspace(-6, 6, 101)
    vals = w(xs)
    assert np.all(np.diff(vals) > 0)
    assert vals[-1] < 1.0 and w(1e6) <= 1.0


def test_cell_average_splits_jump_exactly():
    w = step_potential(0.0, 1.0, 0.0)
    h = 0.02
    # cell centered on the jump averages the two sides
    avg = w.cell_average(np.array([0.0, -1.0, 1.0, h / 4]), h)
    assert avg[0] == pytest.approx(0.5, abs=1e-14)
    assert avg[1] == 0.0 and avg[2] == 1.0
    assert avg[3] == pytest.approx(0.75, abs=1e-14)


@given(st.floats(-3, 3), st.floats(0.05, 2.5), st.floats(-2, 2))
def test_cell_average_matches_quadrature(x0, h, c):
    w = step_potential(0.0, 1.0, x0)
    t = np.linspace(c - h / 2, c + h / 2, 20001)
    brute = np.trapezoid(w(t), t) / h
    assert w.cell_average(np.array([c]), h)[0] == pytest.approx(brute, abs=5e-4)


def test_gap_condition():
    assert gap_condition(step_potential(0.0, 1.0, 0.0), 1.0)
    assert not gap_condition(step_potential(0.0, 2.0, 0.0), 1.0)
    assert gap_condition(step_potential(0.0, 2.0, 0.0), 1.01)


def test_upper_envelope_two_step():
    w = EdgePotential(kind="piecewise_constant", breakpoints=(-0.3, 0.0),
                      values=(0.0, 0.6, 1.0))
    env = upper_envelope(w, 0.1)
    assert env.kind == "two_step_upper"
    assert env(-0.11) == w(-0.1)  # W(-delta) is the lower plateau
    assert env(-0.1) == 1.0
    xs = np.linspace(-2, 2, 401)
    assert np.all(env(xs) >= w(xs) - 1e-15)


def test_upper_envelope_needs_room_below_saturation(step01):
    env = upper_envelope(step01, 0.1)
    assert env(-0.11) == 0.0 and env(-0.1) == 1.0
    # a profile already saturated at -delta leaves no envelope gap
    w2 = step_potential(0.0, 1.0, -0.5)
    with pytest.raises(ValueError):
        upper_envelope(w2, 0.1)


def test_perturbation_defaults_and_containment():
    v = Perturbation(support=rect(-1, 1, -1, 1), amplitude=3.0)
    assert v.omega_minus is v.support and v.omega_plus is v.support
    assert v.c0_minus == 3.0 and v.c0_plus == 3.0
    assert v.x_inf == -1.0 and v.x_sup == 1.0
    assert v(0.0, 0.0) == 3.0 and v(2.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        Perturbation(support=rect(-1, 1, -1, 1),
                     omega_minus=rect(-2, 0, 0, 1))


def test_sandwich_constants_bracket_amplitude():
    with pytest.raises(ValueError):
        Perturbation(support=rect(-1, 1, -1, 1), amplitude=1.0,
                     c0_minus=2.0, c0_plus=3.0)
    v = Perturbation(support=rect(-1, 1, -1, 1), amplitude=2.0,
                     omega_minus=rect(-0.5, 0.5, -0.5, 0.5),
                     omega_plus=rect(-2, 2, -2, 2),
                     c0_minus=1.0, c0_plus=4.0)
    assert v.c0_minus < v.amplitude < v.c0_plus


def test_finiteness_predicate(step01):
    left = Perturbation(support=rect(-2, -1, 0, 1))
    straddle = Perturbation(support=rect(-0.25, 0.4, -0.5, 0.5))
    assert finiteness_predicate(left, step01)
    assert not finiteness_predicate(straddle, step01)


@pytest.mark.parametrize("name", PROFILES)
def test_profile_matches_the_kind_branches(name):
    # values, dtypes and scalar returns of the one jump table equal each
    # kind's own branch on both sides of every jump and exactly at it,
    # where a step is right-closed (x = x0 gives W_+)
    w = PROFILES[name]
    assert (w.w_minus_limit, w.w_plus_limit) == potential_oracle.limits(w)
    assert _same(w.x_plus, potential_oracle.x_plus(w))
    table = potential_oracle.steps(w)
    assert ((w.breakpoints, w.values) == table if table
            else w.breakpoints == w.values == ())
    pts = _probes(w)
    for x in pts:
        for arg in (x, np.float64(x), np.asarray(x)):
            assert _same(w(arg), potential_oracle.value(w, x)), (name, x)
    assert _same(w(pts), potential_oracle.value(w, pts))
    grid = np.array([pts, pts[::-1]])
    assert _same(w(grid), potential_oracle.value(w, grid))
    if table:
        at = [w(c) for c in table[0]]
        assert at == list(table[1][1:])


@pytest.mark.parametrize("name", PROFILES)
@pytest.mark.parametrize("h", [0.02, 0.3, 1.0])
def test_cell_average_matches_the_kind_branches(name, h):
    # cells that straddle a jump (or two, at h = 1), end on one or lie
    # clear of it average to the kind branch's bits
    w = PROFILES[name]
    frac = np.array([-0.75, -0.5, -0.3, -1e-12, 0.0, 0.25, 0.5, 0.6])
    centers = np.concatenate([c + h * frac for c in _marks(w)]
                             + [[-50.0, 50.0]])
    assert _same(w.cell_average(centers, h),
                 potential_oracle.cell_average(w, centers, h))
