"""Edge potentials W(x) and compactly supported perturbations V(x,y).

An edge potential is a bounded non-decreasing profile with limits
W_- < W_+; its saturation point x_plus = inf{x : W(x) = W_+} controls
whether gap eigenvalues accumulate at all.  A perturbation is a
nonnegative bump sandwiched between scaled indicators of two polygons,

    c0_minus * chi(Omega_minus) <= V <= c0_plus * chi(Omega_plus).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstantPotential
from .geometry import PolygonDomain

_KINDS = ("step", "two_step_upper", "piecewise_constant", "smooth_monotone")


@dataclass(frozen=True)
class EdgePotential:
    """Monotone bounded potential profile.

    kind selects the parameter set:
      step:               w_minus, w_plus, x0  (jump at x0, right-closed)
      two_step_upper:     w_minus, w_plus, delta  (jump at -delta; the
                          upper envelope of a saturated profile)
      piecewise_constant: breakpoints (strictly increasing), values
                          (non-decreasing, one more than breakpoints)
      smooth_monotone:    w_minus, w_plus, center, width  (tanh profile,
                          supremum attained only in the limit)
    """

    kind: str
    w_minus: float = 0.0
    w_plus: float = 1.0
    x0: float = 0.0
    delta: float = 0.0
    center: float = 0.0
    width: float = 1.0
    breakpoints: tuple = ()
    values: tuple = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == "piecewise_constant":
            bp, vals = tuple(map(float, self.breakpoints)), tuple(map(float, self.values))
            if len(vals) != len(bp) + 1 or not bp:
                raise ValueError("need len(values) == len(breakpoints) + 1 >= 2")
            if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
                raise ValueError("breakpoints must be strictly increasing (ties rejected)")
            if any(v2 < v1 for v1, v2 in zip(vals, vals[1:])):
                raise ValueError("values must be non-decreasing")
            object.__setattr__(self, "breakpoints", bp)
            object.__setattr__(self, "values", vals)
        if self.w_minus_limit >= self.w_plus_limit:
            raise ConstantPotential(
                "edge potential must have W_- < W_+ (profile not identically constant)")

    @property
    def w_minus_limit(self) -> float:
        if self.kind == "piecewise_constant":
            return self.values[0]
        return self.w_minus

    @property
    def w_plus_limit(self) -> float:
        if self.kind == "piecewise_constant":
            return self.values[-1]
        return self.w_plus

    @property
    def x_plus(self) -> float:
        """inf{x : W(x) = W_+}; +inf when the supremum is never attained."""
        if self.kind == "step":
            return self.x0
        if self.kind == "two_step_upper":
            return -self.delta
        if self.kind == "piecewise_constant":
            top = self.values[-1]
            for i, v in enumerate(self.values):
                if v == top:
                    return self.breakpoints[i - 1]
        return math.inf

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "step":
            out = np.where(x >= self.x0, self.w_plus, self.w_minus)
        elif self.kind == "two_step_upper":
            out = np.where(x >= -self.delta, self.w_plus, self.w_minus)
        elif self.kind == "smooth_monotone":
            out = self.w_minus + (self.w_plus - self.w_minus) * 0.5 * (
                1.0 + np.tanh((x - self.center) / self.width))
        else:
            vals = np.asarray(self.values)
            idx = np.searchsorted(self.breakpoints, x, side="right")
            out = vals[idx]
        return float(out) if out.ndim == 0 else out

    @property
    def steps(self):
        """(breakpoints, values) of the piecewise-constant kinds, jumps in
        increasing order; None for smooth_monotone."""
        if self.kind == "step":
            return (self.x0,), (self.w_minus, self.w_plus)
        if self.kind == "two_step_upper":
            return (-self.delta,), (self.w_minus, self.w_plus)
        if self.kind == "piecewise_constant":
            return self.breakpoints, self.values
        return None

    def cell_average(self, centers, h: float):
        """Average of W over each cell (c - h/2, c + h/2).

        Pointwise sampling of a jump on the grid biases discrete
        quadratures at first order in h; the exact cell average restores
        clean h^2 behavior.  Smooth profiles fall back to the midpoint
        value, which matches the average to O(h^2) anyway.
        """
        centers = np.asarray(centers, dtype=float)
        steps = self.steps
        if steps is None:
            return self(centers)
        bp, vals = steps
        hi = centers + 0.5 * h
        acc = vals[0] * np.ones_like(centers) * h
        for s, (va, vb) in zip(bp, zip(vals[:-1], vals[1:])):
            acc += (vb - va) * np.clip(hi - s, 0.0, h)
        return acc / h


def step_potential(w_minus: float, w_plus: float, x0: float) -> EdgePotential:
    return EdgePotential(kind="step", w_minus=w_minus, w_plus=w_plus, x0=x0)


def upper_envelope(w: EdgePotential, delta: float) -> EdgePotential:
    """Two-step upper envelope: W_+ for x >= -delta, W(-delta) below.

    Dominates any non-decreasing W with x_plus = 0 pointwise.
    """
    lower = float(w(-delta))
    if lower >= w.w_plus_limit:
        raise ValueError("upper envelope needs W(-delta) < W_+ (saturation at x >= 0)")
    return EdgePotential(kind="two_step_upper", w_minus=lower,
                         w_plus=w.w_plus_limit, delta=delta)


def gap_condition(w: EdgePotential, b: float) -> bool:
    """True iff W_+ - W_- < 2b, the condition opening every gap."""
    if b <= 0:
        raise ValueError("field strength b must be positive")
    return (w.w_plus_limit - w.w_minus_limit) < 2.0 * b


@dataclass(frozen=True)
class Perturbation:
    """Nonnegative compactly supported bump with polygon sandwich data.

    V = amplitude * chi(support); the sandwich polygons and constants
    satisfy c0_minus * chi(Omega_minus) <= V <= c0_plus * chi(Omega_plus).
    """

    support: PolygonDomain
    amplitude: float = 1.0
    omega_minus: PolygonDomain = None
    omega_plus: PolygonDomain = None
    c0_minus: float = None
    c0_plus: float = None

    def __post_init__(self):
        if self.amplitude <= 0:
            raise ValueError("amplitude must be positive")
        if self.omega_minus is None:
            object.__setattr__(self, "omega_minus", self.support)
        if self.omega_plus is None:
            object.__setattr__(self, "omega_plus", self.support)
        if self.c0_minus is None:
            object.__setattr__(self, "c0_minus", self.amplitude)
        if self.c0_plus is None:
            object.__setattr__(self, "c0_plus", self.amplitude)
        if not (0 < self.c0_minus <= self.c0_plus):
            raise ValueError("need 0 < c0_minus <= c0_plus")
        if self.c0_minus > self.amplitude or self.amplitude > self.c0_plus:
            raise ValueError("sandwich constants must bracket the amplitude")
        # containment Omega_minus subset support subset Omega_plus,
        # checked by vertex sampling
        for vx, vy in self.omega_minus.vertices:
            if not self.support.contains(vx, vy):
                raise ValueError("Omega_minus must lie inside the support polygon")
        for vx, vy in self.support.vertices:
            if not self.omega_plus.contains(vx, vy):
                raise ValueError("support polygon must lie inside Omega_plus")

    @property
    def x_inf(self) -> float:
        """Left end of the x-projection of the support."""
        return self.support.x_extent[0]

    @property
    def x_sup(self) -> float:
        """Right end of the x-projection of the support."""
        return self.support.x_extent[1]

    def __call__(self, x: float, y: float) -> float:
        return self.amplitude if self.support.contains(x, y) else 0.0


def finiteness_predicate(v: Perturbation, w: EdgePotential) -> bool:
    """True iff the support lies strictly left of the saturation point.

    Then the gap eigenvalue count stays bounded as the coupling window
    shrinks (the O(1) regime); otherwise Gaussian accumulation can occur.
    """
    return v.x_sup < w.x_plus
