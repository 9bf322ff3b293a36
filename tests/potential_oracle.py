"""Reference for the edge potentials: each profile evaluated by its own
kind branch.

A step is a right-closed jump np.where(x >= x0, W_+, W_-) at x0, the
two-step upper envelope the same jump at -delta, a piecewise-constant
profile a lookup of its values by np.searchsorted, and a smooth profile
its tanh.  Cell averages sum each jump times the part of the cell right
of it, and fall back to the midpoint value for the smooth profile.  The
package reads every step-like kind from one (breakpoints, values) table;
it must reproduce these values, their dtypes and Python-float scalar
returns bit for bit.
"""

import math

import numpy as np


def limits(w):
    """(W_-, W_+)."""
    if w.kind == "piecewise_constant":
        return w.values[0], w.values[-1]
    return w.w_minus, w.w_plus


def x_plus(w):
    """inf{x : W(x) = W_+}; +inf when the supremum is never attained."""
    if w.kind == "step":
        return w.x0
    if w.kind == "two_step_upper":
        return -w.delta
    if w.kind == "piecewise_constant":
        top = w.values[-1]
        for i, v in enumerate(w.values):
            if v == top:
                return w.breakpoints[i - 1]
    return math.inf


def value(w, x):
    """W(x): a Python float for a scalar x, else an array."""
    x = np.asarray(x, dtype=float)
    if w.kind == "step":
        out = np.where(x >= w.x0, w.w_plus, w.w_minus)
    elif w.kind == "two_step_upper":
        out = np.where(x >= -w.delta, w.w_plus, w.w_minus)
    elif w.kind == "smooth_monotone":
        out = w.w_minus + (w.w_plus - w.w_minus) * 0.5 * (
            1.0 + np.tanh((x - w.center) / w.width))
    else:
        vals = np.asarray(w.values)
        idx = np.searchsorted(w.breakpoints, x, side="right")
        out = vals[idx]
    return float(out) if out.ndim == 0 else out


def steps(w):
    """(breakpoints, values) of the step-like kinds; None when smooth."""
    if w.kind == "step":
        return (w.x0,), (w.w_minus, w.w_plus)
    if w.kind == "two_step_upper":
        return (-w.delta,), (w.w_minus, w.w_plus)
    if w.kind == "piecewise_constant":
        return w.breakpoints, w.values
    return None


def cell_average(w, centers, h):
    """Average of W over each cell (c - h/2, c + h/2)."""
    centers = np.asarray(centers, dtype=float)
    table = steps(w)
    if table is None:
        return value(w, centers)
    bp, vals = table
    hi = centers + 0.5 * h
    acc = vals[0] * np.ones_like(centers) * h
    for s, (va, vb) in zip(bp, zip(vals[:-1], vals[1:])):
        acc += (vb - va) * np.clip(hi - s, 0.0, h)
    return acc / h
