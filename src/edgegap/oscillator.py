"""Harmonic oscillator eigenfunctions and their large-momentum tails.

psi_inf(j, k, x, b) translates and rescales the j-th normalized Hermite
function (levels start at j = 1) into the limiting fiber eigenfunction
at field strength b, concentrated near x = k/b.  The Hermite recurrence
has its one home in _hermite_levels, which yields levels 1..j_max from
one run.
"""

from __future__ import annotations

import math

import numpy as np


def _hermite_levels(j_max: int, x):
    """phi_q(x) * e^{x^2/2} for q = 1..j_max, in order: the normalized
    polynomial factors.

    Three-term recurrence in the normalized scale,
        P_0 = pi^{-1/4},  P_{q+1} = x sqrt(2/(q+1)) P_q - sqrt(q/(q+1)) P_{q-1},
    which stays bounded in scale where raw Hermite polynomials H_q
    overflow (H_q blows up near q ~ 150 in double precision).
    """
    p_prev = np.zeros_like(x)
    p = np.full_like(x, math.pi ** -0.25)
    yield p
    for q in range(j_max - 1):
        p, p_prev = x * math.sqrt(2.0 / (q + 1)) * p - math.sqrt(q / (q + 1.0)) * p_prev, p
        yield p


def psi_inf(j: int, k, x, b: float):
    """Limiting fiber eigenfunction b^{1/4} phi_j(sqrt(b) x - k/sqrt(b)),
    the normalized Hermite function phi_j (_hermite_levels) translated to
    x = k/b and rescaled.

    L2-normalized in x for every momentum k.
    """
    if j < 1:
        raise ValueError("level j must be >= 1")
    if b <= 0:
        raise ValueError("field strength b must be positive")
    rb = math.sqrt(b)
    t = rb * np.asarray(x, dtype=float) - np.asarray(k, dtype=float) / rb
    for p in _hermite_levels(j, t):
        pass
    out = b ** 0.25 * (p * np.exp(-0.5 * t * t))
    return float(out) if np.ndim(out) == 0 else out


def log_p_coeff(j: int, b: float) -> float:
    """ln of the tail normalization constant
    p_j = b^{-j+3/2} / (sqrt(pi) (j-1)! 2^{j-1}).

    Formed from lgamma, so it stays finite for every level: p_j itself
    underflows a double from j = 169 on, and (j-1)! stops converting to
    a float at j = 172.
    """
    if j < 1:
        raise ValueError("level j must be >= 1")
    if b <= 0:
        raise ValueError("field strength b must be positive")
    return ((1.5 - j) * math.log(b) - 0.5 * math.log(math.pi)
            - math.lgamma(j) - (j - 1) * math.log(2.0))
