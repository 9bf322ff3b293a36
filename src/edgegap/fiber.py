"""Fiber operators h(k) = -d^2/dx^2 + (bx - k)^2 + W(x) and their bands.

Second-order finite differences with Dirichlet walls on a moving window
centered at x = k/b, where the eigenfunctions concentrate.  Energies are
Richardson-extrapolated from a full- and half-resolution solve of the
same window: h^4-accurate for a smooth W, while a jump of W leaves an
O(h^2) term that moves with the jump's position inside its grid cell.
The two grids put the jump at different positions, so the pair cannot
cancel that term, and extrapolated values jitter in k on the scale of
one cell, b h.  The eigensolver (tridiagonal.py) is numpy code, batched
over (momentum, level) lanes: Sturm-count bisection on the
half-resolution grid brackets each level alone, which fixes which level
is which, and Rayleigh-quotient iteration by twisted factorizations
converges it.  The full grid's iteration starts from the half grid's
energies.  Both grids' energies are gradient-form Rayleigh quotients of
the computed eigenvectors.  Every matrix is built by _bases on offsets
s = x - k/b that do not depend on k: the row 2/h^2 + (b s)^2 once per
grid, plus, column by column, the cell averages of W over k/b + s or a
constant, so the operator with the constant W_+ is the same matrix at
every momentum.  The solver module is imported where it is first used,
so a command that solves no fiber does not load it.  solve_fiber hands
back plain arrays, energies (K, j_max) and trapezoid-normalized
eigenvector values whose sign is the one the iteration left (the
resolvent kernel sums psi psi^* over each pair), and band_table the
(j_max, K) energies.

Near a band edge the gap distance dies like a Gaussian in k and falls
below double-precision resolution of the edge value.  It is therefore
never formed as a difference of energies.  The operator with W and the
same-grid operator with the constant W_+ differ by D = diag(W_+ - W)
exactly, so their eigenpairs obey the twin identity

    (E_+ - E_W) <v_+, v_W> = <v_+, D v_W>,

whose right side sums the eigenvector tails where W < W_+.  The twisted
factorization gives those tails in log form, as sums of the logarithms
of pivot ratios run from each Dirichlet wall, in the direction where the
eigenvector grows, so the tiny difference keeps full relative accuracy
in double precision.  Each twin lane builds that log form at the
pairwise-sum Rayleigh quotient its iteration ended on; only an energy
that is reported (EdgeComparison.energy_w) is summed exactly, so the
nodes of GapModel take no exact sums.  The eigenvector overlap defect
1 - <v_+, v_W>^2 comes from one deflated solve with the same right
side, at the exact-sum energy.  Twins run coarse first, like band
levels, and the twin gap is Richardson-extrapolated over that grid pair
in one place (_twin_pair), so every gap distance the package reads,
from the Phi_j(k)^2 ratio checks to the resolvent weights of GapModel,
is the one extrapolated number, jump jitter included.  edge_comparisons
is the one entry point of the edge checks: it solves the momenta it is
given as one batch and keeps nothing between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import ConvergenceFailure, NoGap, WrongPotentialKind
from .operators import gauss_legendre
from .oscillator import log_p_coeff, psi_inf
from .potentials import EdgePotential, gap_condition

_GAUSS_NODES = 24


@dataclass(frozen=True)
class FiberDiscretization:
    """Finite-difference window for the fiber operators.

    Domain is [k/b - half_width, k/b + half_width] with n grid points
    and Dirichlet walls; w is None for the free (Landau) fiber.  It holds
    the window only: _bases builds the matrices on it.
    """

    b: float = 1.0
    w: EdgePotential = None
    n: int = 2001
    half_width: float = None

    def __post_init__(self):
        # a NaN passes every comparison below
        if not (math.isfinite(self.b) and self.b > 0):
            raise ValueError("field strength b must be positive and finite")
        if self.half_width is None:
            object.__setattr__(self, "half_width", 12.0 / math.sqrt(self.b))
        if not math.isfinite(self.half_width):
            raise ValueError("half_width must be finite")
        if self.n < 200:
            raise ValueError("need at least 200 grid points")
        if self.half_width < 8.0 / math.sqrt(self.b):
            raise ValueError("half_width below the Gaussian decay margin 8/sqrt(b)")

    @property
    def max_levels(self) -> int:
        """Most eigenpairs solve_fiber resolves on this grid, n/10."""
        return self.n // 10

    @property
    def n_half(self) -> int:
        """Size of the coarse grid of the Richardson pair: every other
        point of the n grid, so its spacing is twice as wide."""
        return (self.n + 1) // 2

    def _offsets(self, n: int = None) -> np.ndarray:
        """Grid offsets s = x - k/b, the same at every momentum."""
        n = self.n if n is None else n
        return np.linspace(-self.half_width, self.half_width, n)


def _richardson(fine, coarse):
    """(extrapolate, h^2 correction) of a quantity with an h^2-leading
    error, from its values on the n and n_half grids of one window: the
    extrapolate is h^4-accurate when that error is a smooth h^2 term, as
    it is not at a jump of W (see the module docstring)."""
    return (4.0 * fine - coarse) / 3.0, abs(fine - coarse) / 3.0


def _trapezoid_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


# largest h^2 correction |E_n - E_half|/3 of an energy that solve_fiber
# and band_table extrapolate
_ENERGY_CONV_TOL = 1e-3


def _bases(disc: FiberDiscretization, ks, n: int = None,
           w_plus: float = None):
    """(x offsets' spacing h, p, base (n, K)) of the fiber operators at
    the momenta ks on the n-point grid (default disc.n): the matrix at
    k is T(k) = tridiag(-p, 2p + base[:, k], -p) with p = 1/h^2.  Each
    column is filled in place with the row 2/h^2 + (b s)^2 plus the cell
    averages of W over the grid k/b + s, the constant w_plus when given
    (the comparison operator, the same column at every k), or nothing
    for W = None; 2p is then subtracted, exactly, so base holds
    (b s)^2 + W."""
    s = disc._offsets(n)
    h = s[1] - s[0]
    p = float(1.0 / h ** 2)
    kinetic = 2.0 / h ** 2 + (disc.b * s) ** 2
    base = np.empty((len(s), len(ks)))
    for i, k in enumerate(ks):
        if w_plus is not None:
            np.add(kinetic, w_plus, out=base[:, i])
        elif disc.w is not None:
            np.add(kinetic, disc.w.cell_average(float(k) / disc.b + s, h),
                   out=base[:, i])
        else:
            base[:, i] = kinetic
    base -= 2.0 * p
    return h, p, base


def _band_brackets(b: float, levels, h: float, w_lo: float, w_hi: float):
    """Start brackets of levels j of a fiber operator with w_lo <= W <= w_hi
    from band monotonicity, b(2j - 1) + w_lo <= E_j(k) <= b(2j - 1) + w_hi,
    widened by the h^2 slack of the difference Laplacian (isolate checks
    them and falls back to Gershgorin)."""
    landau = b * (2.0 * np.asarray(levels, dtype=float) - 1.0)
    slack = 0.25 * h * h * (landau + abs(w_hi)) ** 2 + 1e-9 * (1.0 + landau)
    return landau + w_lo - slack, landau + w_hi + slack


def _fiber_levels(disc: FiberDiscretization, ks, j_max: int, keep=None):
    """(energies (K, j_max), kept) of the lowest j_max levels at each
    momentum of ks: kept holds what the reducer keep (see
    tridiagonal.refine) returns for each n-grid unit eigenvector, and is
    None without one.

    On the n_half grid, Sturm-count bisection brackets every level alone,
    which fixes which level is which, and Rayleigh-quotient iteration by
    twisted factorizations converges inside the bracket (checked).  The
    n-grid iteration starts from those energies, moved by the h^2 shift
    of the difference Laplacian estimated from the coarse vectors'
    curvature sum (Delta^2 v)^2, which the coarse iteration takes lane by
    lane, so no coarse vector is kept; the coarse base is dropped before
    the fine solve.  Both grids' energies are gradient-form Rayleigh
    quotients, Richardson-extrapolated; an h^2 correction above
    _ENERGY_CONV_TOL raises ConvergenceFailure.  A fine-grid lane that
    converged to another level misses its seed by more than 3
    _ENERGY_CONV_TOL, unless levels lie closer than that
    (gap_condition only asks W_+ - W_- < 2b), where two lanes
    can land on each other's levels; the energies must therefore also
    increase strictly, which band_table's interlacing relies on.  A
    lane's result does not depend on the other momenta of ks.
    """
    from .tridiagonal import certified_levels, keep_curvature, refine
    if not 1 <= j_max <= disc.max_levels:
        raise ValueError("need 1 <= j_max <= n/10")
    ks = np.asarray(ks, dtype=float)
    levels = np.arange(1, j_max + 1)[None, :]
    bounds = ((0.0, 0.0) if disc.w is None
              else (disc.w.w_minus_limit, disc.w.w_plus_limit))
    h2, p2, base2 = _bases(disc, ks, disc.n_half)
    coarse, curv = certified_levels(
        base2, p2, levels, *_band_brackets(disc.b, levels, h2, *bounds),
        keep_curvature)
    del base2
    # the difference Laplacian lowers E by about h^2 |psi''|^2 / 12, so the
    # n grid lies 3/4 of the coarse shift higher
    seed = coarse + curv / (16.0 * h2 * h2)
    _, p, base = _bases(disc, ks)
    fine, kept = refine(base, p, seed, keep)
    rich, resid = _richardson(fine, coarse)
    bad = (resid > _ENERGY_CONV_TOL).any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ConvergenceFailure(
            f"h^2 correction {resid[i].max():.3e} above "
            f"{_ENERGY_CONV_TOL:g} at k={ks[i]}; refine the grid")
    if np.any(np.diff(rich, axis=1) <= 0):
        i = int(np.argmax(np.any(np.diff(rich, axis=1) <= 0, axis=1)))
        raise ConvergenceFailure(
            f"fiber levels out of order at k={ks[i]}; spectrum should be simple")
    return rich, kept


def solve_fiber(disc: FiberDiscretization, k, j_max: int, at=None):
    """(energies (K, j_max), values (K, j_max, n or len(at))) of the
    lowest j_max eigenpairs of the fiber operator at each momentum of k,
    a number (K = 1) or a sequence.

    Energies are Richardson-extrapolated over the (n, (n+1)//2) grid
    pair from Rayleigh quotients of twisted-factorization Rayleigh-quotient
    iteration, bracketed by bisection on the n_half grid (see
    _fiber_levels); the h^2 correction estimate must stay below
    _ENERGY_CONV_TOL (1e-3) or ConvergenceFailure is raised.  Eigenvectors
    are the n-grid ones, trapezoid-normalized, with the sign the iteration
    left them: the resolvent kernel sums psi psi^* over each pair, so no
    sign reaches a count.  A pair's values are the eigenvector on its
    grid, or, given points at, its linear interpolant there (zero off the
    window): each vector is reduced to them on the Rayleigh step where it
    converges (the reducer of tridiagonal.refine), so no batch of whole
    vectors is held.  A momentum's pairs are the same bits alone or in a
    batch, with or without at.
    """
    ks = np.atleast_1d(np.asarray(k, dtype=float))
    offsets = disc._offsets()
    weights = _trapezoid_weights(disc.n, offsets[1] - offsets[0])

    def reduce(v, ik, im):
        # (weights v) v, products taken in place; each sum runs pairwise
        # along one contiguous row, so a lane's bits do not depend on the
        # others
        work = weights * v
        work *= v
        v /= np.sqrt(work.sum(axis=1))[:, None]
        del work
        if at is None:
            return v
        # each vector on its own grid, k/b + offsets
        return np.array([np.interp(at, k / disc.b + offsets, row, left=0.0,
                                   right=0.0)
                         for k, row in zip(ks[ik].tolist(), v)])

    return _fiber_levels(disc, ks, j_max, reduce)


def gap_edges(b: float, w, j: int):
    """(upper edge of band j, lower edge of band j+1) = (b(2j-1)+W_+, b(2j+1)+W_-)."""
    if j < 1:
        raise ValueError("level j must be >= 1")
    w_minus, w_plus = (0.0, 0.0) if w is None else (w.w_minus_limit, w.w_plus_limit)
    if w is not None and not gap_condition(w, b):
        raise NoGap(f"W_+ - W_- = {w_plus - w_minus} >= 2b = {2 * b}")
    return (b * (2 * j - 1) + w_plus, b * (2 * j + 1) + w_minus)


def band_table(disc: FiberDiscretization, k_grid, j_max: int) -> np.ndarray:
    """Energies (j_max, len(k_grid)) of bands 1..j_max on k_grid, the
    same extrapolated and guarded values as solve_fiber's, bit for bit:
    the same batched bisection and Rayleigh-quotient iteration, which only
    skips keeping the eigenvectors.  At each k they increase strictly in
    j, which _fiber_levels checks."""
    return _fiber_levels(disc, np.asarray(k_grid, dtype=float), j_max)[0].T


def phi_squared(j: int, k: float, b: float, w: EdgePotential) -> float:
    """Phi_j(k)^2 = int (W_+ - W(x + k/b)) psi_tilde_{j,inf}(x)^2 dx.

    psi_tilde is the recentered limiting eigenfunction b^{1/4} phi_j(sqrt(b) x);
    Gauss panels split at the (shifted) potential breakpoints.  The
    integrand vanishes above the last jump c_max, and psi_tilde^2 is
    negligible beyond the reach R = 10/sqrt(b) of its centre, or of the
    first jump c_min when that lies left of it, so the panels cover
    [min(-R, c_min - R), min(R, c_max)].  -R stays a cut, so the panels
    inside [-R, R] are those of the plain window.
    """
    w_plus = w.w_plus_limit
    reach = 10.0 / math.sqrt(b)
    jumps = [c - k / b for c in w.breakpoints]
    start, stop = -reach, reach
    if jumps:
        start, stop = min(start, jumps[0] - reach), min(stop, jumps[-1])
    cuts = sorted({start, stop} | {c for c in jumps + [-reach]
                                   if start < c < stop})
    nodes, wts = gauss_legendre(_GAUSS_NODES)
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        panels = max(2, int(math.ceil((hi - lo) * math.sqrt(b))))
        edges = np.linspace(lo, hi, panels + 1)
        for a, c in zip(edges[:-1], edges[1:]):
            t = 0.5 * (a + c) + 0.5 * (c - a) * nodes
            vals = (w_plus - np.asarray(w(t + k / b), dtype=float)) \
                * psi_inf(j, 0.0, t, b) ** 2
            total += 0.5 * (c - a) * float(np.sum(wts * vals))
    return max(total, 0.0)


@dataclass(frozen=True)
class EdgeComparison:
    """Gap-edge data at one momentum from the same-grid twin operators.

    H_+ (constant W_+) and H_W share one grid, so H_+ = H_W + D exactly,
    with D = diag(W_+ - W).  gap_dist is E_j(k; W_+) - E_j(k; W),
    Richardson-extrapolated from the twin gaps on the n and n_half grids
    (the continuum gap distance up to a relative bias that is O(h^4) for
    a smooth W and O(h^2) at a jump, where it moves with the jump's
    position in its grid cell).  overlap
    c = <v_+, v_W>, defect 1 - c^2 and energy_w, the Rayleigh quotient
    of v_W, are the fine-grid values.  The trace-norm distance of the
    rank-one band projection from its limit is ||pi - pi_inf||_1 =
    2 sqrt(defect), taken from the defect itself (rebuilt from c it would
    vanish once the defect drops below machine epsilon, near k = 5.5 for
    the unit step), and scaled_distance is that distance over
    sqrt(gap_dist), 2 sqrt(defect / gap_dist).  All of them keep full
    relative accuracy in double precision far below one ulp of the edge
    energy.  Where the grid pair disagrees by more than _TWIN_CONV_TOL,
    edge_comparisons raises ConvergenceFailure instead of returning a
    gap.  For W = None the twins coincide: gap_dist, defect and
    scaled_distance are 0.
    """

    j: int
    k: float
    gap_dist: float
    overlap: float
    defect: float
    scaled_distance: float
    energy_w: float


# largest relative h^2 correction |g_n - g_half| / (3 g_n) of the twin gap
# that _twin_pair extrapolates.  Every twin comparison of the
# shipped-config commands needs at most 6.6e-3, while a jump on the wall,
# or one the grid does not resolve, gives O(1) and can flip the sign of
# the extrapolate
_TWIN_CONV_TOL = 0.1


@lru_cache(maxsize=64)
def _plus_twin(free: FiberDiscretization, n: int, w_plus: float, j: int):
    """(base, v, ln|v|, sign v, E) of level j of the constant-W_+ operator
    on the n-point grid of the free window (b, half_width): base is the
    _bases column with w_plus, the same at every momentum, so it is
    solved once.  v is unit-normalized and rebuilt from its log form,
    whose tails the twin identity sums.
    """
    from .tridiagonal import log_level
    h, p, base = _bases(free, (0.0,), n, w_plus)
    base = base[:, 0]
    energy, log_v, sign = log_level(
        base, p, j, *_band_brackets(free.b, j, h, w_plus, w_plus))
    v = sign * np.exp(log_v)
    for arr in (base, v, log_v, sign):
        arr.setflags(write=False)
    return base, v, log_v, sign, energy


@dataclass(frozen=True)
class _TwinLevels:
    """Level j of the W operators at momenta ks on one grid of a pair
    solved coarse first (_twin_pair), against the constant-W_+ twin
    `plus` (_plus_twin): per lane the pairwise-sum Rayleigh quotient
    `shift` of the unit eigenvector v_W of base[:, lane] (the shift its
    log form was built at), sign v_W, ln|D v_W| (-inf where D = W_+ - W
    vanishes), ln <v_+, D v_W> and the overlap c = <v_+, v_W> > 0, whose
    ratio is the twin gap.  vectors holds v_W where the solve kept it
    (None otherwise); the exact-sum energy of v_W is left to the callers
    that report it."""

    ks: np.ndarray
    p: float
    plus: tuple
    base: np.ndarray
    vectors: np.ndarray
    shift: np.ndarray
    sign_w: np.ndarray
    log_dw: np.ndarray
    log_s: np.ndarray
    overlap: np.ndarray

    @property
    def log_gap(self):
        return self.log_s - np.log(self.overlap)


def _twin_levels(disc: FiberDiscretization, j: int, ks, n: int, start,
                 keep) -> _TwinLevels:
    """_TwinLevels of the twin operators on the n-point grid of disc's
    window; keep is tridiagonal.refine's reducer, keep_vectors or None.

    H_W = H_+ - D with 0 <= min D <= D <= max D, so by Weyl level j of
    H_W lies in [E_+ - max D, E_+ - min D]; two Sturm counts certify that
    it lies there alone (else bisection isolates it).  Rayleigh-quotient
    iteration starts in that bracket, from E_+ - <v_+, D v_+> (the
    quotient of v_+), or from start = (shift, E_+) of the coarse twins
    moved by the W_+ grid shift E_+(n) - E_+, which the W level shares
    up to the small gap.  The quotient it ends on, a pairwise sum within
    a few ulps of the exact one, is the shift of the bracket check and
    of the log-form vector, so no lane pays for an exact sum; the gap
    and the overlap move only at rounding level with it.
    """
    from .tridiagonal import isolate, log_vectors, refine
    plus = _plus_twin(replace(disc, w=None), n, disc.w.w_plus_limit, j)
    base_p, v_plus, log_p, sign_p, e_plus = plus
    _, p, base = _bases(disc, ks, n)
    jump = np.ascontiguousarray((base_p[:, None] - base).T)  # D, exact
    on = jump > 0.0
    missing = ~on.any(axis=1)
    if missing.any():
        k = ks[int(np.argmax(missing))]
        raise ConvergenceFailure(
            f"W_+ - W vanishes on the whole fiber window at k={k}: "
            f"half_width {disc.half_width:g} misses the jump; widen it")
    pad = 1e-9 * (1.0 + abs(e_plus))
    lo, hi = isolate(base, p, j, (e_plus - jump.max(axis=1) - pad)[:, None],
                     (e_plus - jump.min(axis=1) + pad)[:, None])
    if start is None:
        seed = e_plus - (jump * v_plus * v_plus).sum(axis=1)
    else:
        seed = start[0] + (e_plus - start[1])
    shift, vecs = refine(base, p, np.clip(seed[:, None], lo, hi), keep)
    shift = shift[:, 0]
    if np.any((shift < lo[:, 0]) | (shift >= hi[:, 0])):
        raise ConvergenceFailure("a twin fiber level left its Weyl bracket")
    log_w, sign_w = log_vectors(base, p, shift)
    overlap = (sign_p * sign_w * np.exp(log_p + log_w)).sum(axis=1)
    sign_w *= np.where(overlap < 0.0, -1.0, 1.0)[:, None]
    # twin identity (E_+ - E_W) <v_+, v_W> = <v_+, D v_W>, summed in log
    # form over the tails where D > 0
    with np.errstate(divide="ignore"):
        log_dw = np.where(on, np.log(np.where(on, jump, 1.0)) + log_w, -np.inf)
    terms = log_dw + log_p
    top = terms.max(axis=1)
    total = (np.where(on, sign_w * sign_p, 0.0)
             * np.exp(terms - top[:, None])).sum(axis=1)
    if np.any(total <= 0.0):
        raise ConvergenceFailure("twin identity sum is not positive")
    return _TwinLevels(ks=ks, p=p, plus=plus, base=base,
                       vectors=None if vecs is None else vecs[:, 0],
                       shift=shift, sign_w=sign_w, log_dw=log_dw,
                       log_s=top + np.log(total), overlap=np.abs(overlap))


def _twin_pair(disc: FiberDiscretization, j: int, ks, keep):
    """(n-grid _TwinLevels, twin gaps) of level j at ks, coarse first:
    the n_half twins keep nothing, and only their gaps and shifts reach
    the n twins (_twin_levels), which keep what keep asks for, so the
    pair's working set is one grid's.  This is the one place twin gaps
    are extrapolated, (4 g_n - g_half)/3; an h^2 correction
    |g_n - g_half|/3 above _TWIN_CONV_TOL of g_n raises ConvergenceFailure.
    """
    ks = np.asarray(ks, dtype=float)
    coarse = _twin_levels(disc, j, ks, disc.n_half, None, None)
    coarse_gap, start = np.exp(coarse.log_gap), (coarse.shift, coarse.plus[4])
    del coarse
    fine = _twin_levels(disc, j, ks, disc.n, start, keep)
    fine_gap = np.exp(fine.log_gap)
    gap, corr = _richardson(fine_gap, coarse_gap)
    bad = corr > _TWIN_CONV_TOL * fine_gap
    if bad.any():
        i = int(np.argmax(bad))
        raise ConvergenceFailure(
            f"twin gap h^2 correction {corr[i] / fine_gap[i]:.3e} of the gap, "
            f"above {_TWIN_CONV_TOL:g}, at j={j}, k={ks[i]}; refine the grid")
    return fine, gap


def _twin_comparisons(tw: _TwinLevels, j: int) -> list:
    """EdgeComparisons of the twin levels tw, which kept their vectors,
    with the single-grid gap.  energy_w is the exact-sum Rayleigh
    quotient of the twin eigenvector, the one energy here that is
    reported, and the shift of the deflated solve."""
    from .tridiagonal import deflated_solve, rayleigh_quotient
    base_p, v_plus = tw.plus[0], tw.plus[1]
    out = []
    for i, k in enumerate(tw.ks.tolist()):
        energy = rayleigh_quotient(tw.base[:, i], tw.p, tw.vectors[i])
        # v_W = c v_+ + u with u orthogonal to v_+ solves the deflated
        # system (H_+ - E_W) u = D v_W - <v_+, D v_W> v_+, so 1 - c^2 = |u|^2;
        # the right side is scaled by its largest entry to stay in double range
        scale = float(tw.log_dw[i].max())
        rhs = (tw.sign_w[i] * np.exp(tw.log_dw[i] - scale)
               - math.exp(tw.log_s[i] - scale) * v_plus)
        u = deflated_solve(base_p, tw.p, energy, v_plus, rhs)
        log_defect = 2.0 * scale + math.log(float(np.sum(u * u)))
        defect = math.exp(log_defect)
        log_gap = float(tw.log_gap[i])
        out.append(EdgeComparison(
            j=j, k=k, gap_dist=math.exp(log_gap),
            overlap=math.exp(0.5 * math.log1p(-defect)), defect=defect,
            scaled_distance=2.0 * math.exp(0.5 * (log_defect - log_gap)),
            energy_w=energy))
    return out


def edge_comparisons(disc: FiberDiscretization, j: int, ks) -> list:
    """EdgeComparison at each momentum of ks, solved as one batch.

    The twins run coarse first, like band levels (_twin_pair): gap_dist
    is (4 g_n - g_half)/3 from the twin gaps on the n and n_half grids,
    and every other field is the value of the n-grid twins, the only ones
    that keep their vectors (for W = None, level j of the free fiber).  A
    momentum's comparison is the same bits alone, batched, repeated or in
    any order, and nothing is kept between calls.  Raises
    ConvergenceFailure when W = W_+ on the whole window (the jump lies
    beyond half_width), where the twin operators coincide although the
    continuum gap distance is positive, and when the h^2 correction
    |g_n - g_half|/3 exceeds _TWIN_CONV_TOL of g_n, where the grid does
    not resolve the eigenvector tails at the jump.
    """
    from .tridiagonal import keep_vectors
    ks = [float(k) for k in ks]
    if disc.w is None:
        energy = _plus_twin(disc, disc.n, 0.0, j)[4]
        return [EdgeComparison(j, k, 0.0, 1.0, 0.0, 0.0, energy) for k in ks]
    fine, gaps = _twin_pair(disc, j, ks, keep_vectors)
    # 2 sqrt(defect / gap) from the fine-grid value, which was formed in
    # log form and so survives a subnormal defect
    return [replace(c, gap_dist=float(g),
                    scaled_distance=c.scaled_distance * math.sqrt(c.gap_dist / g))
            for c, g in zip(_twin_comparisons(fine, j), gaps)]


def edge_comparison(disc: FiberDiscretization, j: int, k: float) -> EdgeComparison:
    """edge_comparisons at the single momentum k."""
    return edge_comparisons(disc, j, (k,))[0]


def _not_a_knot_slopes(h: float, y: np.ndarray) -> np.ndarray:
    """Node slopes of the not-a-knot cubic spline through y on nodes
    spaced h apart (at least four; de Boor, A Practical Guide to Splines,
    ch. IV).

    With secants d_i, C^2 continuity gives the interior rows
    s_{i-1} + 4 s_i + s_{i+1} = 3 (d_{i-1} + d_i); a continuous third
    derivative at the second and the second-to-last node gives the end
    rows s_0 + 2 s_1 = (5 d_0 + d_1)/2 and its mirror.  One Thomas sweep
    solves it without pivoting: the pivots run 1, 2, 3.5, ... up to
    2 + sqrt(3), and the last is about 1 - 2/(2 + sqrt(3)) = 0.46.
    """
    d = (np.diff(y) / h).tolist()
    n = len(y)
    rhs = ([0.5 * (5.0 * d[0] + d[1])]
           + [3.0 * (a + b) for a, b in zip(d[:-1], d[1:])]
           + [0.5 * (d[-2] + 5.0 * d[-1])])
    sub = [1.0] * (n - 2) + [2.0]    # row i + 1, column i
    sup = [2.0] + [1.0] * (n - 2)    # row i, column i + 1
    piv = [1.0] + [4.0] * (n - 2) + [1.0]
    for i in range(1, n):
        fact = sub[i - 1] / piv[i - 1]
        piv[i] -= fact * sup[i - 1]
        rhs[i] -= fact * rhs[i - 1]
    s = [0.0] * n
    s[-1] = rhs[-1] / piv[-1]
    for i in range(n - 2, -1, -1):
        s[i] = (rhs[i] - sup[i] * s[i + 1]) / piv[i]
    return np.array(s)


class GapModel:
    """Cached spline model of the edge distance g_j(k) = E_j^+ - E_j(k).

    One batched coarse-to-fine twin pair (_twin_pair, which keeps no
    vectors) gives every node edge_comparisons' gap_dist, the twin gap
    extrapolated over the (n, n_half) grid pair, with the same relative
    accuracy at every depth, including far below one ulp of the edge
    energy where no difference of energies resolves it.  For a jump of W
    that accuracy is O(h^2), and ln g jitters in k on the scale of one
    grid cell (over four cells at k = 4 on the reference window it
    departs from a parabola by 1.6e-3), which the spline through the
    nodes cannot follow.  A node whose h^2 correction
    exceeds the twin guard raises ConvergenceFailure.  A not-a-knot cubic
    on the uniform nodes interpolates ln g (slowly varying:
    asymptotically a parabola in k), and weight(k, lam) = (g + lam)^{-1/2}
    is the resolvent-type factor used in kernel assembly.
    """

    def __init__(self, b: float, w: EdgePotential, j: int,
                 k_lo: float, k_hi: float, n: int = 2001,
                 half_width: float = None):
        self.b, self.w, self.j = b, w, j
        self.k_lo, self.k_hi = float(k_lo), float(k_hi)
        self.disc = FiberDiscretization(b=b, w=w, n=n, half_width=half_width)
        if w is None:
            self._slopes = None
            return
        count = max(4, int(math.ceil((self.k_hi - self.k_lo)
                                     / (0.5 * math.sqrt(b)))) + 1)
        nodes = np.linspace(self.k_lo, self.k_hi, count)
        self._step = (self.k_hi - self.k_lo) / (count - 1)
        self._log_gap = np.log(_twin_pair(self.disc, j, nodes, None)[1])
        self._slopes = _not_a_knot_slopes(self._step, self._log_gap)

    def gap(self, k):
        """Edge distance at momentum k (vectorized)."""
        k = np.asarray(k, dtype=float)
        if self._slopes is None:
            return np.zeros_like(k)
        if not np.all((k >= self.k_lo) & (k <= self.k_hi)):
            raise ValueError(
                f"momentum outside the modeled range [{self.k_lo}, {self.k_hi}]")
        # cubic Hermite form on the cell [k_i, k_i + step] holding k
        u = (k - self.k_lo) / self._step
        i = np.clip(np.floor(u).astype(int), 0, len(self._log_gap) - 2)
        t = u - i
        y0, y1 = self._log_gap[i], self._log_gap[i + 1]
        s0, s1 = self._step * self._slopes[i], self._step * self._slopes[i + 1]
        log_g = (y0 + t * (s0 + t * (3.0 * (y1 - y0) - 2.0 * s0 - s1
                                     + t * (2.0 * (y0 - y1) + s0 + s1))))
        return np.exp(log_g)

    def weight(self, k, lam: float):
        """(g_j(k) + lam)^{-1/2}, the kernel weight at gap depth lam."""
        if lam <= 0:
            raise ValueError("lam must lie strictly inside the gap (lam > 0)")
        return 1.0 / np.sqrt(self.gap(k) + lam)


def step_tail_asymptote(j: int, k: float, b: float, w: EdgePotential) -> float:
    """Closed-form large-k asymptote of Phi_j(k)^2 for a sharp step,

        4^{j-1} ((w_+ - w_-)/2) p_j k^{2j-3} exp(-(k/sqrt(b) - sqrt(b) x0)^2),

    the square of the leading eigenfunction tail integrated against the
    step; the 4^{j-1} carries the squared leading Hermite coefficient.
    Every factor but the jump is summed as a logarithm, because p_j,
    4^{j-1} and k^{2j-3} leave the double range for high levels.  Where
    the sum itself does, the value is its limit: +-inf for k^{-1} at a
    subnormal k (j = 1), 0 once the Gaussian exponent passes 1e308.
    """
    if w is None or w.kind != "step":
        raise WrongPotentialKind("closed-form tail asymptote requires a sharp step")
    shift = min(abs(k / math.sqrt(b) - math.sqrt(b) * w.x0), 1e154)
    log_tail = ((j - 1) * math.log(4.0) + log_p_coeff(j, b)
                + (2 * j - 3) * math.log(abs(k)) - shift ** 2)
    try:
        tail = math.exp(log_tail)
    except OverflowError:
        tail = math.inf
    # k^{2j-3} is an odd power and keeps the sign of k
    return math.copysign(0.5, k) * (w.w_plus_limit - w.w_minus_limit) * tail
