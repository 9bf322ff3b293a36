"""Fiber operators h(k) = -d^2/dx^2 + (bx - k)^2 + W(x) and their bands.

Second-order finite differences with Dirichlet walls on a moving window
centered at x = k/b, where the eigenfunctions concentrate.  Energies are
Richardson-extrapolated from a full- and half-resolution solve of the
same window (h^4 accuracy).  Bisection runs on the half-resolution grid
only, where it fixes which level is which; its eigenvalues seed inverse
iteration on the full grid, whose eigenvectors give the full-grid
energies as Rayleigh quotients.  The window is built from offsets
s = x - k/b that do not depend on k, so an operator whose potential is
constant is the same matrix at every momentum.

Near a band edge the gap distance dies like a Gaussian in k and falls
below double-precision resolution of the edge value.  It is therefore
never formed as a difference of energies.  The operator with W and the
same-grid operator with the constant W_+ differ by D = diag(W_+ - W)
exactly, so their eigenpairs obey the twin identity

    (E_+ - E_W) <v_+, v_W> = <v_+, D v_W>,

whose right side sums the eigenvector tails where W < W_+.  Those tails
are rebuilt in log form from a ratio recurrence run from the Dirichlet
wall, in the direction where they grow (the componentwise accuracy
behind twisted factorizations, Dhillon & Parlett, LAA 387, 2004), so the
tiny difference keeps full relative accuracy in double precision.  The
eigenvector overlap defect 1 - <v_+, v_W>^2 comes from one deflated
solve with the same right side.  The twin gap is Richardson-extrapolated
over the same grid pair as the energies, so every gap distance the
package reads, from the Phi_j(k)^2 ratio checks to the resolvent
weights of GapModel, is the one h^4-accurate number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import ConvergenceFailure, NoGap, WrongPotentialKind
from .oscillator import log_p_coeff, psi_inf
from .potentials import EdgePotential, gap_condition

_GAUSS_NODES = 24


@dataclass(frozen=True)
class FiberDiscretization:
    """Finite-difference window for the fiber operators.

    Domain is [k/b - half_width, k/b + half_width] with n grid points
    and Dirichlet walls; w is None for the free (Landau) fiber.
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

    def grid(self, k: float, n: int = None) -> np.ndarray:
        return k / self.b + self._offsets(n)

    def tridiagonal(self, k: float, n: int = None, w_override=None):
        """(x, diag, offdiag, h) of the discretized fiber operator.

        Built on the offsets s: x = k/b + s, h = s[1] - s[0] and
        diag = 2/h^2 + (b s)^2 + W, so only the potential samples depend
        on k.  w_override replaces them (used for the constant-W_+
        comparison operator on the identical grid, which is then the same
        matrix, bit for bit, at every k).
        """
        s = self._offsets(n)
        x = k / self.b + s
        h = s[1] - s[0]
        pot = np.zeros_like(x)
        if w_override is not None:
            pot += w_override
        elif self.w is not None:
            pot = np.asarray(self.w.cell_average(x, h), dtype=float)
        diag = 2.0 / h ** 2 + (self.b * s) ** 2 + pot
        off = np.full(len(x) - 1, -1.0 / h ** 2)
        return x, diag, off, h


@dataclass(frozen=True)
class FiberEigenpair:
    j: int
    k: float
    energy: float
    values: np.ndarray
    overlap_with_limit: float


def _richardson(fine, coarse):
    """(h^4 extrapolate, h^2 correction) of a quantity with an h^2-leading
    error, from its values on the n and n_half grids of one window."""
    return (4.0 * fine - coarse) / 3.0, abs(fine - coarse) / 3.0


def _trapezoid_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


# largest h^2 correction |E_n - E_half|/3 of an energy that solve_fiber
# and band_table extrapolate
_ENERGY_CONV_TOL = 1e-3


def _rayleigh_quotients(diag, p, vecs) -> np.ndarray:
    """Column-wise _rayleigh_quotient of vecs (n x m), the same gradient
    form terms summed by einsum: every term is nonnegative where the
    potential is, so the sums keep a relative accuracy of about n eps."""
    grad = np.diff(vecs, axis=0, prepend=0.0, append=0.0)
    num = (p * np.einsum("ij,ij->j", grad, grad)
           + np.einsum("i,ij,ij->j", diag - 2.0 * p, vecs, vecs))
    return num / np.einsum("ij,ij->j", vecs, vecs)


def _fiber_levels(disc: FiberDiscretization, k: float, j_max: int,
                  conv_tol: float):
    """(x, h, energies, eigenvectors) of the lowest j_max levels at k.

    Bisection on the n_half grid finds its lowest j_max eigenvalues and so
    fixes which level is which.  They seed one inverse iteration (LAPACK
    stein) for the n-grid eigenvectors, whose Rayleigh quotients are the
    n-grid energies.  The energies are those Richardson-extrapolated with
    the n_half ones; an h^2 correction above conv_tol raises
    ConvergenceFailure.  The guard rejects a vector that converged to
    another level whenever it misses its seed by more than 3 conv_tol;
    levels may lie closer than that (gap_condition only asks
    W_+ - W_- < 2b), and there stein can return two vectors swapped, each
    near its seed.  The energies are then out of order, so they must
    also increase strictly, which band_table's interlacing relies on.
    """
    from scipy.linalg import eigh_tridiagonal
    from scipy.linalg.lapack import dstein
    if not 1 <= j_max <= disc.max_levels:
        raise ValueError("need 1 <= j_max <= n/10")
    _, diag2, off2, _ = disc.tridiagonal(k, n=disc.n_half)
    evals_half = eigh_tridiagonal(diag2, off2, eigvals_only=True, select="i",
                                  select_range=(0, j_max - 1))
    x, diag, off, h = disc.tridiagonal(k)
    n = disc.n
    # one unreduced block: the first j_max seeds belong to block 1
    iblock = np.zeros(n, dtype=np.int32)
    iblock[:j_max] = 1
    isplit = np.zeros(n, dtype=np.int32)
    isplit[0] = n
    evecs, info = dstein(diag, off, evals_half, iblock, isplit)
    if info != 0:
        raise ConvergenceFailure(
            f"inverse iteration failed (stein info {info}) at k={k}")
    evals = _rayleigh_quotients(diag, -float(off[0]), evecs)
    rich, resid = _richardson(evals, evals_half)
    if np.any(resid > conv_tol):
        raise ConvergenceFailure(
            f"h^2 correction {resid.max():.3e} above {conv_tol:g} at k={k}; refine the grid")
    if np.any(np.diff(rich) <= 0):
        raise ConvergenceFailure(
            f"fiber levels out of order at k={k}; spectrum should be simple")
    return x, h, rich, evecs


def solve_fiber(disc: FiberDiscretization, k: float, j_max: int,
                conv_tol: float = _ENERGY_CONV_TOL):
    """Lowest j_max eigenpairs of the fiber operator at momentum k.

    Energies are Richardson-extrapolated over the (n, (n+1)//2) grid
    pair from bisection on the n_half grid and inverse iteration on the
    n grid (see _fiber_levels); the h^2 correction estimate must stay
    below conv_tol or ConvergenceFailure is raised.  Eigenvectors are the
    n-grid ones, trapezoid-normalized with sign fixed by a nonnegative
    overlap with the limiting eigenfunction.
    """
    x, h, rich, evecs = _fiber_levels(disc, k, j_max, conv_tol)
    weights = _trapezoid_weights(disc.n, h)
    pairs = []
    for idx in range(j_max):
        vec = evecs[:, idx]
        vec = vec / math.sqrt(float(np.sum(weights * vec * vec)))
        limit = psi_inf(idx + 1, k, x, disc.b)
        c = float(np.sum(weights * vec * limit))
        if c < 0:
            vec, c = -vec, -c
        pairs.append(FiberEigenpair(j=idx + 1, k=k, energy=float(rich[idx]),
                                    values=vec, overlap_with_limit=min(c, 1.0)))
    return pairs


def gap_edges(b: float, w, j: int):
    """(upper edge of band j, lower edge of band j+1) = (b(2j-1)+W_+, b(2j+1)+W_-)."""
    if j < 1:
        raise ValueError("level j must be >= 1")
    w_minus, w_plus = (0.0, 0.0) if w is None else (w.w_minus_limit, w.w_plus_limit)
    if w is not None and not gap_condition(w, b):
        raise NoGap(f"W_+ - W_- = {w_plus - w_minus} >= 2b = {2 * b}")
    return (b * (2 * j - 1) + w_plus, b * (2 * j + 1) + w_minus)


@dataclass(frozen=True)
class BandTable:
    k_grid: np.ndarray
    energies: np.ndarray  # shape (j_max, len(k_grid))
    edges: tuple  # gap_edges(b, w, j) for j = 1..j_max


def band_table(disc: FiberDiscretization, k_grid, j_max: int) -> BandTable:
    """Energies of bands 1..j_max on k_grid, the same extrapolated and
    guarded values as solve_fiber's, bit for bit.  They come from the
    same path, eigenvectors included: one inverse iteration on the n grid
    costs less than a second bisection would.  At each k they increase
    strictly in j, which _fiber_levels checks."""
    k_grid = np.asarray(k_grid, dtype=float)
    energies = np.empty((j_max, len(k_grid)))
    for i, k in enumerate(k_grid.tolist()):
        energies[:, i] = _fiber_levels(disc, k, j_max, _ENERGY_CONV_TOL)[2]
    edges = tuple(gap_edges(disc.b, disc.w, j) for j in range(1, j_max + 1))
    return BandTable(k_grid=k_grid, energies=energies, edges=edges)


def _split_points(w: EdgePotential):
    if w is None:
        return ()
    if w.kind == "step":
        return (w.x0,)
    if w.kind == "two_step_upper":
        return (-w.delta,)
    if w.kind == "piecewise_constant":
        return w.breakpoints
    return ()


def phi_squared(j: int, k: float, b: float, w: EdgePotential) -> float:
    """Phi_j(k)^2 = int (W_+ - W(x + k/b)) psi_tilde_{j,inf}(x)^2 dx.

    psi_tilde is the recentered limiting eigenfunction b^{1/4} phi_j(sqrt(b) x);
    Gauss panels split at the (shifted) potential breakpoints.
    """
    w_plus = w.w_plus_limit
    reach = 10.0 / math.sqrt(b)
    cuts = sorted({-reach, reach} | {c - k / b for c in _split_points(w)
                                     if -reach < c - k / b < reach})
    nodes, wts = np.polynomial.legendre.leggauss(_GAUSS_NODES)
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
    (the continuum gap distance up to an O(h^4) relative bias).  overlap
    c = <v_+, v_W>, defect 1 - c^2 and energy_w, the Rayleigh quotient
    of v_W, are the fine-grid values; scaled_distance is
    2 sqrt(defect / gap_dist).  All of them keep full relative accuracy
    in double precision far below one ulp of the edge energy.  Where the
    grid pair disagrees by more than _TWIN_CONV_TOL, edge_comparison
    raises ConvergenceFailure instead of returning a gap.
    """

    j: int
    k: float
    gap_dist: float
    overlap: float
    defect: float
    scaled_distance: float
    energy_w: float


# largest relative h^2 correction |g_n - g_half| / (3 g_n) of the twin gap
# that edge_comparison extrapolates.  Every twin comparison of the
# shipped-config commands needs at most 6.6e-3, while a jump on the wall,
# or one where the eigensolver's tails have stalled, gives O(1) and can
# flip the sign of the extrapolate
_TWIN_CONV_TOL = 0.1

# tails are rebuilt below this fraction of the eigenvector's maximum: the
# eigensolver bounds the error of its components absolutely, and on wide
# windows its tails do stall at a floor (near 1e-46 of the maximum)
_ANCHOR_REL = 1e-3


def _rayleigh_quotient(diag, p, v) -> float:
    """v.T T v / v.T v for T = tridiag(-p, diag, -p) with Dirichlet walls.

    Gradient form, p sum (v_{i+1} - v_i)^2 + sum (diag_i - 2p) v_i^2 with
    zero walls, never forms the O(p) terms that cancel, so it keeps full
    relative accuracy (exact sums keep it within an ulp); the
    eigensolver's own value is ~1e-12 off.
    """
    grad = np.diff(np.concatenate(([0.0], v, [0.0])))
    terms = np.concatenate((p * grad * grad, (diag - 2.0 * p) * v * v))
    return math.fsum(terms.tolist()) / math.fsum((v * v).tolist())


def _left_tail_logs(diag, p, energy, v):
    """(a, ln|v[:a]|) for an eigenvector of tridiag(-p, diag, -p).

    The ratios r_i = v_{i+1}/v_i obey r_0 = (diag_0 - energy)/p and
    r_i = (diag_i - energy)/p - 1/r_{i-1} from the Dirichlet wall.  Run
    as q = r - 1, q_i = delta_i + q_{i-1}/(1 + q_{i-1}) with
    delta_i = (diag_i - 2p - energy)/p, it adds positive terms wherever
    the operator lies above the energy: v grows away from the wall, the
    stable direction, and ln r is accurate to a few ulps.  It runs up to
    the first index a where |v| reaches _ANCHOR_REL of its maximum or
    the region stops being classically forbidden, anchored to v[a].
    """
    delta = (diag - 2.0 * p - energy) / p
    big = np.abs(v) >= _ANCHOR_REL * np.abs(v).max()
    a = int(min(np.argmax(big), np.argmax(delta <= 0.0)))
    q = np.empty(a)
    carry = 1.0  # q_{-1}/(1 + q_{-1}) at the wall, where q_{-1} is infinite
    for i, d in enumerate(delta[:a].tolist()):
        q[i] = d + carry
        carry = q[i] / (1.0 + q[i])
    return a, math.log(abs(v[a])) - np.cumsum(np.log1p(q)[::-1])[::-1]


def _log_eigenvector(diag, p, energy, v):
    """(ln|v|, sign v), unit-normalized, with both tails in log form."""
    n = len(v)
    with np.errstate(divide="ignore"):
        log_v = np.log(np.abs(v))
    sign = np.sign(v)
    a, left = _left_tail_logs(diag, p, energy, v)
    log_v[:a], sign[:a] = left, sign[a]
    a, right = _left_tail_logs(diag[::-1], p, energy, v[::-1])
    log_v[n - a:], sign[n - a:] = right[::-1], sign[n - 1 - a]
    top = log_v.max()
    log_v -= top + 0.5 * math.log(float(np.sum(np.exp(2.0 * (log_v - top)))))
    return log_v, sign


def _log_signed_sum(log_terms, signs) -> float:
    top = log_terms.max()
    return top + math.log(float(np.sum(signs * np.exp(log_terms - top))))


def _deflated_solve(diag, off, shift, v, rhs):
    """u with (T - shift) u = rhs and v.T u = 0, T = tridiag(off, diag, off).

    T - shift may be singular to every digit along its eigenvector v,
    and rhs is orthogonal to v.  Row and column m of the largest |v_m|
    (the twist index of a twisted factorization) are set aside; the rest
    of T - shift is a tridiagonal B, well conditioned because v_m is
    large.  Then u = B^-1 rhs - u_m B^-1 a_m off index m, with a_m the
    rest of column m, and v.T u = 0 fixes u_m.
    """
    from scipy.linalg import solve_banded
    n = len(diag)
    m = int(np.argmax(np.abs(v)))
    rest = np.arange(n) != m
    link = np.concatenate((off[:m - 1], [0.0], off[m + 1:]))
    ab = np.zeros((3, n - 1))
    ab[0, 1:], ab[1], ab[2, :-1] = link, (diag - shift)[rest], link
    sides = np.zeros((n - 1, 2))
    sides[:, 0] = rhs[rest]
    sides[m - 1:m + 1, 1] = off[m - 1:m + 1]  # a_m
    y, z = solve_banded((1, 1), ab, sides).T
    u_m = -(v[rest] @ y) / (v[m] - v[rest] @ z)
    return np.insert(y - u_m * z, m, u_m)


@lru_cache(maxsize=64)
def _plus_twin(free: FiberDiscretization, n: int, w_plus: float, j: int):
    """(diag, v, ln|v|, sign v) of level j of the constant-W_+ operator on
    the n-point grid of the free window (b, half_width): the same matrix
    at every momentum, so it is solved once.  v is unit-normalized and
    rebuilt from its log form, whose tails the twin identity sums.
    """
    from scipy.linalg import eigh_tridiagonal
    _, diag, off, _ = free.tridiagonal(0.0, n, w_override=w_plus)
    p = -float(off[0])
    _, vec = eigh_tridiagonal(diag, off, select="i", select_range=(j - 1, j - 1))
    vec = vec[:, 0]
    log_v, sign = _log_eigenvector(diag, p, _rayleigh_quotient(diag, p, vec), vec)
    v = sign * np.exp(log_v)
    for arr in (diag, v, log_v, sign):
        arr.setflags(write=False)
    return diag, v, log_v, sign


def _twin_comparison(disc: FiberDiscretization, j: int, k: float,
                     n: int = None) -> EdgeComparison:
    """EdgeComparison of the twin operators on the n-point grid of the
    window of disc (default disc.n), with the single-grid gap."""
    from scipy.linalg import eigh_tridiagonal
    w = disc.w
    _, diag_w, off, _ = disc.tridiagonal(k, n)
    p = -float(off[0])
    _, vec_w = eigh_tridiagonal(diag_w, off, select="i", select_range=(j - 1, j - 1))
    vec_w = vec_w[:, 0]
    energy_w = _rayleigh_quotient(diag_w, p, vec_w)
    if w is None:
        return EdgeComparison(j=j, k=k, gap_dist=0.0, overlap=1.0, defect=0.0,
                              scaled_distance=0.0, energy_w=energy_w)
    diag_p, v_plus, log_p, sign_p = _plus_twin(
        replace(disc, w=None), len(diag_w), w.w_plus_limit, j)
    jump = diag_p - diag_w  # D, exact: both diagonals share every other term
    on = jump > 0.0
    if not on.any():
        raise ConvergenceFailure(
            f"W_+ - W vanishes on the whole fiber window at k={k}: "
            f"half_width {disc.half_width:g} misses the jump; widen it")
    if vec_w @ v_plus < 0.0:
        vec_w = -vec_w
    log_w, sign_w = _log_eigenvector(diag_w, p, energy_w, vec_w)
    # twin identity (E_+ - E_W) <v_+, v_W> = <v_+, D v_W>
    log_dw = np.log(jump[on]) + log_w[on]
    log_s = _log_signed_sum(log_dw + log_p[on], sign_w[on] * sign_p[on])
    # v_W = c v_+ + u with u orthogonal to v_+ solves the deflated system
    # (H_+ - E_W) u = D v_W - <v_+, D v_W> v_+, so 1 - c^2 = |u|^2; the
    # right side is scaled by its largest entry to stay in double range
    scale = float(log_dw.max())
    rhs = -math.exp(log_s - scale) * v_plus
    rhs[on] += sign_w[on] * np.exp(log_dw - scale)
    u = _deflated_solve(diag_p, off, energy_w, v_plus, rhs)
    log_defect = 2.0 * scale + math.log(float(u @ u))
    defect = math.exp(log_defect)
    log_c = 0.5 * math.log1p(-defect)
    log_gap = log_s - log_c
    gap = math.exp(log_gap)
    scaled = 2.0 * math.exp(0.5 * (log_defect - log_gap))
    return EdgeComparison(j=j, k=k, gap_dist=gap, overlap=math.exp(log_c),
                          defect=defect, scaled_distance=scaled,
                          energy_w=energy_w)


@lru_cache(maxsize=256)
def edge_comparison(disc: FiberDiscretization, j: int, k: float) -> EdgeComparison:
    """Gap distance and projection overlap against the same-grid limit operator.

    gap_dist is (4 g_n - g_half)/3 from the twin gaps on the n and n_half
    grids; every other field is the fine-grid value.  Raises
    ConvergenceFailure when W = W_+ on the whole window (the jump lies
    beyond half_width), where the twin operators coincide although the
    continuum gap distance is positive, and when the h^2 correction
    |g_n - g_half|/3 exceeds _TWIN_CONV_TOL of g_n, where the grid does
    not resolve the eigenvector tails at the jump.
    """
    fine = _twin_comparison(disc, j, k)
    if disc.w is None:
        return fine
    coarse = _twin_comparison(disc, j, k, disc.n_half)
    gap, corr = _richardson(fine.gap_dist, coarse.gap_dist)
    if corr > _TWIN_CONV_TOL * fine.gap_dist:
        raise ConvergenceFailure(
            f"twin gap h^2 correction {corr / fine.gap_dist:.3e} of the gap, "
            f"above {_TWIN_CONV_TOL:g}, at j={j}, k={k}; refine the grid")
    # 2 sqrt(defect / gap) from the fine-grid value, which was formed in
    # log form and so survives a subnormal defect
    scaled = fine.scaled_distance * math.sqrt(fine.gap_dist / gap)
    return replace(fine, gap_dist=gap, scaled_distance=scaled)


def gap_distance(disc: FiberDiscretization, j: int, k: float) -> float:
    """E_j^+ edge distance of band j at momentum k, exact far below 1 ulp
    of the edge value."""
    return edge_comparison(disc, j, k).gap_dist


def trace_norm_distance(c: float) -> float:
    """||P - Q||_1 = 2 sqrt(1 - c^2) for rank-one projections with
    |<p, q>| = c; exact, no operator discretization involved."""
    c = abs(c)
    if c > 1.0:
        raise ValueError("overlap magnitude cannot exceed 1")
    return 2.0 * math.sqrt((1.0 - c) * (1.0 + c))


def projection_distance(j: int, k: float, disc: FiberDiscretization) -> float:
    """Trace-norm distance of the rank-one band projection from its limit.

    The limit projection is discretized as the same-grid constant-W_+
    operator, so the distance is exactly 0 when W vanishes.  It is
    2 sqrt(1 - c^2), taken from the overlap defect 1 - c^2 itself:
    rebuilt from the overlap c, it would vanish as soon as the defect
    drops below machine epsilon (near k = 5.5 for the unit step).
    """
    if disc.w is None:
        return 0.0
    return 2.0 * math.sqrt(edge_comparison(disc, j, k).defect)


def _not_a_knot_slopes(h: float, y: np.ndarray) -> np.ndarray:
    """Node slopes of the not-a-knot cubic spline through y on nodes
    spaced h apart (at least four; de Boor, A Practical Guide to Splines,
    ch. IV).

    With secants d_i, C^2 continuity gives the interior rows
    s_{i-1} + 4 s_i + s_{i+1} = 3 (d_{i-1} + d_i); a continuous third
    derivative at the second and the second-to-last node gives the end
    rows s_0 + 2 s_1 = (5 d_0 + d_1)/2 and its mirror.
    """
    from scipy.linalg import solve_banded
    d = np.diff(y) / h
    ab = np.zeros((3, len(y)))
    ab[0, 1], ab[0, 2:] = 2.0, 1.0
    ab[1], ab[1, [0, -1]] = 4.0, 1.0
    ab[2, :-2], ab[2, -2] = 1.0, 2.0
    rhs = np.empty(len(y))
    rhs[1:-1] = 3.0 * (d[:-1] + d[1:])
    rhs[0] = 0.5 * (5.0 * d[0] + d[1])
    rhs[-1] = 0.5 * (d[-2] + 5.0 * d[-1])
    return solve_banded((1, 1), ab, rhs)


class GapModel:
    """Cached spline model of the edge distance g_j(k) = E_j^+ - E_j(k).

    Every node takes its value from edge_comparison, the twin gap
    extrapolated over the (n, n_half) grid pair, so g is h^4-accurate at
    every depth, including far below one ulp of the edge energy where no
    difference of energies resolves it; a node whose h^2 correction
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
        self._log_gap = np.log([edge_comparison(self.disc, j, float(k)).gap_dist
                                for k in nodes])
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


def verify_tep2(j: int, disc: FiberDiscretization, k_list):
    """Ratios (E_j^+ - E_j(k)) / Phi_j(k)^2 on the window of disc,
    expected -> 1 from above."""
    return [edge_comparison(disc, j, float(k)).gap_dist
            / phi_squared(j, float(k), disc.b, disc.w) for k in k_list]


def verify_teth1(j: int, disc: FiberDiscretization, k_list):
    """Scaled projection distances (E_j^+ - E_j(k))^{-1/2} ||pi - pi_inf||_1
    on the window of disc.

    Expected to decay to 0 along increasing k; identically 0 for W = None
    by the documented convention.
    """
    if disc.w is None:
        return [0.0 for _ in k_list]
    return [edge_comparison(disc, j, float(k)).scaled_distance for k in k_list]


def step_tail_asymptote(j: int, k: float, b: float, w: EdgePotential) -> float:
    """Closed-form large-k asymptote of Phi_j(k)^2 for a sharp step,

        4^{j-1} ((w_+ - w_-)/2) p_j k^{2j-3} exp(-(k/sqrt(b) - sqrt(b) x0)^2),

    the square of the leading eigenfunction tail integrated against the
    step; the 4^{j-1} carries the squared leading Hermite coefficient.
    Every factor but the jump is summed as a logarithm, because p_j,
    4^{j-1} and k^{2j-3} leave the double range for high levels.
    """
    if w is None or w.kind != "step":
        raise WrongPotentialKind("closed-form tail asymptote requires a sharp step")
    log_tail = ((j - 1) * math.log(4.0) + log_p_coeff(j, b)
                + (2 * j - 3) * math.log(abs(k))
                - (k / math.sqrt(b) - math.sqrt(b) * w.x0) ** 2)
    # k^{2j-3} is an odd power and keeps the sign of k
    return (math.copysign(0.5, k) * (w.w_plus_limit - w.w_minus_limit)
            * math.exp(log_tail))


def verify_lau25(j: int, b: float, w: EdgePotential, k_list):
    """Ratios of Phi_j(k)^2 to step_tail_asymptote, expected -> 1."""
    out = []
    for k in k_list:
        k = float(k)
        asym = step_tail_asymptote(j, k, b, w)
        out.append(phi_squared(j, k, b, w) / asym)
    return out
