"""Spectral-side operators built on the symmetrized expansion.

All operators act on coefficient vectors.  Three mode conventions are
supported through the ``parity`` argument:

* ``"full"``: coefficients against the symmetrized basis Phi_n on (-pi, pi),
  eigenvalues lam_{<n>} with <n> = floor((n+1)/2);
* ``"even"``: coefficients against the half-line family P_n, eigenvalues
  lam_n;
* ``"odd"``: coefficients against the half-line family (1/2) sin(theta)
  P_n^{(alpha+1,beta+1)}, eigenvalues lam_{n+1}.

Both half-line families are orthonormal in L^2 of the restricted measure.
``restricted=True`` multiplies by the factor 1/2 the half-kernel produces
when integrated against the restricted measure; it is only meaningful for
the half-line parities.  Modes with eigenvalue zero (the constant in the
critical case) are annihilated by every operator that divides by the
spectrum; this is the pointwise limit of the defining integrals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gammaln

from .basis import mode_eigenvalues, mode_table
from .core import JacobiParams
from .kernels import L2TWeighted, SupOverT
from .quadrature import composite_gauss

_PARITIES = ("full", "even", "odd")
# the time-sampled operators sweep their time grid in blocks of rows whose
# (rows, points) values take about this many bytes
BLOCK_BYTES = 1 << 20


def _check_parity(parity: str, restricted: bool) -> None:
    if parity not in _PARITIES:
        raise ValueError(f"parity must be one of {_PARITIES}, got {parity!r}")
    if restricted and parity == "full":
        raise ValueError("the restricted factor applies to half-line parities only")


def reduce_symmetrized(coeffs) -> tuple[np.ndarray, np.ndarray]:
    """Split full-basis coefficients into the two half-line families.

    Phi_{2k} = P_k / sqrt(2) and Phi_{2k+1} is 1/sqrt(2) times the odd
    half-line mode, so both reductions divide by sqrt(2).
    """
    c = np.asarray(coeffs, dtype=float)
    return c[0::2] / np.sqrt(2.0), c[1::2] / np.sqrt(2.0)


def combine_symmetrized(even_coeffs, odd_coeffs) -> np.ndarray:
    """Inverse of reduce_symmetrized."""
    a = np.asarray(even_coeffs, dtype=float)
    b = np.asarray(odd_coeffs, dtype=float)
    c = np.zeros(a.size + b.size)
    c[0 : 2 * a.size : 2] = np.sqrt(2.0) * a
    c[1 : 2 * b.size + 1 : 2] = np.sqrt(2.0) * b
    return c


def semigroup_apply(
    params: JacobiParams,
    t: float,
    coeffs,
    parity: str = "full",
    restricted: bool = False,
) -> np.ndarray:
    """Coefficients of the subordinated semigroup at time t."""
    _check_parity(parity, restricted)
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    c = np.asarray(coeffs, dtype=float)
    lam = mode_eigenvalues(params, c.size, parity)
    # a zero eigenvalue (the critical line) keeps its mode at every t; at
    # t = inf the product -t * 0 is nan, so that mode is set explicitly
    with np.errstate(invalid="ignore"):
        decay = np.where(lam > 0, np.exp(-t * np.sqrt(lam)), 1.0)
    out = c * decay
    return 0.5 * out if restricted else out


def maximal_apply(
    params: JacobiParams,
    coeffs,
    theta,
    spec: SupOverT | None = None,
    parity: str = "full",
    restricted: bool = False,
) -> np.ndarray:
    """Pointwise maximal function sup_t |semigroup f|, the sup taken over the
    SupOverT log-spaced time grid.

    The time grid is swept in blocks of rows (see _time_blocks): each block
    builds its decay rows exp(-t sqrt(lam)) c, multiplies them by the mode
    table and folds their absolute values into a running maximum, so beyond
    the (modes, points) table the sweep holds about BLOCK_BYTES of values,
    never a (times, points) grid."""
    _check_parity(parity, restricted)
    if spec is None:
        spec = SupOverT()
    c = np.asarray(coeffs, dtype=float)
    theta = np.asarray(theta, dtype=float)
    root = np.sqrt(mode_eigenvalues(params, c.size, parity))
    table = mode_table(params, c.size, theta.ravel(), parity)
    times = spec.grid()
    out = np.zeros(theta.size)
    for rows in _time_blocks(times.size, theta.size):
        decay = np.outer(-times[rows], root)
        np.exp(decay, out=decay)
        decay *= c
        vals = decay @ table
        np.maximum(out, np.abs(vals, out=vals).max(axis=0), out=out)
    out = out.reshape(theta.shape)
    return 0.5 * out if restricted else out


def _time_blocks(n_times: int, n_points: int) -> list:
    """Slices of a time grid whose (rows, points) float64 values take about
    BLOCK_BYTES each.  A block is a whole number of 24-row tiles (24 is a
    common multiple of the row tiles of the usual dgemm kernels, 8 and 12) and
    never a single row (a one-row product takes BLAS's matrix-vector path),
    so that each block's product rounds as the same rows of one whole-grid
    product do."""
    rows = 24 * max(1, BLOCK_BYTES // (8 * 24 * n_points))
    edges = list(range(0, n_times, rows)) + [n_times]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return [slice(i, j) for i, j in zip(edges[:-1], edges[1:])]


def riesz_apply(
    params: JacobiParams,
    coeffs,
    parity: str = "full",
    restricted: bool = False,
    order: int = 1,
) -> np.ndarray:
    """Riesz transform of the given order: `order` lowerings composed with
    the matching inverse power of the operator.

    Under "full" the lowering is the first-order part of the symmetrized
    operator, which moves even modes down and odd modes up with alternating
    sign.  Under "even" the output of one lowering lives in the odd family
    (one slot shorter); under "odd" it lives in the even family (one slot
    longer).  Repeated lowerings bounce inside an eigenvalue pair, so even
    orders are diagonal and odd orders take one net step, with the magnitude
    collapsing to ((lam - lam0)/lam)^{order/2}.  The diagonal sign at even
    orders is (-1)^{order/2} under "full" (the first-order operator squares
    to the negative gap) and +1 under the half-line parities (the adjoint
    pairing squares to the positive gap).  Zero modes of the spectrum are
    annihilated.
    """
    _check_parity(parity, restricted)
    if order < 1:
        raise ValueError(f"order must be a positive integer, got {order}")
    c = np.asarray(coeffs, dtype=float)
    lam = mode_eigenvalues(params, c.size, parity)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(lam > 0.0, (lam - params.lam0) / lam, 0.0) ** (order / 2.0)
    amp = (0.5 if restricted else 1.0) * ratio * c
    if parity == "full":
        if order % 2 == 0:
            return (-1.0) ** (order // 2) * amp
        sign = (-1.0) ** ((order - 1) // 2)
        out = np.zeros(c.size + 1)
        even_src = np.arange(2, c.size, 2)
        out[even_src - 1] -= sign * amp[even_src]
        odd_src = np.arange(1, c.size, 2)
        out[odd_src + 1] += sign * amp[odd_src]
        return out
    if parity == "even":
        if order % 2 == 0:
            return amp
        # delta P_n lands on the odd mode n-1 with a minus sign
        return -amp[1:]
    if order % 2 == 0:
        return amp
    # delta* on the odd mode n lands on P_{n+1} with a minus sign
    out = np.zeros(c.size + 1)
    out[1:] = -amp
    return out


def gfun_bound(M: int, N: int, restricted: bool = False) -> float:
    """Supremum of the squared mode factor: Gamma(2M+2N) / 2^{2M+2N},
    quartered in the restricted convention."""
    if M < 0 or N < 0 or M + N < 1:
        raise ValueError("square function needs M, N >= 0 with M + N >= 1")
    w = 2 * (M + N)
    out = np.exp(gammaln(w) - w * np.log(2.0))
    return 0.25 * out if restricted else out


def gfun_mode_factors(
    params: JacobiParams,
    n_modes: int,
    M: int,
    N: int,
    parity: str = "full",
    restricted: bool = False,
) -> np.ndarray:
    """Exact squared g-function output per unit-coefficient mode.

    The time integral of t^{2(M+N)-1} e^{-2t sqrt(lam)} is
    Gamma(2M+2N) / (2 sqrt(lam))^{2M+2N}; the lowering contributes
    (lam - lam0)^N and each time derivative lam^{1/2}, so the powers of
    lam collapse to the gap ratio alone.
    """
    _check_parity(parity, restricted)
    if M < 0 or N < 0 or M + N < 1:
        raise ValueError("square function needs M, N >= 0 with M + N >= 1")
    lam = mode_eigenvalues(params, n_modes, parity)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(lam > 0.0, (lam - params.lam0) / lam, 0.0)
    out = gfun_bound(M, N, restricted) * ratio**N
    if params.critical:
        out[lam == 0.0] = 0.0
    return out


def gfun_norm(
    params: JacobiParams,
    coeffs,
    M: int,
    N: int,
    parity: str = "full",
    restricted: bool = False,
) -> float:
    """Norm of the square function of a band-limited input, exactly."""
    c = np.asarray(coeffs, dtype=float)
    gam = gfun_mode_factors(params, c.size, M, N, parity, restricted)
    return float(np.sqrt(np.sum(gam * c**2)))


def _gfun_profiles(params, lam, M, N, t, restricted):
    """Signed time profile of each mode under M time derivatives and N
    lowerings, excluding the target mode function."""
    root = np.sqrt(lam)
    gap = np.maximum(lam - params.lam0, 0.0)
    half, odd = divmod(N, 2)
    amp = (-root) ** M * gap**half * np.exp(-np.outer(t, root))
    if odd:
        amp = amp * (-np.sqrt(gap))
    return 0.5 * amp if restricted else amp


def gfun_apply(
    params: JacobiParams,
    coeffs,
    M: int,
    N: int,
    theta,
    parity: str = "full",
    restricted: bool = False,
) -> np.ndarray:
    """Pointwise square function g(f)(theta) for band-limited f.

    Integrates |t^{M+N} d_t^M delta_N (semigroup f)|^2 dt/t over the
    weighted time grid.  The L^2 norm of the result against the measure of
    the chosen parity agrees with gfun_norm.

    The time grid is swept in blocks of rows (see _time_blocks), and each
    block's weighted squares are added to the running integral one time row
    at a time, in grid order, so beyond the mode table the sweep holds about
    BLOCK_BYTES of values, never a (times, points) grid.
    """
    _check_parity(parity, restricted)
    if M < 0 or N < 0 or M + N < 1:
        raise ValueError("square function needs M, N >= 0 with M + N >= 1")
    c = np.asarray(coeffs, dtype=float)
    theta = np.asarray(theta, dtype=float)
    lam = mode_eigenvalues(params, c.size, parity)
    alive = lam > 0.0
    if not np.any(alive & (c != 0.0)):
        return np.zeros(theta.shape)
    spec = L2TWeighted(m=M, n=N, lam_min=float(np.min(lam[alive])))
    t, wt = spec.grid()
    points = theta.ravel()
    # the mode functions that the leftover lowering (odd N) lands on, one
    # table row per coefficient slot, and the profile columns it multiplies
    cols, coef = slice(None), c
    if N % 2 == 0:
        table = mode_table(params, c.size, points, parity)
    elif parity == "full":
        # the lowering walks even modes down and odd modes up with alternating
        # sign: slot n lands on n - (-1)^n, so adjacent rows 2k - 1, 2k swap
        # places; mode zero has gap zero and contributes nothing.  The sign
        # is exact, so it may ride on the coefficients
        coef = c * (-1.0) ** np.arange(c.size)
        table = mode_table(params, c.size + 1, points, parity)
        for n in range(1, c.size, 2):
            table[[n, n + 1]] = table[[n + 1, n]]
        table = table[: c.size]
    elif parity == "even":
        # targets are the odd family shifted down by one; mode 0 dies
        table = mode_table(params, c.size - 1, points, "odd")
        cols = slice(1, None)
    else:
        # targets are the even family shifted up by one
        table = mode_table(params, c.size + 1, points, "even")[1:]
    acc = np.zeros(points.size)
    for rows in _time_blocks(t.size, points.size):
        prof = _gfun_profiles(params, lam, M, N, t[rows], restricted)
        prof *= coef
        vals = prof[:, cols] @ table
        vals *= vals
        vals *= wt[rows, None]
        for row in vals:
            acc += row
    return np.sqrt(acc).reshape(theta.shape)


@dataclass(frozen=True)
class LaplaceMultiplier:
    """Spectral multiplier m(z) = integral of z e^{-tz} phi(t) dt with phi
    bounded; |m| is then bounded by sup |phi|.  Breakpoints mark
    discontinuities of phi so panels never straddle them."""

    phi: Callable[[np.ndarray], np.ndarray]
    bound: float | None = None
    breakpoints: tuple[float, ...] = ()
    u_max: float = 45.0
    nodes_per_panel: int = 12

    def evaluate(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        out = np.zeros(z.shape)
        for idx in np.ndindex(z.shape):
            out[idx] = self._one(float(z[idx]))
        return out if out.shape else float(out)

    def _one(self, z: float) -> float:
        if z < 0:
            raise ValueError(f"spectral argument must be nonnegative, got {z}")
        if z == 0.0:
            return 0.0
        # substitute u = t z: m = integral e^{-u} phi(u/z) du on (0, u_max)
        edges = set(np.arange(0.0, self.u_max + 1.0))
        edges.update(z * b for b in self.breakpoints if 0.0 < z * b < self.u_max)
        u, wq = composite_gauss(sorted(edges), self.nodes_per_panel)
        return float(np.sum(wq * np.exp(-u) * self.phi(u / z)))


@dataclass(frozen=True)
class AtomicMultiplier:
    """Laplace-Stieltjes multiplier m(z) = sum of c_j e^{-t_j z} over finitely
    many atoms; a single unit atom reproduces the semigroup exactly."""

    times: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        c = np.asarray(self.weights, dtype=float)
        if t.shape != c.shape or t.ndim != 1:
            raise ValueError("atoms need matching one-dimensional times and weights")
        if np.any(t < 0):
            raise ValueError("atom times must be nonnegative")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "weights", c)

    @property
    def bound(self) -> float:
        return float(np.sum(np.abs(self.weights)))

    def evaluate(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        return np.exp(-np.multiply.outer(z, self.times)) @ self.weights


def fractional_atoms(s_max: float = 6.0, panel_width: float = 0.25, nodes: int = 8) -> AtomicMultiplier:
    """Atomic representation of z^{-1/2} through t = s^2:

    z^{-1/2} = (2/sqrt(pi)) integral e^{-s^2 z} ds over (0, inf),

    discretized by composite Gauss on (0, s_max).  Accurate to roughly
    e^{-s_max^2 z} for z of order one."""
    n_panels = int(np.ceil(s_max / panel_width))
    s, ws = composite_gauss(np.linspace(0.0, s_max, n_panels + 1), nodes)
    return AtomicMultiplier(times=s**2, weights=2.0 * ws / np.sqrt(np.pi))


def multiplier_apply(
    params: JacobiParams,
    mult,
    coeffs,
    parity: str = "full",
) -> np.ndarray:
    """Multiply each coefficient by m evaluated at the square root of its
    eigenvalue."""
    _check_parity(parity, restricted=False)
    c = np.asarray(coeffs, dtype=float)
    lam = mode_eigenvalues(params, c.size, parity)
    return c * mult.evaluate(np.sqrt(lam))
